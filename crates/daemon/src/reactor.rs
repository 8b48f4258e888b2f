//! The epoll session reactor: every TCP session multiplexed onto one
//! event-loop thread. It is `wbd`'s only session backend, so `wbd` runs on
//! Linux only.
//!
//! Each session is a nonblocking state machine: a read buffer with
//! incremental line framing, a dispatch step through [`crate::dispatch`],
//! and a write queue with backpressure. A session has at most one parked
//! [`PendingOp`]; requests pipelined behind it wait in the read buffer, so
//! per-session reply order is the request order by construction.
//!
//! **No per-line copy.** Socket reads land directly in the session's
//! read buffer, the newline search looks at eight bytes per step, and a
//! request line is handed to the dispatcher as a `&str` borrowed from
//! that buffer: it is converted lossily (invalid sequences become U+FFFD)
//! only when it is not valid UTF-8, so a well-formed line is never
//! copied. Replies are serialized into one reused buffer and appended to
//! the session's write queue.
//!
//! **Wakeups.** Handlers never block the loop: when a request hits inbox
//! backpressure or needs quiescence, it registers a
//! [`Waiter`](crate::tenant::Waiter) carrying the session's token and
//! returns. Pool workers complete the condition
//! and poke the [`WakeHub`] — a token list plus a self-pipe whose read end
//! is registered in epoll — and the loop resumes the op. Tokens carry a
//! generation so a wakeup for a closed (possibly reused) session slot is
//! ignored.
//!
//! **Bounded submits.** The pool queue is bounded and blocking submission
//! would stall every session, so the reactor uses
//! `WorkerPool::try_submit`; a full queue defers the drain job to a retry
//! list flushed every loop tick (and flushed blockingly before the loop
//! exits, so the no-loss drain invariant survives).
//!
//! The syscall surface is three `extern "C"` declarations plus a pipe —
//! no new dependencies.

use crate::dispatch::{self, Outcome, PendingOp, Resumed, SessionCtx};
use crate::json::Json;
use crate::proto::{ErrorKind, ProtoError};
use crate::server::Shared;
use crate::tenant::{TenantSlot, WakeSink};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw epoll/pipe syscall surface (std-only: direct libc symbol imports).
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    /// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
    /// other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Thin safe wrapper over one epoll instance.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; a negative return is
        // handled below, so `Poller` only ever owns a valid fd.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid out `epoll_event` for the
        // whole call (the kernel only reads it), and `self.epfd` is the
        // epoll fd this `Poller` owns. A bad `fd` is an `EBADF` error, not
        // undefined behaviour.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, events)
    }

    fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness, retrying on EINTR. Fills `events` and returns
    /// the ready count.
    fn wait(&self, events: &mut Vec<sys::EpollEvent>, timeout_ms: i32) -> usize {
        events.clear();
        events.reserve(1);
        let cap = events.capacity().min(i32::MAX as usize);
        loop {
            // SAFETY: `events.as_mut_ptr()` points at an allocation of
            // `events.capacity()` elements and `cap` never exceeds it, so
            // the kernel writes at most `cap` events inside the buffer.
            let rc =
                unsafe { sys::epoll_wait(self.epfd, events.as_mut_ptr(), cap as i32, timeout_ms) };
            if rc >= 0 {
                // SAFETY: the kernel initialised exactly the first `rc`
                // events, and returns at most `maxevents`, so
                // `rc <= cap <= events.capacity()`.
                unsafe { events.set_len(rc as usize) };
                return rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                panic!("epoll_wait failed: {err}");
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the `Poller` owns `epfd` (nothing else closes it), and
        // this is its only `close`.
        let _ = unsafe { sys::close(self.epfd) };
    }
}

/// The reactor's wakeup sink: pool workers push the tokens of sessions
/// whose blocking condition changed, then poke a nonblocking self-pipe so
/// the sleeping `epoll_wait` returns. A full pipe is fine — a wakeup is
/// already pending and the token list carries the payload.
pub struct WakeHub {
    tokens: Mutex<Vec<u64>>,
    pipe_r: RawFd,
    pipe_w: RawFd,
}

impl WakeHub {
    fn new() -> io::Result<Arc<WakeHub>> {
        let mut fds = [0i32; 2];
        // SAFETY: `pipe2` writes exactly two `c_int`s, and `fds` is a live
        // two-element `i32` array.
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(WakeHub {
            tokens: Mutex::new(Vec::new()),
            pipe_r: fds[0],
            pipe_w: fds[1],
        }))
    }

    fn take_tokens(&self) -> Vec<u64> {
        std::mem::take(&mut *crate::lock(&self.tokens))
    }

    fn drain_pipe(&self) {
        let mut buf = [0u8; 256];
        loop {
            // SAFETY: the kernel writes at most `buf.len()` bytes into the
            // live local `buf`; `pipe_r` is the hub's own read end.
            let n = unsafe { sys::read(self.pipe_r, buf.as_mut_ptr().cast(), buf.len()) };
            if n < buf.len() as isize {
                return;
            }
        }
    }
}

impl WakeSink for WakeHub {
    fn wake(&self, token: u64) {
        crate::lock(&self.tokens).push(token);
        let byte = 1u8;
        // EAGAIN (pipe full) means a wakeup is already queued; any other
        // failure only costs latency — the loop's timeout re-checks.
        // SAFETY: the pointer is to the live local `byte` and the length
        // is 1, so the kernel reads exactly that byte; `pipe_w` is the
        // hub's own write end, open until the hub drops.
        let _ = unsafe { sys::write(self.pipe_w, (&byte as *const u8).cast(), 1) };
    }
}

impl Drop for WakeHub {
    fn drop(&mut self) {
        // SAFETY: the hub owns both pipe ends (nothing else closes them),
        // and this is their only `close`.
        unsafe {
            let _ = sys::close(self.pipe_r);
            let _ = sys::close(self.pipe_w);
        }
    }
}

/// Shares its value with [`WAKE_ONLY`](crate::tenant::WAKE_ONLY): neither
/// resolves to a session.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
/// Session tokens start here; the low 32 bits are `slab index + BASE`,
/// the high 32 bits the slot generation.
const TOKEN_BASE: u64 = 2;

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | (idx as u64 + TOKEN_BASE)
}

/// Maximum request-line size. Generous — an ingest batch of ~400k
/// turnstile updates still fits — but bounded, so one newline-less client
/// cannot grow a session buffer without limit.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Per-pump read budget. Level-triggered epoll re-delivers readiness, so
/// capping one session's read keeps the loop fair without losing data.
const READ_BUDGET: usize = 256 * 1024;

/// The least free space a read is offered: below it the read buffer
/// moves its unconsumed tail to the front, or grows.
const MIN_READ: usize = 16 * 1024;

/// Write-queue high-water mark: above this backlog the session stops
/// dispatching (and reading), so a client that pipelines requests but
/// never reads replies stalls its own socket instead of growing daemon
/// memory.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// How long a drain-idle session stays registered before it is reaped. A
/// stop-and-wait client that reads the `shutdown` reply and then sends
/// `bye` needs this window; without it the reply-then-send round trip
/// races the close and the client sees a broken pipe.
const DRAIN_GRACE: Duration = Duration::from_millis(200);

/// A session's read buffer with incremental line framing.
///
/// `buf` is initialised storage that only grows: `buf[start..end]` holds
/// received, unconsumed bytes, and `buf[start..scan]` is known to hold no
/// newline, so no byte is scanned twice. Reads land directly in
/// `buf[end..]`. A line is handed out as a range of `buf`; its bytes stay
/// where they are until the next [`LineBuf::fill`], which is also the only
/// place that moves an unconsumed tail to the front.
#[derive(Default)]
struct LineBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    scan: usize,
}

impl LineBuf {
    fn buffered(&self) -> usize {
        self.end - self.start
    }

    fn has_full_line(&self) -> bool {
        find_newline(&self.buf[self.scan..self.end]).is_some()
    }

    /// Read from `src` until it would block, a read comes back short, or
    /// about `budget` bytes have arrived. A short read means the socket
    /// was drained; the caller's epoll is level-triggered, so anything that
    /// arrives later is reported again rather than asked for with one more
    /// `read` that would fail with `EAGAIN`. Returns `true` at EOF.
    fn fill(&mut self, src: &mut impl Read, budget: usize) -> io::Result<bool> {
        let mut budget = budget;
        while budget > 0 {
            self.make_room();
            let room = &mut self.buf[self.end..];
            let offered = room.len();
            match src.read(room) {
                Ok(0) => return Ok(true),
                Ok(k) => {
                    self.end += k;
                    budget = budget.saturating_sub(k);
                    if k < offered {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Leave at least [`MIN_READ`] free bytes after `end`: first by moving
    /// the unconsumed tail (usually part of one line) to the front, then
    /// by doubling. Zero-filling happens only when the buffer grows.
    fn make_room(&mut self) {
        if self.buf.len() - self.end >= MIN_READ {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scan -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < MIN_READ {
            let len = (2 * self.buf.len()).max(self.end + MIN_READ);
            self.buf.resize(len, 0);
        }
    }

    /// The next complete line as a range of `buf`, newline and one
    /// trailing `\r` excluded; `None` until a newline arrives.
    fn next_line(&mut self) -> Option<Range<usize>> {
        let Some(rel) = find_newline(&self.buf[self.scan..self.end]) else {
            self.scan = self.end;
            return None;
        };
        let newline = self.scan + rel;
        let mut end = newline;
        if end > self.start && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        let line = self.start..end;
        if newline + 1 == self.end {
            // Everything is consumed: the next read starts at the front.
            (self.start, self.end, self.scan) = (0, 0, 0);
        } else {
            (self.start, self.scan) = (newline + 1, newline + 1);
        }
        Some(line)
    }
}

/// A request line as text: borrowed when it is valid UTF-8, else a lossy
/// copy with U+FFFD for each invalid sequence.
fn line_text(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// Index of the first `\n` in `bytes`, eight bytes per step: a byte of
/// `word ^ NEWLINES` is zero exactly where `word` holds a newline, and
/// `(x - 0x01…) & !x & 0x80…` marks the lowest zero byte of `x` exactly
/// (a borrow can only mark bytes above it).
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = ONES << 7;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NEWLINES;
        let hit = x.wrapping_sub(ONES) & !x & HIGHS;
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| base + i)
}

/// One nonblocking session state machine.
struct Session {
    stream: TcpStream,
    token: u64,
    gen: u32,
    /// Received bytes, framed into request lines.
    rx: LineBuf,
    /// Write queue; `wpos` is the flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The one parked op; requests behind it wait in `rx`.
    pending: Option<PendingOp>,
    /// Close once the write queue flushes (`bye`, oversized line).
    closing: bool,
    /// Peer closed its write half.
    eof: bool,
    /// Currently registered epoll interest.
    interest: u32,
    /// When the session first went idle under a drain; reset by any
    /// dispatched request. [`Reactor::close_idle`] reaps the session once
    /// this is [`DRAIN_GRACE`] old.
    drain_idle_since: Option<Instant>,
}

impl Session {
    fn new(stream: TcpStream, token: u64, gen: u32) -> Session {
        Session {
            stream,
            token,
            gen,
            rx: LineBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: None,
            closing: false,
            eof: false,
            interest: sys::EPOLLIN | sys::EPOLLRDHUP,
            drain_idle_since: None,
        }
    }

    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn buffered(&self) -> usize {
        self.rx.buffered()
    }

    /// Pull socket bytes into the read buffer until `WouldBlock`, a short
    /// read, EOF, or the fairness budget.
    fn fill(&mut self) -> io::Result<()> {
        if !self.eof && self.rx.fill(&mut self.stream, READ_BUDGET)? {
            self.eof = true;
        }
        Ok(())
    }

    /// Flush the write queue until `WouldBlock` or empty.
    fn flush(&mut self, shared: &Shared) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => {
                    self.wpos += k;
                    shared
                        .reactor
                        .write_queue_bytes
                        .fetch_sub(k as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    shared.reactor.write_stalls.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    fn desired_interest(&self) -> u32 {
        let mut ev = 0;
        if self.pending.is_none() && !self.closing && !self.eof && self.backlog() < WRITE_HIGH_WATER
        {
            ev |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.backlog() > 0 {
            ev |= sys::EPOLLOUT;
        }
        ev
    }
}

/// Create the epoll instance and wakeup hub. Called by
/// [`crate::Server::start`] so setup failures surface there, not inside
/// the reactor thread.
pub fn init() -> io::Result<(Poller, Arc<WakeHub>)> {
    Ok((Poller::new()?, WakeHub::new()?))
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    hub: Arc<WakeHub>,
    /// `hub` as the sink parked sessions register with.
    sink: Arc<dyn WakeSink>,
    sessions: Vec<Option<Session>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    /// Tenant drain jobs the bounded pool queue refused; retried every
    /// tick and flushed blockingly before the loop exits.
    deferred: VecDeque<Arc<TenantSlot>>,
    /// Reused serialization buffer for one reply line.
    reply_line: String,
}

/// Run the reactor until the daemon drains and every session closes.
pub fn run(shared: Arc<Shared>, listener: TcpListener, poller: Poller, hub: Arc<WakeHub>) {
    let listener_fd = listener.as_raw_fd();
    if let Err(e) = poller.add(listener_fd, TOKEN_LISTENER, sys::EPOLLIN) {
        eprintln!("wbd: reactor could not register the listener: {e}");
        return;
    }
    if let Err(e) = poller.add(hub.pipe_r, TOKEN_WAKE, sys::EPOLLIN) {
        eprintln!("wbd: reactor could not register the wake pipe: {e}");
        return;
    }
    let mut r = Reactor {
        shared,
        poller,
        sink: Arc::clone(&hub) as Arc<dyn WakeSink>,
        hub,
        sessions: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        live: 0,
        deferred: VecDeque::new(),
        reply_line: String::new(),
    };
    let mut events: Vec<sys::EpollEvent> = Vec::with_capacity(256);
    let mut accepting = true;
    loop {
        let draining = r.shared.draining.load(Ordering::SeqCst);
        if draining && accepting {
            let _ = r.poller.delete(listener_fd);
            accepting = false;
        }
        if draining && r.live == 0 {
            break;
        }
        r.flush_deferred();
        // Short timeout while drain jobs wait on pool space; otherwise a
        // lazy tick that bounds drain-notice latency.
        let timeout = if r.deferred.is_empty() { 200 } else { 5 };
        let n = r.poller.wait(&mut events, timeout);
        r.shared
            .reactor
            .ready_events
            .fetch_add(n as u64, Ordering::Relaxed);
        for e in events.iter().take(n) {
            // Copy out of the (packed) event before touching `r`.
            let (evs, token) = (e.events, e.data);
            match token {
                TOKEN_LISTENER => {
                    if accepting {
                        r.accept_ready(&listener);
                    }
                }
                TOKEN_WAKE => r.hub.drain_pipe(),
                token => r.pump_event(token, evs),
            }
        }
        let tokens = r.hub.take_tokens();
        r.shared
            .reactor
            .wakeups
            .fetch_add(tokens.len() as u64, Ordering::Relaxed);
        for token in tokens {
            r.pump_wake(token);
        }
        if draining {
            r.close_idle();
        }
    }
    // No sessions remain, but refused drain jobs may: hand every one to
    // the pool (blocking is fine now) so `Server::wait`'s `pool.drain()`
    // sees the full obligation — the no-loss invariant.
    r.flush_deferred_blocking();
}

impl Reactor {
    fn resolve(&self, token: u64) -> Option<usize> {
        let low = (token & 0xffff_ffff) as usize;
        if (low as u64) < TOKEN_BASE {
            return None;
        }
        let idx = low - TOKEN_BASE as usize;
        let gen = (token >> 32) as u32;
        match self.sessions.get(idx) {
            Some(Some(sess)) if sess.gen == gen => Some(idx),
            _ => None,
        }
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.sessions.push(None);
                self.gens.push(0);
                self.sessions.len() - 1
            }
        };
        let gen = self.gens[idx];
        let token = token_of(idx, gen);
        let sess = Session::new(stream, token, gen);
        if self
            .poller
            .add(sess.stream.as_raw_fd(), token, sess.interest)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.live += 1;
        let stats = &self.shared.reactor;
        stats.registered.fetch_add(1, Ordering::Relaxed);
        stats
            .sessions_peak
            .fetch_max(self.live as u64, Ordering::Relaxed);
        self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.shared.sessions_active.fetch_add(1, Ordering::Relaxed);
        self.sessions[idx] = Some(sess);
    }

    fn pump_event(&mut self, token: u64, _events: u32) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        let mut sess = self.sessions[idx].take().expect("resolved");
        let mut dead = false;
        if sess.pending.is_none() && !sess.closing && sess.fill().is_err() {
            dead = true;
        }
        if !dead {
            dead = self.advance(&mut sess);
        }
        if dead {
            self.finish_session(idx, sess);
        } else {
            self.sessions[idx] = Some(sess);
        }
    }

    fn pump_wake(&mut self, token: u64) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        let mut sess = self.sessions[idx].take().expect("resolved");
        let mut dead = false;
        if let Some(op) = sess.pending.take() {
            let mut ctx = SessionCtx {
                sink: &self.sink,
                token: sess.token,
                deferred: &mut self.deferred,
            };
            match dispatch::resume(&self.shared, &mut ctx, op) {
                Resumed::Done(reply) => {
                    self.queue_reply(&mut sess, &reply);
                    dead = self.advance(&mut sess);
                }
                Resumed::Still(op) => sess.pending = Some(op),
            }
        }
        if dead {
            self.finish_session(idx, sess);
        } else {
            self.sessions[idx] = Some(sess);
        }
    }

    /// Dispatch buffered lines, flush writes, refresh epoll interest, and
    /// decide whether the session closes now.
    fn advance(&mut self, sess: &mut Session) -> bool {
        loop {
            while sess.pending.is_none() && !sess.closing && sess.backlog() < WRITE_HIGH_WATER {
                match sess.rx.next_line() {
                    Some(range) => {
                        let line = line_text(&sess.rx.buf[range]);
                        if line.trim().is_empty() {
                            continue;
                        }
                        self.shared.requests.fetch_add(1, Ordering::Relaxed);
                        sess.drain_idle_since = None;
                        let mut ctx = SessionCtx {
                            sink: &self.sink,
                            token: sess.token,
                            deferred: &mut self.deferred,
                        };
                        match dispatch::handle_line(&self.shared, &mut ctx, &line) {
                            Outcome::Reply { reply, end } => {
                                self.queue_reply(sess, &reply);
                                if end {
                                    sess.closing = true;
                                }
                            }
                            Outcome::Pending(op) => {
                                self.shared
                                    .reactor
                                    .pending_ops
                                    .fetch_add(1, Ordering::Relaxed);
                                sess.pending = Some(op);
                            }
                        }
                    }
                    None => {
                        if sess.buffered() > MAX_LINE_BYTES {
                            // One unbounded line must not exhaust daemon
                            // memory: a typed refusal, then close — the
                            // buffer no longer frames requests.
                            self.shared.requests.fetch_add(1, Ordering::Relaxed);
                            let reply = ProtoError::new(
                                ErrorKind::BadRequest,
                                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                            );
                            self.queue_reply(sess, &reply.to_json());
                            sess.closing = true;
                        }
                        break;
                    }
                }
            }
            if sess.flush(&self.shared).is_err() {
                return true;
            }
            let flushed = sess.backlog() == 0;
            if sess.closing {
                return flushed && sess.pending.is_none();
            }
            if sess.eof && sess.pending.is_none() && !sess.rx.has_full_line() {
                // EOF: every complete buffered line has been served; a
                // trailing partial one is discarded. Unflushed replies are
                // written best-effort (the peer may only have closed its
                // write half).
                return true;
            }
            if self.shared.draining.load(Ordering::SeqCst)
                && sess.pending.is_none()
                && sess.buffered() == 0
                && flushed
            {
                // EPOLLIN is off while an op is parked, so a pipelined request
                // (typically a trailing `bye`) may already sit unread in the
                // kernel buffer: one nonblocking fill serves it before the
                // session counts as idle.
                if sess.eof || sess.fill().is_err() {
                    return true;
                }
                if sess.buffered() > 0 {
                    continue;
                }
                // Truly idle: stay registered (EPOLLIN re-armed below) so a
                // stop-and-wait client's trailing request still lands;
                // `close_idle` reaps the session after DRAIN_GRACE.
                if sess.drain_idle_since.is_none() {
                    sess.drain_idle_since = Some(Instant::now());
                }
            }
            let want = sess.desired_interest();
            if want != sess.interest
                && self
                    .poller
                    .modify(sess.stream.as_raw_fd(), sess.token, want)
                    .is_ok()
            {
                sess.interest = want;
            }
            return false;
        }
    }

    fn queue_reply(&mut self, sess: &mut Session, reply: &Json) {
        if reply.get("ok") == Some(&Json::Bool(false)) {
            self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
        let out = &mut self.reply_line;
        out.clear();
        reply.write(out);
        out.push('\n');
        sess.wbuf.extend_from_slice(out.as_bytes());
        self.shared
            .reactor
            .write_queue_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
    }

    /// Tear a session down. A parked ingest's chunks are handed to its
    /// tenant without waiting ([`dispatch::abandon`]) — the batch was
    /// admitted, so they are owed even though nobody reads the reply;
    /// parked reads are simply dropped.
    fn finish_session(&mut self, idx: usize, sess: Session) {
        let _ = self.poller.delete(sess.stream.as_raw_fd());
        let backlog = sess.backlog() as u64;
        if backlog > 0 {
            self.shared
                .reactor
                .write_queue_bytes
                .fetch_sub(backlog, Ordering::Relaxed);
        }
        if let Some(op) = sess.pending {
            dispatch::abandon(&self.shared, &mut self.deferred, op);
        }
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.shared
            .reactor
            .registered
            .fetch_sub(1, Ordering::Relaxed);
        self.shared.sessions_closed.fetch_add(1, Ordering::Relaxed);
        self.shared.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drain sweep: close sessions that have been fully idle (no parked
    /// op, no buffered bytes, flushed) for [`DRAIN_GRACE`]. The grace
    /// window keeps EPOLLIN armed, so a stop-and-wait client
    /// that reads the `shutdown` reply and only then sends `bye` is
    /// served instead of hitting a closed socket.
    fn close_idle(&mut self) {
        for idx in 0..self.sessions.len() {
            let idle = match &self.sessions[idx] {
                Some(s) => s.pending.is_none() && s.buffered() == 0 && s.backlog() == 0,
                None => false,
            };
            if !idle {
                continue;
            }
            let mut sess = self.sessions[idx].take().expect("checked");
            let expired = match sess.drain_idle_since {
                Some(since) => since.elapsed() >= DRAIN_GRACE,
                None => {
                    sess.drain_idle_since = Some(Instant::now());
                    false
                }
            };
            if !expired && !sess.eof {
                self.sessions[idx] = Some(sess);
                continue;
            }
            // Same final nonblocking read as advance()'s drain rule: a
            // request that raced the drain may sit unread in the kernel
            // buffer; serve it instead of cutting the session off.
            if !sess.eof && sess.fill().is_ok() && sess.buffered() > 0 {
                if self.advance(&mut sess) {
                    self.finish_session(idx, sess);
                } else {
                    self.sessions[idx] = Some(sess);
                }
                continue;
            }
            self.finish_session(idx, sess);
        }
    }

    fn flush_deferred(&mut self) {
        while let Some(slot) = self.deferred.pop_front() {
            let job = Arc::clone(&slot);
            if self
                .shared
                .pool
                .try_submit(Box::new(move || job.drain_inbox()))
                .is_err()
            {
                self.deferred.push_front(slot);
                return;
            }
        }
    }

    fn flush_deferred_blocking(&mut self) {
        for slot in self.deferred.drain(..) {
            let job = Arc::clone(&slot);
            self.shared.pool.submit(Box::new(move || job.drain_inbox()));
        }
    }
}

#[cfg(test)]
mod tests {
    //! One test per `unsafe` block family, on the process's own fds only:
    //! an epoll instance and the wakeup self-pipe. The `framing_` tests
    //! check [`LineBuf`] against the copying framer it replaced.

    use super::*;

    /// The framer `LineBuf` replaced, frozen as its oracle: bytes are
    /// appended to `rbuf`, and each line is found a byte at a time and
    /// copied into a new `String`.
    #[derive(Default)]
    struct CopyingFramer {
        rbuf: Vec<u8>,
        rpos: usize,
        scan: usize,
    }

    impl CopyingFramer {
        fn take_line(&mut self) -> Option<String> {
            match self.rbuf[self.scan..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let end = self.scan + rel;
                    let mut line: &[u8] = &self.rbuf[self.rpos..end];
                    if line.last() == Some(&b'\r') {
                        line = &line[..line.len() - 1];
                    }
                    let s = String::from_utf8_lossy(line).into_owned();
                    self.rpos = end + 1;
                    self.scan = self.rpos;
                    if self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                        self.scan = 0;
                    } else if self.rpos >= 64 * 1024 {
                        self.rbuf.drain(..self.rpos);
                        self.scan -= self.rpos;
                        self.rpos = 0;
                    }
                    Some(s)
                }
                None => {
                    self.scan = self.rbuf.len();
                    None
                }
            }
        }
    }

    /// A socket stand-in: each read takes what fits of the first queued
    /// piece, so every piece boundary is a short read; an empty queue is
    /// EOF.
    struct Pieces(VecDeque<Vec<u8>>);

    impl Read for Pieces {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some(piece) = self.0.front_mut() else {
                return Ok(0);
            };
            let k = piece.len().min(out.len());
            out[..k].copy_from_slice(&piece[..k]);
            piece.drain(..k);
            if piece.is_empty() {
                self.0.pop_front();
            }
            Ok(k)
        }
    }

    /// SplitMix64, the stream generator's source.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A byte stream of request-like text, CRLF and bare `\r`, empty and
    /// whitespace-only lines, valid and invalid UTF-8, and now and then a
    /// line longer than one 16 KiB read; it may end inside a line.
    fn stream(g: &mut Mix) -> Vec<u8> {
        const TEXT: &[u8] = br#"{"cmd":"ingest","tenant":"t","updates":[17,[3,-1],4095]}"#;
        let mut out = Vec::new();
        for _ in 0..g.below(40) {
            match g.below(16) {
                0..=3 => {
                    let from = g.below(TEXT.len() as u64) as usize;
                    out.extend_from_slice(&TEXT[from..]);
                }
                4..=6 => out.push(b'\n'),
                7 | 8 => out.extend_from_slice(b"\r\n"),
                9 => out.push(b'\r'),
                10 => out.extend_from_slice(b" \t "),
                11 => {
                    let bad: [&[u8]; 5] =
                        [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f"];
                    out.extend_from_slice(bad[g.below(5) as usize]);
                }
                12 => out.extend_from_slice("é😀".as_bytes()),
                13 => {
                    // Bytes whose low seven bits are those of `\n`, or near.
                    out.extend_from_slice(b"\x8a\x0b\x09\x0a\x8a");
                }
                14 if g.below(4) == 0 => {
                    let len = 16 * 1024 + g.below(24 * 1024) as usize;
                    out.extend((0..len).map(|i| b'0' + (i % 10) as u8));
                }
                _ => out.extend_from_slice(b"7,"),
            }
        }
        out
    }

    /// Cut `bytes` into read-sized pieces: single bytes, small pieces, or
    /// pieces around one read's size.
    fn pieces(g: &mut Mix, bytes: &[u8]) -> VecDeque<Vec<u8>> {
        let scale = [8, 200, 20_000][g.below(3) as usize];
        let mut out = VecDeque::new();
        let mut at = 0;
        while at < bytes.len() {
            let k = (1 + g.below(scale) as usize).min(bytes.len() - at);
            out.push_back(bytes[at..at + k].to_vec());
            at += k;
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        #[test]
        fn framing_matches_the_copying_oracle(seed in proptest::any::<u64>(), budget in 0usize..4) {
            let mut g = Mix(seed);
            let bytes = stream(&mut g);
            let pieces = pieces(&mut g, &bytes);

            let mut oracle = CopyingFramer::default();
            let mut want = Vec::new();
            for piece in &pieces {
                oracle.rbuf.extend_from_slice(piece);
                want.extend(std::iter::from_fn(|| oracle.take_line()));
            }

            // Fill until EOF with a budget from one byte to a whole pump,
            // taking every complete line after each fill.
            let budget = [1, 4096, MIN_READ, READ_BUDGET][budget];
            let mut src = Pieces(pieces);
            let mut framer = LineBuf::default();
            let mut got = Vec::new();
            loop {
                let eof = framer.fill(&mut src, budget).unwrap();
                while let Some(line) = framer.next_line() {
                    got.push(line_text(&framer.buf[line]).into_owned());
                }
                assert!(!framer.has_full_line());
                if eof {
                    break;
                }
            }
            assert_eq!(got, want);
            // The same partial trailing line is left over.
            assert_eq!(framer.buffered(), oracle.rbuf.len() - oracle.rpos);
        }
    }

    #[test]
    fn framing_find_newline_matches_a_byte_scan() {
        // Every length up to three words, a newline (or none) at every
        // position, over bytes that share bits with `\n`.
        let fill = [b'\x8a', b'\x0b', b'\x09', b'\x00', b'\xff', b'a'];
        for len in 0..=24 {
            for at in 0..=len {
                for &f in &fill {
                    let mut bytes = vec![f; len];
                    if at < len {
                        bytes[at] = b'\n';
                        if at + 2 < len {
                            bytes[at + 2] = b'\n';
                        }
                    }
                    let want = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&bytes), want, "{bytes:?}");
                }
            }
        }
    }

    #[test]
    fn framing_strips_one_cr_and_borrows_valid_lines() {
        let mut framer = LineBuf::default();
        let mut src = Pieces(VecDeque::from([b"a\r\r\n\r\n\xffb\nok\n tail".to_vec()]));
        assert!(!framer.fill(&mut src, READ_BUDGET).unwrap());
        let mut lines = Vec::new();
        while let Some(line) = framer.next_line() {
            let text = line_text(&framer.buf[line]);
            lines.push((text.to_string(), matches!(text, Cow::Borrowed(_))));
        }
        let want = [
            ("a\r", true),
            ("", true),
            ("\u{fffd}b", false),
            ("ok", true),
        ];
        assert_eq!(lines, want.map(|(l, b)| (l.to_string(), b)));
        assert_eq!(framer.buffered(), 5, "the partial line stays buffered");
        assert!(framer.fill(&mut src, READ_BUDGET).unwrap(), "then EOF");
    }

    /// The `(token, events)` pairs of the last `wait` (the fields are
    /// copied out: the event struct is packed on x86-64).
    fn ready(events: &[sys::EpollEvent]) -> Vec<(u64, u32)> {
        events.iter().map(|e| (e.data, e.events)).collect()
    }

    #[test]
    fn poller_adds_modifies_deletes_and_waits_on_the_wake_pipe() {
        let poller = Poller::new().unwrap();
        let hub = WakeHub::new().unwrap();
        let mut events = Vec::with_capacity(4);
        poller.add(hub.pipe_r, 7, sys::EPOLLIN).unwrap();
        assert_eq!(poller.wait(&mut events, 0), 0, "an empty pipe is not ready");

        hub.wake(1);
        assert_eq!(poller.wait(&mut events, 1000), 1);
        assert_eq!(ready(&events), vec![(7, sys::EPOLLIN)]);

        // A new token, then an interest the read end never satisfies.
        poller.modify(hub.pipe_r, 9, sys::EPOLLIN).unwrap();
        assert_eq!(poller.wait(&mut events, 1000), 1);
        assert_eq!(ready(&events), vec![(9, sys::EPOLLIN)]);
        poller.modify(hub.pipe_r, 9, sys::EPOLLOUT).unwrap();
        assert_eq!(poller.wait(&mut events, 0), 0);

        // Deleted, the still-readable pipe reports nothing; a second
        // delete and a bad fd are errors, not undefined behaviour.
        poller.delete(hub.pipe_r).unwrap();
        assert_eq!(poller.wait(&mut events, 0), 0);
        assert!(events.is_empty());
        assert!(poller.delete(hub.pipe_r).is_err());
        assert!(poller.add(-1, 3, sys::EPOLLIN).is_err());
    }

    #[test]
    fn wait_returns_at_most_capacity_events() {
        // Six ready pipes, room for fewer: `wait` must hand the kernel the
        // buffer's capacity and set the length to what it wrote.
        let poller = Poller::new().unwrap();
        let hubs: Vec<Arc<WakeHub>> = (0..6).map(|_| WakeHub::new().unwrap()).collect();
        for (i, hub) in hubs.iter().enumerate() {
            hub.wake(0);
            poller
                .add(hub.pipe_r, 100 + i as u64, sys::EPOLLIN)
                .unwrap();
        }
        for mut events in [Vec::with_capacity(2), Vec::new()] {
            let n = poller.wait(&mut events, 1000);
            assert_eq!(n, events.len());
            assert!(n >= 1 && n <= events.capacity(), "{n} events");
            assert_eq!(n, events.capacity().min(hubs.len()));
            for (token, _) in ready(&events) {
                assert!((100..106).contains(&token), "token {token}");
            }
        }
    }

    #[test]
    fn a_thousand_wakes_drain_fully_and_keep_their_order() {
        let poller = Poller::new().unwrap();
        let hub = WakeHub::new().unwrap();
        poller.add(hub.pipe_r, 1, sys::EPOLLIN).unwrap();
        for token in 0..1000 {
            hub.wake(token);
        }
        let mut events = Vec::with_capacity(1);
        assert_eq!(poller.wait(&mut events, 1000), 1);
        // 1000 bytes span several 256-byte reads; none may be left behind.
        hub.drain_pipe();
        assert_eq!(poller.wait(&mut events, 0), 0, "bytes left in the pipe");
        assert_eq!(hub.take_tokens(), (0..1000).collect::<Vec<u64>>());
        assert!(hub.take_tokens().is_empty());
    }
}
