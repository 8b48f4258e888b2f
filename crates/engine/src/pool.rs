//! A hand-rolled work-queue thread pool (std only — dependencies are
//! vendored, so no rayon).
//!
//! [`run_ordered`] executes a batch of heterogeneous boxed jobs on up to
//! `threads` scoped worker threads and returns the results **in submission
//! order**, regardless of which worker finished which job when. That
//! ordering guarantee is what makes the [tournament](crate::tournament)
//! and the parallel [experiment](crate::experiment) sections
//! bit-reproducible across thread counts: each job is a pure function of
//! its inputs, and the only scheduling freedom — completion order — is
//! erased by reassembling results by index.
//!
//! Workers pull `(index, job)` pairs from a shared queue and push
//! `(index, result)` pairs through an mpsc channel; the caller collects on
//! its own thread while the workers drain the queue. With `threads == 1`
//! (or a single job) everything runs inline on the caller's thread — no
//! spawn overhead, and trivially the same results.

use std::collections::VecDeque;
use std::sync::{mpsc, Condvar, Mutex};

/// A boxed unit of pool work. The lifetime lets jobs borrow from the
/// caller's stack (configs, specs) — workers are scoped threads.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Resolve a requested thread count: `0` means one thread per available
/// core (or 1 if parallelism cannot be queried).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Run every job, using at most `threads` workers, and return the results
/// in submission order. A panicking job propagates after all workers have
/// stopped (the queue is drained cooperatively; no job is lost silently).
pub fn run_ordered<'a, T: Send>(jobs: Vec<Job<'a, T>>, threads: usize) -> Vec<T> {
    run_ordered_with(jobs, threads, |_, _| {})
}

/// Like [`run_ordered`], but additionally invokes `on_ready(index, &result)`
/// **in submission order** as soon as every earlier result exists — so a
/// caller can stream output (print table rows, report progress) while later
/// jobs are still running, without giving up deterministic ordering.
pub fn run_ordered_with<'a, T: Send>(
    jobs: Vec<Job<'a, T>>,
    threads: usize,
    mut on_ready: impl FnMut(usize, &T),
) -> Vec<T> {
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| {
                let result = job();
                on_ready(index, &result);
                result
            })
            .collect();
    }
    let queue: Mutex<VecDeque<(usize, Job<'a, T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut next_ready = 0usize;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || loop {
                // Pop under the lock, run outside it: cells are orders of
                // magnitude heavier than the queue operation.
                let job = queue.lock().unwrap().pop_front();
                match job {
                    Some((index, job)) => {
                        if tx.send((index, job())).is_err() {
                            break;
                        }
                    }
                    None => break,
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            slots[index] = Some(result);
            while let Some(Some(result)) = slots.get(next_ready) {
                on_ready(next_ready, result);
                next_ready += 1;
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every pool job delivers exactly one result"))
        .collect()
}

/// A job for the long-lived [`WorkerPool`]: `'static` because the pool
/// outlives any caller stack frame (unlike the scoped [`run_ordered`]
/// batch).
pub type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A point-in-time snapshot of a [`WorkerPool`]'s counters — the daemon's
/// pool-level backpressure instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Jobs accepted by [`WorkerPool::submit`] so far.
    pub submitted: u64,
    /// Jobs whose closure has returned (or panicked — a panic still
    /// completes the job so the pool can never deadlock on a drain).
    pub completed: u64,
    /// Jobs that panicked. Nonzero means a bug in submitted work, never in
    /// the pool.
    pub panicked: u64,
    /// Jobs currently queued or running (`submitted - completed`).
    pub depth: u64,
    /// High-water mark of `depth` over the pool's lifetime.
    pub peak_depth: u64,
    /// How often `submit` found the bounded queue full and had to block
    /// until a worker freed a slot — the pool-is-the-bottleneck signal.
    pub submit_stalls: u64,
}

struct PoolCounts {
    submitted: u64,
    completed: u64,
    panicked: u64,
    peak_depth: u64,
    submit_stalls: u64,
}

struct PoolShared {
    counts: Mutex<PoolCounts>,
    /// Signalled whenever a job completes; [`WorkerPool::drain`] waits on
    /// it until `completed == submitted`.
    idle: Condvar,
}

/// A long-lived thread pool with a **bounded** submit queue, for servers
/// that process work as it arrives instead of batching it up front (the
/// one-shot ordered batch stays [`run_ordered`]). Submission blocks when
/// the queue is full — backpressure propagates to the producer instead of
/// queue depth growing without bound — and every stall is counted in
/// [`PoolStats`], so "the pool can't keep up" is observable, not silent.
///
/// Jobs carry no result channel; a caller that needs an answer back owns
/// its own reply path (the daemon's sessions block on a per-request
/// condvar). Ordering across jobs is whatever the queue provides (FIFO
/// hand-out, concurrent execution) — callers needing per-key ordering must
/// serialize per key, as the daemon does per tenant.
pub struct WorkerPool {
    tx: Option<mpsc::SyncSender<PoolJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shared: std::sync::Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawn `threads` workers (`0` = one per core) behind a bounded queue
    /// of `queue_cap` waiting jobs (minimum 1).
    pub fn new(threads: usize, queue_cap: usize) -> Self {
        let threads = effective_threads(threads);
        let shared = std::sync::Arc::new(PoolShared {
            counts: Mutex::new(PoolCounts {
                submitted: 0,
                completed: 0,
                panicked: 0,
                peak_depth: 0,
                submit_stalls: 0,
            }),
            idle: Condvar::new(),
        });
        let (tx, rx) = mpsc::sync_channel::<PoolJob>(queue_cap.max(1));
        let rx = std::sync::Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    // Take the next job under the lock, run it outside.
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => break, // queue closed: pool shut down
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    let mut counts = shared.counts.lock().unwrap();
                    counts.completed += 1;
                    if outcome.is_err() {
                        counts.panicked += 1;
                    }
                    shared.idle.notify_all();
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            shared,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queue `job`, blocking while the bounded queue is full (each such
    /// wait increments [`PoolStats::submit_stalls`]).
    pub fn submit(&self, job: PoolJob) {
        let tx = self.tx.as_ref().expect("pool is shut down");
        {
            let mut counts = self.shared.counts.lock().unwrap();
            counts.submitted += 1;
            let depth = counts.submitted - counts.completed;
            counts.peak_depth = counts.peak_depth.max(depth);
        }
        // Offer without blocking first so a full queue is observable.
        if let Err(mpsc::TrySendError::Full(job)) = tx.try_send(job) {
            self.shared.counts.lock().unwrap().submit_stalls += 1;
            tx.send(job).expect("workers outlive the pool handle");
        }
    }

    /// Queue `job` only if a slot is free; a full queue returns the job to
    /// the caller instead of blocking (and counts a submit stall). This is
    /// the event-loop submission path: a reactor thread must never park on
    /// the pool queue, so it re-offers returned jobs from its own deferral
    /// list once workers catch up.
    pub fn try_submit(&self, job: PoolJob) -> Result<(), PoolJob> {
        let tx = self.tx.as_ref().expect("pool is shut down");
        match tx.try_send(job) {
            Ok(()) => {
                let mut counts = self.shared.counts.lock().unwrap();
                counts.submitted += 1;
                let depth = counts.submitted - counts.completed;
                counts.peak_depth = counts.peak_depth.max(depth);
                Ok(())
            }
            Err(mpsc::TrySendError::Full(job)) => {
                self.shared.counts.lock().unwrap().submit_stalls += 1;
                Err(job)
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                panic!("workers outlive the pool handle")
            }
        }
    }

    /// Block until every submitted job has completed. Jobs submitted by
    /// other threads *while* draining extend the wait — the guarantee is
    /// "no work outstanding at return", not a fence.
    pub fn drain(&self) {
        let mut counts = self.shared.counts.lock().unwrap();
        while counts.completed < counts.submitted {
            counts = self.shared.idle.wait(counts).unwrap();
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PoolStats {
        let counts = self.shared.counts.lock().unwrap();
        PoolStats {
            submitted: counts.submitted,
            completed: counts.completed,
            panicked: counts.panicked,
            depth: counts.submitted - counts.completed,
            peak_depth: counts.peak_depth,
            submit_stalls: counts.submit_stalls,
        }
    }

    /// Close the queue and join the workers (queued jobs still run; this
    /// is the graceful half — call [`WorkerPool::drain`] first if you need
    /// completion *before* teardown begins).
    pub fn shutdown(mut self) {
        self.tx = None; // close the channel: workers finish and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize, threads: usize) -> Vec<usize> {
        let jobs: Vec<Job<usize>> = (0..n)
            .map(|i| -> Job<usize> { Box::new(move || i * i) })
            .collect();
        run_ordered(jobs, threads)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(squares(100, threads), expected, "threads = {threads}");
        }
        assert_eq!(squares(0, 4), Vec::<usize>::new());
        assert_eq!(squares(1, 4), vec![0]);
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let data = [10u64, 20, 30];
        let jobs: Vec<Job<u64>> = data
            .iter()
            .map(|x| -> Job<u64> { Box::new(move || x + 1) })
            .collect();
        assert_eq!(run_ordered(jobs, 2), vec![11, 21, 31]);
    }

    #[test]
    fn streaming_callback_fires_in_submission_order() {
        for threads in [1, 3, 16] {
            let jobs: Vec<Job<usize>> = (0..50)
                .map(|i| -> Job<usize> { Box::new(move || i) })
                .collect();
            let mut seen = Vec::new();
            let results = run_ordered_with(jobs, threads, |index, &r| {
                assert_eq!(index, r);
                seen.push(index);
            });
            assert_eq!(seen, (0..50).collect::<Vec<_>>(), "threads = {threads}");
            assert_eq!(results, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn worker_pool_runs_everything_and_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let pool = WorkerPool::new(4, 2);
        assert_eq!(pool.workers(), 4);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 0..100u64 {
            let sum = Arc::clone(&sum);
            pool.submit(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            }));
        }
        pool.drain();
        let stats = pool.stats();
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.panicked, 0);
        assert!(stats.peak_depth >= 1);
        pool.shutdown();
    }

    #[test]
    fn worker_pool_counts_submit_stalls_under_backpressure() {
        // One slow worker, capacity-1 queue: fast submissions must stall.
        let pool = WorkerPool::new(1, 1);
        for _ in 0..8 {
            pool.submit(Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }));
        }
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.completed, 8);
        assert!(stats.submit_stalls > 0, "{stats:?}");
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(2, 4);
        pool.submit(Box::new(|| panic!("job bug")));
        pool.submit(Box::new(|| {}));
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.panicked, 1);
        // The pool still works after a panic.
        pool.submit(Box::new(|| {}));
        pool.drain();
        assert_eq!(pool.stats().completed, 3);
    }

    #[test]
    fn worker_panic_propagates() {
        let jobs: Vec<Job<u64>> = (0..8)
            .map(|i| -> Job<u64> {
                Box::new(move || {
                    assert!(i != 5, "boom");
                    i
                })
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ordered(jobs, 2);
        }));
        assert!(outcome.is_err(), "panic in a job must propagate");
    }
}
