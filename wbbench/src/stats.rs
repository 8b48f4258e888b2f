//! Small statistics and process helpers shared by every workload.

use std::ffi::c_long;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

// The C library std already links; declared here so the benchmark needs no
// crate for it.
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time the calling thread has run, in seconds. Every timing in the
/// benchmark is CPU time: on a shared machine a thread's wall time also
/// counts each stretch its CPU was given to someone else (a fixed compute
/// loop measured 79–80 ms of CPU time against 78–329 ms of wall time on a
/// two-vCPU guest), while its CPU time counts only its own work.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("the thread CPU clock is always readable")
}

/// CPU time process `pid` has run so far, all threads, in seconds (the
/// kernel's per-process clock, `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`).
/// `None` once the process has exited.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    read_clock((!(pid as i32) << 3) | 2)
}

/// Median of `xs` (mean of the middle pair for even lengths); `0` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; `0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The smallest of `xs`; infinite when empty.
pub fn smallest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `reps` calls of `f`, each returning what it measured.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// The tail quantile a sample of `n` supports: p99, or `1 - 10/n` when
/// that is lower, so that at least ten samples lie beyond it (the median
/// for 20 samples or fewer).
pub fn tail_q(n: usize) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Geometric mean of strictly positive values; `0` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB, read from procfs. `None` off Linux or once the process
/// has exited.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a digest, for printing a comparable fingerprint of a
/// deterministic artifact.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100_000), 0.99);
        let q = tail_q(300);
        assert!((300.0 * (1.0 - q) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_clocks_advance() {
        let t0 = thread_cpu_s();
        let p0 = process_cpu_s(std::process::id()).expect("own process clock");
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s(std::process::id()).unwrap() > p0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
