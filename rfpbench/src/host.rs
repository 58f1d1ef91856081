//! Host-side measurements: process CPU time and peak resident memory.
//!
//! The benchmark times in CPU seconds rather than wall seconds because
//! shared hosts steal cycles from the process; wall time is recorded
//! only to report how much of a run the host took away.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock binding assumes 64-bit Linux");

/// CPU seconds (user + system, every thread, live or exited) this
/// process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value with the layout of the C
    // `struct timespec` on 64-bit Linux (checked by the `compile_error!`
    // above), and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// CPU and wall seconds spent in one measured stretch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Runs `f` and returns its result with the CPU and wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Spent) {
    let (c0, w0) = (process_cpu_s(), Instant::now());
    let out = f();
    let spent = Spent {
        cpu_s: process_cpu_s() - c0,
        wall_s: w0.elapsed().as_secs_f64(),
    };
    (out, spent)
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
