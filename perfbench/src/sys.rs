//! Process-level measurements read from the operating system: CPU time,
//! peak resident memory, cache sizes and the worker count.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User + system CPU seconds consumed so far by every thread of this
/// process, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux, matching `Timespec`'s `repr(C)` layout) and the clock id is
    // a constant every Linux kernel accepts; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Size in bytes of CPU 0's cache at `index` (2 = L2, 3 = L3), read from
/// sysfs; `fallback` when the kernel does not report it.
pub fn cache_bytes(index: u32, fallback: usize) -> usize {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let (num, mult) = match s.strip_suffix('K') {
                Some(n) => (n, 1024),
                None => match s.strip_suffix('M') {
                    Some(n) => (n, 1024 * 1024),
                    None => (s, 1),
                },
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        })
        .unwrap_or(fallback)
}

/// Worker count W: the machine's available parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
