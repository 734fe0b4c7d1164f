//! Resource readings of this process through the C library that `std`
//! already links on Linux: process CPU time and peak RSS (`getrusage`),
//! per-thread CPU time (`clock_gettime`) and the CPU model (`cpuid`).
//! Nothing here reads files, so a run touches nothing outside its checkout.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // platform's `struct rusage`; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage
}

/// User plus system CPU time of the whole process so far, in seconds.
pub fn process_cpu_s() -> f64 {
    let usage = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// CPU time consumed by the calling thread so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec; the clock id is the
    // Linux constant for the calling thread's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The CPU's brand string, as the processor reports it.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: cpuid is available on every x86-64 processor; leaves above
    // the reported maximum are never queried.
    #[allow(unused_unsafe)]
    let leaf = |i: u32| unsafe { __cpuid(i) };
    if leaf(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for i in 0x8000_0002u32..=0x8000_0004 {
        let r = leaf(i);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

/// The CPU's brand string (not read on this architecture).
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".into()
}
