//! What the benchmark reads from the host: processor time and peak
//! memory of this process from `/proc`, and the stamp (cores, toolchain,
//! commit) every output file carries. Also the one thing it sets: the
//! allocator keeps what the program frees.

use std::process::Command;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` of glibc's `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Make glibc's allocator keep freed memory in the process: never trim
/// the heap, and serve blocks up to 32 MiB (the largest threshold it
/// takes) from the heap rather than from `mmap`. A set-up builds
/// thousands of nodes into memory the last one freed; by default the
/// allocator hands that memory back to the kernel in between, and half
/// of a set-up is then page faults, whose cost on a virtual machine is
/// the hypervisor's: building the engine's 10 000 nodes took 2.9–4.9 ms
/// over twelve runs, and 1.7–2.1 ms with this.
///
/// # Panics
/// If the allocator refuses a setting.
pub fn keep_freed_memory() {
    // SAFETY: `mallopt` takes two `int`s and changes two settings of
    // the allocator under the allocator's own lock; nothing is passed
    // by pointer.
    let kept = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    };
    assert!(kept, "mallopt refused a threshold");
}

/// Processor seconds (user + system, all threads, exited ones
/// included) this process has used so far, at nanosecond resolution.
/// `/proc/self/stat` counts the same time in 10 ms ticks, too coarse
/// for the ~10 ms steps the workloads time, and `std` has no call for
/// it.
///
/// # Panics
/// If the clock is unavailable (it is on every Linux since 2.6.12).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and reads nothing else; `ts` is a live, exclusively
    // borrowed value whose layout (two 64-bit fields) is the C
    // struct's on the 64-bit Linux targets this benchmark supports,
    // which the `compile_error!` below pins.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64", target_env = "gnu")))]
compile_error!(
    "octobench reads /proc, the process CPU clock and glibc's mallopt: 64-bit glibc Linux only"
);

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
/// If `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host stamp as `(key, JSON value)` pairs.
pub fn stamp(seed: u64, seconds: u64) -> Vec<(&'static str, String)> {
    let quoted = |s: String| crate::json::quote(&s);
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|c| c.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("\"unknown\"".to_owned(), |o| {
            (!o.stdout.is_empty()).to_string()
        });
    vec![
        ("nproc", nproc.to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("rustc", quoted(first_line("rustc", &["-V"]))),
        ("commit", quoted(first_line("git", &["rev-parse", "HEAD"]))),
        ("dirty", dirty),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("cpu_clock", quoted("CLOCK_PROCESS_CPUTIME_ID".to_owned())),
        (
            "network",
            quoted("udp-ring-16 runs on loopback with zero injected delay: its latency is processor and kernel time only".to_owned()),
        ),
    ]
}
