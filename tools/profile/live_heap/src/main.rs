//! Live-heap curve of one `SecuritySim` job at the §5.1 point.
//!
//! ```text
//! live-heap [N] [SECONDS] [SEED] [EVERY]      defaults: 1000 80 31 10
//! ```
//!
//! A counting global allocator keeps the bytes the program holds, their
//! peak, and how many blocks were allocated and reallocated. The job is
//! built, then advanced `EVERY` simulated seconds at a time; after the
//! set-up and after each step one line is printed:
//! `t_s live_mib peak_mib allocations reallocations`. What the allocator
//! holds back (free lists, fragmentation) is not counted, so the peak
//! here is below the process's peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use octopus_core::{SecuritySim, SimConfig};
use octopus_sim::{Duration, SimTime};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static REALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are only read, never used to decide anything about memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn line(t_s: u64) {
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    println!(
        "{t_s} {:.1} {:.1} {} {}",
        mib(LIVE.load(Relaxed)),
        mib(PEAK.load(Relaxed)),
        ALLOCATIONS.load(Relaxed),
        REALLOCATIONS.load(Relaxed)
    );
}

fn main() {
    let arg = |i: usize, default: u64| {
        std::env::args()
            .nth(i)
            .map_or(default, |a| a.parse().expect("arguments are whole numbers"))
    };
    let (n, seconds, seed, every) = (arg(1, 1000), arg(2, 80), arg(3, 31), arg(4, 10).max(1));
    let mut sim = SecuritySim::new(SimConfig {
        n: n as usize,
        seed,
        duration: Duration::from_secs(seconds),
        ..SimConfig::default()
    });
    println!("# n={n} seconds={seconds} seed={seed}");
    println!("# t_s live_mib peak_mib allocations reallocations");
    line(0);
    let mut acc = sim.begin();
    let mut t = 0;
    while t < seconds {
        t = (t + every).min(seconds);
        sim.advance_until(&mut acc, SimTime::from_secs(t));
        line(t);
    }
    let report = sim.finish(acc);
    println!("# completed_lookups={}", report.completed_lookups);
}
