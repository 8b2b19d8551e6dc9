//! Persistent shard worker pool for parallel lookahead windows.
//!
//! [`crate::world::World::run_window`] used to spawn one scoped thread
//! per shard *per window*. With a fine `min_latency` floor windows are
//! tiny (tens of microseconds of work), so per-window thread creation
//! dominated and parallel mode lost to sequential stepping. This module
//! replaces the spawn with a pool of long-lived workers coordinated by
//! an epoch barrier, so dispatching a window costs two barrier
//! crossings instead of N thread spawns.
//!
//! # Barrier protocol
//!
//! The pool and the dispatcher (the thread driving the `World`) share a
//! `PoolShared` allocation:
//!
//! 1. **Dispatch.** The dispatcher moves each shard into its slot
//!    (`Mutex<Option<Shard>>` — a struct move, not a copy of the
//!    shard's storage), publishes the window bounds, resets the done
//!    counter, bumps the epoch counter and unparks every worker.
//! 2. **Execute.** Each worker wakes, observes the new epoch, and runs
//!    `run_batch` for its assigned slots (slot `i` belongs to worker
//!    `i mod workers`), taking the shard out of the slot for the
//!    duration so workers never contend on shard state.
//! 3. **Join.** The last worker to finish signals a condvar the
//!    dispatcher waits on; the dispatcher then moves every shard back
//!    out of its slot, in index order, and the barrier merge proceeds
//!    exactly as in sequential mode.
//!
//! A worker panic is caught, stashed, and handed back to the
//! dispatcher after the barrier completes, which re-raises it only
//! once its own barrier merge has run — so a poisoned window can never
//! hang the driver, strand shards inside the pool, or leave the world
//! inconsistent for the windows (or the drop) that follow.
//!
//! Determinism is untouched by construction: workers only ever run the
//! same `run_batch` bodies the sequential path runs, on disjoint shard
//! state, between the same barriers. The pool width (like shard count
//! and backend choice) is a pure speed knob — the `engine_determinism`
//! suite pins byte-identical reports across pool widths.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};

use octopus_sim::SimTime;

use crate::latency::LatencyModel;
use crate::shard::ShardMap;
use crate::world::{NodeBehavior, Shard, ShardCtx};

/// Effective worker count for a parallel window dispatch: the explicit
/// override if non-zero, else the machine's available parallelism —
/// always capped at the shard count (more workers than shards would
/// just park). A result of `0` or `1` means the dispatcher should run
/// batches inline: one worker behind a barrier is strictly worse than
/// no barrier.
///
/// Worker count never affects results (the determinism contract); it
/// only sizes the fan-out, which is why reading host parallelism here
/// is sanctioned.
#[must_use]
pub fn worker_count(override_threads: usize, shards: usize) -> usize {
    let width = if override_threads > 0 {
        override_threads
    } else {
        // Sanctioned thread-count site (OCT-LINT-004): sizing the
        // worker pool; execution stays byte-identical at every width.
        #[allow(clippy::disallowed_methods)]
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    };
    width.min(shards)
}

/// State shared between the dispatcher and the pool's worker threads.
struct PoolShared<B: NodeBehavior, L> {
    /// One slot per shard. A shard lives here only while a window is in
    /// flight; the dispatcher owns it otherwise.
    slots: Vec<Mutex<Option<Shard<B>>>>,
    /// Fixed per-world execution environment.
    map: ShardMap,
    latency: Arc<L>,
    /// Current window's lookahead bound (published before the epoch
    /// bump, read after the epoch observation).
    window_end: AtomicU64,
    /// Current window's exclusive execution bound.
    exec_end: AtomicU64,
    /// Window generation counter: a bump is the "go" signal.
    epoch: AtomicU64,
    /// Workers finished with the current epoch.
    done: Mutex<u64>,
    /// Signalled by the last worker of an epoch.
    done_cv: Condvar,
    /// Tells parked workers to exit instead of waiting for an epoch.
    shutdown: AtomicBool,
    /// First worker panic of the current epoch, re-raised on the
    /// dispatcher after the barrier.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A pool of persistent shard workers (see the module docs for the
/// barrier protocol). Owned by a `World`; dropped with it, which shuts
/// the workers down and joins them.
pub(crate) struct ShardPool<B: NodeBehavior, L> {
    shared: Arc<PoolShared<B, L>>,
    /// Worker join handles, drained (joined) on drop.
    handles: Vec<JoinHandle<()>>,
    /// Unpark handles, one per worker, for the "go" signal.
    threads: Vec<Thread>,
    workers: usize,
}

impl<B: NodeBehavior, L> ShardPool<B, L>
where
    B: Send + 'static,
    B::Msg: Send + 'static,
    B::Timer: Send + 'static,
    B::Control: Send + 'static,
    L: LatencyModel + Send + Sync + 'static,
{
    /// Spawn `workers` persistent worker threads serving `shards` slots.
    pub(crate) fn new(shards: usize, workers: usize, map: ShardMap, latency: Arc<L>) -> Self {
        let workers = workers.clamp(1, shards.max(1));
        let shared = Arc::new(PoolShared {
            slots: (0..shards).map(|_| Mutex::new(None)).collect(),
            map,
            latency,
            window_end: AtomicU64::new(0),
            exec_end: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("octopus-shard-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w, workers))
                    .expect("spawn shard worker thread")
            })
            .collect();
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        ShardPool {
            shared,
            handles,
            threads,
            workers,
        }
    }

    /// Execute one window across the pool: move the shards into their
    /// slots, open the epoch, wait for every worker, and move the
    /// shards back — in index order, so the caller's barrier merge sees
    /// exactly the layout sequential execution leaves behind.
    ///
    /// Returns the first batch-panic payload (if any) instead of
    /// re-raising it here: the caller must finish its barrier merge —
    /// park the completed batches' envelopes, advance the clock — and
    /// only then resume the unwind, or the world would be left with
    /// stale outgoing lanes that later windows park against a newer
    /// clock.
    pub(crate) fn run_window(
        &self,
        shards: &mut Vec<Shard<B>>,
        window_end: SimTime,
        exec_end: SimTime,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let shared = &self.shared;
        debug_assert_eq!(shards.len(), shared.slots.len());
        for (slot, shard) in shared.slots.iter().zip(shards.drain(..)) {
            *slot.lock().expect("shard slot poisoned") = Some(shard);
        }
        shared.window_end.store(window_end.0, Ordering::Relaxed);
        shared.exec_end.store(exec_end.0, Ordering::Relaxed);
        *shared.done.lock().expect("done counter poisoned") = 0;
        // The Release bump publishes the slot fills and window bounds
        // to every worker whose epoch load Acquires it.
        shared.epoch.fetch_add(1, Ordering::Release);
        for t in &self.threads {
            t.unpark();
        }
        let mut done = shared.done.lock().expect("done counter poisoned");
        while *done < self.workers as u64 {
            done = shared
                .done_cv
                .wait(done)
                .expect("done condvar wait poisoned");
        }
        drop(done);
        shards.extend(shared.slots.iter().map(|slot| {
            slot.lock()
                .expect("shard slot poisoned")
                .take()
                .expect("worker returned its shard")
        }));
        shared.panic.lock().expect("panic slot poisoned").take()
    }
}

impl<B: NodeBehavior, L> Drop for ShardPool<B, L> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in &self.threads {
            t.unpark();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked already stashed its payload; the
            // join error itself carries nothing further.
            let _ = handle.join();
        }
    }
}

/// Body of one persistent worker: wait for an epoch bump, run the
/// batches of every slot assigned to this worker, report done, repeat
/// until shutdown.
fn worker_loop<B, L>(shared: &PoolShared<B, L>, worker: usize, workers: usize)
where
    B: NodeBehavior,
    L: LatencyModel,
{
    let mut seen_epoch = 0u64;
    loop {
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != seen_epoch {
                seen_epoch = epoch;
                break;
            }
            // A leftover unpark token makes this return immediately
            // once; the epoch re-check above absorbs the spurious wake.
            std::thread::park();
        }
        let ctx = ShardCtx {
            map: shared.map,
            latency: &*shared.latency,
            window_end: SimTime(shared.window_end.load(Ordering::Relaxed)),
            exec_end: SimTime(shared.exec_end.load(Ordering::Relaxed)),
        };
        let mut idx = worker;
        while idx < shared.slots.len() {
            let taken = shared.slots[idx]
                .lock()
                .expect("shard slot poisoned")
                .take();
            if let Some(mut shard) = taken {
                let result = catch_unwind(AssertUnwindSafe(|| shard.run_batch(&ctx)));
                // Return the shard even on panic: the dispatcher must
                // be able to reclaim every slot before it re-raises.
                *shared.slots[idx].lock().expect("shard slot poisoned") = Some(shard);
                if let Err(payload) = result {
                    let mut slot = shared.panic.lock().expect("panic slot poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            idx += workers;
        }
        let mut done = shared.done.lock().expect("done counter poisoned");
        *done += 1;
        if *done == workers as u64 {
            shared.done_cv.notify_one();
        }
    }
}
