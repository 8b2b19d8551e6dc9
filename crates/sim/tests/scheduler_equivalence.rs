//! Cross-backend determinism regression: every [`Scheduler`] backend
//! must pop the exact same `(time, seq)` sequence for the same pushes —
//! the contract that makes simulation results backend-independent.

use octopus_sim::{derive_rng, Duration, EventQueue, SchedulerKind, SimTime};
use rand::Rng;

const KINDS: [SchedulerKind; 2] = [SchedulerKind::BinaryHeap, SchedulerKind::TimingWheel];

/// Property-style: 10 000 random `(time, payload)` events, pushed in a
/// random interleaving with pops, drain in an identical order from both
/// backends.
#[test]
fn backends_pop_10k_random_events_identically() {
    let mut traces: Vec<Vec<(SimTime, u64)>> = Vec::new();
    for kind in KINDS {
        let mut rng = derive_rng(0xC0FFEE, b"sched-prop", 0);
        let mut q: EventQueue<u64> = EventQueue::with_scheduler(kind);
        let mut trace = Vec::with_capacity(10_000);
        let mut pushed = 0u64;
        while pushed < 10_000 {
            // bursts of pushes at random offsets ahead of `now`…
            let burst = rng.gen_range(1..=8u64).min(10_000 - pushed);
            for _ in 0..burst {
                // heavy mass on short delays (timer/latency-like), a
                // long tail out to minutes, plus exact ties at `now`
                let micros = match rng.gen_range(0..10) {
                    0 => 0,
                    1..=6 => rng.gen_range(0..2_000_000),
                    7 | 8 => rng.gen_range(0..30_000_000),
                    _ => rng.gen_range(0..600_000_000),
                };
                q.push(q.now() + Duration(micros), pushed);
                pushed += 1;
            }
            // …interleaved with a few pops so the clock advances
            for _ in 0..rng.gen_range(0..4) {
                if let Some(ev) = q.pop() {
                    trace.push(ev);
                }
            }
        }
        while let Some(ev) = q.pop() {
            trace.push(ev);
        }
        assert_eq!(trace.len(), 10_000, "{kind:?} lost events");
        traces.push(trace);
    }
    assert_eq!(
        traces[0], traces[1],
        "binary-heap and timing-wheel backends diverged"
    );
}

/// Past-due injection: a sharded engine's cross-shard send may hand a
/// queue an event whose timestamp equals the last popped time (and
/// whose key is older than keys already pending there). Both backends must accept it
/// and keep serving exact `(time, key)` order — the timing wheel's
/// behind-the-cursor ready-run path must match the heap bit for bit.
#[test]
fn past_due_push_with_seq_matches_across_backends() {
    let mut traces: Vec<Vec<(SimTime, &str)>> = Vec::new();
    for kind in KINDS {
        let mut q: EventQueue<&str> = EventQueue::with_scheduler(kind);
        q.push_with_seq(SimTime::from_millis(5), 10, "first");
        q.push_with_seq(SimTime::from_millis(9), 40, "later");
        let mut trace = vec![q.pop().expect("first event")];
        // the clock now sits at 5 ms; flush-style injections arrive at
        // exactly that timestamp, with keys both below and above the
        // pending event's
        q.push_with_seq(SimTime::from_millis(5), 7, "at-now-older-key");
        q.push_with_seq(SimTime::from_millis(5), 90, "at-now-newer-key");
        q.push_with_seq(SimTime::from_millis(9), 12, "later-but-older-key");
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(5), 7)), "{kind:?}");
        while let Some(ev) = q.pop() {
            trace.push(ev);
        }
        assert_eq!(trace.len(), 5, "{kind:?} lost events");
        traces.push(trace);
    }
    assert_eq!(
        traces[0], traces[1],
        "backends disagreed on past-due push_with_seq handling"
    );
    assert_eq!(
        traces[0].iter().map(|&(_, e)| e).collect::<Vec<_>>(),
        vec![
            "first",
            "at-now-older-key",
            "at-now-newer-key",
            "later-but-older-key",
            "later",
        ]
    );
}

/// A timestamp strictly before the last pop is a protocol-logic bug and
/// must be rejected loudly — identically — by every backend.
#[test]
#[should_panic(expected = "cannot schedule into the past")]
fn push_with_seq_before_last_pop_panics_on_heap() {
    let mut q: EventQueue<()> = EventQueue::with_scheduler(SchedulerKind::BinaryHeap);
    q.push_with_seq(SimTime::from_millis(5), 0, ());
    q.pop();
    q.push_with_seq(SimTime::from_millis(4), 1, ());
}

/// Same rejection on the timing wheel.
#[test]
#[should_panic(expected = "cannot schedule into the past")]
fn push_with_seq_before_last_pop_panics_on_wheel() {
    let mut q: EventQueue<()> = EventQueue::with_scheduler(SchedulerKind::TimingWheel);
    q.push_with_seq(SimTime::from_millis(5), 0, ());
    q.pop();
    q.push_with_seq(SimTime::from_millis(4), 1, ());
}

/// The trace itself is well-ordered: ascending `(time, insertion order)`.
#[test]
fn popped_order_is_monotone_with_fifo_ties() {
    for kind in KINDS {
        let mut q: EventQueue<u64> = EventQueue::with_scheduler(kind);
        let mut rng = derive_rng(7, b"sched-mono", 0);
        for i in 0..5_000u64 {
            // coarse timestamps force many exact ties
            let t = SimTime::from_millis(rng.gen_range(0..50));
            q.push(t, i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((pt, pi)) = prev {
                assert!(t > pt || (t == pt && i > pi), "{kind:?} broke FIFO ties");
            }
            prev = Some((t, i));
        }
    }
}

// --- run-shaped inputs ---------------------------------------------------
//
// The wheel sorts a drained slot with a run-merging sort and serves the
// result from the front of a deque; the heap does neither. The inputs
// below are the shapes that sort meets in a simulation — whole runs,
// runs laid end to end, reversed runs, ties — each with pops interleaved
// so slots are drained while later ones are still filling.

/// One wheel tick in microseconds (`2^13`).
const TICK: u64 = 1 << 13;

/// Run `script` on both backends — it pushes `(time, key)` events whose
/// payload is their key and returns what it popped — and return the one
/// trace both must produce, having checked it lost nothing.
fn same_on_both_backends(
    pushed: usize,
    script: impl Fn(&mut EventQueue<u128>) -> Vec<(SimTime, u128)>,
) -> Vec<(SimTime, u128)> {
    let [heap, wheel] = KINDS.map(|kind| {
        let mut q = EventQueue::with_scheduler(kind);
        let mut trace = script(&mut q);
        while let Some(ev) = q.pop() {
            trace.push(ev);
        }
        assert_eq!(trace.len(), pushed, "{kind:?} lost events");
        trace
    });
    assert_eq!(
        heap, wheel,
        "binary-heap and timing-wheel backends diverged"
    );
    wheel
}

/// Pop everything due strictly before `bound`.
fn pop_until(q: &mut EventQueue<u128>, bound: SimTime, trace: &mut Vec<(SimTime, u128)>) {
    while let Some(ev) = q.pop_before(bound) {
        trace.push(ev);
    }
}

fn assert_ascending(trace: &[(SimTime, u128)]) {
    assert!(
        trace.windows(2).all(|w| w[0] < w[1]),
        "trace is not in ascending (time, key) order"
    );
}

#[test]
fn one_ascending_run_per_tick() {
    const TICKS: u64 = 200;
    const RUN: u64 = 50;
    let trace = same_on_both_backends((TICKS * RUN) as usize, |q| {
        let mut trace = Vec::new();
        let mut key = 0u128;
        for tick in 0..TICKS {
            // the run lands three ticks ahead of what is being popped
            for j in 0..RUN {
                q.push_with_seq(SimTime((tick + 3) * TICK + j * 100), key, key);
                key += 1;
            }
            pop_until(q, SimTime((tick + 1) * TICK), &mut trace);
        }
        trace
    });
    assert_ascending(&trace);
}

/// A sharded world's key: lane bit, the creating node's address, that
/// node's own counter — unique, and in no order relative to time.
fn packed_key(origin: u64, counter: u64) -> u128 {
    (1 << 127) | (u128::from(origin) << 63) | u128::from(counter)
}

#[test]
fn two_ascending_runs_end_to_end_with_packed_keys() {
    // the gossip overlay's slot: every tick files 300 timers 36 ticks
    // ahead and then 300 deliveries 5 ticks ahead, each in time order,
    // so a slot fills with the timers of 36 ticks ago followed by the
    // deliveries of 5 ticks ago — two runs that interleave in time
    const TICKS: u64 = 120;
    const RUN: u64 = 300;
    let trace = same_on_both_backends((TICKS * RUN * 2) as usize, |q| {
        let mut trace = Vec::new();
        for tick in 0..TICKS {
            for j in 0..RUN {
                let origin = (2 * j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let at = SimTime((tick + 36) * TICK + j * 27);
                let key = packed_key(origin, tick);
                q.push_with_seq(at, key, key);
            }
            for j in 0..RUN {
                // deliveries tie in time two by two; their keys decide
                let origin = (2 * j + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let at = SimTime((tick + 5) * TICK + (j / 2) * 54 + 13);
                let key = packed_key(origin, tick);
                q.push_with_seq(at, key, key);
            }
            pop_until(q, SimTime((tick + 1) * TICK), &mut trace);
        }
        trace
    });
    assert_ascending(&trace);
}

#[test]
fn strictly_descending_pushes() {
    // every block arrives latest event first, two blocks ahead of the
    // clock; part of what is pending is popped between blocks
    const BLOCKS: u64 = 20;
    const RUN: u64 = 500;
    const SPAN: u64 = RUN * 40; // 20 ms: a block covers two or three ticks
    let trace = same_on_both_backends((BLOCKS * RUN) as usize, |q| {
        let mut trace = Vec::new();
        let mut key = 0u128;
        for block in 0..BLOCKS {
            for j in (0..RUN).rev() {
                q.push_with_seq(SimTime((block + 2) * SPAN + j * 40), key, key);
                key += 1;
            }
            for _ in 0..300 {
                trace.extend(q.pop());
            }
        }
        trace
    });
    assert!(trace.windows(2).all(|w| w[0].0 < w[1].0), "times ascend");
}

#[test]
fn one_timestamp_with_shuffled_keys() {
    const N: usize = 5_000;
    let mut keys: Vec<u128> = (0..N as u128).collect();
    let mut rng = derive_rng(0x5eed, b"sched-shuffle", 0);
    for i in (1..N).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    let at = SimTime::from_secs(3);
    let trace = same_on_both_backends(N, |q| {
        let mut trace = Vec::new();
        for &key in &keys[..3_000] {
            q.push_with_seq(at, key, key);
        }
        for _ in 0..1_000 {
            trace.extend(q.pop());
        }
        // the clock stands at `at` now: the rest arrives at the cursor
        // tick, with keys on both sides of what is still pending
        for &key in &keys[3_000..] {
            q.push_with_seq(at, key, key);
        }
        trace
    });
    // each half comes out in key order; the halves overlap
    assert_ascending(&trace[..1_000]);
    assert_ascending(&trace[1_000..]);
}

#[test]
fn push_at_the_cursor_tick_below_the_ready_front_pops_first() {
    let t = SimTime::from_millis(100);
    let later = SimTime(t.0 + 1); // same tick, one microsecond on
    let trace = same_on_both_backends(6, |q| {
        q.push_with_seq(t, 50, 50);
        q.push_with_seq(t, 60, 60);
        q.push_with_seq(later, 10, 10);
        let mut trace = vec![q.pop().expect("first event")];
        // the wheel now serves (t, 60), (later, 10) from its sorted run;
        // cross-shard sends hand it older keys at the same instants
        q.push_with_seq(t, 55, 55);
        assert_eq!(q.peek_key(), Some((t, 55)), "{}", q.backend_name());
        q.push_with_seq(t, 70, 70);
        q.push_with_seq(later, 5, 5);
        assert_eq!(q.peek_key(), Some((t, 55)), "{}", q.backend_name());
        trace.extend(q.pop());
        assert_eq!(q.peek_key(), Some((t, 60)), "{}", q.backend_name());
        trace
    });
    let expected = [(t, 50), (t, 55), (t, 60), (t, 70), (later, 5), (later, 10)];
    assert_eq!(trace, expected);
}
