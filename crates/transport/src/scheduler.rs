//! Deterministic discrete-event scheduler.
//!
//! An event queue in virtual time. Determinism is the whole design:
//! events at the same timestamp are ordered by a *seeded tie-break* — a
//! SplitMix64 hash of the event's stream id — then by insertion sequence.
//! Within one stream, simultaneous events therefore pop FIFO (a connection
//! delivers in send order); across streams, simultaneous events interleave
//! in a seed-determined but arbitrary order, which is exactly the situation
//! of K independently scheduled coordinator shards merging at publish.
//! Replaying the same seed replays the identical event order.
//!
//! The queue is an *in-order lane* next to a binary heap. A push whose key
//! `(time, tie, seq)` sorts after the lane's last entry is appended to the
//! lane in O(1); every other push goes to the heap, and a pop takes the
//! smaller of the two heads. The lane is sorted by construction and keys
//! are unique (`seq` is), so the smaller head is the global minimum and the
//! pop order is exactly that of one heap over every entry. A round pushes
//! its wave of check-ins in time order, so the wave rides the lane. A reply
//! lands just after the event being handled, ahead of the wave's tail, so
//! it goes to the heap, and it is popped before the next reply is pushed:
//! over a scalar per-client round the heap never holds more than one entry
//! (a `net` test pins this), instead of every reply sifting through a
//! wave-deep heap.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// SplitMix64 finalizer, matching `fednum_fedsim::faults`' hash: event
/// tie-breaks must be deterministic functions of (seed, stream), never of
/// heap internals.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The smallest representable virtual time strictly after `t` — the
/// scheduler's minimum tick. Used when an event must sort strictly after a
/// boundary (a straggler past a collection deadline, a salvage slot after a
/// drained session) and any fixed delta would round back onto the boundary
/// once its magnitude exceeds the delta's precision.
#[must_use]
pub fn next_tick(t: f64) -> f64 {
    t.next_up()
}

/// One scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled<T> {
    /// Virtual time the event fires at.
    pub time: f64,
    /// The stream it was scheduled on.
    pub stream: u64,
    /// The payload.
    pub item: T,
}

struct Entry<T> {
    time: f64,
    tie: u64,
    seq: u64,
    stream: u64,
    item: T,
}

impl<T> Entry<T> {
    /// Min-queue key order: earliest time, then seeded tie, then FIFO.
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.tie.cmp(&other.tie))
            .then(self.seq.cmp(&other.seq))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for a min-queue.
        self.key_cmp(other).reverse()
    }
}

/// A deterministic min-priority event queue over virtual time.
pub struct EventQueue<T> {
    /// Entries pushed in ascending key order, each after the last.
    lane: VecDeque<Entry<T>>,
    /// Every other entry.
    heap: BinaryHeap<Entry<T>>,
    seed: u64,
    seq: u64,
    now: f64,
}

impl<T> EventQueue<T> {
    /// An empty queue whose same-time tie-breaks derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            seed,
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedules `item` on `stream` at virtual `time`.
    ///
    /// # Panics
    /// Panics on a non-finite `time` — a NaN deadline is a programming
    /// error, not fleet behaviour.
    pub fn push(&mut self, time: f64, stream: u64, item: T) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let tie = mix(self.seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        self.seq += 1;
        let entry = Entry {
            time,
            tie,
            seq: self.seq,
            stream,
            item,
        };
        match self.lane.back() {
            Some(last) if entry.key_cmp(last) == Ordering::Less => self.heap.push(entry),
            _ => self.lane.push_back(entry),
        }
    }

    /// Whether the earliest entry heads the lane rather than the heap.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key_cmp(h) == Ordering::Less,
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        let e = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        self.now = self.now.max(e.time);
        Some(Scheduled {
            time: e.time,
            stream: e.stream,
            item: e.item,
        })
    }

    /// The earliest scheduled time, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        if self.lane_first() {
            self.lane.front().map(|e| e.time)
        } else {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// The virtual clock: the time of the latest popped event.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether the queue is drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Pending events held in the heap rather than the lane.
    #[cfg(test)]
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The queue as it was before the in-order lane: one heap over every
    /// entry, the reference whose pop order the lane must reproduce.
    struct HeapQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        seed: u64,
        seq: u64,
        now: f64,
    }

    impl<T> HeapQueue<T> {
        fn new(seed: u64) -> Self {
            Self {
                heap: BinaryHeap::new(),
                seed,
                seq: 0,
                now: 0.0,
            }
        }

        fn push(&mut self, time: f64, stream: u64, item: T) {
            let tie = mix(self.seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
            self.seq += 1;
            self.heap.push(Entry {
                time,
                tie,
                seq: self.seq,
                stream,
                item,
            });
        }

        fn pop(&mut self) -> Option<Scheduled<T>> {
            let e = self.heap.pop()?;
            self.now = self.now.max(e.time);
            Some(Scheduled {
                time: e.time,
                stream: e.stream,
                item: e.item,
            })
        }

        fn peek_time(&self) -> Option<f64> {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// Few distinct times, so same-time ties across and within streams are
    /// common and, once the clock has moved, pushes land before `now`.
    const TIMES: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 2.0, 3.0];

    fn bits(t: Option<f64>) -> Option<u64> {
        t.map(f64::to_bits)
    }

    proptest! {
        #[test]
        fn lane_queue_pops_exactly_like_a_plain_heap(
            seed in any::<u64>(),
            // Per step `(op, time, stream)`: op 0–3 pushes, 4–6 pops and 7
            // only peeks (every step compares `peek_time`).
            ops in proptest::collection::vec((0..8u8, 0..TIMES.len(), 0..4u64), 0..400),
        ) {
            let mut lane = EventQueue::new(seed);
            let mut heap = HeapQueue::new(seed);
            for (i, (op, time, stream)) in ops.into_iter().enumerate() {
                match op {
                    0..=3 => {
                        lane.push(TIMES[time], stream, i);
                        heap.push(TIMES[time], stream, i);
                    }
                    4..=6 => {
                        let (a, b) = (lane.pop(), heap.pop());
                        prop_assert_eq!(
                            a.map(|s| (s.time.to_bits(), s.stream, s.item)),
                            b.map(|s| (s.time.to_bits(), s.stream, s.item))
                        );
                    }
                    _ => {}
                }
                prop_assert_eq!(bits(lane.peek_time()), bits(heap.peek_time()));
                prop_assert_eq!(lane.now().to_bits(), heap.now.to_bits());
                prop_assert_eq!(lane.len(), heap.heap.len());
                prop_assert_eq!(lane.is_empty(), heap.heap.is_empty());
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(1);
        q.push(3.0, 0, "c");
        q.push(1.0, 0, "a");
        q.push(2.0, 0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.item)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_stream_same_time_is_fifo() {
        let mut q = EventQueue::new(42);
        for i in 0..100 {
            q.push(5.0, 7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.item)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cross_stream_ties_are_seeded_and_deterministic() {
        let run = |seed: u64| -> Vec<u64> {
            let mut q = EventQueue::new(seed);
            for stream in 0..32u64 {
                q.push(1.0, stream, stream);
            }
            std::iter::from_fn(|| q.pop().map(|s| s.item)).collect()
        };
        assert_eq!(run(1), run(1), "same seed replays identically");
        assert_ne!(run(1), run(2), "different seeds interleave differently");
        assert_ne!(
            run(1),
            (0..32).collect::<Vec<_>>(),
            "tie-break is not plain insertion order across streams"
        );
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new(0);
        q.push(2.0, 0, ());
        q.push(4.0, 1, ());
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.peek_time(), Some(2.0));
        q.pop();
        assert_eq!(q.now(), 2.0);
        q.pop();
        assert_eq!(q.now(), 4.0);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn next_tick_is_strict_at_any_magnitude() {
        for t in [0.0, 1.0, 2.0, 30.0, 1.0e9, 2.0e9] {
            assert!(next_tick(t) > t, "next_tick({t}) must be strictly later");
            // The naive `t + f64::EPSILON` nudge fails this from 2.0 upward.
            assert!(next_tick(t) - t <= f64::EPSILON.max(t * f64::EPSILON));
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_times_rejected() {
        let mut q = EventQueue::new(0);
        q.push(f64::NAN, 0, ());
    }
}
