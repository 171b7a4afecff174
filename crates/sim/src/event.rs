//! The discrete-event core: [`EventQueue`], a binary heap of events.
//!
//! The simulator's hot loop is `pop → activate → push*`. The queue pops
//! events in ascending `(at, seq)` order, where `seq` is the insertion
//! sequence number. That total order is part of the repository's
//! reproducibility contract (see `fd_detectors::scenario::salt`): the
//! recorded trace fingerprints in `tests/scenario_engine.rs` pin it.
//!
//! Events are plain [`Copy`] data: message payloads live in the
//! [`crate::arena::MsgArena`] and deliveries carry a [`MsgSlot`] handle, so
//! a queue node's size is fixed regardless of the protocol's message type
//! and batch insertion is a `memcpy`-class operation.

use crate::arena::MsgSlot;
use crate::id::ProcessId;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Point-to-point delivery of the payload in `slot`, sent by `from`.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Arena handle of the payload.
        slot: MsgSlot,
    },
    /// Reliable-broadcast delivery of the payload in `slot`, R-broadcast by
    /// `from`.
    RbDeliver {
        /// Original broadcaster.
        from: ProcessId,
        /// Arena handle of the payload.
        slot: MsgSlot,
    },
    /// A local step of the process (drives `repeat forever` tasks and
    /// re-evaluates time-dependent guards).
    Step,
    /// A late-starting process joins the run (churn: a fresh process id
    /// beginning its `on_start` only now).
    Join,
    /// The process crashes.
    Crash,
}

/// A scheduled event targeting process `to` at time `at`.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Deterministic tie-breaker (insertion order).
    pub seq: u64,
    /// Target process.
    pub to: ProcessId,
    /// What happens.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Sequence numbers break ties deterministically (FIFO insertion).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A not-yet-sequenced event staged for an [`EventQueue::push_batch`] call.
///
/// Broadcast routing stages all of a broadcast's deliveries into one
/// (caller-recycled) `Vec<Staged>` and hands them to the queue in a single
/// call, so the heap reserves once instead of once per recipient. Staged
/// events are `Copy`: the batch is passed by slice and the caller clears
/// and recycles the buffer.
#[derive(Clone, Copy, Debug)]
pub struct Staged {
    /// When the event fires.
    pub at: Time,
    /// Target process.
    pub to: ProcessId,
    /// What happens.
    pub kind: EventKind,
}

/// The name of the event core a run uses. There is one, the binary heap;
/// the type remains only because the benchmark in `perfbench/` names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// The [`EventQueue`] (binary heap).
    #[default]
    BinaryHeap,
}

impl QueueKind {
    /// Stable name, recorded in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::BinaryHeap => "binary_heap",
        }
    }
}

/// A time-ordered event queue with deterministic tie-breaking: a
/// [`BinaryHeap`] ordered by `(at, seq)`.
///
/// * [`EventQueue::push`] assigns the event the next insertion sequence
///   number (starting at 0);
/// * [`EventQueue::push_batch`] inserts the staged events in slice order,
///   exactly as if each had been pushed individually;
/// * [`EventQueue::pop`] removes the pending event with the smallest
///   `(at, seq)` key.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` for `to` at time `at`.
    pub fn push(&mut self, at: Time, to: ProcessId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, to, kind });
    }

    /// Schedules every staged event, in slice order. Observationally
    /// identical to pushing one by one; one capacity check for the whole
    /// broadcast instead of one per recipient.
    pub fn push_batch(&mut self, batch: &[Staged]) {
        self.heap.reserve(batch.len());
        for s in batch {
            self.push(s.at, s.to, s.kind);
        }
    }

    /// Removes and returns the pending event with the smallest `(at, seq)`.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// A delivery kind whose payload lives nowhere: queue-level tests only
    /// exercise ordering, never dereference the slot.
    fn deliver(to: ProcessId, tag: u32) -> EventKind {
        EventKind::Deliver {
            from: to,
            slot: MsgSlot::from_raw(tag),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(5), ProcessId(0), EventKind::Step);
        q.push(Time(1), ProcessId(1), EventKind::Step);
        q.push(Time(3), ProcessId(2), EventKind::Crash);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        q.push(Time(2), ProcessId(0), EventKind::Step);
        q.push(Time(2), ProcessId(1), EventKind::Step);
        assert_eq!(q.pop().unwrap().to, ProcessId(0));
        assert_eq!(q.pop().unwrap().to, ProcessId(1));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(9), ProcessId(0), EventKind::Step);
        assert_eq!(q.peek_time(), Some(Time(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn sparse_far_future_events_pop() {
        let mut q = EventQueue::new();
        q.push(Time(1_000_000), ProcessId(0), EventKind::Step);
        q.push(Time(2), ProcessId(1), EventKind::Step);
        assert_eq!(q.pop().unwrap().at, Time(2));
        assert_eq!(q.pop().unwrap().at, Time(1_000_000));
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_kind_names() {
        assert_eq!(QueueKind::BinaryHeap.name(), "binary_heap");
        assert_eq!(QueueKind::default(), QueueKind::BinaryHeap);
    }

    /// `push_batch` is observationally identical to pushing one by one —
    /// same sequence numbers, same pop stream — across batch sizes and
    /// interleaved pops.
    #[test]
    fn push_batch_matches_individual_pushes() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed ^ 0xBA7C);
            let mut scalar = EventQueue::new();
            let mut batched = EventQueue::new();
            let mut staging: Vec<Staged> = Vec::new();
            let mut now = 0u64;
            for round in 0..300u32 {
                let fanout = rng.range(1, 33);
                for _ in 0..fanout {
                    let at = Time(now + rng.range(0, 12));
                    let to = ProcessId(rng.below(16) as usize);
                    let kind = deliver(to, round);
                    scalar.push(at, to, kind);
                    staging.push(Staged { at, to, kind });
                }
                batched.push_batch(&staging);
                staging.clear();
                // Drain a few to interleave pops with batches.
                for _ in 0..rng.range(0, 8) {
                    let Some(a) = scalar.pop() else { break };
                    now = a.at.0;
                    let b = batched.pop().unwrap();
                    assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to), "seed {seed}");
                }
            }
            while let Some(a) = scalar.pop() {
                let b = batched.pop().unwrap();
                assert_eq!((a.at, a.seq, a.to), (b.at, b.seq, b.to), "seed {seed}");
            }
            assert!(batched.is_empty(), "seed {seed}");
        }
    }
}
