//! Deterministic future-event queue.
//!
//! A classic discrete-event simulation calendar: a min-heap ordered by
//! `(time, sequence)` where the sequence number is assigned at insertion.
//! The sequence tie-break makes simultaneous events pop in FIFO order,
//! which removes the last source of nondeterminism from the simulator —
//! `BinaryHeap` alone has unspecified ordering among equal keys.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: event `E` due at `time`, inserted as the `seq`-th
/// entry overall.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant are delivered in insertion order.
/// Scheduling an event in the past (before the last popped time) is allowed
/// and delivers it at the current front of the queue; the simulation clock
/// never moves backwards.
///
/// ```
/// use sq_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the origin.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the last popped event,
    /// or zero if nothing has been popped yet.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Times earlier than `now()`
    /// are clamped to `now()` so the clock stays monotone.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "clock went backwards");
        self.now = entry.time;
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.pop();
        // Scheduling before now() must not rewind the clock.
        q.schedule(SimTime::from_secs(1), "clamped");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "clamped");
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.heap.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let (t1, _) = q.pop().unwrap();
        q.schedule(t1 + SimDuration::from_secs(1), 2);
        q.schedule(t1 + SimDuration::from_millis(500), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }
}
