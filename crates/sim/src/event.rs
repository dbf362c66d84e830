//! Discrete-event queue.
//!
//! The simulation is event-driven: every component schedules future work
//! (sensor samples, MQTT publishes, TDMA slot openings, handshake phase
//! completions) as events in a single [`EventQueue`]. The queue is a priority
//! queue ordered by event time with a monotonically increasing sequence
//! number as a tie-breaker, so simultaneous events are delivered in the exact
//! order they were scheduled — a requirement for reproducible runs.

use crate::time::{SimDuration, SimTime};
use core::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw sequence number backing this id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// Simulated time at which the event fires.
    pub at: SimTime,
    /// Identifier assigned when the event was scheduled.
    pub id: EventId,
    /// User payload.
    pub payload: E,
}

#[derive(Debug)]
struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    cancelled: bool,
    payload: Option<E>,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of timestamped events driving the simulation.
///
/// # Examples
///
/// ```
/// use rtem_sim::event::EventQueue;
/// use rtem_sim::time::{SimDuration, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_secs(2), "later");
/// queue.schedule(SimTime::from_secs(1), "sooner");
///
/// let first = queue.pop().unwrap();
/// assert_eq!(first.payload, "sooner");
/// assert_eq!(queue.now(), SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    now: SimTime,
    next_seq: u64,
    cancelled: std::collections::HashSet<u64>,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the simulation epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            cancelled: std::collections::HashSet::new(),
            popped: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events scheduled and not yet delivered or cancelled.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Returns `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` to fire at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time, which
    /// would make the event unreachable and almost always indicates a logic
    /// error in the caller.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (now {}, requested {})",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            at,
            seq,
            cancelled: false,
            payload: Some(payload),
        });
        EventId(seq)
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule(at, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.drop_cancelled_head();
        self.heap.peek().map(|e| e.at)
    }

    /// Time and payload of the next pending event without popping it —
    /// the look-ahead batching dispatchers use to recognize runs of
    /// homogeneous simultaneous events.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        self.drop_cancelled_head();
        self.heap
            .peek()
            .map(|e| (e.at, e.payload.as_ref().expect("pending payload")))
    }

    /// Pops the next event and advances the simulation clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.drop_cancelled_head();
        let mut entry = self.heap.pop()?;
        debug_assert!(!entry.cancelled);
        self.now = entry.at;
        self.popped += 1;
        Some(ScheduledEvent {
            at: entry.at,
            id: EventId(entry.seq),
            payload: entry.payload.take().expect("payload present"),
        })
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    fn drop_cancelled_head(&mut self) {
        // Runs on every peek and pop; a queue nobody cancels from (the
        // world's) skips the hash probe.
        if self.cancelled.is_empty() {
            return;
        }
        while let Some(head) = self.heap.peek() {
            if self.cancelled.remove(&head.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_keep_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(100);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(250), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(250));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "first");
        q.pop();
        q.schedule_after(SimDuration::from_secs(2), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(SimTime::from_secs(1), "keep");
        let drop_id = q.schedule(SimTime::from_secs(2), "drop");
        assert!(q.cancel(drop_id));
        assert!(!q.cancel(drop_id), "double cancel reports false");
        assert_eq!(q.len(), 1);
        let delivered: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(delivered, vec!["keep"]);
        let _ = keep;
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(123)));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(10), 2);
        assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().payload, 1);
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_and_delivered_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.delivered(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_one_of_several_tied_events_keeps_time_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let ids: Vec<EventId> = (0..5).map(|i| q.schedule(t, i)).collect();
        q.schedule(SimTime::from_secs(2), 5);
        assert_eq!(q.pop().map(|e| e.payload), Some(0));
        // The cancelled event is now the head of the tie.
        assert!(q.cancel(ids[1]));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek().map(|(at, &p)| (at, p)), Some((t, 2)));
        assert_eq!(q.len(), 4, "dropping the cancelled head keeps len");
        let rest: Vec<(SimTime, i32)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.at, e.payload))).collect();
        assert_eq!(
            rest,
            vec![(t, 2), (t, 3), (t, 4), (SimTime::from_secs(2), 5)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }
}
