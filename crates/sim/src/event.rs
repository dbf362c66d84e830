//! Discrete-event queue.
//!
//! The simulation is event-driven: every component schedules future work
//! (sensor samples, MQTT publishes, TDMA slot openings, handshake phase
//! completions) as events in a single [`EventQueue`]. Events pop in event
//! time order with a monotonically increasing sequence number as a
//! tie-breaker, so simultaneous events are delivered in the exact order
//! they were scheduled — a requirement for reproducible runs.
//!
//! Most events are periodic timers that re-arm at one fixed delay (every
//! device's Tmeasure tick, every aggregator's upstream sample and window).
//! The queue keeps four FIFO timer lanes next to its binary heap; each
//! lane holds the pending events scheduled with one exact delay `at − now`. The clock never runs backwards and sequence numbers only
//! grow, so consecutive pushes onto one lane carry non-decreasing `at` and
//! increasing `seq`: a lane is already in `(at, seq)` order, a push is an
//! append and the lane's head is its front. The next event is the least
//! `(at, seq)` among the heap's top and the lane fronts — the same order a
//! single heap would give, without a sift for the re-armed timers.

use crate::time::{SimDuration, SimTime};
use core::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Number of FIFO timer lanes an [`EventQueue`] keeps beside its heap.
const LANES: usize = 4;

/// Opaque identifier of a scheduled event: its sequence number.
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
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.key().cmp(&self.key())
    }
}

/// Pending events that were all scheduled with the same delay, in
/// `(at, seq)` order (see the module docs).
#[derive(Debug)]
struct Lane<E> {
    /// The delay, in µs, of every entry in the lane. Meaningless while the
    /// lane is empty: an empty lane takes the next delay that has no lane.
    delay_us: u64,
    entries: VecDeque<Entry<E>>,
}

/// Where the next event waits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Lane(usize),
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
    heap: BinaryHeap<Entry<E>>,
    lanes: [Lane<E>; LANES],
    now: SimTime,
    next_seq: u64,
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
            lanes: std::array::from_fn(|_| Lane {
                delay_us: 0,
                entries: VecDeque::new(),
            }),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events scheduled and not yet delivered.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.entries.len()).sum::<usize>()
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
        let entry = Entry { at, seq, payload };
        match self.lane_for(at.as_micros() - self.now.as_micros()) {
            Some(lane) => self.lanes[lane].entries.push_back(entry),
            None => self.heap.push(entry),
        }
        EventId(seq)
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule(at, payload)
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Time and payload of the next pending event without popping it —
    /// the look-ahead batching dispatchers use to recognize runs of
    /// homogeneous simultaneous events.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        let entry = match self.next_source()? {
            Source::Heap => self.heap.peek(),
            Source::Lane(lane) => self.lanes[lane].entries.front(),
        }?;
        Some((entry.at, &entry.payload))
    }

    /// Pops the next event and advances the simulation clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = match self.next_source()? {
            Source::Heap => self.heap.pop(),
            Source::Lane(lane) => self.lanes[lane].entries.pop_front(),
        }?;
        self.now = entry.at;
        self.popped += 1;
        Some(ScheduledEvent {
            at: entry.at,
            id: EventId(entry.seq),
            payload: entry.payload,
        })
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// The lane for events scheduled `delay_us` ahead: the lane already
    /// holding that delay, else the first empty lane (which takes it), else
    /// none — the event goes to the heap.
    fn lane_for(&mut self, delay_us: u64) -> Option<usize> {
        let mut empty = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.delay_us == delay_us {
                return Some(i);
            }
            if empty.is_none() && lane.entries.is_empty() {
                empty = Some(i);
            }
        }
        let lane = empty?;
        self.lanes[lane].delay_us = delay_us;
        Some(lane)
    }

    /// The source holding the least `(at, seq)`, if any event is pending.
    fn next_source(&self) -> Option<Source> {
        let mut best = self.heap.peek().map(|e| (e.key(), Source::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.entries.front() {
                if best.map_or(true, |(key, _)| front.key() < key) {
                    best = Some((front.key(), Source::Lane(i)));
                }
            }
        }
        best.map(|(_, source)| source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

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

    /// The queue against a naive model: every pending event in a `Vec`,
    /// popped by least `(at, seq)`. The delays mix lane-sized re-arms
    /// (more distinct repeated delays than there are lanes, so lanes
    /// empty and change delay), one-off delays that land on the heap, and
    /// zero delays that tie with the current time.
    #[test]
    fn matches_a_sorted_vec_model_across_seeds() {
        const REPEATED_US: [u64; 6] = [0, 1_000, 100_000, 250_000, 1_000_000, 10_000_000];
        for seed in 0..32 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut model_now = SimTime::ZERO;
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            let model_pop = |model: &mut Vec<(SimTime, u64, u32)>| {
                let (i, _) = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(at, seq, _))| (at, seq))?;
                Some(model.remove(i))
            };
            for step in 0..3_000u32 {
                match rng.next_below(10) {
                    0..=4 => {
                        let delay_us = if rng.chance(0.8) {
                            REPEATED_US[rng.next_below(REPEATED_US.len() as u64) as usize]
                        } else {
                            rng.next_below(20_000_000)
                        };
                        let at = queue.now() + SimDuration::from_micros(delay_us);
                        let id = queue.schedule(at, step);
                        model.push((at, id.as_u64(), step));
                    }
                    5 => {
                        let peeked = queue.peek().map(|(at, &payload)| (at, payload));
                        let head = model.iter().min_by_key(|&&(at, seq, _)| (at, seq));
                        assert_eq!(peeked, head.map(|&(at, _, payload)| (at, payload)));
                    }
                    6 => {
                        let deadline =
                            model_now + SimDuration::from_micros(rng.next_below(500_000));
                        let due = model
                            .iter()
                            .map(|&(at, seq, _)| (at, seq))
                            .min()
                            .is_some_and(|(at, _)| at <= deadline);
                        if let Some(e) = queue.pop_until(deadline) {
                            popped.push((e.at, e.id.as_u64(), e.payload));
                        }
                        if due {
                            let next = model_pop(&mut model).expect("due event");
                            model_now = next.0;
                            expected.push(next);
                        }
                    }
                    _ => {
                        if let Some(e) = queue.pop() {
                            popped.push((e.at, e.id.as_u64(), e.payload));
                        }
                        if let Some(next) = model_pop(&mut model) {
                            model_now = next.0;
                            expected.push(next);
                        }
                    }
                }
                assert_eq!(queue.len(), model.len(), "seed {seed}, step {step}");
                assert_eq!(queue.now(), model_now, "seed {seed}, step {step}");
            }
            while let Some(e) = queue.pop() {
                popped.push((e.at, e.id.as_u64(), e.payload));
            }
            while let Some(next) = model_pop(&mut model) {
                expected.push(next);
            }
            assert_eq!(popped, expected, "seed {seed}");
            assert!(queue.is_empty());
        }
    }
}
