//! Data layer of the device stack (Fig. 2).
//!
//! "Data representation, security, and storage are the main features of the
//! data layer. In the absence of network connectivity with the aggregator,
//! raw consumption data is stored in the local storage until the connection
//! is established." This module is that local store: a bounded FIFO of
//! measurement records awaiting acknowledgment, plus an integrity digest so
//! locally buffered data cannot be altered unnoticed before transmission.

use rtem_chain::sha256::{Digest, Sha256};
use rtem_net::packet::MeasurementRecord;

/// Outcome of pushing a record into the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The record was stored.
    Stored,
    /// The store was full; the oldest record was evicted to make room.
    StoredEvictingOldest,
}

/// Bounded store-and-forward buffer for unacknowledged measurements.
///
/// # Examples
///
/// ```
/// use rtem_device::data_layer::LocalStore;
/// use rtem_net::packet::{DeviceId, MeasurementRecord};
///
/// let mut store = LocalStore::new(8);
/// store.push(MeasurementRecord {
///     device: DeviceId(1),
///     sequence: 0,
///     interval_start_us: 0,
///     interval_end_us: 100_000,
///     mean_current_ua: 120_000,
///     charge_uas: 12_000,
///     backfilled: false,
/// });
/// assert_eq!(store.len(), 1);
/// let batch = store.drain_for_transmission(16);
/// assert_eq!(batch.len(), 1);
/// assert!(batch[0].backfilled, "retransmitted records are marked backfilled");
/// ```
#[derive(Debug, Clone)]
pub struct LocalStore {
    capacity: usize,
    /// Backing storage. The live records are `records[head..]`; everything
    /// before `head` is already evicted, acknowledged or drained for
    /// transmission and awaits the next compaction. The offset turns
    /// eviction and in-order acknowledgment into pointer bumps instead of
    /// `Vec::remove(0)` memmoves — at fleet scale an unregistered device
    /// fills its whole store and then evicts on *every* measurement tick,
    /// which made the old representation quadratic in the run horizon.
    /// Compaction keeps the dead prefix within `max(len, COMPACT_FLOOR)`,
    /// so a reporting device with one or two live records holds a buffer
    /// of a few dozen, not `capacity`.
    records: Vec<MeasurementRecord>,
    head: usize,
    evicted: u64,
    total_stored: u64,
}

/// The dead prefix a [`LocalStore`] tolerates however few records are live,
/// so a store holding one record compacts every few acknowledgments rather
/// than on each one.
const COMPACT_FLOOR: usize = 16;

impl PartialEq for LocalStore {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over the logical contents, not the compaction state.
        self.capacity == other.capacity
            && self.evicted == other.evicted
            && self.total_stored == other.total_stored
            && self.peek_all() == other.peek_all()
    }
}

impl LocalStore {
    /// Creates a store holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "local store capacity must be non-zero");
        LocalStore {
            capacity,
            records: Vec::new(),
            head: 0,
            evicted: 0,
            total_stored: 0,
        }
    }

    /// Maximum number of records the store can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.records.len() - self.head
    }

    /// Returns `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.head == self.records.len()
    }

    /// Drops the dead prefix once it outgrows both the live records and
    /// [`COMPACT_FLOOR`], keeping the backing vector within 2x of the live
    /// size plus the floor. A compaction moves fewer live records than the
    /// dead ones it drops, so its cost is amortized O(1) per eviction,
    /// acknowledgment or drained record.
    fn maybe_compact(&mut self) {
        if self.head > self.len().max(COMPACT_FLOOR) {
            self.records.drain(..self.head);
            self.head = 0;
        }
    }

    /// Number of records dropped because the store overflowed.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total number of records ever stored.
    pub fn total_stored(&self) -> u64 {
        self.total_stored
    }

    /// Buffers a record, evicting the oldest one if the store is full (the
    /// newest data is the most valuable for billing continuity).
    pub fn push(&mut self, record: MeasurementRecord) -> StoreOutcome {
        self.total_stored += 1;
        if self.len() == self.capacity {
            self.head += 1;
            self.evicted += 1;
            self.maybe_compact();
            self.records.push(record);
            StoreOutcome::StoredEvictingOldest
        } else {
            self.records.push(record);
            StoreOutcome::Stored
        }
    }

    /// Removes up to `max` records (oldest first) for transmission, marking
    /// each as backfilled. If the transmission later fails they must be
    /// re-pushed by the caller.
    pub fn drain_for_transmission(&mut self, max: usize) -> Vec<MeasurementRecord> {
        let take = max.min(self.len());
        let batch = self.records[self.head..self.head + take]
            .iter()
            .map(|&r| MeasurementRecord {
                backfilled: true,
                ..r
            })
            .collect();
        self.head += take;
        self.maybe_compact();
        batch
    }

    /// Returns the buffered records without removing them.
    pub fn peek_all(&self) -> &[MeasurementRecord] {
        &self.records[self.head..]
    }

    /// Drops every buffered record — a firmware crash losing the volatile
    /// store-and-forward buffer. Returns how many records were lost.
    pub fn clear(&mut self) -> usize {
        let lost = self.len();
        self.records.clear();
        self.head = 0;
        lost
    }

    /// Drops every record with `sequence <= through_sequence` — called when
    /// the aggregator acknowledges receipt.
    pub fn acknowledge_through(&mut self, through_sequence: u64) -> usize {
        let before = self.len();
        // Records are pushed in ascending sequence order, so acknowledged
        // records form a prefix — pruning is an offset bump.
        while self.head < self.records.len() && self.records[self.head].sequence <= through_sequence
        {
            self.head += 1;
        }
        // Re-pushed backfill can break monotonicity; fall back to filtering
        // the (now small) live remainder only when it actually happened.
        if self
            .peek_all()
            .iter()
            .any(|r| r.sequence <= through_sequence)
        {
            let kept: Vec<MeasurementRecord> = self
                .records
                .drain(self.head..)
                .filter(|r| r.sequence > through_sequence)
                .collect();
            self.records.extend(kept);
        }
        self.maybe_compact();
        before - self.len()
    }

    /// Integrity digest over the buffered records (in order). The device
    /// keeps this in non-volatile memory so that local tampering between
    /// sampling and transmission is detectable.
    pub fn integrity_digest(&self) -> Digest {
        let mut hasher = Sha256::new();
        for r in self.peek_all() {
            hasher.update(&r.canonical_bytes());
        }
        hasher.finalize()
    }

    /// Total charge buffered, in microamp-seconds.
    pub fn buffered_charge_uas(&self) -> u64 {
        self.peek_all().iter().map(|r| r.charge_uas).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_net::packet::DeviceId;
    use rtem_sim::rng::SimRng;

    fn record(seq: u64) -> MeasurementRecord {
        MeasurementRecord {
            device: DeviceId(1),
            sequence: seq,
            interval_start_us: seq * 100_000,
            interval_end_us: (seq + 1) * 100_000,
            mean_current_ua: 100_000,
            charge_uas: 10_000,
            backfilled: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut s = LocalStore::new(4);
        assert!(s.is_empty());
        assert_eq!(s.push(record(0)), StoreOutcome::Stored);
        assert_eq!(s.push(record(1)), StoreOutcome::Stored);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_stored(), 2);
        assert_eq!(s.capacity(), 4);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut s = LocalStore::new(3);
        for i in 0..3 {
            s.push(record(i));
        }
        assert_eq!(s.push(record(3)), StoreOutcome::StoredEvictingOldest);
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 1);
        let seqs: Vec<u64> = s.peek_all().iter().map(|r| r.sequence).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn drain_marks_backfilled_and_preserves_order() {
        let mut s = LocalStore::new(10);
        for i in 0..5 {
            s.push(record(i));
        }
        let batch = s.drain_for_transmission(3);
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|r| r.backfilled));
        assert_eq!(batch[0].sequence, 0);
        assert_eq!(batch[2].sequence, 2);
        assert_eq!(s.len(), 2);
        // Draining more than available just drains what is there.
        let rest = s.drain_for_transmission(100);
        assert_eq!(rest.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn acknowledge_removes_covered_records() {
        let mut s = LocalStore::new(10);
        for i in 0..6 {
            s.push(record(i));
        }
        assert_eq!(s.acknowledge_through(3), 4);
        let seqs: Vec<u64> = s.peek_all().iter().map(|r| r.sequence).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert_eq!(s.acknowledge_through(100), 2);
        assert!(s.is_empty());
        assert_eq!(s.acknowledge_through(100), 0);
    }

    #[test]
    fn clear_loses_everything_buffered() {
        let mut s = LocalStore::new(10);
        for i in 0..4 {
            s.push(record(i));
        }
        assert_eq!(s.clear(), 4);
        assert!(s.is_empty());
        assert_eq!(s.clear(), 0);
        // Lifetime counters survive the crash.
        assert_eq!(s.total_stored(), 4);
    }

    #[test]
    fn integrity_digest_changes_with_content() {
        let mut a = LocalStore::new(10);
        let mut b = LocalStore::new(10);
        a.push(record(0));
        b.push(record(0));
        assert_eq!(a.integrity_digest(), b.integrity_digest());
        b.push(record(1));
        assert_ne!(a.integrity_digest(), b.integrity_digest());
    }

    #[test]
    fn buffered_charge_sums_records() {
        let mut s = LocalStore::new(10);
        for i in 0..4 {
            s.push(record(i));
        }
        assert_eq!(s.buffered_charge_uas(), 40_000);
    }

    #[test]
    fn dead_prefix_stays_within_the_compaction_bound() {
        let mut s = LocalStore::new(4096);
        let mut rng = SimRng::seed_from_u64(5);
        let mut compactions = 0;
        for seq in 0..10_000 {
            s.push(record(seq));
            assert!(s.head <= s.len().max(COMPACT_FLOOR), "after push {seq}");
            // An aggregator acking all but the newest 0..=2 records, as one
            // lagging a tick or two behind the device does.
            let lag = rng.next_below(3);
            if let Some(through) = seq.checked_sub(lag) {
                let head_before = s.head;
                s.acknowledge_through(through);
                compactions += usize::from(s.head < head_before);
            }
            assert!(s.len() <= 3, "at most 3 live records");
            assert!(s.head <= s.len().max(COMPACT_FLOOR), "after ack {seq}");
        }
        assert!(s.records.len() <= 3 + COMPACT_FLOOR);
        assert!(compactions > 10_000 / (COMPACT_FLOOR + 3));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = LocalStore::new(0);
    }
}
