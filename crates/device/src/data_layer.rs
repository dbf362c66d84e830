//! Data layer of the device stack (Fig. 2).
//!
//! "Data representation, security, and storage are the main features of the
//! data layer. In the absence of network connectivity with the aggregator,
//! raw consumption data is stored in the local storage until the connection
//! is established." This module is that local store: a bounded FIFO of
//! measurement records awaiting acknowledgment, plus an integrity digest so
//! locally buffered data cannot be altered unnoticed before transmission.

use std::collections::VecDeque;

use rtem_chain::sha256::{Digest, Sha256};
use rtem_net::packet::{DeviceId, MeasurementRecord};

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
/// The store is a ring that never holds more than `capacity` slots of 24
/// bytes each. A slot packs one record against the device id and base
/// sequence the store keeps once; a record that does not fit one is kept
/// whole in a side FIFO, behind a sentinel slot. Every record reads back
/// bit-identical to the one pushed.
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
    /// One slot per buffered record, oldest first. The allocation doubles
    /// from [`MIN_SLOTS`] up to `capacity` and no further: once full, each
    /// eviction frees the slot the next push reuses. An unregistered device
    /// fills its store and then evicts on *every* measurement tick, so both
    /// ends of the ring are O(1).
    slots: VecDeque<Slot>,
    /// The records that do not fit a [`Slot`], whole and oldest first; each
    /// has an [`Slot::ESCAPED`] sentinel at its place in `slots`.
    escaped: VecDeque<MeasurementRecord>,
    /// Device and sequence the packed slots are relative to, both taken
    /// from the record pushed into the empty store.
    device: DeviceId,
    base_sequence: u64,
    /// Sequence of the newest push, and whether any push since the store
    /// was last empty went below its predecessor (re-pushed backfill does).
    last_sequence: u64,
    unordered: bool,
    evicted: u64,
    total_stored: u64,
}

/// One buffered record, packed against its store's device and base sequence.
#[derive(Debug, Clone, Copy)]
struct Slot {
    end_us: u64,
    /// Sequence minus the store's base sequence; the top bit is `backfilled`.
    seq_off: u32,
    /// Interval end minus start. `u32::MAX` marks an [`Slot::ESCAPED`] sentinel.
    dur_us: u32,
    mean_ua: u32,
    charge_uas: u32,
}

const _: () = assert!(core::mem::size_of::<Slot>() == 24);

impl Slot {
    const BACKFILLED: u32 = 1 << 31;
    /// Stands for the next record of the store's escape FIFO.
    const ESCAPED: Slot = Slot {
        end_us: 0,
        seq_off: 0,
        dur_us: u32::MAX,
        mean_ua: 0,
        charge_uas: 0,
    };
}

/// The first allocation of a store's ring, doubled from there on.
const MIN_SLOTS: usize = 4;

/// Makes room for one more element in `queue`, doubling its allocation from
/// [`MIN_SLOTS`] but never past `capacity`, which `queue.len()` is below.
fn reserve_one<T>(queue: &mut VecDeque<T>, capacity: usize) {
    if queue.len() == queue.capacity() {
        let grown = (2 * queue.capacity()).max(MIN_SLOTS).min(capacity);
        queue.reserve_exact(grown - queue.len());
    }
}

impl PartialEq for LocalStore {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over the logical contents, not how they are packed.
        self.capacity == other.capacity
            && self.evicted == other.evicted
            && self.total_stored == other.total_stored
            && self.iter().eq(other.iter())
    }
}

impl LocalStore {
    /// Creates a store holding at most `capacity` records. It allocates
    /// nothing until the first push.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "local store capacity must be non-zero");
        LocalStore {
            capacity,
            slots: VecDeque::new(),
            escaped: VecDeque::new(),
            device: DeviceId::default(),
            base_sequence: 0,
            last_sequence: 0,
            unordered: false,
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
        self.slots.len()
    }

    /// Returns `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
        let outcome = if self.len() == self.capacity {
            self.pop_front();
            self.evicted += 1;
            StoreOutcome::StoredEvictingOldest
        } else {
            StoreOutcome::Stored
        };
        self.append(record);
        outcome
    }

    /// Removes up to `max` records (oldest first) for transmission, marking
    /// each as backfilled. If the transmission later fails they must be
    /// re-pushed by the caller.
    pub fn drain_for_transmission(&mut self, max: usize) -> Vec<MeasurementRecord> {
        let take = max.min(self.len());
        (0..take)
            .map(|_| MeasurementRecord {
                backfilled: true,
                ..self.pop_front().expect("at most len records are taken")
            })
            .collect()
    }

    /// The buffered records, oldest first, without removing them.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MeasurementRecord> + '_ {
        let mut escaped = self.escaped.iter();
        self.slots.iter().map(move |&slot| {
            self.unpack(slot)
                .unwrap_or_else(|| *escaped.next().expect("one escaped record per sentinel"))
        })
    }

    /// Drops every buffered record — a firmware crash losing the volatile
    /// store-and-forward buffer. Returns how many records were lost.
    pub fn clear(&mut self) -> usize {
        let lost = self.len();
        self.slots.clear();
        self.escaped.clear();
        lost
    }

    /// Drops every record with `sequence <= through_sequence` — called when
    /// the aggregator acknowledges receipt.
    pub fn acknowledge_through(&mut self, through_sequence: u64) -> usize {
        let before = self.len();
        // Records are pushed in ascending sequence order, so acknowledged
        // records form a prefix.
        while self
            .iter()
            .next()
            .is_some_and(|r| r.sequence <= through_sequence)
        {
            self.pop_front();
        }
        // Re-pushed backfill can break that order; only then can an
        // acknowledged record sit behind an unacknowledged one.
        if self.unordered && self.iter().any(|r| r.sequence <= through_sequence) {
            let kept: Vec<MeasurementRecord> = self
                .iter()
                .filter(|r| r.sequence > through_sequence)
                .collect();
            self.clear();
            for record in kept {
                self.append(record);
            }
        }
        before - self.len()
    }

    /// Integrity digest over the buffered records (in order). The device
    /// keeps this in non-volatile memory so that local tampering between
    /// sampling and transmission is detectable.
    pub fn integrity_digest(&self) -> Digest {
        let mut hasher = Sha256::new();
        for r in self.iter() {
            hasher.update(&r.canonical_bytes());
        }
        hasher.finalize()
    }

    /// Total charge buffered, in microamp-seconds.
    pub fn buffered_charge_uas(&self) -> u64 {
        self.iter().map(|r| r.charge_uas).sum()
    }

    /// Adds `record` behind the buffered ones; the caller has made room.
    fn append(&mut self, record: MeasurementRecord) {
        if self.is_empty() {
            self.device = record.device;
            self.base_sequence = record.sequence;
            self.unordered = false;
        } else {
            self.unordered |= record.sequence < self.last_sequence;
        }
        self.last_sequence = record.sequence;
        let slot = self.pack(&record).unwrap_or_else(|| {
            reserve_one(&mut self.escaped, self.capacity);
            self.escaped.push_back(record);
            Slot::ESCAPED
        });
        reserve_one(&mut self.slots, self.capacity);
        self.slots.push_back(slot);
    }

    /// Removes the oldest record, keeping the ring and the escape FIFO in
    /// step.
    fn pop_front(&mut self) -> Option<MeasurementRecord> {
        let slot = self.slots.pop_front()?;
        Some(self.unpack(slot).unwrap_or_else(|| {
            self.escaped
                .pop_front()
                .expect("one escaped record per sentinel")
        }))
    }

    /// Packs `record` into a slot, or `None` if a field does not fit: another
    /// device, a sequence below the base or 2^31 past it, an interval that
    /// ends before it starts or lasts `u32::MAX` µs or more, or a mean or
    /// charge above `u32::MAX`.
    fn pack(&self, record: &MeasurementRecord) -> Option<Slot> {
        if record.device != self.device {
            return None;
        }
        let seq_off = record.sequence.checked_sub(self.base_sequence)?;
        let seq_off = u32::try_from(seq_off)
            .ok()
            .filter(|&off| off < Slot::BACKFILLED)?;
        let dur_us = record
            .interval_end_us
            .checked_sub(record.interval_start_us)?;
        let dur_us = u32::try_from(dur_us)
            .ok()
            .filter(|&dur| dur != Slot::ESCAPED.dur_us)?;
        Some(Slot {
            end_us: record.interval_end_us,
            seq_off: if record.backfilled {
                seq_off | Slot::BACKFILLED
            } else {
                seq_off
            },
            dur_us,
            mean_ua: u32::try_from(record.mean_current_ua).ok()?,
            charge_uas: u32::try_from(record.charge_uas).ok()?,
        })
    }

    /// The record `slot` packs, or `None` for a sentinel.
    fn unpack(&self, slot: Slot) -> Option<MeasurementRecord> {
        (slot.dur_us != Slot::ESCAPED.dur_us).then(|| MeasurementRecord {
            device: self.device,
            sequence: self.base_sequence + u64::from(slot.seq_off & !Slot::BACKFILLED),
            interval_start_us: slot.end_us - u64::from(slot.dur_us),
            interval_end_us: slot.end_us,
            mean_current_ua: slot.mean_ua.into(),
            charge_uas: slot.charge_uas.into(),
            backfilled: slot.seq_off & Slot::BACKFILLED != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let seqs: Vec<u64> = s.iter().map(|r| r.sequence).collect();
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
        let seqs: Vec<u64> = s.iter().map(|r| r.sequence).collect();
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
    fn each_field_escapes_one_past_its_last_fitting_value() {
        fn with(edit: impl FnOnce(&mut MeasurementRecord)) -> MeasurementRecord {
            let mut r = record(11);
            edit(&mut r);
            r
        }
        let base = record(10);
        let max = u64::from(u32::MAX);
        // (last value that fits a slot, first one past it) per field, for a
        // store whose base is sequence 10 of device 1.
        let cases = [
            (
                with(|r| r.sequence = 10 + (1 << 31) - 1),
                with(|r| r.sequence = 10 + (1 << 31)),
            ),
            (with(|r| r.sequence = 10), with(|r| r.sequence = 9)),
            (
                with(|r| r.interval_start_us = r.interval_end_us),
                with(|r| r.interval_start_us = r.interval_end_us + 1),
            ),
            (
                with(|r| r.interval_end_us = r.interval_start_us + max - 1),
                with(|r| r.interval_end_us = r.interval_start_us + max),
            ),
            (
                with(|r| r.mean_current_ua = max),
                with(|r| r.mean_current_ua = max + 1),
            ),
            (
                with(|r| r.charge_uas = max),
                with(|r| r.charge_uas = max + 1),
            ),
            // The store's own device, with the backfilled bit set, then
            // another device.
            (
                with(|r| r.backfilled = true),
                with(|r| r.device = DeviceId(2)),
            ),
        ];
        for (fits, escapes) in cases {
            let mut s = LocalStore::new(8);
            s.push(base);
            s.push(fits);
            assert!(s.escaped.is_empty(), "{fits:?} fits a slot");
            s.push(escapes);
            assert_eq!(s.escaped.len(), 1, "{escapes:?} escapes");
            assert_eq!(s.iter().collect::<Vec<_>>(), [base, fits, escapes]);
        }
    }

    #[test]
    fn slots_never_outgrow_the_capacity() {
        for capacity in [1, 600, 4096] {
            let mut s = LocalStore::new(capacity);
            for seq in 0..3 * capacity as u64 {
                s.push(record(seq));
                assert!(s.slots.capacity() <= capacity, "capacity {capacity}");
            }
            assert_eq!(s.len(), capacity);
            assert_eq!(s.escaped.capacity(), 0);
        }
    }

    #[test]
    fn a_lagging_ack_keeps_the_ring_small() {
        let mut s = LocalStore::new(4096);
        let mut rng = SimRng::seed_from_u64(5);
        for seq in 0..10_000 {
            s.push(record(seq));
            // An aggregator acking all but the newest 0..=2 records, as one
            // lagging a tick or two behind the device does.
            let lag = rng.next_below(3);
            if let Some(through) = seq.checked_sub(lag) {
                s.acknowledge_through(through);
            }
            assert!(s.len() <= 3, "at most 3 live records");
            assert!(s.slots.capacity() <= 8, "after ack {seq}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = LocalStore::new(0);
    }
}
