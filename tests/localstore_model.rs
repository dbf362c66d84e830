//! Property-style model tests for `LocalStore`'s capped ring.
//!
//! The device-side store-and-forward buffer packs each record into a
//! 24-byte slot of a ring that never outgrows its capacity, and keeps the
//! records that do not fit a slot whole in a side FIFO. These tests drive it
//! through long seeded sequences of every operation the device firmware
//! performs — push, drain-for-transmission, failed-transmission re-push,
//! acknowledge-through, crash-clear — with about one push in ten a record
//! that cannot fit a slot, and check each step against a naive `Vec` model
//! whose semantics are obviously correct.

use rtem::chain::sha256::{Digest, Sha256};
use rtem::device::data_layer::{LocalStore, StoreOutcome};
use rtem::net::packet::{DeviceId, MeasurementRecord};
use rtem::sim::rng::SimRng;

/// The obviously-correct reference: a plain Vec with `remove(0)` semantics.
struct NaiveStore {
    capacity: usize,
    records: Vec<MeasurementRecord>,
    evicted: u64,
    total_stored: u64,
}

impl NaiveStore {
    fn new(capacity: usize) -> Self {
        NaiveStore {
            capacity,
            records: Vec::new(),
            evicted: 0,
            total_stored: 0,
        }
    }

    fn push(&mut self, record: MeasurementRecord) -> StoreOutcome {
        self.total_stored += 1;
        if self.records.len() == self.capacity {
            self.records.remove(0);
            self.evicted += 1;
            self.records.push(record);
            StoreOutcome::StoredEvictingOldest
        } else {
            self.records.push(record);
            StoreOutcome::Stored
        }
    }

    fn drain_for_transmission(&mut self, max: usize) -> Vec<MeasurementRecord> {
        let take = max.min(self.records.len());
        self.records
            .drain(..take)
            .map(|mut r| {
                r.backfilled = true;
                r
            })
            .collect()
    }

    fn acknowledge_through(&mut self, through_sequence: u64) -> usize {
        let before = self.records.len();
        self.records.retain(|r| r.sequence > through_sequence);
        before - self.records.len()
    }

    fn clear(&mut self) -> usize {
        let lost = self.records.len();
        self.records.clear();
        lost
    }

    fn integrity_digest(&self) -> Digest {
        let mut hasher = Sha256::new();
        for r in &self.records {
            hasher.update(&r.canonical_bytes());
        }
        hasher.finalize()
    }
}

fn record(seq: u64) -> MeasurementRecord {
    MeasurementRecord {
        device: DeviceId(1),
        sequence: seq,
        interval_start_us: seq * 100_000,
        interval_end_us: (seq + 1) * 100_000,
        mean_current_ua: 100_000 + seq,
        charge_uas: 10_000 + seq,
        backfilled: false,
    }
}

/// The `n`th of the records that cannot fit a slot, cycling through every
/// reason: another device, a sequence below the store's base or 2^31 past
/// it, an interval that ends before it starts or lasts `u32::MAX` µs or
/// more, and a mean or a charge above `u32::MAX`.
fn unfit_record(n: u64, seq: u64) -> MeasurementRecord {
    let mut r = record(seq);
    let past_u32 = u64::from(u32::MAX) + 1 + seq;
    match n % 7 {
        0 => r.device = DeviceId(2),
        1 => r.sequence = 0,
        2 => r.sequence = seq + (1 << 31),
        3 => r.interval_start_us = r.interval_end_us + 1,
        4 => r.interval_end_us = r.interval_start_us + u64::from(u32::MAX),
        5 => r.mean_current_ua = past_u32,
        _ => r.charge_uas = past_u32,
    }
    r
}

/// Full observable-state comparison after every operation.
fn assert_equivalent(step: usize, ring: &LocalStore, model: &NaiveStore) {
    assert_eq!(ring.len(), model.records.len(), "len at step {step}");
    assert_eq!(
        ring.is_empty(),
        model.records.is_empty(),
        "is_empty at step {step}"
    );
    assert_eq!(ring.evicted(), model.evicted, "evicted at step {step}");
    assert_eq!(
        ring.total_stored(),
        model.total_stored,
        "total_stored at step {step}"
    );
    assert_eq!(
        ring.iter().collect::<Vec<_>>(),
        model.records,
        "contents at step {step}"
    );
    assert_eq!(
        ring.buffered_charge_uas(),
        model.records.iter().map(|r| r.charge_uas).sum::<u64>(),
        "buffered charge at step {step}"
    );
    assert_eq!(
        ring.integrity_digest(),
        model.integrity_digest(),
        "integrity digest at step {step}"
    );
}

/// One random operation sequence at the given seed and capacity.
fn run_sequence(seed: u64, capacity: usize, steps: usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ring = LocalStore::new(capacity);
    let mut model = NaiveStore::new(capacity);
    let mut next_seq = 0u64;
    let mut unfit = 0u64;
    // Records drained but "lost in transmission", awaiting re-push.
    let mut in_flight: Vec<MeasurementRecord> = Vec::new();

    for step in 0..steps {
        match rng.next_below(100) {
            // Push the next measurement (the dominant operation).
            0..=54 => {
                let r = if rng.chance(0.1) {
                    unfit += 1;
                    unfit_record(unfit, next_seq)
                } else {
                    record(next_seq)
                };
                next_seq += 1;
                assert_eq!(ring.push(r), model.push(r), "push outcome at step {step}");
            }
            // Drain a batch for transmission; it may later fail and re-push.
            55..=69 => {
                let max = rng.next_below(capacity as u64 + 2) as usize;
                let a = ring.drain_for_transmission(max);
                let b = model.drain_for_transmission(max);
                assert_eq!(a, b, "drained batch at step {step}");
                if rng.chance(0.4) {
                    // Transmission failed: the firmware re-pushes the batch
                    // (back-of-queue, marked backfilled) — this is the path
                    // that breaks sequence monotonicity inside the ring.
                    in_flight.extend(a);
                } // else: delivered, the ack will come as acknowledge_through
            }
            // Re-push a previously failed batch.
            70..=79 => {
                for r in in_flight.drain(..) {
                    assert_eq!(ring.push(r), model.push(r), "re-push at step {step}");
                }
            }
            // The aggregator acks through some sequence near the frontier.
            80..=94 => {
                let back = rng.next_below(2 * capacity as u64 + 1);
                let through = next_seq.saturating_sub(back);
                assert_eq!(
                    ring.acknowledge_through(through),
                    model.acknowledge_through(through),
                    "ack count at step {step}"
                );
            }
            // Rare firmware crash: the volatile buffer is lost.
            _ => {
                assert_eq!(ring.clear(), model.clear(), "clear count at step {step}");
                in_flight.clear();
            }
        }
        assert_equivalent(step, &ring, &model);
    }
}

#[test]
fn ring_matches_naive_model_across_seeds() {
    for seed in 0..12 {
        run_sequence(seed, 8, 600);
    }
}

#[test]
fn ring_matches_naive_model_at_tiny_capacity() {
    // Capacity 1 maximizes eviction churn: every second push evicts.
    for seed in 100..106 {
        run_sequence(seed, 1, 400);
    }
}

#[test]
fn ring_matches_naive_model_at_fleet_capacity() {
    // Larger rings with enough steps to grow to their capacity and wrap
    // several times (the deployed store holds 4096 records; these sizes hit
    // the same code paths orders of magnitude faster).
    run_sequence(7, 64, 3000);
    run_sequence(8, 512, 3000);
}

#[test]
fn sustained_eviction_is_the_unregistered_device_pattern() {
    // An unregistered device pushes forever and never drains: the store
    // must stay pinned at capacity, evicting one record per push, with
    // contents equal to the newest `capacity` records.
    let capacity = 32;
    let mut ring = LocalStore::new(capacity);
    for seq in 0..10_000u64 {
        ring.push(record(seq));
    }
    assert_eq!(ring.len(), capacity);
    assert_eq!(ring.evicted(), 10_000 - capacity as u64);
    let seqs: Vec<u64> = ring.iter().map(|r| r.sequence).collect();
    let expected: Vec<u64> = (10_000 - capacity as u64..10_000).collect();
    assert_eq!(seqs, expected);
}

#[test]
fn integrity_digest_tracks_logical_contents_not_compaction_state() {
    // Two stores reaching the same logical contents through different
    // operation histories (and thus different base sequences and ring
    // positions) must agree on the integrity digest and compare equal.
    let mut a = LocalStore::new(8);
    let mut b = LocalStore::new(8);
    for seq in 0..20u64 {
        a.push(record(seq));
    }
    a.acknowledge_through(15); // contents: 16..20, popped off the front
    for seq in 16..20u64 {
        b.push(record(seq));
    }
    assert!(a.iter().eq(b.iter()));
    assert_eq!(a.integrity_digest(), b.integrity_digest());
    // Lifetime counters differ, so full equality must not hold...
    assert_ne!(
        a.evicted() + a.total_stored(),
        b.evicted() + b.total_stored()
    );
    // ...but the digest is over contents only.
    assert_eq!(a.len(), b.len());
}
