//! The metering ledger: typed view over the hash chain.
//!
//! The chain stores opaque record bytes; billing and verification need typed
//! access. [`MeteringLedger`] pairs a [`HashChain`] with a typed record
//! format ([`LedgerEntry`]) and maintains per-device running totals so the
//! aggregator can answer "how much has device X consumed" without rescanning
//! the chain.

use crate::block::WriterId;
use crate::chain::{ChainError, HashChain};
use crate::sha256::Digest;
use std::collections::BTreeMap;

/// One typed consumption entry as committed to the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Device the consumption belongs to.
    pub device_id: u64,
    /// Aggregator that collected the measurement (may differ from the
    /// device's home aggregator while roaming).
    pub collected_by: WriterId,
    /// Home aggregator that bills the device.
    pub billed_by: WriterId,
    /// Device-assigned sequence number of the measurement.
    pub sequence: u64,
    /// Start of the measurement interval (device-local microseconds).
    pub interval_start_us: u64,
    /// End of the measurement interval (device-local microseconds).
    pub interval_end_us: u64,
    /// Charge consumed over the interval, in microamp-seconds.
    pub charge_uas: u64,
    /// Whether the entry was backfilled after a connectivity gap.
    pub backfilled: bool,
}

impl LedgerEntry {
    /// Canonical byte encoding committed to the chain (49 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(49);
        out.extend_from_slice(&self.device_id.to_le_bytes());
        out.extend_from_slice(&self.collected_by.to_le_bytes());
        out.extend_from_slice(&self.billed_by.to_le_bytes());
        out.extend_from_slice(&self.sequence.to_le_bytes());
        out.extend_from_slice(&self.interval_start_us.to_le_bytes());
        out.extend_from_slice(&self.interval_end_us.to_le_bytes());
        out.extend_from_slice(&self.charge_uas.to_le_bytes());
        out.push(u8::from(self.backfilled));
        out
    }

    /// Decodes an entry from its canonical encoding.
    ///
    /// Returns `None` if the buffer has the wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Option<LedgerEntry> {
        if bytes.len() != 49 {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().ok().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().ok().unwrap());
        Some(LedgerEntry {
            device_id: u64_at(0),
            collected_by: u32_at(8),
            billed_by: u32_at(12),
            sequence: u64_at(16),
            interval_start_us: u64_at(24),
            interval_end_us: u64_at(32),
            charge_uas: u64_at(40),
            backfilled: bytes[48] != 0,
        })
    }

    /// Charge in milliamp-seconds.
    pub fn charge_mas(&self) -> f64 {
        self.charge_uas as f64 / 1000.0
    }
}

/// Per-device totals maintained alongside the chain.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceAccount {
    /// Total charge committed for the device, in microamp-seconds.
    pub total_charge_uas: u64,
    /// Number of committed entries.
    pub entries: u64,
    /// Number of committed entries that were backfilled.
    pub backfilled_entries: u64,
    /// Highest sequence number committed.
    pub last_sequence: u64,
}

/// A typed, permissioned metering ledger backed by a [`HashChain`].
///
/// # Examples
///
/// ```
/// use rtem_chain::ledger::{LedgerEntry, MeteringLedger};
///
/// let mut ledger = MeteringLedger::new(1, 0);
/// ledger.stage(LedgerEntry {
///     device_id: 7,
///     collected_by: 1,
///     billed_by: 1,
///     sequence: 0,
///     interval_start_us: 0,
///     interval_end_us: 100_000,
///     charge_uas: 15_000,
///     backfilled: false,
/// });
/// ledger.commit_block(1, 100_000).unwrap();
/// assert_eq!(ledger.account(7).unwrap().entries, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeteringLedger {
    chain: HashChain,
    staged: Vec<LedgerEntry>,
    accounts: BTreeMap<u64, DeviceAccount>,
    /// Per-device charge folded out of evicted blocks, so
    /// [`accounts_match_chain`](Self::accounts_match_chain) stays exact
    /// when the chain no longer holds the full entry history.
    evicted_charge_uas: BTreeMap<u64, u64>,
}

impl MeteringLedger {
    /// Creates a ledger whose genesis is written by `genesis_writer`.
    pub fn new(genesis_writer: WriterId, timestamp_us: u64) -> Self {
        MeteringLedger {
            chain: HashChain::new(genesis_writer, timestamp_us),
            staged: Vec::new(),
            accounts: BTreeMap::new(),
            evicted_charge_uas: BTreeMap::new(),
        }
    }

    /// Grants `writer` permission to commit blocks.
    pub fn register_writer(&mut self, writer: WriterId) {
        self.chain.register_writer(writer);
    }

    /// The underlying hash chain.
    pub fn chain(&self) -> &HashChain {
        &self.chain
    }

    /// Mutable access to the chain, for the tamper-injection experiments.
    pub fn chain_mut_for_experiment(&mut self) -> &mut HashChain {
        &mut self.chain
    }

    /// Stages an entry for the next block.
    pub fn stage(&mut self, entry: LedgerEntry) {
        self.staged.push(entry);
    }

    /// Number of entries staged and not yet committed.
    pub fn staged_count(&self) -> usize {
        self.staged.len()
    }

    /// The entries staged for the next block, in staging order. Billing
    /// reconciliation needs them: records billed after the last sealed
    /// window are staged but not yet committed.
    pub fn staged_entries(&self) -> &[LedgerEntry] {
        &self.staged
    }

    /// Commits all staged entries as one block sealed by `writer`.
    ///
    /// Committing with nothing staged is allowed and produces an empty block
    /// (the aggregator's periodic heartbeat).
    ///
    /// # Errors
    ///
    /// Fails if the writer is not permissioned or time went backwards; the
    /// staged entries are kept so the caller can retry.
    pub fn commit_block(
        &mut self,
        writer: WriterId,
        timestamp_us: u64,
    ) -> Result<Digest, ChainError> {
        let records: Vec<Vec<u8>> = self.staged.iter().map(LedgerEntry::to_bytes).collect();
        let hash = self.chain.seal_block(writer, timestamp_us, records)?;
        for entry in self.staged.drain(..) {
            let account = self.accounts.entry(entry.device_id).or_default();
            account.total_charge_uas += entry.charge_uas;
            account.entries += 1;
            if entry.backfilled {
                account.backfilled_entries += 1;
            }
            account.last_sequence = account.last_sequence.max(entry.sequence);
        }
        Ok(hash)
    }

    /// The running account for `device_id`, if it has committed entries.
    pub fn account(&self, device_id: u64) -> Option<&DeviceAccount> {
        self.accounts.get(&device_id)
    }

    /// Iterates over all device accounts.
    pub fn accounts(&self) -> impl Iterator<Item = (u64, &DeviceAccount)> {
        self.accounts.iter().map(|(id, acc)| (*id, acc))
    }

    /// Total charge committed across all devices, in microamp-seconds.
    pub fn total_charge_uas(&self) -> u64 {
        self.accounts.values().map(|a| a.total_charge_uas).sum()
    }

    /// Decodes and returns every resident committed entry, in commit order
    /// (all entries unless a prefix was evicted). Intended for audits and
    /// offline analysis, not the hot path.
    pub fn all_entries(&self) -> Vec<LedgerEntry> {
        self.resident_entries().collect()
    }

    /// Decodes the resident committed entries lazily, in commit order.
    fn resident_entries(&self) -> impl Iterator<Item = LedgerEntry> + '_ {
        self.chain
            .iter()
            .flat_map(|b| b.records().iter())
            .filter_map(|r| LedgerEntry::from_bytes(r))
    }

    /// Evicts every committed block sealed strictly before `timestamp_us`
    /// (always retaining the chain head), folding the evicted entries into
    /// the per-device eviction totals so
    /// [`accounts_match_chain`](Self::accounts_match_chain) stays exact.
    /// Each evicted entry is handed to `on_evict` in commit order before its
    /// storage is dropped, so callers can fold their own sealed summaries
    /// (e.g. per-window accuracy accumulators) in exactly the order a
    /// full-history scan would have visited them.
    pub fn evict_before(&mut self, timestamp_us: u64, mut on_evict: impl FnMut(&LedgerEntry)) {
        for block in self.chain.evict_before(timestamp_us) {
            for record in block.records() {
                let Some(entry) = LedgerEntry::from_bytes(record) else {
                    continue;
                };
                *self.evicted_charge_uas.entry(entry.device_id).or_default() += entry.charge_uas;
                on_evict(&entry);
            }
        }
    }

    /// Recomputes per-device totals from the resident chain (on top of the
    /// sealed eviction totals) and compares them with the maintained
    /// accounts; returns `true` when they agree. A mismatch means the chain
    /// or the account cache was corrupted.
    pub fn accounts_match_chain(&self) -> bool {
        let mut recomputed: BTreeMap<u64, u64> = self.evicted_charge_uas.clone();
        for entry in self.resident_entries() {
            *recomputed.entry(entry.device_id).or_default() += entry.charge_uas;
        }
        if recomputed.len() != self.accounts.len() {
            return false;
        }
        recomputed.iter().all(|(id, total)| {
            self.accounts
                .get(id)
                .is_some_and(|acc| acc.total_charge_uas == *total)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{audit_chain, Finding, FindingKind};

    fn entry(device: u64, seq: u64, charge: u64) -> LedgerEntry {
        LedgerEntry {
            device_id: device,
            collected_by: 1,
            billed_by: 1,
            sequence: seq,
            interval_start_us: seq * 100_000,
            interval_end_us: (seq + 1) * 100_000,
            charge_uas: charge,
            backfilled: seq % 3 == 0,
        }
    }

    #[test]
    fn entry_round_trip() {
        let e = entry(42, 7, 123_456);
        let bytes = e.to_bytes();
        assert_eq!(bytes.len(), 49);
        assert_eq!(LedgerEntry::from_bytes(&bytes), Some(e));
        assert!(LedgerEntry::from_bytes(&bytes[..40]).is_none());
        assert!((e.charge_mas() - 123.456).abs() < 1e-9);
    }

    #[test]
    fn commit_updates_accounts() {
        let mut ledger = MeteringLedger::new(1, 0);
        ledger.stage(entry(1, 0, 100));
        ledger.stage(entry(1, 1, 200));
        ledger.stage(entry(2, 0, 50));
        assert_eq!(ledger.staged_count(), 3);
        ledger.commit_block(1, 1_000).unwrap();
        assert_eq!(ledger.staged_count(), 0);
        let acc1 = ledger.account(1).unwrap();
        assert_eq!(acc1.total_charge_uas, 300);
        assert_eq!(acc1.entries, 2);
        assert_eq!(acc1.last_sequence, 1);
        assert_eq!(ledger.account(2).unwrap().total_charge_uas, 50);
        assert!(ledger.account(3).is_none());
        assert_eq!(ledger.total_charge_uas(), 350);
    }

    #[test]
    fn backfilled_entries_are_counted() {
        let mut ledger = MeteringLedger::new(1, 0);
        ledger.stage(entry(1, 0, 10)); // seq 0 -> backfilled
        ledger.stage(entry(1, 1, 10));
        ledger.stage(entry(1, 3, 10)); // seq 3 -> backfilled
        ledger.commit_block(1, 10).unwrap();
        assert_eq!(ledger.account(1).unwrap().backfilled_entries, 2);
    }

    #[test]
    fn unauthorized_commit_keeps_staged_entries() {
        let mut ledger = MeteringLedger::new(1, 0);
        ledger.stage(entry(1, 0, 10));
        assert!(ledger.commit_block(99, 10).is_err());
        assert_eq!(ledger.staged_count(), 1);
        ledger.register_writer(99);
        assert!(ledger.commit_block(99, 10).is_ok());
        assert_eq!(ledger.staged_count(), 0);
    }

    #[test]
    fn all_entries_reflect_commits_in_order() {
        let mut ledger = MeteringLedger::new(1, 0);
        ledger.stage(entry(1, 0, 10));
        ledger.commit_block(1, 100).unwrap();
        ledger.stage(entry(2, 0, 20));
        ledger.stage(entry(1, 1, 30));
        ledger.commit_block(1, 200).unwrap();
        let all = ledger.all_entries();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].device_id, 1);
        assert_eq!(all[1].device_id, 2);
        assert_eq!(all[2].sequence, 1);
    }

    #[test]
    fn accounts_match_chain_detects_tampering() {
        let mut ledger = MeteringLedger::new(1, 0);
        for i in 0..5 {
            ledger.stage(entry(1, i, 100));
        }
        ledger.commit_block(1, 100).unwrap();
        assert!(ledger.accounts_match_chain());
        // An attacker rewrites a stored record to claim less consumption.
        let mut forged = entry(1, 2, 1);
        forged.charge_uas = 1;
        ledger
            .chain_mut_for_experiment()
            .block_mut_for_experiment(1)
            .unwrap()
            .tamper_record_for_experiment(2, forged.to_bytes());
        assert!(!ledger.accounts_match_chain());
        // And the chain itself no longer verifies.
        assert!(ledger.chain().verify().is_err());
    }

    #[test]
    fn tampering_is_detected_at_every_lane_position() {
        // 803 records hash as 50 lane batches plus a 3-leaf tail, and the
        // levels above them have odd sizes (201, 101, 51, 13, 7).
        let mut ledger = MeteringLedger::new(1, 0);
        ledger.stage(entry(1, 0, 100));
        ledger.commit_block(1, 1_000).unwrap();
        for i in 0..803 {
            ledger.stage(entry(i % 8, i / 8 + 1, 1_000 + i));
        }
        ledger.commit_block(1, 2_000).unwrap();
        ledger.stage(entry(1, 200, 100));
        ledger.commit_block(1, 3_000).unwrap();
        let anchor = ledger.chain().head_hash();
        assert!(audit_chain(ledger.chain(), Some(anchor)).is_clean());
        assert!(ledger.accounts_match_chain());

        for index in [0, 15, 16, 401, 799, 800, 802] {
            let mut tampered = ledger.clone();
            let block = tampered
                .chain_mut_for_experiment()
                .block_mut_for_experiment(2)
                .unwrap();
            let mut record = block.records()[index].clone();
            record[40] ^= 1; // lowest byte of `charge_uas`
            block.tamper_record_for_experiment(index, record);
            let report = audit_chain(tampered.chain(), Some(anchor));
            assert_eq!(
                report.findings,
                vec![Finding {
                    block_index: 2,
                    kind: FindingKind::RecordMismatch,
                    timestamp_us: 2_000,
                }],
                "record {index}"
            );
            assert!(!tampered.accounts_match_chain(), "record {index}");
        }
    }

    #[test]
    fn eviction_keeps_accounts_matching_the_chain() {
        let mut ledger = MeteringLedger::new(1, 0);
        ledger.stage(entry(1, 0, 100));
        ledger.stage(entry(2, 0, 40));
        ledger.commit_block(1, 1_000).unwrap();
        ledger.stage(entry(1, 1, 200));
        ledger.commit_block(1, 2_000).unwrap();
        ledger.stage(entry(2, 1, 60));
        ledger.commit_block(1, 3_000).unwrap();

        let mut evicted = Vec::new();
        ledger.evict_before(2_500, |e| evicted.push((e.device_id, e.charge_uas)));
        // Genesis (empty) + the first two record blocks are gone.
        assert_eq!(ledger.chain().retained_len(), 1);
        assert_eq!(evicted, vec![(1, 100), (2, 40), (1, 200)]);
        // Full-history counters and account reconciliation survive.
        assert_eq!(ledger.chain().len(), 4);
        assert_eq!(ledger.chain().total_records(), 4);
        assert_eq!(ledger.account(1).unwrap().total_charge_uas, 300);
        assert!(ledger.accounts_match_chain());
        assert!(ledger.chain().verify().is_ok());

        // The ledger keeps working after eviction.
        ledger.stage(entry(1, 2, 50));
        ledger.commit_block(1, 4_000).unwrap();
        assert_eq!(ledger.account(1).unwrap().total_charge_uas, 350);
        assert!(ledger.accounts_match_chain());
    }

    #[test]
    fn tampering_after_eviction_is_still_detected() {
        let mut ledger = MeteringLedger::new(1, 0);
        for i in 0..4 {
            ledger.stage(entry(1, i, 100));
            ledger.commit_block(1, (i + 1) * 1_000).unwrap();
        }
        ledger.evict_before(2_500, |_| {});
        let mut forged = entry(1, 3, 1);
        forged.charge_uas = 1;
        ledger
            .chain_mut_for_experiment()
            .block_mut_for_experiment(4)
            .unwrap()
            .tamper_record_for_experiment(0, forged.to_bytes());
        assert!(!ledger.accounts_match_chain());
        assert!(ledger.chain().verify().is_err());
    }

    #[test]
    fn empty_commit_produces_heartbeat_block() {
        let mut ledger = MeteringLedger::new(1, 0);
        let before = ledger.chain().len();
        ledger.commit_block(1, 50).unwrap();
        assert_eq!(ledger.chain().len(), before + 1);
        assert!(ledger.accounts_match_chain());
    }
}
