//! Tamper auditing.
//!
//! The point of encapsulating consumption data in a hash chain is that
//! storage-level manipulation is detectable (§II-A: "By encapsulating the
//! consumption data into a blockchain, data storage is made tamper-proof").
//! This module provides the auditor's side: walk a chain (optionally anchored
//! to an externally published head digest), localize every inconsistency and
//! classify it.

use crate::chain::HashChain;
use crate::sha256::Digest;

/// Classification of a single audit finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A block's stored records no longer match its header commitment
    /// (a record was rewritten in place).
    RecordMismatch,
    /// A block's `previous` digest does not match its predecessor (a whole
    /// block was replaced or re-sealed).
    LinkBroken,
    /// Block indices are not contiguous (a block was inserted or removed).
    IndexGap,
    /// A block's timestamp is older than its predecessor's.
    TimeRegression,
    /// The chain head does not match the externally published anchor.
    AnchorMismatch,
}

/// One localized audit finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finding {
    /// Height of the offending block.
    pub block_index: u64,
    /// What kind of inconsistency was found.
    pub kind: FindingKind,
    /// Sealing timestamp of the offending block, in simulated microseconds.
    /// Lets an investigator (and the fault-injection resilience accounting)
    /// place the finding on the run's timeline and compute detection
    /// latency without re-walking the chain.
    pub timestamp_us: u64,
}

/// The result of auditing a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Number of blocks examined.
    pub blocks_examined: usize,
    /// Number of records examined.
    pub records_examined: usize,
    /// All findings, in block order.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// `true` when no inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Height of the first inconsistent block, if any.
    pub fn first_bad_block(&self) -> Option<u64> {
        self.findings.first().map(|f| f.block_index)
    }

    /// Number of findings of a given kind.
    pub fn count_of(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }
}

/// Audits a chain, optionally against an externally published head digest
/// (`anchor`). Unlike [`HashChain::verify`], which stops at the first error,
/// the audit continues and localizes every inconsistency, which is what an
/// operator investigating a tampering incident needs.
///
/// When the chain evicted a sealed prefix (streaming compaction), the audit
/// walks the retained suffix and checks the first retained block's linkage
/// against the sealed [`EvictedPrefix`](crate::chain::EvictedPrefix)
/// summary, exactly as a verifier holding the published prefix digest would.
pub fn audit_chain(chain: &HashChain, anchor: Option<Digest>) -> AuditReport {
    let mut findings = Vec::new();
    let mut records = 0usize;
    // Linkage baseline for the oldest examined block: the sealed eviction
    // summary when a prefix was evicted, nothing for a full chain (genesis
    // has no predecessor).
    let first = chain.first_retained_index();
    let mut previous: Option<(Digest, u64)> =
        chain.evicted().map(|e| (e.last_hash, e.last_timestamp_us));

    for (i, block) in chain.iter().enumerate() {
        let height = first + i as u64;
        records += block.record_count();
        let timestamp_us = block.header().timestamp_us;
        if block.header().index != height {
            findings.push(Finding {
                block_index: height,
                kind: FindingKind::IndexGap,
                timestamp_us,
            });
        }
        if !block.is_internally_consistent() {
            findings.push(Finding {
                block_index: height,
                kind: FindingKind::RecordMismatch,
                timestamp_us,
            });
        }
        if let Some((prev_hash, prev_time)) = previous {
            if block.header().previous != prev_hash {
                findings.push(Finding {
                    block_index: height,
                    kind: FindingKind::LinkBroken,
                    timestamp_us,
                });
            }
            if block.header().timestamp_us < prev_time {
                findings.push(Finding {
                    block_index: height,
                    kind: FindingKind::TimeRegression,
                    timestamp_us,
                });
            }
        }
        previous = Some((block.hash(), block.header().timestamp_us));
    }

    if let Some(anchor) = anchor {
        if chain.head_hash() != anchor {
            findings.push(Finding {
                block_index: chain.head().header().index,
                kind: FindingKind::AnchorMismatch,
                timestamp_us: chain.head().header().timestamp_us,
            });
        }
    }

    AuditReport {
        blocks_examined: chain.retained_len(),
        records_examined: records,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

    fn chain_with_blocks(n: usize) -> HashChain {
        let mut chain = HashChain::new(1, 0);
        for i in 0..n {
            let records = (0..4).map(|j| format!("b{i}-r{j}").into_bytes()).collect();
            chain.seal_block(1, (i as u64 + 1) * 1000, records).unwrap();
        }
        chain
    }

    #[test]
    fn clean_chain_audits_clean() {
        let chain = chain_with_blocks(5);
        let report = audit_chain(&chain, Some(chain.head_hash()));
        assert!(report.is_clean());
        assert_eq!(report.blocks_examined, 6);
        assert_eq!(report.records_examined, 20);
        assert_eq!(report.first_bad_block(), None);
    }

    #[test]
    fn record_tampering_is_localized() {
        let mut chain = chain_with_blocks(5);
        chain
            .block_mut_for_experiment(3)
            .unwrap()
            .tamper_record_for_experiment(2, b"fraud".to_vec());
        let report = audit_chain(&chain, None);
        assert!(!report.is_clean());
        assert_eq!(report.first_bad_block(), Some(3));
        assert_eq!(report.count_of(FindingKind::RecordMismatch), 1);
        assert_eq!(report.count_of(FindingKind::LinkBroken), 0);
        // The finding carries the sealing time of the offending block, so
        // detection latency is computable from the report alone.
        assert_eq!(report.findings[0].timestamp_us, 3_000);
    }

    #[test]
    fn multiple_tampered_blocks_all_reported() {
        let mut chain = chain_with_blocks(6);
        for idx in [1u64, 4, 5] {
            chain
                .block_mut_for_experiment(idx)
                .unwrap()
                .tamper_record_for_experiment(0, b"x".to_vec());
        }
        let report = audit_chain(&chain, None);
        assert_eq!(report.count_of(FindingKind::RecordMismatch), 3);
        let blocks: Vec<u64> = report.findings.iter().map(|f| f.block_index).collect();
        assert_eq!(blocks, vec![1, 4, 5]);
    }

    #[test]
    fn resealed_block_breaks_the_link() {
        let mut chain = chain_with_blocks(4);
        // The attacker re-seals block 2 entirely (consistent on its own) but
        // cannot update block 3's previous pointer.
        let forged = Block::new(
            2,
            chain.block(1).unwrap().hash(),
            1,
            2_000,
            vec![b"forged".to_vec()],
        );
        *chain.block_mut_for_experiment(2).unwrap() = forged;
        let report = audit_chain(&chain, None);
        assert!(!report.is_clean());
        assert_eq!(report.count_of(FindingKind::LinkBroken), 1);
        assert_eq!(
            report
                .findings
                .iter()
                .find(|f| f.kind == FindingKind::LinkBroken)
                .unwrap()
                .block_index,
            3
        );
    }

    #[test]
    fn truncation_is_caught_by_the_anchor() {
        let full = chain_with_blocks(5);
        let anchor = full.head_hash();
        // The attacker presents a shorter (but internally valid) chain.
        let truncated = chain_with_blocks(3);
        assert!(truncated.verify().is_ok());
        let report = audit_chain(&truncated, Some(anchor));
        assert!(!report.is_clean());
        assert_eq!(report.count_of(FindingKind::AnchorMismatch), 1);
    }

    #[test]
    fn evicted_chain_audits_clean_and_localizes_suffix_tampering() {
        let mut chain = chain_with_blocks(6);
        let anchor = chain.head_hash();
        chain.evict_before(4_000); // genesis + blocks 1..=3 evicted
        let report = audit_chain(&chain, Some(anchor));
        assert!(report.is_clean());
        assert_eq!(report.blocks_examined, 3);
        assert_eq!(report.records_examined, 12);

        chain
            .block_mut_for_experiment(5)
            .unwrap()
            .tamper_record_for_experiment(1, b"fraud".to_vec());
        let report = audit_chain(&chain, Some(anchor));
        assert_eq!(report.first_bad_block(), Some(5));
        assert_eq!(report.count_of(FindingKind::RecordMismatch), 1);
    }

    #[test]
    fn evicted_prefix_anchors_the_first_retained_block() {
        let mut chain = chain_with_blocks(4);
        // Evict genesis + blocks 1..=2, then re-seal the first retained
        // block; it can no longer link to the sealed prefix summary.
        chain.evict_before(3_000);
        let forged = Block::new(
            3,
            crate::sha256::Digest::ZERO,
            1,
            3_000,
            vec![b"x".to_vec()],
        );
        *chain.block_mut_for_experiment(3).unwrap() = forged;
        let report = audit_chain(&chain, None);
        // Both the summary link (at the forged block) and the forged block's
        // successor link break.
        assert_eq!(report.count_of(FindingKind::LinkBroken), 2);
        assert_eq!(report.first_bad_block(), Some(3));
    }

    #[test]
    fn audit_without_anchor_accepts_truncation() {
        // Documents why publishing the head digest matters: without the
        // anchor a truncated chain looks clean.
        let truncated = chain_with_blocks(3);
        let report = audit_chain(&truncated, None);
        assert!(report.is_clean());
    }
}
