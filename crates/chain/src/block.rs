//! Blocks of the consumption-data chain.
//!
//! Each aggregator periodically seals the measurement records it has
//! verified into a block. Following §II-A, a block's hash is computed from
//! the reported data (via a Merkle root) and the hash of the previous block;
//! no proof-of-work or consensus is involved because the aggregators are
//! trusted validators.

use crate::merkle::{merkle_root, MerkleProof};
use crate::sha256::{Digest, Sha256};

/// Identifier of the entity allowed to write blocks (an aggregator address).
pub type WriterId = u32;

/// The canonical byte encoding of one measurement record as stored on chain.
pub type RecordBytes = Vec<u8>;

/// Header of a block: everything needed to verify chain linkage without the
/// record payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height of the block (genesis is 0).
    pub index: u64,
    /// Hash of the previous block's header ([`Digest::ZERO`] for genesis).
    pub previous: Digest,
    /// Merkle root over the block's records.
    pub records_root: Digest,
    /// Simulated wall-clock time at which the block was sealed, microseconds.
    pub timestamp_us: u64,
    /// Aggregator that sealed the block.
    pub writer: WriterId,
    /// Number of records in the block (redundant but cheap to verify).
    pub record_count: u32,
}

impl BlockHeader {
    /// Hash of this header — the value the next block links to.
    pub fn hash(&self) -> Digest {
        Sha256::digest_parts(&[
            &self.index.to_le_bytes(),
            self.previous.as_ref(),
            self.records_root.as_ref(),
            &self.timestamp_us.to_le_bytes(),
            &self.writer.to_le_bytes(),
            &self.record_count.to_le_bytes(),
        ])
    }
}

/// A sealed block: header plus the record payloads it commits to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    header: BlockHeader,
    records: Vec<RecordBytes>,
}

impl Block {
    /// Seals a new block over `records`.
    pub fn new(
        index: u64,
        previous: Digest,
        writer: WriterId,
        timestamp_us: u64,
        records: Vec<RecordBytes>,
    ) -> Self {
        let header = BlockHeader {
            index,
            previous,
            records_root: merkle_root(&records),
            timestamp_us,
            writer,
            record_count: records.len() as u32,
        };
        Block { header, records }
    }

    /// The genesis block of a chain (no records, zero previous hash).
    pub fn genesis(writer: WriterId, timestamp_us: u64) -> Self {
        Block::new(0, Digest::ZERO, writer, timestamp_us, Vec::new())
    }

    /// The block header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// Hash of the block header.
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// The committed record payloads.
    pub fn records(&self) -> &[RecordBytes] {
        &self.records
    }

    /// Number of records in the block.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Checks that the header commits to exactly the records stored in the
    /// block (Merkle root and count both match).
    pub fn is_internally_consistent(&self) -> bool {
        self.header.record_count as usize == self.records.len()
            && self.header.records_root == merkle_root(&self.records)
    }

    /// Builds an inclusion proof for the record at `index`.
    pub fn prove_record(&self, index: usize) -> Option<MerkleProof> {
        MerkleProof::build(&self.records, index)
    }

    /// Fault injection for the tamper-detection experiments: overwrites a
    /// stored record **without** updating the header, as an attacker with
    /// storage access (but no ability to recompute the chain) would.
    ///
    /// Returns `false` if the index is out of range.
    pub fn tamper_record_for_experiment(&mut self, index: usize, new_bytes: RecordBytes) -> bool {
        match self.records.get_mut(index) {
            Some(slot) => {
                *slot = new_bytes;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<RecordBytes> {
        (0..n).map(|i| format!("r{i}").into_bytes()).collect()
    }

    #[test]
    fn genesis_links_to_zero() {
        let g = Block::genesis(1, 42);
        assert_eq!(g.header().index, 0);
        assert_eq!(g.header().previous, Digest::ZERO);
        assert_eq!(g.record_count(), 0);
        assert!(g.is_internally_consistent());
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let base = Block::new(1, Digest::ZERO, 1, 100, records(3));
        let h = base.hash();
        assert_ne!(Block::new(2, Digest::ZERO, 1, 100, records(3)).hash(), h);
        assert_ne!(Block::new(1, Digest::ZERO, 2, 100, records(3)).hash(), h);
        assert_ne!(Block::new(1, Digest::ZERO, 1, 101, records(3)).hash(), h);
        assert_ne!(Block::new(1, Digest::ZERO, 1, 100, records(4)).hash(), h);
        let other_prev = Sha256::digest(b"other");
        assert_ne!(Block::new(1, other_prev, 1, 100, records(3)).hash(), h);
    }

    #[test]
    fn consistency_detects_tampered_record() {
        let mut b = Block::new(1, Digest::ZERO, 1, 100, records(4));
        assert!(b.is_internally_consistent());
        assert!(b.tamper_record_for_experiment(2, b"forged".to_vec()));
        assert!(!b.is_internally_consistent());
    }

    #[test]
    fn tampering_out_of_range_is_rejected() {
        let mut b = Block::new(1, Digest::ZERO, 1, 100, records(2));
        assert!(!b.tamper_record_for_experiment(5, vec![]));
        assert!(b.is_internally_consistent());
    }

    #[test]
    fn record_proofs_verify_against_header_root() {
        let b = Block::new(3, Digest::ZERO, 7, 500, records(9));
        for i in 0..9 {
            let proof = b.prove_record(i).unwrap();
            assert!(proof.verify(&b.records()[i], &b.header().records_root));
        }
        assert!(b.prove_record(9).is_none());
    }

    #[test]
    fn hash_is_deterministic() {
        let a = Block::new(5, Sha256::digest(b"prev"), 2, 999, records(5));
        let b = Block::new(5, Sha256::digest(b"prev"), 2, 999, records(5));
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
    }
}
