//! The append-only hash chain.
//!
//! "The blocks from all the aggregators are formed into a common permissioned
//! blockchain. Blockchain is only used as a hashed data chain without any
//! consensus" (§II-A). [`HashChain`] implements exactly that: an append-only
//! sequence of [`Block`]s where each block commits to the previous block's
//! header hash, writable only by registered (permissioned) writers.

use crate::block::{Block, RecordBytes, WriterId};
use crate::sha256::Digest;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Errors returned when appending to or verifying a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The writer is not in the permissioned set.
    UnauthorizedWriter(WriterId),
    /// The appended block's `previous` digest does not match the chain head.
    BrokenLink {
        /// Height at which the mismatch occurred.
        at_index: u64,
    },
    /// The appended block's index is not `head + 1`.
    BadIndex {
        /// Expected block index.
        expected: u64,
        /// Index carried by the rejected block.
        found: u64,
    },
    /// A block's timestamp is older than its predecessor's.
    NonMonotonicTime {
        /// Height at which time went backwards.
        at_index: u64,
    },
    /// A block's stored records do not match its header commitment.
    InconsistentBlock {
        /// Height of the inconsistent block.
        at_index: u64,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnauthorizedWriter(w) => write!(f, "writer {w} is not permissioned"),
            ChainError::BrokenLink { at_index } => {
                write!(f, "previous-hash link broken at block {at_index}")
            }
            ChainError::BadIndex { expected, found } => {
                write!(f, "expected block index {expected}, found {found}")
            }
            ChainError::NonMonotonicTime { at_index } => {
                write!(f, "timestamp went backwards at block {at_index}")
            }
            ChainError::InconsistentBlock { at_index } => {
                write!(
                    f,
                    "records do not match header commitment at block {at_index}"
                )
            }
        }
    }
}

impl Error for ChainError {}

/// Summary of a sealed-and-evicted chain prefix.
///
/// Streaming compaction drops old blocks from memory but must keep the
/// chain verifiable and its counters exact: the retained suffix still links
/// to `last_hash`, and `len`/`total_records` still cover the whole history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedPrefix {
    /// Number of blocks evicted (including genesis once it is evicted).
    pub blocks: usize,
    /// Number of records the evicted blocks carried.
    pub records: usize,
    /// Height of the last evicted block.
    pub last_index: u64,
    /// Hash of the last evicted block — the retained suffix must link here.
    pub last_hash: Digest,
    /// Sealing timestamp of the last evicted block.
    pub last_timestamp_us: u64,
}

/// A permissioned, consensus-free hash chain of measurement blocks.
///
/// # Examples
///
/// ```
/// use rtem_chain::chain::HashChain;
///
/// let mut chain = HashChain::new(1, 0);
/// chain.register_writer(2);
/// chain.seal_block(2, 1_000_000, vec![b"record".to_vec()]).unwrap();
/// assert_eq!(chain.len(), 2); // genesis + one sealed block
/// assert!(chain.verify().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashChain {
    blocks: Vec<Block>,
    writers: BTreeSet<WriterId>,
    /// Sealed summary of the evicted prefix; `None` until the first
    /// eviction, so an uncompacted chain is bit-identical with before.
    evicted: Option<EvictedPrefix>,
}

impl HashChain {
    /// Creates a chain with a genesis block written by `genesis_writer` at
    /// `timestamp_us`. The genesis writer is automatically permissioned.
    pub fn new(genesis_writer: WriterId, timestamp_us: u64) -> Self {
        let mut writers = BTreeSet::new();
        writers.insert(genesis_writer);
        HashChain {
            blocks: vec![Block::genesis(genesis_writer, timestamp_us)],
            writers,
            evicted: None,
        }
    }

    /// Adds a writer to the permissioned set.
    pub fn register_writer(&mut self, writer: WriterId) {
        self.writers.insert(writer);
    }

    /// Removes a writer from the permissioned set. Returns `true` if it was
    /// present. Blocks it already wrote remain valid.
    pub fn revoke_writer(&mut self, writer: WriterId) -> bool {
        self.writers.remove(&writer)
    }

    /// Returns `true` if `writer` may seal blocks.
    pub fn is_writer(&self, writer: WriterId) -> bool {
        self.writers.contains(&writer)
    }

    /// Number of blocks ever committed, including genesis and any evicted
    /// prefix — eviction never changes this count.
    pub fn len(&self) -> usize {
        self.evicted.map_or(0, |e| e.blocks) + self.blocks.len()
    }

    /// Number of blocks still resident in memory.
    pub fn retained_len(&self) -> usize {
        self.blocks.len()
    }

    /// A chain always has at least a genesis block.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sealed summary of the evicted prefix, if any blocks were evicted.
    pub fn evicted(&self) -> Option<&EvictedPrefix> {
        self.evicted.as_ref()
    }

    /// Height of the oldest block still resident (0 when nothing was
    /// evicted).
    pub fn first_retained_index(&self) -> u64 {
        self.evicted.map_or(0, |e| e.last_index + 1)
    }

    /// The most recent block.
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("chain always has genesis")
    }

    /// Digest of the chain head — publish this out-of-band to anchor audits.
    pub fn head_hash(&self) -> Digest {
        self.head().hash()
    }

    /// The block at height `index`, if still resident.
    pub fn block(&self, index: u64) -> Option<&Block> {
        let offset = index.checked_sub(self.first_retained_index())?;
        self.blocks.get(offset as usize)
    }

    /// Iterates over the resident blocks in height order (all blocks unless
    /// a prefix was evicted).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Total number of records ever committed, including records in evicted
    /// blocks — eviction never changes this count.
    pub fn total_records(&self) -> usize {
        self.evicted.map_or(0, |e| e.records)
            + self.blocks.iter().map(Block::record_count).sum::<usize>()
    }

    /// Evicts every resident block sealed strictly before `timestamp_us`,
    /// always retaining at least the head block. The evicted blocks fold
    /// into the [`EvictedPrefix`] summary, so `len`, `total_records`,
    /// [`verify`](Self::verify) and audits stay exact over the retained
    /// suffix. Returns the evicted blocks in height order so callers can
    /// fold their records into their own sealed summaries before the
    /// storage is dropped.
    pub fn evict_before(&mut self, timestamp_us: u64) -> Vec<Block> {
        let cut = self
            .blocks
            .iter()
            .take(self.blocks.len() - 1)
            .take_while(|b| b.header().timestamp_us < timestamp_us)
            .count();
        if cut == 0 {
            return Vec::new();
        }
        let evicted: Vec<Block> = self.blocks.drain(..cut).collect();
        let last = evicted.last().expect("cut > 0");
        let summary = self.evicted.get_or_insert(EvictedPrefix {
            blocks: 0,
            records: 0,
            last_index: 0,
            last_hash: Digest::ZERO,
            last_timestamp_us: 0,
        });
        summary.blocks += evicted.len();
        summary.records += evicted.iter().map(Block::record_count).sum::<usize>();
        summary.last_index = last.header().index;
        summary.last_hash = last.hash();
        summary.last_timestamp_us = last.header().timestamp_us;
        evicted
    }

    /// Seals a new block over `records` and appends it.
    ///
    /// # Errors
    ///
    /// Fails if `writer` is not permissioned or `timestamp_us` is older than
    /// the head block's timestamp.
    pub fn seal_block(
        &mut self,
        writer: WriterId,
        timestamp_us: u64,
        records: Vec<RecordBytes>,
    ) -> Result<Digest, ChainError> {
        if !self.writers.contains(&writer) {
            return Err(ChainError::UnauthorizedWriter(writer));
        }
        let head = self.head();
        if timestamp_us < head.header().timestamp_us {
            return Err(ChainError::NonMonotonicTime {
                at_index: head.header().index + 1,
            });
        }
        let block = Block::new(
            head.header().index + 1,
            head.hash(),
            writer,
            timestamp_us,
            records,
        );
        let hash = block.hash();
        self.blocks.push(block);
        Ok(hash)
    }

    /// Appends an externally constructed block (e.g. received from another
    /// aggregator), validating linkage, index, writer and consistency.
    ///
    /// # Errors
    ///
    /// Returns the specific [`ChainError`] describing why the block was
    /// rejected.
    pub fn append_block(&mut self, block: Block) -> Result<Digest, ChainError> {
        if !self.writers.contains(&block.header().writer) {
            return Err(ChainError::UnauthorizedWriter(block.header().writer));
        }
        let head = self.head();
        let expected_index = head.header().index + 1;
        if block.header().index != expected_index {
            return Err(ChainError::BadIndex {
                expected: expected_index,
                found: block.header().index,
            });
        }
        if block.header().previous != head.hash() {
            return Err(ChainError::BrokenLink {
                at_index: block.header().index,
            });
        }
        if block.header().timestamp_us < head.header().timestamp_us {
            return Err(ChainError::NonMonotonicTime {
                at_index: block.header().index,
            });
        }
        if !block.is_internally_consistent() {
            return Err(ChainError::InconsistentBlock {
                at_index: block.header().index,
            });
        }
        let hash = block.hash();
        self.blocks.push(block);
        Ok(hash)
    }

    /// Verifies the resident chain: internal consistency of every block,
    /// hash linkage, index continuity and timestamp monotonicity. When a
    /// prefix was evicted, the first retained block is checked against the
    /// sealed [`EvictedPrefix`] summary instead of a resident predecessor.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, scanning from the oldest resident
    /// block.
    pub fn verify(&self) -> Result<(), ChainError> {
        let first = self.first_retained_index();
        for (i, block) in self.blocks.iter().enumerate() {
            let height = first + i as u64;
            if block.header().index != height {
                return Err(ChainError::BadIndex {
                    expected: height,
                    found: block.header().index,
                });
            }
            if !block.is_internally_consistent() {
                return Err(ChainError::InconsistentBlock { at_index: height });
            }
            let prev = if i > 0 {
                let prev = &self.blocks[i - 1];
                Some((prev.hash(), prev.header().timestamp_us))
            } else {
                self.evicted.map(|e| (e.last_hash, e.last_timestamp_us))
            };
            if let Some((prev_hash, prev_time)) = prev {
                if block.header().previous != prev_hash {
                    return Err(ChainError::BrokenLink { at_index: height });
                }
                if block.header().timestamp_us < prev_time {
                    return Err(ChainError::NonMonotonicTime { at_index: height });
                }
            }
        }
        Ok(())
    }

    /// Fault injection for the tamper experiments: returns mutable access to
    /// a block so a storage-level attacker can be simulated. Not part of the
    /// normal API surface.
    pub fn block_mut_for_experiment(&mut self, index: u64) -> Option<&mut Block> {
        let offset = index.checked_sub(self.first_retained_index())?;
        self.blocks.get_mut(offset as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(tag: &str, n: usize) -> Vec<RecordBytes> {
        (0..n).map(|i| format!("{tag}-{i}").into_bytes()).collect()
    }

    fn small_chain() -> HashChain {
        let mut chain = HashChain::new(1, 0);
        chain.register_writer(2);
        chain.seal_block(1, 100, records("a", 3)).unwrap();
        chain.seal_block(2, 200, records("b", 2)).unwrap();
        chain.seal_block(1, 300, records("c", 4)).unwrap();
        chain
    }

    #[test]
    fn seal_and_verify() {
        let chain = small_chain();
        assert_eq!(chain.len(), 4);
        assert_eq!(chain.total_records(), 9);
        assert!(chain.verify().is_ok());
        assert!(!chain.is_empty());
    }

    #[test]
    fn unauthorized_writer_rejected() {
        let mut chain = HashChain::new(1, 0);
        assert_eq!(
            chain.seal_block(9, 100, vec![]),
            Err(ChainError::UnauthorizedWriter(9))
        );
        chain.register_writer(9);
        assert!(chain.seal_block(9, 100, vec![]).is_ok());
        assert!(chain.revoke_writer(9));
        assert!(!chain.is_writer(9));
        assert!(chain.seal_block(9, 200, vec![]).is_err());
    }

    #[test]
    fn timestamps_must_not_go_backwards() {
        let mut chain = HashChain::new(1, 1000);
        assert_eq!(
            chain.seal_block(1, 999, vec![]),
            Err(ChainError::NonMonotonicTime { at_index: 1 })
        );
        assert!(chain.seal_block(1, 1000, vec![]).is_ok());
    }

    #[test]
    fn append_external_block_happy_path() {
        let mut chain = HashChain::new(1, 0);
        chain.register_writer(2);
        let block = Block::new(1, chain.head_hash(), 2, 50, records("x", 2));
        assert!(chain.append_block(block).is_ok());
        assert!(chain.verify().is_ok());
    }

    #[test]
    fn append_rejects_bad_index_and_link() {
        let mut chain = HashChain::new(1, 0);
        let wrong_index = Block::new(5, chain.head_hash(), 1, 50, vec![]);
        assert_eq!(
            chain.append_block(wrong_index),
            Err(ChainError::BadIndex {
                expected: 1,
                found: 5
            })
        );
        let wrong_link = Block::new(1, Digest::ZERO, 1, 50, vec![]);
        assert!(matches!(
            chain.append_block(wrong_link),
            Err(ChainError::BrokenLink { at_index: 1 })
        ));
    }

    #[test]
    fn append_rejects_inconsistent_block() {
        let mut chain = HashChain::new(1, 0);
        let mut block = Block::new(1, chain.head_hash(), 1, 50, records("x", 3));
        block.tamper_record_for_experiment(0, b"evil".to_vec());
        assert_eq!(
            chain.append_block(block),
            Err(ChainError::InconsistentBlock { at_index: 1 })
        );
    }

    #[test]
    fn verify_detects_record_tampering() {
        let mut chain = small_chain();
        chain
            .block_mut_for_experiment(2)
            .unwrap()
            .tamper_record_for_experiment(1, b"fraud".to_vec());
        assert_eq!(
            chain.verify(),
            Err(ChainError::InconsistentBlock { at_index: 2 })
        );
    }

    #[test]
    fn head_hash_tracks_latest_block() {
        let mut chain = HashChain::new(1, 0);
        let h0 = chain.head_hash();
        chain.seal_block(1, 10, records("a", 1)).unwrap();
        let h1 = chain.head_hash();
        assert_ne!(h0, h1);
        assert_eq!(chain.head().header().index, 1);
        assert_eq!(chain.block(1).unwrap().hash(), h1);
        assert!(chain.block(99).is_none());
    }

    #[test]
    fn eviction_preserves_counts_and_verification() {
        let mut chain = small_chain();
        let (len, records, head) = (chain.len(), chain.total_records(), chain.head_hash());
        // Evict everything sealed before t=300 (genesis + two blocks).
        let evicted = chain.evict_before(300);
        assert_eq!(evicted.len(), 3);
        assert_eq!(chain.retained_len(), 1);
        assert_eq!(chain.first_retained_index(), 3);
        assert_eq!(chain.len(), len, "eviction never changes len");
        assert_eq!(chain.total_records(), records);
        assert_eq!(chain.head_hash(), head);
        assert!(chain.verify().is_ok());
        let summary = chain.evicted().unwrap();
        assert_eq!(summary.blocks, 3);
        assert_eq!(summary.records, 5);
        assert_eq!(summary.last_index, 2);
        assert_eq!(summary.last_timestamp_us, 200);
        // Height-addressed access still works on the retained suffix.
        assert!(chain.block(2).is_none());
        assert_eq!(chain.block(3).unwrap().header().index, 3);
    }

    #[test]
    fn eviction_always_retains_the_head() {
        let mut chain = small_chain();
        assert_eq!(chain.evict_before(u64::MAX).len(), 3);
        assert_eq!(chain.retained_len(), 1);
        // A second sweep has nothing left to evict.
        assert!(chain.evict_before(u64::MAX).is_empty());
        assert!(chain.verify().is_ok());
    }

    #[test]
    fn evicted_chain_keeps_growing_and_verifying() {
        let mut chain = small_chain();
        chain.evict_before(250);
        chain.seal_block(1, 400, records("d", 2)).unwrap();
        chain.seal_block(2, 500, records("e", 1)).unwrap();
        assert_eq!(chain.len(), 6);
        assert_eq!(chain.total_records(), 12);
        assert!(chain.verify().is_ok());
        // Incremental eviction folds into the same summary.
        chain.evict_before(450);
        assert_eq!(chain.evicted().unwrap().blocks, 5);
        assert_eq!(chain.len(), 6);
        assert!(chain.verify().is_ok());
    }

    #[test]
    fn tampering_in_the_retained_suffix_is_still_caught() {
        let mut chain = small_chain();
        chain.evict_before(200); // genesis + block 1 evicted
        chain
            .block_mut_for_experiment(2)
            .unwrap()
            .tamper_record_for_experiment(0, b"fraud".to_vec());
        assert_eq!(
            chain.verify(),
            Err(ChainError::InconsistentBlock { at_index: 2 })
        );
    }

    #[test]
    fn first_retained_block_must_link_to_the_evicted_summary() {
        let mut chain = small_chain();
        chain.evict_before(200);
        // Replace the first retained block with a re-sealed forgery that
        // does not link to the sealed prefix.
        let forged = Block::new(2, Digest::ZERO, 1, 200, vec![b"forged".to_vec()]);
        *chain.block_mut_for_experiment(2).unwrap() = forged;
        assert!(matches!(
            chain.verify(),
            Err(ChainError::BrokenLink { at_index: 2 })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ChainError::UnauthorizedWriter(3).to_string().contains("3"));
        assert!(ChainError::BrokenLink { at_index: 2 }
            .to_string()
            .contains("2"));
        assert!(ChainError::BadIndex {
            expected: 1,
            found: 9
        }
        .to_string()
        .contains("9"));
        assert!(ChainError::NonMonotonicTime { at_index: 4 }
            .to_string()
            .contains("4"));
        assert!(ChainError::InconsistentBlock { at_index: 5 }
            .to_string()
            .contains("5"));
    }
}
