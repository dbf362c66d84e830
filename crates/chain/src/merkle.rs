//! Merkle digest over the records inside one block.
//!
//! The paper only requires that "the reported data and a hash are
//! encapsulated" per block. Hashing the records as a Merkle tree (instead of
//! a flat concatenation) additionally lets an auditor prove that a single
//! record belongs to a block without shipping the whole block — useful for
//! per-device billing disputes — at no extra storage cost.

use crate::sha256::{digest_lanes, Digest, Sha256};

const LEAF_PREFIX: &[u8] = b"\x00rtem-leaf";
const NODE_PREFIX: &[u8] = b"\x01rtem-node";

/// Hashes one leaf (a canonical record encoding).
pub fn leaf_hash(data: &[u8]) -> Digest {
    Sha256::digest_parts(&[LEAF_PREFIX, data])
}

/// Hashes an interior node from its two children.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    Sha256::digest_parts(&[NODE_PREFIX, left.as_ref(), right.as_ref()])
}

/// Computes the Merkle root of a list of leaves (already-encoded records).
///
/// The empty list hashes to [`Digest::ZERO`]; an odd node at any level is
/// promoted unchanged (Bitcoin-style duplication is avoided so a proof cannot
/// be ambiguous).
pub fn merkle_root(leaves: &[Vec<u8>]) -> Digest {
    if leaves.is_empty() {
        return Digest::ZERO;
    }
    let mut level = leaf_level(leaves);
    while level.len() > 1 {
        reduce_level(&mut level);
    }
    level[0]
}

/// Messages hashed in lockstep by [`digest_lanes`]. Sixteen is the fewest
/// lanes the optimizer turns into full-width SIMD on baseline x86-64: with 4
/// lanes a window hashed at scalar speed, with 8 at half the 16-lane speed,
/// and 32 were no faster while leaving longer one-by-one tails.
const LANES: usize = 16;

/// The leaf hashes of `leaves`, [`LANES`] at a time wherever that many
/// consecutive leaves share one length (every ledger entry encodes to 49
/// bytes), one by one elsewhere.
fn leaf_level(leaves: &[Vec<u8>]) -> Vec<Digest> {
    let mut level = Vec::with_capacity(leaves.len());
    let mut batches = leaves.chunks_exact(LANES);
    for batch in &mut batches {
        if batch.iter().all(|leaf| leaf.len() == batch[0].len()) {
            let parts: [[&[u8]; 2]; LANES] = core::array::from_fn(|i| [LEAF_PREFIX, &batch[i]]);
            level.extend(digest_lanes(&parts));
        } else {
            level.extend(batch.iter().map(|leaf| leaf_hash(leaf)));
        }
    }
    level.extend(batches.remainder().iter().map(|leaf| leaf_hash(leaf)));
    level
}

/// Replaces a tree level (at least two nodes) by the level above it: node
/// `i` becomes the hash of nodes `2i` and `2i + 1`, [`LANES`] pairs at a
/// time, and an odd last node is promoted. Node `i` is written only after
/// every node it covers has been read, so the level shrinks in place.
fn reduce_level(level: &mut Vec<Digest>) {
    let pairs = level.len() / 2;
    let mut done = 0;
    while done + LANES <= pairs {
        let nodes = &level[2 * done..2 * (done + LANES)];
        let parts: [[&[u8]; 3]; LANES] =
            core::array::from_fn(|i| [NODE_PREFIX, &nodes[2 * i].0, &nodes[2 * i + 1].0]);
        let parents = digest_lanes(&parts);
        level[done..done + LANES].copy_from_slice(&parents);
        done += LANES;
    }
    for i in done..pairs {
        level[i] = node_hash(&level[2 * i], &level[2 * i + 1]);
    }
    if level.len() % 2 == 1 {
        level[pairs] = level[level.len() - 1];
    }
    level.truncate(level.len().div_ceil(2));
}

/// One step of a Merkle inclusion proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling digest at this level.
    pub sibling: Digest,
    /// Whether the sibling is on the right of the running hash.
    pub sibling_on_right: bool,
}

/// A Merkle inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf in the original list.
    pub leaf_index: usize,
    /// Path from the leaf to the root.
    pub steps: Vec<ProofStep>,
}

impl MerkleProof {
    /// Builds a proof for `leaf_index` over `leaves`.
    ///
    /// Returns `None` if the index is out of range.
    pub fn build(leaves: &[Vec<u8>], leaf_index: usize) -> Option<MerkleProof> {
        if leaf_index >= leaves.len() {
            return None;
        }
        let mut steps = Vec::new();
        let mut level = leaf_level(leaves);
        let mut index = leaf_index;
        while level.len() > 1 {
            let sibling_index = if index % 2 == 0 { index + 1 } else { index - 1 };
            if sibling_index < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling_index],
                    sibling_on_right: sibling_index > index,
                });
            }
            reduce_level(&mut level);
            index /= 2;
        }
        Some(MerkleProof { leaf_index, steps })
    }

    /// Verifies that `leaf_data` is included under `root`.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> bool {
        let mut hash = leaf_hash(leaf_data);
        for step in &self.steps {
            hash = if step.sibling_on_right {
                node_hash(&hash, &step.sibling)
            } else {
                node_hash(&step.sibling, &hash)
            };
        }
        hash == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerEntry;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

    /// The level-by-level, one-hash-at-a-time tree the batched builder
    /// replaced, kept as its oracle.
    fn reference_root(leaves: &[Vec<u8>]) -> Digest {
        if leaves.is_empty() {
            return Digest::ZERO;
        }
        let mut level: Vec<Digest> = leaves.iter().map(|l| leaf_hash(l)).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(node_hash(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// `n` ledger entries of one window as the chain stores them: 8 devices
    /// reporting round-robin, every 50th entry backfilled.
    fn ledger_window(n: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                LedgerEntry {
                    device_id: 1_000 + i % 8,
                    collected_by: 3,
                    billed_by: 3,
                    sequence: i / 8,
                    interval_start_us: i / 8 * 100_000,
                    interval_end_us: (i / 8 + 1) * 100_000,
                    charge_uas: 15_000 + i * 37 % 1_000,
                    backfilled: i % 50 == 0,
                }
                .to_bytes()
            })
            .collect()
    }

    #[test]
    fn batched_root_matches_reference_for_equal_length_leaves() {
        let all = ledger_window(300);
        for n in 0..=300 {
            assert_eq!(merkle_root(&all[..n]), reference_root(&all[..n]), "n={n}");
        }
    }

    #[test]
    fn batched_root_matches_reference_for_mixed_length_leaves() {
        // `record-{i}` changes length at 10 and 100, so batches straddling
        // those leaves take the one-by-one fallback.
        let all = leaves(300);
        for n in 0..=300 {
            assert_eq!(merkle_root(&all[..n]), reference_root(&all[..n]), "n={n}");
        }
    }

    #[test]
    fn batched_root_matches_reference_for_multi_block_leaves() {
        // 110..=206-byte leaves hash over three and four blocks; the length
        // changes every 24 leaves, so some batches take the fallback.
        let all: Vec<Vec<u8>> = (0..300usize)
            .map(|i| {
                (0..110 + (i / 24) * 8)
                    .map(|j| (i * 13 + j) as u8)
                    .collect()
            })
            .collect();
        for n in 0..=300 {
            assert_eq!(merkle_root(&all[..n]), reference_root(&all[..n]), "n={n}");
        }
    }

    #[test]
    fn ledger_window_root_is_pinned() {
        // Computed with the one-hash-at-a-time builder; a change here means
        // every sealed block hash changes.
        assert_eq!(merkle_root(&ledger_window(800)).to_hex(), PINNED_800_ROOT);
    }

    const PINNED_800_ROOT: &str =
        "a4c668fe89752cff29792f06ec3ed2fe3bbfc67caf8f7c9c218ef9b66aa1b51e";

    #[test]
    fn empty_tree_is_zero() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), leaf_hash(&l[0]));
    }

    #[test]
    fn root_changes_when_any_leaf_changes() {
        let original = leaves(8);
        let base = merkle_root(&original);
        for i in 0..original.len() {
            let mut tampered = original.clone();
            tampered[i] = b"tampered".to_vec();
            assert_ne!(merkle_root(&tampered), base, "leaf {i}");
        }
    }

    #[test]
    fn root_depends_on_leaf_order() {
        let mut l = leaves(4);
        let a = merkle_root(&l);
        l.swap(0, 3);
        assert_ne!(merkle_root(&l), a);
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf containing what looks like two concatenated digests must not
        // collide with an interior node.
        let a = leaf_hash(b"x");
        let b = leaf_hash(b"y");
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_ref());
        concat.extend_from_slice(b.as_ref());
        assert_ne!(leaf_hash(&concat), node_hash(&a, &b));
    }

    #[test]
    fn proofs_verify_for_all_leaves_and_sizes() {
        for n in 1..=12usize {
            let l = leaves(n);
            let root = merkle_root(&l);
            for i in 0..n {
                let proof = MerkleProof::build(&l, i).unwrap();
                assert!(proof.verify(&l[i], &root), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let l = leaves(7);
        let root = merkle_root(&l);
        let proof = MerkleProof::build(&l, 3).unwrap();
        assert!(!proof.verify(b"not the leaf", &root));
        let other_root = merkle_root(&leaves(6));
        assert!(!proof.verify(&l[3], &other_root));
    }

    #[test]
    fn proof_for_out_of_range_index_is_none() {
        assert!(MerkleProof::build(&leaves(3), 3).is_none());
    }
}
