//! Merkle digest over the records inside one block.
//!
//! The paper only requires that "the reported data and a hash are
//! encapsulated" per block. Hashing the records as a Merkle tree (instead of
//! a flat concatenation) additionally lets an auditor prove that a single
//! record belongs to a block without shipping the whole block — useful for
//! per-device billing disputes — at no extra storage cost.

use crate::sha256::{Digest, Sha256};

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
        let mut level: Vec<Digest> = leaves.iter().map(|l| leaf_hash(l)).collect();
        let mut index = leaf_index;
        while level.len() > 1 {
            let sibling_index = if index % 2 == 0 { index + 1 } else { index - 1 };
            if sibling_index < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling_index],
                    sibling_on_right: sibling_index > index,
                });
            }
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(node_hash(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            index /= 2;
            level = next;
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

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

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
