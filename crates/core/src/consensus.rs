//! Device-level consensus extension (the paper's future work, §IV).
//!
//! "In a truly decentralized network, the aggregators' role could be
//! performed by the devices themselves having a consensus among themselves.
//! In that case, the consumption data must be broadcast to the network and a
//! common blockchain is formed once a consensus is achieved among them"
//! (§II-A). This module implements that mode: devices broadcast candidate
//! blocks, every peer validates the block against its own observations, and
//! the block is committed once a quorum of approvals is collected.

use rtem_chain::block::{Block, RecordBytes};
use rtem_chain::chain::HashChain;
use rtem_chain::sha256::Digest;
use rtem_net::packet::DeviceId;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// A vote on a proposed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// The validator accepts the block.
    Approve,
    /// The validator rejects the block.
    Reject,
}

/// Errors returned by the consensus round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusError {
    /// The voter is not part of the validator set.
    UnknownValidator(DeviceId),
    /// The voter already voted in this round.
    DuplicateVote(DeviceId),
    /// No proposal is currently open.
    NoOpenProposal,
    /// A proposal is already open; finish or abort it first.
    ProposalAlreadyOpen,
}

impl fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusError::UnknownValidator(d) => write!(f, "{d} is not a validator"),
            ConsensusError::DuplicateVote(d) => write!(f, "{d} already voted"),
            ConsensusError::NoOpenProposal => write!(f, "no open proposal"),
            ConsensusError::ProposalAlreadyOpen => write!(f, "a proposal is already open"),
        }
    }
}

impl Error for ConsensusError {}

/// Outcome of a completed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The block reached quorum and was appended to the chain.
    Committed {
        /// Hash of the committed block.
        block_hash: Digest,
        /// Approvals received.
        approvals: usize,
    },
    /// Too many rejections — the block can never reach quorum.
    Rejected {
        /// Rejections received.
        rejections: usize,
    },
    /// Still waiting for more votes.
    Pending,
}

/// A quorum-based block acceptance protocol over a fixed validator set.
///
/// This deliberately stays at the level the paper sketches: a permissioned
/// validator set (the devices of one network), a configurable quorum, and
/// one proposal in flight at a time — enough to quantify the extra latency
/// and message cost of removing the trusted aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumConsensus {
    validators: BTreeSet<DeviceId>,
    quorum: usize,
    chain: HashChain,
    proposal: Option<Block>,
    votes: BTreeMap<DeviceId, Vote>,
    rounds_committed: u64,
    rounds_rejected: u64,
}

impl QuorumConsensus {
    /// Creates a consensus group over `validators` requiring `quorum`
    /// approvals per block.
    ///
    /// # Panics
    ///
    /// Panics if the validator set is empty or the quorum is zero or larger
    /// than the validator set.
    pub fn new(validators: impl IntoIterator<Item = DeviceId>, quorum: usize) -> Self {
        let validators: BTreeSet<DeviceId> = validators.into_iter().collect();
        assert!(!validators.is_empty(), "validator set must not be empty");
        assert!(
            quorum > 0 && quorum <= validators.len(),
            "quorum must be within 1..=validator count"
        );
        QuorumConsensus {
            validators,
            quorum,
            chain: HashChain::new(0, 0),
            proposal: None,
            votes: BTreeMap::new(),
            rounds_committed: 0,
            rounds_rejected: 0,
        }
    }

    /// Majority quorum (> half) over the validator set.
    pub fn majority(validators: impl IntoIterator<Item = DeviceId>) -> Self {
        let set: Vec<DeviceId> = validators.into_iter().collect();
        let quorum = set.len() / 2 + 1;
        QuorumConsensus::new(set, quorum)
    }

    /// The required number of approvals.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// The shared chain built so far.
    pub fn chain(&self) -> &HashChain {
        &self.chain
    }

    /// Rounds that reached quorum.
    pub fn rounds_committed(&self) -> u64 {
        self.rounds_committed
    }

    /// Rounds that were rejected.
    pub fn rounds_rejected(&self) -> u64 {
        self.rounds_rejected
    }

    /// Opens a proposal: `proposer` broadcasts the records for the next block.
    ///
    /// The proposer implicitly approves its own block.
    ///
    /// # Errors
    ///
    /// Fails if a proposal is already open or the proposer is unknown.
    pub fn propose(
        &mut self,
        proposer: DeviceId,
        timestamp_us: u64,
        records: Vec<RecordBytes>,
    ) -> Result<(), ConsensusError> {
        if !self.validators.contains(&proposer) {
            return Err(ConsensusError::UnknownValidator(proposer));
        }
        if self.proposal.is_some() {
            return Err(ConsensusError::ProposalAlreadyOpen);
        }
        let head = self.chain.head();
        let block = Block::new(
            head.header().index + 1,
            head.hash(),
            0,
            timestamp_us.max(head.header().timestamp_us),
            records,
        );
        self.proposal = Some(block);
        self.votes.clear();
        self.votes.insert(proposer, Vote::Approve);
        Ok(())
    }

    /// Records a vote and returns the round outcome so far.
    ///
    /// # Errors
    ///
    /// Fails if no proposal is open, the voter is unknown, or it already
    /// voted.
    pub fn vote(&mut self, voter: DeviceId, vote: Vote) -> Result<RoundOutcome, ConsensusError> {
        if self.proposal.is_none() {
            return Err(ConsensusError::NoOpenProposal);
        }
        if !self.validators.contains(&voter) {
            return Err(ConsensusError::UnknownValidator(voter));
        }
        if self.votes.contains_key(&voter) {
            return Err(ConsensusError::DuplicateVote(voter));
        }
        self.votes.insert(voter, vote);
        Ok(self.evaluate())
    }

    fn evaluate(&mut self) -> RoundOutcome {
        let approvals = self.votes.values().filter(|v| **v == Vote::Approve).count();
        let rejections = self.votes.values().filter(|v| **v == Vote::Reject).count();
        if approvals >= self.quorum {
            let block = self.proposal.take().expect("proposal open");
            let hash = self
                .chain
                .append_block(block)
                .expect("internally constructed block must link");
            self.votes.clear();
            self.rounds_committed += 1;
            RoundOutcome::Committed {
                block_hash: hash,
                approvals,
            }
        } else if self.validators.len() - rejections < self.quorum {
            // Even if every remaining validator approved, quorum is
            // unreachable.
            self.proposal = None;
            self.votes.clear();
            self.rounds_rejected += 1;
            RoundOutcome::Rejected { rejections }
        } else {
            RoundOutcome::Pending
        }
    }

    /// Number of messages (broadcast + votes) a committed round costs, used
    /// by the consensus-overhead ablation: one broadcast to `n-1` peers plus
    /// up to `n-1` votes.
    pub fn messages_per_round(&self) -> usize {
        2 * (self.validators.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validators(n: u64) -> Vec<DeviceId> {
        (1..=n).map(DeviceId).collect()
    }

    #[test]
    fn quorum_commit_appends_block() {
        let mut consensus = QuorumConsensus::majority(validators(4));
        assert_eq!(consensus.quorum(), 3);
        consensus
            .propose(DeviceId(1), 1_000, vec![b"r1".to_vec()])
            .unwrap();
        assert_eq!(
            consensus.vote(DeviceId(2), Vote::Approve).unwrap(),
            RoundOutcome::Pending
        );
        match consensus.vote(DeviceId(3), Vote::Approve).unwrap() {
            RoundOutcome::Committed { approvals, .. } => assert_eq!(approvals, 3),
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(consensus.chain().len(), 2);
        assert_eq!(consensus.rounds_committed(), 1);
        assert!(consensus.chain().verify().is_ok());
    }

    #[test]
    fn rejections_can_kill_a_round() {
        let mut consensus = QuorumConsensus::majority(validators(4));
        consensus.propose(DeviceId(1), 1_000, vec![]).unwrap();
        consensus.vote(DeviceId(2), Vote::Reject).unwrap();
        match consensus.vote(DeviceId(3), Vote::Reject).unwrap() {
            RoundOutcome::Rejected { rejections } => assert_eq!(rejections, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(consensus.chain().len(), 1, "nothing appended");
        assert_eq!(consensus.rounds_rejected(), 1);
        // A new proposal can be opened afterwards.
        assert!(consensus.propose(DeviceId(2), 2_000, vec![]).is_ok());
    }

    #[test]
    fn duplicate_and_unknown_voters_rejected() {
        // Five validators -> quorum 3, so a second approval does not commit
        // yet and the duplicate is still detected within the open round.
        let mut consensus = QuorumConsensus::majority(validators(5));
        consensus.propose(DeviceId(1), 1, vec![]).unwrap();
        assert_eq!(
            consensus.vote(DeviceId(9), Vote::Approve),
            Err(ConsensusError::UnknownValidator(DeviceId(9)))
        );
        assert_eq!(
            consensus.vote(DeviceId(2), Vote::Approve).unwrap(),
            RoundOutcome::Pending
        );
        assert_eq!(
            consensus.vote(DeviceId(2), Vote::Approve),
            Err(ConsensusError::DuplicateVote(DeviceId(2)))
        );
    }

    #[test]
    fn single_proposal_at_a_time() {
        let mut consensus = QuorumConsensus::majority(validators(3));
        consensus.propose(DeviceId(1), 1, vec![]).unwrap();
        assert_eq!(
            consensus.propose(DeviceId(2), 2, vec![]),
            Err(ConsensusError::ProposalAlreadyOpen)
        );
        assert_eq!(
            consensus.vote(DeviceId(1), Vote::Approve),
            Err(ConsensusError::DuplicateVote(DeviceId(1))),
            "proposer already voted implicitly"
        );
    }

    #[test]
    fn voting_without_proposal_fails() {
        let mut consensus = QuorumConsensus::majority(validators(3));
        assert_eq!(
            consensus.vote(DeviceId(1), Vote::Approve),
            Err(ConsensusError::NoOpenProposal)
        );
    }

    #[test]
    fn sequential_rounds_build_a_valid_chain() {
        let mut consensus = QuorumConsensus::new(validators(3), 2);
        for round in 0..10u64 {
            consensus
                .propose(
                    DeviceId(1),
                    (round + 1) * 1_000,
                    vec![format!("r{round}").into_bytes()],
                )
                .unwrap();
            consensus.vote(DeviceId(2), Vote::Approve).unwrap();
        }
        assert_eq!(consensus.chain().len(), 11);
        assert!(consensus.chain().verify().is_ok());
        assert_eq!(consensus.rounds_committed(), 10);
    }

    #[test]
    fn message_cost_scales_with_validators() {
        assert_eq!(
            QuorumConsensus::majority(validators(4)).messages_per_round(),
            6
        );
        assert_eq!(
            QuorumConsensus::majority(validators(10)).messages_per_round(),
            18
        );
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn invalid_quorum_rejected() {
        let _ = QuorumConsensus::new(validators(3), 5);
    }
}
