//! Aggregator-to-aggregator backhaul mesh.
//!
//! The aggregators are "interconnected through a mesh/cloud network to
//! exchange consumption data of the devices connected to them" (§I), and the
//! evaluation assumes this backhaul adds about one millisecond of delay
//! (§III-B). This module models the mesh: a set of aggregator endpoints,
//! per-pair link quality, shortest-path (fewest hops) routing when two
//! aggregators are not directly connected, and time-ordered delivery.

use crate::link::{LinkConfig, LinkModel, LinkTotals, Transit};
use crate::packet::{AggregatorAddr, Packet};
use rtem_sim::rng::SimRng;
use rtem_sim::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;

/// Errors returned by the backhaul mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackhaulError {
    /// The referenced aggregator has not joined the mesh.
    UnknownAggregator(AggregatorAddr),
    /// No route exists between the two aggregators.
    NoRoute {
        /// Sending aggregator.
        from: AggregatorAddr,
        /// Destination aggregator.
        to: AggregatorAddr,
    },
}

impl fmt::Display for BackhaulError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackhaulError::UnknownAggregator(a) => write!(f, "unknown aggregator {a}"),
            BackhaulError::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
        }
    }
}

impl Error for BackhaulError {}

/// A message delivered over the backhaul.
#[derive(Debug, Clone, PartialEq)]
pub struct BackhaulDelivery {
    /// Destination aggregator.
    pub to: AggregatorAddr,
    /// Originating aggregator.
    pub from: AggregatorAddr,
    /// The protocol message.
    pub packet: Packet,
    /// Arrival time at the destination.
    pub at: SimTime,
    /// Number of mesh hops traversed.
    pub hops: u32,
}

#[derive(Debug)]
struct MeshLink {
    model: LinkModel,
}

/// In-flight entry ordered by `(at, seq)`, reproducing the old linear
/// queue's stable sort-by-arrival over insertion order.
#[derive(Debug)]
struct PendingBackhaul {
    seq: u64,
    delivery: BackhaulDelivery,
}

impl PartialEq for PendingBackhaul {
    fn eq(&self, other: &Self) -> bool {
        self.delivery.at == other.delivery.at && self.seq == other.seq
    }
}
impl Eq for PendingBackhaul {}
impl PartialOrd for PendingBackhaul {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingBackhaul {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted so the earliest arrival pops first.
        other
            .delivery
            .at
            .cmp(&self.delivery.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The aggregator mesh network.
///
/// # Examples
///
/// ```
/// use rtem_net::backhaul::BackhaulMesh;
/// use rtem_net::link::LinkConfig;
/// use rtem_net::packet::{AggregatorAddr, DeviceId, Packet};
/// use rtem_sim::rng::SimRng;
/// use rtem_sim::time::SimTime;
///
/// let mut mesh = BackhaulMesh::new(SimRng::seed_from_u64(1));
/// mesh.join(AggregatorAddr(1));
/// mesh.join(AggregatorAddr(2));
/// mesh.connect(AggregatorAddr(1), AggregatorAddr(2), LinkConfig::backhaul());
///
/// mesh.send(
///     AggregatorAddr(2),
///     AggregatorAddr(1),
///     Packet::MembershipVerifyRequest {
///         device: DeviceId(7),
///         master: AggregatorAddr(1),
///         requester: AggregatorAddr(2),
///     },
///     SimTime::ZERO,
/// )
/// .unwrap();
/// let due = mesh.drain_due(SimTime::from_millis(5));
/// assert_eq!(due.len(), 1);
/// ```
#[derive(Debug)]
pub struct BackhaulMesh {
    members: BTreeSet<AggregatorAddr>,
    links: BTreeMap<(AggregatorAddr, AggregatorAddr), MeshLink>,
    /// Adjacency index mirroring `links`, so neighbour lookups and the BFS
    /// router touch only a node's own edges instead of scanning every link
    /// in the mesh.
    adjacency: BTreeMap<AggregatorAddr, BTreeSet<AggregatorAddr>>,
    rng: SimRng,
    in_flight: BinaryHeap<PendingBackhaul>,
    next_seq: u64,
    sent: u64,
    lost: u64,
    link_seq: u64,
}

impl BackhaulMesh {
    /// Creates an empty mesh.
    pub fn new(rng: SimRng) -> Self {
        BackhaulMesh {
            members: BTreeSet::new(),
            links: BTreeMap::new(),
            adjacency: BTreeMap::new(),
            rng,
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            sent: 0,
            lost: 0,
            link_seq: 0,
        }
    }

    /// Builds a fully connected mesh over `addrs` with identical link quality
    /// on every pair — the configuration the paper's evaluation assumes.
    pub fn full_mesh(addrs: &[AggregatorAddr], link: LinkConfig, rng: SimRng) -> Self {
        let mut mesh = BackhaulMesh::new(rng);
        for &a in addrs {
            mesh.join(a);
        }
        for (i, &a) in addrs.iter().enumerate() {
            for &b in &addrs[i + 1..] {
                mesh.connect(a, b, link);
            }
        }
        mesh
    }

    /// Adds an aggregator endpoint to the mesh.
    pub fn join(&mut self, addr: AggregatorAddr) {
        self.members.insert(addr);
    }

    /// Removes an aggregator and all its links. Returns `true` if it was a
    /// member.
    pub fn leave(&mut self, addr: AggregatorAddr) -> bool {
        let was_member = self.members.remove(&addr);
        self.links.retain(|(a, b), _| *a != addr && *b != addr);
        if let Some(neighbours) = self.adjacency.remove(&addr) {
            for other in neighbours {
                if let Some(set) = self.adjacency.get_mut(&other) {
                    set.remove(&addr);
                }
            }
        }
        was_member
    }

    /// Returns `true` if `addr` is part of the mesh.
    pub fn contains(&self, addr: AggregatorAddr) -> bool {
        self.members.contains(&addr)
    }

    /// Number of aggregators in the mesh.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the mesh has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Creates (or replaces) a bidirectional link between two members.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not joined the mesh.
    pub fn connect(&mut self, a: AggregatorAddr, b: AggregatorAddr, config: LinkConfig) {
        assert!(self.members.contains(&a), "aggregator {a} not in mesh");
        assert!(self.members.contains(&b), "aggregator {b} not in mesh");
        for key in [(a, b), (b, a)] {
            self.link_seq += 1;
            self.links.insert(
                key,
                MeshLink {
                    model: LinkModel::new(config, self.rng.derive(0xBAC0 + self.link_seq)),
                },
            );
            self.adjacency.entry(key.0).or_default().insert(key.1);
        }
    }

    /// Every connected undirected pair, each listed once with the lower
    /// address first.
    pub fn link_pairs(&self) -> Vec<(AggregatorAddr, AggregatorAddr)> {
        self.links
            .keys()
            .filter(|(a, b)| a.0 < b.0)
            .copied()
            .collect()
    }

    /// The configuration of the directed `a -> b` link, if it exists (links
    /// are created symmetrically, so both directions normally agree).
    pub fn link_config(&self, a: AggregatorAddr, b: AggregatorAddr) -> Option<LinkConfig> {
        self.links.get(&(a, b)).map(|l| *l.model.config())
    }

    /// Replaces the quality of the `a <-> b` link in both directions,
    /// preserving the per-direction offered/lost counters (unlike
    /// [`connect`](Self::connect), which installs fresh links). Returns
    /// `false` when the pair is not connected. Used by fault injection to
    /// degrade and restore backhaul links in place.
    pub fn reconfigure(
        &mut self,
        a: AggregatorAddr,
        b: AggregatorAddr,
        config: LinkConfig,
    ) -> bool {
        let mut found = false;
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.model.reconfigure(config);
                found = true;
            }
        }
        found
    }

    /// Neighbours directly connected to `addr`.
    pub fn neighbours(&self, addr: AggregatorAddr) -> Vec<AggregatorAddr> {
        self.adjacency
            .get(&addr)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Finds the fewest-hops route between two members (breadth-first).
    pub fn route(
        &self,
        from: AggregatorAddr,
        to: AggregatorAddr,
    ) -> Result<Vec<AggregatorAddr>, BackhaulError> {
        if !self.members.contains(&from) {
            return Err(BackhaulError::UnknownAggregator(from));
        }
        if !self.members.contains(&to) {
            return Err(BackhaulError::UnknownAggregator(to));
        }
        if from == to {
            return Ok(vec![from]);
        }
        // Direct link: the one-hop route is always fewest-hops, and it is
        // exactly what the breadth-first search below would return — this
        // fast path keeps the (fully-meshed) common case O(log n).
        if self.links.contains_key(&(from, to)) {
            return Ok(vec![from, to]);
        }
        let empty = BTreeSet::new();
        let mut visited: BTreeMap<AggregatorAddr, AggregatorAddr> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        visited.insert(from, from);
        while let Some(current) = queue.pop_front() {
            for &next in self.adjacency.get(&current).unwrap_or(&empty) {
                if visited.contains_key(&next) {
                    continue;
                }
                visited.insert(next, current);
                if next == to {
                    let mut path = vec![to];
                    let mut node = to;
                    while node != from {
                        node = visited[&node];
                        path.push(node);
                    }
                    path.reverse();
                    return Ok(path);
                }
                queue.push_back(next);
            }
        }
        Err(BackhaulError::NoRoute { from, to })
    }

    /// Sends a packet from one aggregator to another, accumulating per-hop
    /// delay along the route. Lost hops are retried once (the backhaul is
    /// reliable transport, e.g. TCP); if the retry also fails the packet is
    /// counted in [`lost`](Self::lost) and not delivered.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown or unreachable.
    pub fn send(
        &mut self,
        from: AggregatorAddr,
        to: AggregatorAddr,
        packet: Packet,
        now: SimTime,
    ) -> Result<(), BackhaulError> {
        let path = self.route(from, to)?;
        self.sent += 1;
        let mut arrival = now;
        let mut hops = 0;
        let size = packet.encoded_len() + 32;
        for pair in path.windows(2) {
            let link = self
                .links
                .get_mut(&(pair[0], pair[1]))
                .expect("route uses existing links");
            let transit = match link.model.offer(size) {
                Transit::Delivered(d) => Some(d),
                Transit::Lost => link.model.offer(size).delay(),
            };
            match transit {
                Some(delay) => {
                    arrival += delay;
                    hops += 1;
                }
                None => {
                    self.lost += 1;
                    return Ok(());
                }
            }
        }
        self.next_seq += 1;
        self.in_flight.push(PendingBackhaul {
            seq: self.next_seq,
            delivery: BackhaulDelivery {
                to,
                from,
                packet,
                at: arrival,
                hops,
            },
        });
        Ok(())
    }

    /// Removes and returns deliveries due at or before `now`, in arrival order.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<BackhaulDelivery> {
        let mut due = Vec::new();
        while let Some(pending) = self.in_flight.peek() {
            if pending.delivery.at > now {
                break;
            }
            due.push(self.in_flight.pop().expect("peeked delivery").delivery);
        }
        due
    }

    /// Earliest pending delivery time.
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.in_flight.peek().map(|p| p.delivery.at)
    }

    /// Messages accepted by [`send`](Self::send).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped because a hop failed twice.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Merged traffic counters of every mesh link.
    pub fn link_totals(&self) -> LinkTotals {
        let mut totals = LinkTotals::default();
        for link in self.links.values() {
            totals += link.model.totals();
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::DeviceId;

    fn verify_packet() -> Packet {
        Packet::MembershipVerifyRequest {
            device: DeviceId(1),
            master: AggregatorAddr(1),
            requester: AggregatorAddr(2),
        }
    }

    fn two_node_mesh() -> BackhaulMesh {
        BackhaulMesh::full_mesh(
            &[AggregatorAddr(1), AggregatorAddr(2)],
            LinkConfig::backhaul(),
            SimRng::seed_from_u64(21),
        )
    }

    #[test]
    fn full_mesh_connects_everyone() {
        let mesh = BackhaulMesh::full_mesh(
            &[AggregatorAddr(1), AggregatorAddr(2), AggregatorAddr(3)],
            LinkConfig::backhaul(),
            SimRng::seed_from_u64(1),
        );
        assert_eq!(mesh.len(), 3);
        for a in [1u32, 2, 3] {
            assert_eq!(mesh.neighbours(AggregatorAddr(a)).len(), 2);
        }
    }

    #[test]
    fn delivery_takes_about_one_millisecond() {
        let mut mesh = two_node_mesh();
        mesh.send(
            AggregatorAddr(2),
            AggregatorAddr(1),
            verify_packet(),
            SimTime::ZERO,
        )
        .unwrap();
        assert!(mesh.drain_due(SimTime::from_micros(900)).is_empty());
        let due = mesh.drain_due(SimTime::from_millis(2));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].hops, 1);
        assert!(due[0].at >= SimTime::from_millis(1));
        assert!(due[0].at <= SimTime::from_millis(2));
    }

    #[test]
    fn multi_hop_routing_works() {
        // Line topology 1 - 2 - 3: no direct 1-3 link.
        let mut mesh = BackhaulMesh::new(SimRng::seed_from_u64(2));
        for a in [1u32, 2, 3] {
            mesh.join(AggregatorAddr(a));
        }
        mesh.connect(AggregatorAddr(1), AggregatorAddr(2), LinkConfig::backhaul());
        mesh.connect(AggregatorAddr(2), AggregatorAddr(3), LinkConfig::backhaul());
        let route = mesh.route(AggregatorAddr(1), AggregatorAddr(3)).unwrap();
        assert_eq!(
            route,
            vec![AggregatorAddr(1), AggregatorAddr(2), AggregatorAddr(3)]
        );
        mesh.send(
            AggregatorAddr(1),
            AggregatorAddr(3),
            verify_packet(),
            SimTime::ZERO,
        )
        .unwrap();
        let due = mesh.drain_due(SimTime::from_secs(1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].hops, 2);
        assert!(
            due[0].at >= SimTime::from_millis(2),
            "two hops, two milliseconds"
        );
    }

    #[test]
    fn route_to_self_is_trivial() {
        let mesh = two_node_mesh();
        assert_eq!(
            mesh.route(AggregatorAddr(1), AggregatorAddr(1)).unwrap(),
            vec![AggregatorAddr(1)]
        );
    }

    #[test]
    fn unknown_and_unreachable_aggregators_error() {
        let mut mesh = BackhaulMesh::new(SimRng::seed_from_u64(3));
        mesh.join(AggregatorAddr(1));
        mesh.join(AggregatorAddr(2));
        // Members but not connected.
        assert_eq!(
            mesh.route(AggregatorAddr(1), AggregatorAddr(2)),
            Err(BackhaulError::NoRoute {
                from: AggregatorAddr(1),
                to: AggregatorAddr(2)
            })
        );
        assert_eq!(
            mesh.route(AggregatorAddr(1), AggregatorAddr(9)),
            Err(BackhaulError::UnknownAggregator(AggregatorAddr(9)))
        );
        assert!(mesh
            .send(
                AggregatorAddr(9),
                AggregatorAddr(1),
                verify_packet(),
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn leave_removes_links() {
        let mut mesh = BackhaulMesh::full_mesh(
            &[AggregatorAddr(1), AggregatorAddr(2), AggregatorAddr(3)],
            LinkConfig::backhaul(),
            SimRng::seed_from_u64(4),
        );
        assert!(mesh.leave(AggregatorAddr(2)));
        assert!(!mesh.leave(AggregatorAddr(2)));
        assert!(!mesh.contains(AggregatorAddr(2)));
        assert_eq!(mesh.neighbours(AggregatorAddr(1)), vec![AggregatorAddr(3)]);
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let mut mesh = two_node_mesh();
        for i in 0..10u64 {
            mesh.send(
                AggregatorAddr(1),
                AggregatorAddr(2),
                verify_packet(),
                SimTime::from_millis(10 - i),
            )
            .unwrap();
        }
        let due = mesh.drain_due(SimTime::from_secs(1));
        assert_eq!(due.len(), 10);
        for pair in due.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert_eq!(mesh.sent(), 10);
        assert_eq!(mesh.lost(), 0);
    }

    #[test]
    fn reconfigure_degrades_both_directions_and_lists_pairs() {
        let mut mesh = two_node_mesh();
        assert_eq!(
            mesh.link_pairs(),
            vec![(AggregatorAddr(1), AggregatorAddr(2))]
        );
        assert_eq!(
            mesh.link_config(AggregatorAddr(1), AggregatorAddr(2)),
            Some(LinkConfig::backhaul())
        );
        let dead = LinkConfig {
            loss_probability: 1.0,
            ..LinkConfig::backhaul()
        };
        assert!(mesh.reconfigure(AggregatorAddr(1), AggregatorAddr(2), dead));
        for from in [1u32, 2] {
            mesh.send(
                AggregatorAddr(from),
                AggregatorAddr(3 - from),
                verify_packet(),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert!(mesh.drain_due(SimTime::from_secs(10)).is_empty());
        assert_eq!(mesh.lost(), 2);
        // Restore: delivery resumes.
        assert!(mesh.reconfigure(AggregatorAddr(1), AggregatorAddr(2), LinkConfig::backhaul()));
        mesh.send(
            AggregatorAddr(1),
            AggregatorAddr(2),
            verify_packet(),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(mesh.drain_due(SimTime::from_secs(10)).len(), 1);
        assert!(!mesh.reconfigure(AggregatorAddr(1), AggregatorAddr(9), LinkConfig::backhaul()));
    }

    #[test]
    fn next_delivery_at_reports_earliest() {
        let mut mesh = two_node_mesh();
        assert!(mesh.next_delivery_at().is_none());
        mesh.send(
            AggregatorAddr(1),
            AggregatorAddr(2),
            verify_packet(),
            SimTime::from_secs(5),
        )
        .unwrap();
        mesh.send(
            AggregatorAddr(1),
            AggregatorAddr(2),
            verify_packet(),
            SimTime::from_secs(1),
        )
        .unwrap();
        let next = mesh.next_delivery_at().unwrap();
        assert!(next < SimTime::from_secs(2));
    }
}
