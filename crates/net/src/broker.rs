//! MQTT-style publish/subscribe broker.
//!
//! The paper transfers consumption data from devices to the aggregator over
//! MQTT on Wi-Fi. This module models the part of MQTT the architecture
//! relies on: named clients, hierarchical topics with `+`/`#` wildcards,
//! QoS 0/1/2 publishes, retained messages, persistent-session resume, and
//! per-client link quality (latency, jitter, loss) applied to every
//! delivery. Delivery is integrated with the discrete-event simulation by
//! letting the caller drain messages that are due at the current simulated
//! time.
//!
//! Three control-plane mechanisms ride on top of plain delivery:
//!
//! * **QoS 2** models the PUBREC/PUBREL/PUBCOMP four-way handshake: the
//!   PUBLISH leg is retransmitted until the link carries it (each lost
//!   attempt adds one retransmission timeout), then the three handshake
//!   frames each cross the link, with a lost PUBREC forcing a duplicate
//!   PUBLISH that the subscriber suppresses by packet id. The subscriber
//!   sees exactly one [`Delivery`]; the extra frames surface as latency and
//!   in the [`qos2_handshake_bytes`](MqttBroker::qos2_handshake_bytes)
//!   wire-overhead counters.
//! * **Retained messages** keep the last retained payload per topic and
//!   hand it to every client that subscribes mid-run
//!   ([`subscribe_at`](MqttBroker::subscribe_at)) or resumes its session
//!   ([`reconnect`](MqttBroker::reconnect)) — the classic
//!   publish-config-with-`-r` pattern of fleet management.
//! * **Session resume** queues QoS ≥ 1 publishes addressed to a
//!   disconnected persistent session and replays them, in publish order,
//!   when the session resumes. QoS 0 messages are dropped while
//!   disconnected, exactly like a real broker.

use crate::link::{LinkConfig, LinkModel, LinkTotals, Transit};
use bytes::Bytes;
use rtem_sim::rng::SimRng;
use rtem_sim::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifier of a broker client (a device or an aggregator endpoint).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// MQTT quality-of-service level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QoS {
    /// Fire and forget.
    AtMostOnce,
    /// Delivery is retried until the subscriber-side ack is observed.
    AtLeastOnce,
    /// Exactly-once delivery via the PUBREC/PUBREL/PUBCOMP four-way
    /// handshake: the PUBLISH leg is retransmitted until it arrives and
    /// duplicates forced by lost handshake frames are suppressed by packet
    /// id, so a lossy link can neither drop nor duplicate the message.
    ExactlyOnce,
}

/// Errors returned by broker operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The referenced client has not connected.
    UnknownClient(ClientId),
    /// A topic or filter failed validation.
    InvalidTopic(String),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::UnknownClient(id) => write!(f, "unknown client {id}"),
            BrokerError::InvalidTopic(t) => write!(f, "invalid topic '{t}'"),
        }
    }
}

impl Error for BrokerError {}

/// A message delivered to a subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Subscriber receiving the message.
    pub to: ClientId,
    /// Publisher that sent it.
    pub from: ClientId,
    /// Topic the message was published on. Deliveries of one publish to an
    /// exact-filter topic share the subscription index's allocation.
    pub topic: Arc<str>,
    /// Message payload.
    pub payload: Bytes,
    /// Simulated time at which the subscriber receives the message.
    pub at: SimTime,
    /// Whether the link lost at least one earlier attempt, making this
    /// arrival a QoS ≥ 1 retransmission.
    pub retransmission: bool,
    /// Whether this delivery replays a stored retained message (on session
    /// resume or a fresh subscription) rather than a live publish.
    pub retained: bool,
}

/// A QoS ≥ 1 message parked for a disconnected persistent session,
/// replayed in publish order when the session resumes.
#[derive(Debug, Clone)]
struct QueuedMessage {
    from: ClientId,
    topic: Arc<str>,
    payload: Bytes,
    qos: QoS,
}

/// The last retained payload published on one topic.
#[derive(Debug, Clone)]
struct RetainedMessage {
    from: ClientId,
    payload: Bytes,
    qos: QoS,
}

/// A delivery waiting in the time-ordered in-flight queue. Ordered by
/// `(at, seq)` — arrival time with the publish sequence as tie-breaker —
/// which reproduces exactly the order the old linear queue produced with
/// its stable sort-by-arrival over insertion order.
#[derive(Debug, Clone)]
struct PendingDelivery {
    seq: u64,
    delivery: Delivery,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.delivery.at == other.delivery.at && self.seq == other.seq
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest delivery pops
        // first.
        other
            .delivery
            .at
            .cmp(&self.delivery.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct Client {
    link: LinkModel,
    subscriptions: Vec<String>,
    connected: bool,
    /// QoS ≥ 1 messages published while this persistent session was
    /// disconnected, awaiting replay on [`MqttBroker::reconnect`].
    session_queue: Vec<QueuedMessage>,
}

/// Returns `true` if the filter contains an MQTT wildcard level.
fn filter_has_wildcard(filter: &str) -> bool {
    filter.split('/').any(|l| l == "+" || l == "#")
}

/// Validates a concrete topic (no wildcards allowed).
fn validate_topic(topic: &str) -> Result<(), BrokerError> {
    if topic.is_empty()
        || topic.contains('+')
        || topic.contains('#')
        || topic.starts_with('/')
        || topic.ends_with('/')
    {
        return Err(BrokerError::InvalidTopic(topic.to_string()));
    }
    Ok(())
}

/// Validates a subscription filter (wildcards allowed in MQTT positions).
fn validate_filter(filter: &str) -> Result<(), BrokerError> {
    if filter.is_empty() || filter.starts_with('/') || filter.ends_with('/') {
        return Err(BrokerError::InvalidTopic(filter.to_string()));
    }
    let levels: Vec<&str> = filter.split('/').collect();
    for (i, level) in levels.iter().enumerate() {
        match *level {
            "#" if i != levels.len() - 1 => {
                return Err(BrokerError::InvalidTopic(filter.to_string()))
            }
            l if l.contains('#') && l != "#" => {
                return Err(BrokerError::InvalidTopic(filter.to_string()))
            }
            l if l.contains('+') && l != "+" => {
                return Err(BrokerError::InvalidTopic(filter.to_string()))
            }
            "" => return Err(BrokerError::InvalidTopic(filter.to_string())),
            _ => {}
        }
    }
    Ok(())
}

/// Returns `true` if `topic` matches the MQTT subscription `filter`.
pub fn topic_matches(filter: &str, topic: &str) -> bool {
    let mut filter_levels = filter.split('/');
    let mut topic_levels = topic.split('/');
    loop {
        match (filter_levels.next(), topic_levels.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => continue,
            (Some(f), Some(t)) if f == t => continue,
            (None, None) => return true,
            _ => return false,
        }
    }
}

/// The simulated MQTT broker.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rtem_net::broker::{ClientId, MqttBroker, QoS};
/// use rtem_net::link::LinkConfig;
/// use rtem_sim::rng::SimRng;
/// use rtem_sim::time::SimTime;
///
/// let mut broker = MqttBroker::new(SimRng::seed_from_u64(1));
/// let device = ClientId(1);
/// let aggregator = ClientId(100);
/// broker.connect(device, LinkConfig::ideal());
/// broker.connect(aggregator, LinkConfig::ideal());
/// broker.subscribe(aggregator, "metering/+/report").unwrap();
///
/// broker
///     .publish(device, "metering/dev-1/report", Bytes::from_static(b"10mA"),
///              QoS::AtLeastOnce, SimTime::ZERO)
///     .unwrap();
/// let due = broker.drain_due(SimTime::from_secs(1));
/// assert_eq!(due.len(), 1);
/// assert_eq!(due[0].to, aggregator);
/// ```
#[derive(Debug)]
pub struct MqttBroker {
    clients: BTreeMap<ClientId, Client>,
    /// Subscription index for wildcard-free filters: filter (which for
    /// these filters matches exactly one topic) → subscribed clients. The
    /// key is the one allocation of the topic text: every delivery and
    /// parked message of a publish on it shares the `Arc`. Keeping each
    /// subscriber list sorted by client id preserves the delivery order
    /// the unindexed broker produced by scanning the client map; the map
    /// itself is never iterated.
    exact_subscriptions: HashMap<Arc<str>, Vec<ClientId>>,
    /// Clients holding at least one wildcard filter; only these pay a
    /// per-publish filter match. The simulation's metering topics are all
    /// exact, so this set is empty on the hot path.
    wildcard_subscribers: BTreeSet<ClientId>,
    /// The subscribers of the publish in progress, kept between publishes
    /// so gathering them allocates nothing in the steady state.
    subscriber_scratch: Vec<ClientId>,
    /// Last retained payload per topic (publish with `retain` to set,
    /// publish an empty retained payload to clear).
    retained: BTreeMap<Arc<str>, RetainedMessage>,
    rng: SimRng,
    in_flight: BinaryHeap<PendingDelivery>,
    next_seq: u64,
    published: u64,
    delivered: u64,
    dropped: u64,
    queued_for_resume: u64,
    resumed: u64,
    retained_delivered: u64,
    qos2_handshake_frames: u64,
    qos2_handshake_bytes: u64,
    qos2_dup_suppressed: u64,
    max_retries: u32,
}

/// Size of a PUBREC/PUBREL/PUBCOMP control frame on the wire (MQTT fixed
/// header + packet id).
const QOS2_FRAME_BYTES: usize = 4;

/// The PUBACK/PUBREC retransmission timeout added per lost attempt.
const RETRY_TIMEOUT: rtem_sim::time::SimDuration = rtem_sim::time::SimDuration::from_millis(50);

impl MqttBroker {
    /// Creates a broker with its own RNG stream for link randomness.
    pub fn new(rng: SimRng) -> Self {
        MqttBroker {
            clients: BTreeMap::new(),
            exact_subscriptions: HashMap::new(),
            wildcard_subscribers: BTreeSet::new(),
            subscriber_scratch: Vec::new(),
            retained: BTreeMap::new(),
            rng,
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            published: 0,
            delivered: 0,
            dropped: 0,
            queued_for_resume: 0,
            resumed: 0,
            retained_delivered: 0,
            qos2_handshake_frames: 0,
            qos2_handshake_bytes: 0,
            qos2_dup_suppressed: 0,
            max_retries: 5,
        }
    }

    /// Sets how many times a QoS-1 publish is retried over a lossy link
    /// before the broker gives up (default 5).
    pub fn set_max_retries(&mut self, retries: u32) {
        self.max_retries = retries;
    }

    /// Connects a client with the given access-link quality. Reconnecting an
    /// existing client keeps its subscriptions but replaces the link.
    pub fn connect(&mut self, id: ClientId, link: LinkConfig) {
        let link_model = LinkModel::new(link, self.rng.derive(id.0 ^ 0x6272_6f6b));
        match self.clients.get_mut(&id) {
            Some(client) => {
                client.link = link_model;
                client.connected = true;
            }
            None => {
                self.clients.insert(
                    id,
                    Client {
                        link: link_model,
                        subscriptions: Vec::new(),
                        connected: true,
                        session_queue: Vec::new(),
                    },
                );
            }
        }
    }

    /// Marks a client as disconnected. Its subscriptions are retained (MQTT
    /// persistent session) but no deliveries are made until it reconnects.
    pub fn disconnect(&mut self, id: ClientId) {
        if let Some(client) = self.clients.get_mut(&id) {
            client.connected = false;
        }
    }

    /// Resumes a disconnected client's session in place: subscriptions,
    /// link configuration and offered/lost counters all survive (unlike
    /// [`connect`](Self::connect), which installs a fresh link). Messages
    /// queued for the persistent session while it was disconnected are
    /// replayed in publish order, followed by the last retained payload of
    /// every subscribed topic the queue replay did not already cover.
    /// Returns `false` for unknown clients.
    pub fn reconnect(&mut self, id: ClientId, now: SimTime) -> bool {
        let Some(client) = self.clients.get_mut(&id) else {
            return false;
        };
        client.connected = true;
        let queue = std::mem::take(&mut client.session_queue);
        let mut replayed_topics: BTreeSet<Arc<str>> = BTreeSet::new();
        for msg in queue {
            self.resumed += 1;
            replayed_topics.insert(msg.topic.clone());
            self.schedule_delivery(id, msg.from, &msg.topic, &msg.payload, msg.qos, false, now);
        }
        self.deliver_retained(id, None, &replayed_topics, now);
        true
    }

    /// Returns `true` if the client is currently connected.
    pub fn is_connected(&self, id: ClientId) -> bool {
        self.clients.get(&id).is_some_and(|c| c.connected)
    }

    /// The access-link configuration of a connected client, if it exists.
    pub fn link_config(&self, id: ClientId) -> Option<LinkConfig> {
        self.clients.get(&id).map(|c| *c.link.config())
    }

    /// Replaces a client's access-link quality mid-run, preserving its
    /// offered/lost counters (unlike [`connect`](Self::connect), which
    /// installs a fresh link). Returns `false` for unknown clients. Used by
    /// fault injection to degrade and restore links in place.
    pub fn reconfigure_link(&mut self, id: ClientId, config: LinkConfig) -> bool {
        match self.clients.get_mut(&id) {
            Some(client) => {
                client.link.reconfigure(config);
                true
            }
            None => false,
        }
    }

    /// Subscribes `id` to a topic filter.
    ///
    /// # Errors
    ///
    /// Returns an error if the client is unknown or the filter is invalid.
    pub fn subscribe(&mut self, id: ClientId, filter: &str) -> Result<(), BrokerError> {
        validate_filter(filter)?;
        let client = self
            .clients
            .get_mut(&id)
            .ok_or(BrokerError::UnknownClient(id))?;
        if !client.subscriptions.iter().any(|f| f == filter) {
            client.subscriptions.push(filter.to_string());
            if filter_has_wildcard(filter) {
                self.wildcard_subscribers.insert(id);
            } else if let Some(subscribers) = self.exact_subscriptions.get_mut(filter) {
                if let Err(at) = subscribers.binary_search(&id) {
                    subscribers.insert(at, id);
                }
            } else {
                self.exact_subscriptions.insert(Arc::from(filter), vec![id]);
            }
        }
        Ok(())
    }

    /// Subscribes `id` to a topic filter at simulated time `now` and, like a
    /// real broker answering a fresh SUBSCRIBE, schedules delivery of the
    /// last retained payload of every topic the filter matches. Use plain
    /// [`subscribe`](Self::subscribe) for build-time wiring where no
    /// retained state can exist yet.
    ///
    /// # Errors
    ///
    /// Returns an error if the client is unknown or the filter is invalid.
    pub fn subscribe_at(
        &mut self,
        id: ClientId,
        filter: &str,
        now: SimTime,
    ) -> Result<(), BrokerError> {
        self.subscribe(id, filter)?;
        if self.clients[&id].connected {
            self.deliver_retained(id, Some(filter), &BTreeSet::new(), now);
        }
        Ok(())
    }

    /// Removes a subscription. Returns `true` if it existed.
    pub fn unsubscribe(&mut self, id: ClientId, filter: &str) -> Result<bool, BrokerError> {
        let client = self
            .clients
            .get_mut(&id)
            .ok_or(BrokerError::UnknownClient(id))?;
        let before = client.subscriptions.len();
        client.subscriptions.retain(|f| f != filter);
        let removed = client.subscriptions.len() != before;
        if removed {
            if filter_has_wildcard(filter) {
                if !client.subscriptions.iter().any(|f| filter_has_wildcard(f)) {
                    self.wildcard_subscribers.remove(&id);
                }
            } else if let Some(subscribers) = self.exact_subscriptions.get_mut(filter) {
                subscribers.retain(|&s| s != id);
                if subscribers.is_empty() {
                    self.exact_subscriptions.remove(filter);
                }
            }
        }
        Ok(removed)
    }

    /// Publishes a message at simulated time `now`.
    ///
    /// Matching subscribers each receive an independent delivery whose
    /// arrival time is `now` plus their access-link delay. With
    /// [`QoS::AtLeastOnce`] a delivery lost by the link model is retried
    /// (modelling the PUBACK timeout) up to the configured retry budget;
    /// retries add one extra link round trip each. With
    /// [`QoS::ExactlyOnce`] the PUBLISH leg is retransmitted until the link
    /// carries it, followed by the PUBREC/PUBREL/PUBCOMP handshake frames.
    /// QoS ≥ 1 messages addressed to a disconnected persistent session are
    /// queued and replayed on [`reconnect`](Self::reconnect).
    ///
    /// # Errors
    ///
    /// Returns an error if the publisher is unknown or the topic is invalid.
    pub fn publish(
        &mut self,
        from: ClientId,
        topic: &str,
        payload: Bytes,
        qos: QoS,
        now: SimTime,
    ) -> Result<usize, BrokerError> {
        self.publish_with(from, topic, payload, qos, false, now)
    }

    /// Publishes a message with an explicit MQTT retain flag: `retain`
    /// stores the payload as the topic's retained message (an empty retained
    /// payload clears the slot, per MQTT), delivered to every later
    /// [`subscribe_at`](Self::subscribe_at) and every
    /// [`reconnect`](Self::reconnect)ed session subscribed to the topic.
    /// Delivery to currently-connected subscribers is identical to
    /// [`publish`](Self::publish).
    ///
    /// # Errors
    ///
    /// Returns an error if the publisher is unknown or the topic is invalid.
    pub fn publish_with(
        &mut self,
        from: ClientId,
        topic: &str,
        payload: Bytes,
        qos: QoS,
        retain: bool,
        now: SimTime,
    ) -> Result<usize, BrokerError> {
        validate_topic(topic)?;
        if !self.clients.contains_key(&from) {
            return Err(BrokerError::UnknownClient(from));
        }
        self.published += 1;
        if retain {
            if payload.is_empty() {
                self.retained.remove(topic);
            } else {
                self.retained.insert(
                    Arc::from(topic),
                    RetainedMessage {
                        from,
                        payload: payload.clone(),
                        qos,
                    },
                );
            }
        }
        // Exact-filter subscribers come straight out of the index, already
        // in client-id order (the order the unindexed broker scanned the
        // client map in). Only clients holding wildcard filters are matched
        // per publish; merging them needs a sort, and a dedup since a
        // client can match through both an exact and a wildcard filter.
        let mut subscribers = std::mem::take(&mut self.subscriber_scratch);
        subscribers.clear();
        let exact = self.exact_subscriptions.get_key_value(topic);
        if let Some((_, ids)) = exact {
            subscribers.extend(ids.iter().filter(|&&id| id != from));
        }
        if !self.wildcard_subscribers.is_empty() {
            subscribers.extend(self.wildcard_subscribers.iter().filter(|&&id| {
                id != from
                    && self.clients[&id]
                        .subscriptions
                        .iter()
                        .any(|f| topic_matches(f, topic))
            }));
            subscribers.sort_unstable();
            subscribers.dedup();
        }

        // A topic reached only through wildcard filters has no index entry;
        // its deliveries share one fresh copy of the text.
        let topic = exact.map_or_else(|| Arc::from(topic), |(key, _)| Arc::clone(key));

        let mut scheduled = 0;
        for &to in &subscribers {
            if !self.clients[&to].connected {
                // Persistent session: QoS ≥ 1 messages are parked for
                // replay on resume; QoS 0 is dropped on the floor, exactly
                // like a real broker. No link randomness is consumed, so
                // connected subscribers see identical draws either way.
                if qos != QoS::AtMostOnce {
                    self.queued_for_resume += 1;
                    let client = self.clients.get_mut(&to).expect("subscriber exists");
                    client.session_queue.push(QueuedMessage {
                        from,
                        topic: Arc::clone(&topic),
                        payload: payload.clone(),
                        qos,
                    });
                }
                continue;
            }
            if self.schedule_delivery(to, from, &topic, &payload, qos, false, now) {
                scheduled += 1;
            }
        }
        self.subscriber_scratch = subscribers;
        Ok(scheduled)
    }

    /// Schedules one delivery to the connected client `to`, applying its
    /// link model and the per-QoS retransmission policy. Returns `true` if
    /// a delivery was scheduled; `false` means the message was dropped
    /// after the QoS 0/1 retry budget, or — for QoS 2 over a fully-dead
    /// link — parked in the session queue, since a link that loses every
    /// frame is indistinguishable from a dropped session and the handshake
    /// completes when the session resumes.
    #[allow(clippy::too_many_arguments)]
    fn schedule_delivery(
        &mut self,
        to: ClientId,
        from: ClientId,
        topic: &Arc<str>,
        payload: &Bytes,
        qos: QoS,
        retained: bool,
        now: SimTime,
    ) -> bool {
        let size = payload.len() + topic.len() + 8;
        if qos == QoS::ExactlyOnce {
            let blacked_out = {
                let client = self.clients.get(&to).expect("subscriber exists");
                client.link.config().loss_probability >= 1.0
            };
            if blacked_out {
                self.queued_for_resume += 1;
                let client = self.clients.get_mut(&to).expect("subscriber exists");
                client.session_queue.push(QueuedMessage {
                    from,
                    topic: Arc::clone(topic),
                    payload: payload.clone(),
                    qos,
                });
                return false;
            }
        }
        let mut attempt = 0u32;
        let mut extra_delay = rtem_sim::time::SimDuration::ZERO;
        let delivered = loop {
            let client = self.clients.get_mut(&to).expect("subscriber exists");
            match client.link.offer(size) {
                Transit::Delivered(d) => break Some((d + extra_delay, attempt > 0)),
                Transit::Lost => {
                    match qos {
                        QoS::AtMostOnce => break None,
                        QoS::AtLeastOnce if attempt >= self.max_retries => break None,
                        // QoS 2 retransmits until the link carries the
                        // PUBLISH: exactly-once delivery may be late but
                        // never silently abandoned.
                        _ => {}
                    }
                    // Model the PUBACK/PUBREC timeout before the
                    // retransmission.
                    extra_delay += RETRY_TIMEOUT;
                    attempt += 1;
                }
            }
        };
        match delivered {
            Some((delay, retransmission)) => {
                self.next_seq += 1;
                self.in_flight.push(PendingDelivery {
                    seq: self.next_seq,
                    delivery: Delivery {
                        to,
                        from,
                        topic: Arc::clone(topic),
                        payload: payload.clone(),
                        at: now + delay,
                        retransmission,
                        retained,
                    },
                });
                if qos == QoS::ExactlyOnce {
                    self.complete_qos2_handshake(to, size);
                }
                true
            }
            None => {
                self.dropped += 1;
                false
            }
        }
    }

    /// Runs the PUBREC → PUBREL → PUBCOMP legs of a completed QoS-2
    /// PUBLISH over the subscriber's link. A lost PUBREC forces the broker
    /// to retransmit the PUBLISH with the DUP flag; the subscriber already
    /// holds the packet id and suppresses the duplicate, so the handshake
    /// only surfaces as wire overhead and the dup-suppression counter —
    /// the message itself was delivered exactly once.
    fn complete_qos2_handshake(&mut self, to: ClientId, publish_size: usize) {
        for leg in 0..3u8 {
            let mut attempt = 0u32;
            loop {
                self.qos2_handshake_frames += 1;
                self.qos2_handshake_bytes += QOS2_FRAME_BYTES as u64;
                let client = self.clients.get_mut(&to).expect("subscriber exists");
                match client.link.offer(QOS2_FRAME_BYTES) {
                    Transit::Delivered(_) => break,
                    Transit::Lost => {
                        if leg == 0 {
                            self.qos2_dup_suppressed += 1;
                            self.qos2_handshake_frames += 1;
                            self.qos2_handshake_bytes += publish_size as u64;
                        }
                        attempt += 1;
                        if attempt > self.max_retries {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Schedules delivery of every retained message matching `id`'s
    /// subscriptions (or just the one `filter`, when given), skipping
    /// topics in `skip` — the topics a session-resume queue replay already
    /// covered with a newer payload.
    fn deliver_retained(
        &mut self,
        id: ClientId,
        only_filter: Option<&str>,
        skip: &BTreeSet<Arc<str>>,
        now: SimTime,
    ) {
        let matching: Vec<(Arc<str>, RetainedMessage)> = {
            let client = &self.clients[&id];
            self.retained
                .iter()
                .filter(|(topic, _)| !skip.contains(*topic))
                .filter(|(topic, _)| match only_filter {
                    Some(filter) => topic_matches(filter, topic),
                    None => client
                        .subscriptions
                        .iter()
                        .any(|filter| topic_matches(filter, topic)),
                })
                .map(|(topic, msg)| (topic.clone(), msg.clone()))
                .collect()
        };
        for (topic, msg) in matching {
            self.retained_delivered += 1;
            self.schedule_delivery(id, msg.from, &topic, &msg.payload, msg.qos, true, now);
        }
    }

    /// Removes and returns every delivery due at or before `now`, ordered by
    /// arrival time.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut due: Vec<Delivery> = Vec::new();
        while let Some(pending) = self.in_flight.peek() {
            if pending.delivery.at > now {
                break;
            }
            due.push(self.in_flight.pop().expect("peeked delivery").delivery);
        }
        self.delivered += due.len() as u64;
        due
    }

    /// Earliest pending delivery time, if any (lets the simulation loop know
    /// when to wake the broker).
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.in_flight.peek().map(|p| p.delivery.at)
    }

    /// Number of messages accepted by `publish`.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Number of deliveries handed out by `drain_due`.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of deliveries abandoned after exhausting retries.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of QoS ≥ 1 messages parked for disconnected persistent
    /// sessions (including QoS-2 messages parked for blacked-out links).
    pub fn queued_for_resume(&self) -> u64 {
        self.queued_for_resume
    }

    /// Number of parked messages replayed by session resumes.
    pub fn resumed(&self) -> u64 {
        self.resumed
    }

    /// Number of retained-message deliveries scheduled for fresh
    /// subscriptions and resumed sessions.
    pub fn retained_delivered(&self) -> u64 {
        self.retained_delivered
    }

    /// Number of messages currently parked for the client's persistent
    /// session. `None` for unknown clients.
    pub fn session_queue_len(&self, id: ClientId) -> Option<usize> {
        self.clients.get(&id).map(|c| c.session_queue.len())
    }

    /// The current retained payload of a topic, if any.
    pub fn retained_payload(&self, topic: &str) -> Option<&Bytes> {
        self.retained.get(topic).map(|msg| &msg.payload)
    }

    /// Number of topics currently holding a retained message.
    pub fn retained_topics(&self) -> usize {
        self.retained.len()
    }

    /// PUBREC/PUBREL/PUBCOMP frames (plus DUP PUBLISH retransmissions)
    /// sent for QoS-2 handshakes.
    pub fn qos2_handshake_frames(&self) -> u64 {
        self.qos2_handshake_frames
    }

    /// Bytes of QoS-2 handshake traffic — the wire cost of exactly-once
    /// over at-least-once.
    pub fn qos2_handshake_bytes(&self) -> u64 {
        self.qos2_handshake_bytes
    }

    /// Duplicate QoS-2 PUBLISHes forced by lost PUBRECs and suppressed by
    /// packet id on the subscriber side.
    pub fn qos2_dup_suppressed(&self) -> u64 {
        self.qos2_dup_suppressed
    }

    /// Merged traffic counters of every client link on this broker.
    pub fn link_totals(&self) -> LinkTotals {
        let mut totals = LinkTotals::default();
        for client in self.clients.values() {
            totals += client.link.totals();
        }
        totals
    }

    /// Traffic counters of one client's link. `None` for unknown clients.
    pub fn client_link_totals(&self, id: ClientId) -> Option<LinkTotals> {
        self.clients.get(&id).map(|c| c.link.totals())
    }

    /// Total messages currently parked across every persistent session.
    pub fn session_queue_total(&self) -> usize {
        self.clients.values().map(|c| c.session_queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    fn broker() -> MqttBroker {
        MqttBroker::new(SimRng::seed_from_u64(3))
    }

    #[test]
    fn topic_matching_rules() {
        assert!(topic_matches("a/b/c", "a/b/c"));
        assert!(topic_matches("a/+/c", "a/b/c"));
        assert!(topic_matches("a/#", "a/b/c"));
        assert!(topic_matches("#", "anything/at/all"));
        assert!(!topic_matches("a/b", "a/b/c"));
        assert!(!topic_matches("a/+/c", "a/b/d"));
        assert!(!topic_matches("a/b/c", "a/b"));
    }

    #[test]
    fn publish_reaches_matching_subscriber() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "metering/+/report").unwrap();
        let n = b
            .publish(
                ClientId(1),
                "metering/dev-1/report",
                Bytes::from_static(b"x"),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 1);
        let due = b.drain_due(SimTime::from_secs(1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].to, ClientId(2));
        assert_eq!(due[0].from, ClientId(1));
        assert_eq!(b.delivered(), 1);
    }

    #[test]
    fn exact_topic_deliveries_share_the_index_allocation() {
        let mut b = broker();
        for id in 1..=3 {
            b.connect(ClientId(id), LinkConfig::ideal());
        }
        b.subscribe(ClientId(2), "metering/agg-1/uplink").unwrap();
        b.subscribe(ClientId(3), "metering/agg-1/uplink").unwrap();
        let n = b
            .publish(
                ClientId(1),
                "metering/agg-1/uplink",
                Bytes::from_static(b"r"),
                QoS::AtLeastOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 2);
        let due = b.drain_due(SimTime::from_secs(1));
        assert_eq!(due.len(), 2);
        let (key, _) = b
            .exact_subscriptions
            .get_key_value("metering/agg-1/uplink")
            .unwrap();
        for delivery in &due {
            assert!(Arc::ptr_eq(&delivery.topic, key));
        }
    }

    #[test]
    fn wildcard_only_match_carries_the_topic_text() {
        let mut b = broker();
        for id in 1..=3 {
            b.connect(ClientId(id), LinkConfig::ideal());
        }
        b.subscribe(ClientId(2), "metering/#").unwrap();
        b.subscribe(ClientId(3), "metering/+/report").unwrap();
        b.publish(
            ClientId(1),
            "metering/dev-1/report",
            Bytes::from_static(b"r"),
            QoS::AtLeastOnce,
            SimTime::ZERO,
        )
        .unwrap();
        let due = b.drain_due(SimTime::from_secs(1));
        assert_eq!(due.len(), 2);
        assert!(b.exact_subscriptions.is_empty());
        for delivery in &due {
            assert_eq!(&*delivery.topic, "metering/dev-1/report");
        }
    }

    #[test]
    fn deliveries_follow_client_id_order_whatever_the_subscribe_order() {
        let mut b = broker();
        for id in 1..=5 {
            b.connect(ClientId(id), LinkConfig::ideal());
        }
        // Exact subscribers joining in reverse order, a wildcard subscriber
        // in between, and one client matching through both kinds.
        b.subscribe(ClientId(5), "t/a").unwrap();
        b.subscribe(ClientId(2), "t/a").unwrap();
        b.subscribe(ClientId(4), "t/+").unwrap();
        b.subscribe(ClientId(3), "t/a").unwrap();
        b.subscribe(ClientId(3), "t/#").unwrap();
        b.publish(
            ClientId(1),
            "t/a",
            Bytes::new(),
            QoS::AtMostOnce,
            SimTime::ZERO,
        )
        .unwrap();
        let to: Vec<ClientId> = b
            .drain_due(SimTime::from_secs(1))
            .iter()
            .map(|d| d.to)
            .collect();
        assert_eq!(to, [2, 3, 4, 5].map(ClientId));
        // Without the wildcard subscribers the exact index alone keeps the
        // order.
        b.unsubscribe(ClientId(4), "t/+").unwrap();
        b.unsubscribe(ClientId(3), "t/#").unwrap();
        b.publish(
            ClientId(1),
            "t/a",
            Bytes::new(),
            QoS::AtMostOnce,
            SimTime::ZERO,
        )
        .unwrap();
        let to: Vec<ClientId> = b
            .drain_due(SimTime::from_secs(1))
            .iter()
            .map(|d| d.to)
            .collect();
        assert_eq!(to, [2, 3, 5].map(ClientId));
    }

    #[test]
    fn publisher_does_not_receive_its_own_message() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.subscribe(ClientId(1), "#").unwrap();
        let n = b
            .publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn non_matching_subscriber_gets_nothing() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "other/topic").unwrap();
        let n = b
            .publish(
                ClientId(1),
                "metering/x",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn disconnected_subscriber_is_skipped() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "#").unwrap();
        b.disconnect(ClientId(2));
        assert!(!b.is_connected(ClientId(2)));
        let n = b
            .publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 0);
        // Reconnect keeps the subscription.
        b.connect(ClientId(2), LinkConfig::ideal());
        let n = b
            .publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn deliveries_respect_link_latency() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        let slow = LinkConfig {
            base_latency: SimDuration::from_millis(10),
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            bandwidth_bps: None,
        };
        b.connect(ClientId(2), slow);
        b.subscribe(ClientId(2), "#").unwrap();
        b.publish(
            ClientId(1),
            "t",
            Bytes::new(),
            QoS::AtMostOnce,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(b.drain_due(SimTime::from_millis(5)).is_empty());
        assert_eq!(b.next_delivery_at(), Some(SimTime::from_millis(10)));
        let due = b.drain_due(SimTime::from_millis(10));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, SimTime::from_millis(10));
    }

    #[test]
    fn qos1_retries_on_lossy_link_qos0_does_not() {
        let lossy = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 0.6,
            bandwidth_bps: None,
        };
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), lossy);
        b.subscribe(ClientId(2), "#").unwrap();
        let mut qos1_delivered = 0;
        let mut qos0_delivered = 0;
        for i in 0..200 {
            qos1_delivered += b
                .publish(
                    ClientId(1),
                    "t",
                    Bytes::new(),
                    QoS::AtLeastOnce,
                    SimTime::from_secs(i),
                )
                .unwrap();
            qos0_delivered += b
                .publish(
                    ClientId(1),
                    "t",
                    Bytes::new(),
                    QoS::AtMostOnce,
                    SimTime::from_secs(i),
                )
                .unwrap();
        }
        assert!(qos1_delivered > qos0_delivered);
        // With a 0.6 loss rate and 5 retries the per-publish failure
        // probability is 0.6^6 ≈ 4.7 %, so ≈ 190/200 should get through.
        assert!(
            qos1_delivered >= 175,
            "QoS1 should almost always deliver, got {qos1_delivered}"
        );
        assert!(b.dropped() > 0);
    }

    #[test]
    fn retransmissions_are_flagged_and_delayed() {
        let lossy = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 0.5,
            bandwidth_bps: None,
        };
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), lossy);
        b.subscribe(ClientId(2), "#").unwrap();
        for i in 0..100 {
            b.publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtLeastOnce,
                SimTime::from_secs(i),
            )
            .unwrap();
        }
        let due = b.drain_due(SimTime::from_secs(1000));
        assert!(due.iter().any(|d| d.retransmission));
        for d in due.iter().filter(|d| d.retransmission) {
            // Retransmitted deliveries carry at least one 50 ms PUBACK timeout.
            let offset_ms = (d.at.as_micros() % 1_000_000) / 1000;
            assert!(
                offset_ms >= 51,
                "retransmission arrived too early: {offset_ms} ms"
            );
        }
    }

    #[test]
    fn reconnect_resumes_the_session_without_touching_the_link() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "#").unwrap();
        // Degrade mid-session, then bounce the client.
        let slow = LinkConfig {
            base_latency: SimDuration::from_millis(25),
            ..LinkConfig::ideal()
        };
        b.reconfigure_link(ClientId(2), slow);
        b.disconnect(ClientId(2));
        assert!(b.reconnect(ClientId(2), SimTime::ZERO));
        assert!(b.is_connected(ClientId(2)));
        // Subscription and the degraded link both survived the bounce.
        b.publish(
            ClientId(1),
            "t",
            Bytes::new(),
            QoS::AtMostOnce,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(b.next_delivery_at(), Some(SimTime::from_millis(25)));
        assert!(!b.reconnect(ClientId(9), SimTime::ZERO));
    }

    #[test]
    fn qos1_publish_while_disconnected_is_queued_and_replayed_once() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "cfg/dev-2").unwrap();
        b.disconnect(ClientId(2));
        // Published into the disconnected persistent session: not scheduled,
        // not dropped — parked.
        let n = b
            .publish(
                ClientId(1),
                "cfg/dev-2",
                Bytes::from_static(b"interval=200"),
                QoS::AtLeastOnce,
                SimTime::from_secs(1),
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(b.session_queue_len(ClientId(2)), Some(1));
        assert_eq!(b.dropped(), 0);
        assert!(b.drain_due(SimTime::from_secs(5)).is_empty());
        // Resume: the parked message is replayed exactly once.
        assert!(b.reconnect(ClientId(2), SimTime::from_secs(6)));
        assert_eq!(b.session_queue_len(ClientId(2)), Some(0));
        let due = b.drain_due(SimTime::from_secs(10));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload.as_ref(), b"interval=200");
        assert!(due[0].at >= SimTime::from_secs(6));
        assert_eq!(b.resumed(), 1);
        // No second copy ever appears.
        assert!(b.drain_due(SimTime::from_secs(1000)).is_empty());
    }

    #[test]
    fn qos0_publish_while_disconnected_stays_dropped() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "t").unwrap();
        b.disconnect(ClientId(2));
        b.publish(
            ClientId(1),
            "t",
            Bytes::new(),
            QoS::AtMostOnce,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(b.session_queue_len(ClientId(2)), Some(0));
        b.reconnect(ClientId(2), SimTime::from_secs(1));
        assert!(b.drain_due(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn qos2_always_delivers_exactly_once_on_a_lossy_link() {
        let lossy = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 0.6,
            bandwidth_bps: None,
        };
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), lossy);
        b.subscribe(ClientId(2), "#").unwrap();
        let mut scheduled = 0;
        for i in 0..200 {
            scheduled += b
                .publish(
                    ClientId(1),
                    "cmd",
                    Bytes::from_static(b"go"),
                    QoS::ExactlyOnce,
                    SimTime::from_secs(i),
                )
                .unwrap();
        }
        // Exactly once per publish: never dropped, never duplicated.
        assert_eq!(scheduled, 200);
        assert_eq!(b.dropped(), 0);
        let due = b.drain_due(SimTime::from_secs(10_000));
        assert_eq!(due.len(), 200);
        // The four-way handshake ran and lost PUBRECs forced suppressed
        // duplicates at this loss rate.
        assert!(b.qos2_handshake_frames() >= 600);
        assert!(b.qos2_handshake_bytes() > 0);
        assert!(b.qos2_dup_suppressed() > 0);
    }

    #[test]
    fn qos2_on_a_dead_link_parks_for_session_resume() {
        let dead = LinkConfig {
            loss_probability: 1.0,
            ..LinkConfig::ideal()
        };
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), dead);
        b.subscribe(ClientId(2), "cmd").unwrap();
        let n = b
            .publish(
                ClientId(1),
                "cmd",
                Bytes::from_static(b"go"),
                QoS::ExactlyOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(b.dropped(), 0, "QoS 2 is never silently abandoned");
        assert_eq!(b.session_queue_len(ClientId(2)), Some(1));
        // The link heals and the session bounces: the command arrives.
        b.reconfigure_link(ClientId(2), LinkConfig::ideal());
        b.disconnect(ClientId(2));
        b.reconnect(ClientId(2), SimTime::from_secs(30));
        let due = b.drain_due(SimTime::from_secs(60));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload.as_ref(), b"go");
    }

    #[test]
    fn retained_message_reaches_later_subscribers_and_resumed_sessions() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.connect(ClientId(3), LinkConfig::ideal());
        b.subscribe(ClientId(2), "cfg/fleet").unwrap();
        // Retained config published: the live subscriber gets it normally.
        b.publish_with(
            ClientId(1),
            "cfg/fleet",
            Bytes::from_static(b"baud=1200"),
            QoS::AtLeastOnce,
            true,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(b.drain_due(SimTime::from_secs(1)).len(), 1);
        assert_eq!(
            b.retained_payload("cfg/fleet").map(|p| p.as_ref()),
            Some(&b"baud=1200"[..])
        );
        // A later subscriber receives the retained copy, flagged as such.
        b.subscribe_at(ClientId(3), "cfg/fleet", SimTime::from_secs(2))
            .unwrap();
        let due = b.drain_due(SimTime::from_secs(3));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].to, ClientId(3));
        assert!(due[0].retained);
        assert_eq!(due[0].payload.as_ref(), b"baud=1200");
        // A bounced session re-receives it on resume.
        b.disconnect(ClientId(2));
        b.reconnect(ClientId(2), SimTime::from_secs(4));
        let due = b.drain_due(SimTime::from_secs(5));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].to, ClientId(2));
        assert!(due[0].retained);
        assert_eq!(b.retained_delivered(), 2);
    }

    #[test]
    fn retained_last_writer_wins_and_empty_payload_clears() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        for payload in [&b"v1"[..], &b"v2"[..], &b"v3"[..]] {
            b.publish_with(
                ClientId(1),
                "cfg",
                Bytes::from(payload.to_vec()),
                QoS::AtLeastOnce,
                true,
                SimTime::ZERO,
            )
            .unwrap();
        }
        b.subscribe_at(ClientId(2), "cfg", SimTime::from_secs(1))
            .unwrap();
        let due = b.drain_due(SimTime::from_secs(2));
        assert_eq!(due.len(), 1, "only the last retained payload survives");
        assert_eq!(due[0].payload.as_ref(), b"v3");
        // An empty retained publish clears the slot.
        b.publish_with(
            ClientId(1),
            "cfg",
            Bytes::new(),
            QoS::AtLeastOnce,
            true,
            SimTime::from_secs(3),
        )
        .unwrap();
        assert_eq!(b.retained_payload("cfg"), None);
        assert_eq!(b.retained_topics(), 0);
        b.disconnect(ClientId(2));
        b.reconnect(ClientId(2), SimTime::from_secs(4));
        // Only the queued live copy of the clearing publish replays; no
        // retained copy exists any more.
        let due = b.drain_due(SimTime::from_secs(1000));
        assert!(due.iter().all(|d| !d.retained));
    }

    #[test]
    fn queue_replay_supersedes_the_retained_copy_of_the_same_topic() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "cfg").unwrap();
        b.disconnect(ClientId(2));
        b.publish_with(
            ClientId(1),
            "cfg",
            Bytes::from_static(b"new"),
            QoS::AtLeastOnce,
            true,
            SimTime::from_secs(1),
        )
        .unwrap();
        b.reconnect(ClientId(2), SimTime::from_secs(2));
        let due = b.drain_due(SimTime::from_secs(10));
        // One copy, not two: the queued live publish already carries the
        // retained topic's latest payload.
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload.as_ref(), b"new");
    }

    #[test]
    fn reconfigure_link_degrades_and_restores_in_place() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "#").unwrap();
        assert_eq!(b.link_config(ClientId(2)), Some(LinkConfig::ideal()));
        // Degrade to total loss: QoS0 publishes stop arriving.
        let dead = LinkConfig {
            loss_probability: 1.0,
            ..LinkConfig::ideal()
        };
        assert!(b.reconfigure_link(ClientId(2), dead));
        let n = b
            .publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 0);
        // Restore: traffic flows again, subscriptions intact.
        assert!(b.reconfigure_link(ClientId(2), LinkConfig::ideal()));
        let n = b
            .publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert!(!b.reconfigure_link(ClientId(9), LinkConfig::ideal()));
        assert_eq!(b.link_config(ClientId(9)), None);
    }

    #[test]
    fn unknown_client_errors() {
        let mut b = broker();
        assert_eq!(
            b.subscribe(ClientId(9), "t"),
            Err(BrokerError::UnknownClient(ClientId(9)))
        );
        assert_eq!(
            b.publish(
                ClientId(9),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO
            ),
            Err(BrokerError::UnknownClient(ClientId(9)))
        );
        assert!(b.unsubscribe(ClientId(9), "t").is_err());
    }

    #[test]
    fn invalid_topics_and_filters_are_rejected() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        assert!(matches!(
            b.publish(
                ClientId(1),
                "a/+/b",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO
            ),
            Err(BrokerError::InvalidTopic(_))
        ));
        assert!(matches!(
            b.publish(
                ClientId(1),
                "",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO
            ),
            Err(BrokerError::InvalidTopic(_))
        ));
        assert!(matches!(
            b.subscribe(ClientId(1), "a/#/b"),
            Err(BrokerError::InvalidTopic(_))
        ));
        assert!(matches!(
            b.subscribe(ClientId(1), "a//b"),
            Err(BrokerError::InvalidTopic(_))
        ));
        assert!(b.subscribe(ClientId(1), "a/+/b/#").is_ok());
    }

    #[test]
    fn unsubscribe_stops_deliveries() {
        let mut b = broker();
        b.connect(ClientId(1), LinkConfig::ideal());
        b.connect(ClientId(2), LinkConfig::ideal());
        b.subscribe(ClientId(2), "t").unwrap();
        assert!(b.unsubscribe(ClientId(2), "t").unwrap());
        assert!(!b.unsubscribe(ClientId(2), "t").unwrap());
        let n = b
            .publish(
                ClientId(1),
                "t",
                Bytes::new(),
                QoS::AtMostOnce,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 0);
    }
}
