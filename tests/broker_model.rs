//! Property-style model tests for the MQTT broker's control-plane
//! guarantees.
//!
//! PR 7 grew the broker from plain QoS 0/1 delivery into the control-plane
//! transport: QoS 2 exactly-once via the PUBREC/PUBREL/PUBCOMP handshake,
//! retained messages with last-writer-wins, and persistent-session resume
//! that replays queued publishes in publish order. These tests drive the
//! broker through long seeded interleavings of every operation the fleet
//! manager performs — publish at each QoS (retained or not), disconnect,
//! reconnect, drain — and check each step against a naive reference model
//! whose semantics are obviously correct.
//!
//! The delivery guarantees under test, per publish and matching subscriber:
//!
//! * loss-free link, subscriber connected: delivered exactly once at every
//!   QoS;
//! * lossy link (loss < 1), connected: QoS 2 delivered exactly once; QoS 0/1
//!   at most once (QoS 1's retry budget is finite), never duplicated;
//! * disconnected: QoS ≥ 1 queued and replayed in publish order on resume
//!   (QoS 2 replay survives the lossy link too); QoS 0 dropped;
//! * retained: `retained_payload` always equals the last non-empty retained
//!   publish (empty clears), and every retained replay carries a payload
//!   that was the topic's retained message at some point.

use bytes::Bytes;
use rtem::net::broker::{ClientId, Delivery, MqttBroker, QoS};
use rtem::net::link::LinkConfig;
use rtem::sim::rng::SimRng;
use rtem::sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

const MANAGER: ClientId = ClientId(1);
const SUB_IDEAL: ClientId = ClientId(10);
const SUB_LOSSY: ClientId = ClientId(11);
const TOPICS: [&str; 3] = ["cmd/a", "cmd/b", "cmd/c"];
const LOSS: f64 = 0.35;

fn lossy() -> LinkConfig {
    LinkConfig {
        loss_probability: LOSS,
        ..LinkConfig::wifi()
    }
}

/// Unique per-publish payload: the publish counter in decimal.
fn payload(id: u64) -> Bytes {
    Bytes::from(id.to_string().into_bytes())
}

fn payload_id(delivery: &Delivery) -> u64 {
    std::str::from_utf8(&delivery.payload)
        .expect("payloads are decimal strings")
        .parse()
        .expect("payloads are publish counters")
}

/// What the reference model expects one subscriber to receive, given the
/// broker's documented QoS semantics and that subscriber's link quality.
#[derive(Default)]
struct NaiveSession {
    connected: bool,
    lossy: bool,
    /// Payload ids that MUST arrive exactly once (live, `retained: false`).
    must: BTreeSet<u64>,
    /// Payload ids that MAY arrive, at most once (QoS 0/1 over loss).
    may: BTreeSet<u64>,
    /// QoS ≥ 1 publishes parked while disconnected, in publish order.
    /// `None` is a retained-clear (empty payload) — replayed like any
    /// queued publish, and its topic counts as covered for the resume-time
    /// retained replay.
    queue: Vec<(Option<u64>, QoS, String)>,
    /// Retained replays a loss-free link must see, in trigger order.
    must_retained: Vec<(String, u64)>,
}

impl NaiveSession {
    /// Classifies one live publish addressed to this session. `None` is a
    /// retained-clear: its empty payload crosses the wire too, but the
    /// assertions ignore it.
    fn on_publish(&mut self, id: Option<u64>, qos: QoS, topic: &str) {
        if !self.connected {
            if qos != QoS::AtMostOnce {
                self.queue.push((id, qos, topic.to_string()));
            }
            return;
        }
        let Some(id) = id else { return };
        if !self.lossy || qos == QoS::ExactlyOnce {
            self.must.insert(id);
        } else {
            self.may.insert(id);
        }
    }

    /// Session resume: the queue replays in order over the live link, then
    /// retained topics the replay did not cover are re-delivered.
    fn on_reconnect(&mut self, retained: &BTreeMap<String, u64>) {
        let replayed: BTreeSet<String> = self.queue.iter().map(|(_, _, t)| t.clone()).collect();
        for (id, qos, _) in self.queue.drain(..) {
            let Some(id) = id else { continue };
            if !self.lossy || qos == QoS::ExactlyOnce {
                self.must.insert(id);
            } else {
                self.may.insert(id);
            }
        }
        if !self.lossy {
            for (topic, id) in retained {
                if !replayed.contains(topic) {
                    self.must_retained.push((topic.clone(), *id));
                }
            }
        }
    }
}

/// The obviously-correct reference: last-writer-wins retained slots plus a
/// per-subscriber delivery classification.
struct NaiveBroker {
    /// topic → payload id of the last non-empty retained publish.
    retained: BTreeMap<String, u64>,
    /// Every (topic, id) that was ever the retained message of its topic.
    retained_history: BTreeSet<(String, u64)>,
    sessions: BTreeMap<ClientId, NaiveSession>,
}

/// One seeded interleaving of publishes, disconnects, resumes and drains.
fn run_interleaving(seed: u64, steps: usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut broker = MqttBroker::new(SimRng::seed_from_u64(seed ^ 0xb0de));
    broker.connect(MANAGER, LinkConfig::ideal());
    broker.connect(SUB_IDEAL, LinkConfig::ideal());
    broker.connect(SUB_LOSSY, lossy());
    broker
        .subscribe(SUB_IDEAL, "cmd/+")
        .expect("wildcard filter is valid");
    for topic in TOPICS {
        broker.subscribe(SUB_LOSSY, topic).expect("topic is valid");
    }

    let mut model = NaiveBroker {
        retained: BTreeMap::new(),
        retained_history: BTreeSet::new(),
        sessions: BTreeMap::new(),
    };
    for (id, is_lossy) in [(SUB_IDEAL, false), (SUB_LOSSY, true)] {
        model.sessions.insert(
            id,
            NaiveSession {
                connected: true,
                lossy: is_lossy,
                ..NaiveSession::default()
            },
        );
    }

    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut live: BTreeMap<ClientId, Vec<Delivery>> = BTreeMap::new();
    let mut replayed_retained: BTreeMap<ClientId, Vec<(String, u64)>> = BTreeMap::new();

    let drain = |broker: &mut MqttBroker,
                 live: &mut BTreeMap<ClientId, Vec<Delivery>>,
                 replayed: &mut BTreeMap<ClientId, Vec<(String, u64)>>,
                 at: SimTime| {
        for delivery in broker.drain_due(at) {
            if delivery.payload.is_empty() {
                // A retained-clear crossing the wire; carries no counter.
                continue;
            }
            if delivery.retained {
                replayed
                    .entry(delivery.to)
                    .or_default()
                    .push((delivery.topic.to_string(), payload_id(&delivery)));
            } else {
                live.entry(delivery.to).or_default().push(delivery);
            }
        }
    };

    for step in 0..steps {
        match rng.next_below(100) {
            // Publish a uniquely-numbered message (the dominant operation).
            0..=59 => {
                let topic = TOPICS[rng.next_below(TOPICS.len() as u64) as usize];
                let qos = match rng.next_below(3) {
                    0 => QoS::AtMostOnce,
                    1 => QoS::AtLeastOnce,
                    _ => QoS::ExactlyOnce,
                };
                let retain = rng.chance(0.25);
                let id = next_id;
                next_id += 1;
                broker
                    .publish_with(MANAGER, topic, payload(id), qos, retain, now)
                    .expect("publish is valid");
                if retain {
                    model.retained.insert(topic.to_string(), id);
                    model.retained_history.insert((topic.to_string(), id));
                }
                for session in model.sessions.values_mut() {
                    session.on_publish(Some(id), qos, topic);
                }
            }
            // Clear one topic's retained slot (empty retained payload).
            60..=64 => {
                let topic = TOPICS[rng.next_below(TOPICS.len() as u64) as usize];
                broker
                    .publish_with(MANAGER, topic, Bytes::new(), QoS::AtLeastOnce, true, now)
                    .expect("clear is valid");
                model.retained.remove(topic);
                for session in model.sessions.values_mut() {
                    session.on_publish(None, QoS::AtLeastOnce, topic);
                }
            }
            // Drop or resume one subscriber's session.
            65..=84 => {
                let id = if rng.chance(0.5) {
                    SUB_IDEAL
                } else {
                    SUB_LOSSY
                };
                let session = model.sessions.get_mut(&id).expect("session exists");
                if session.connected {
                    broker.disconnect(id);
                    session.connected = false;
                } else {
                    assert!(broker.reconnect(id, now), "subscriber is known");
                    session.connected = true;
                    let retained = model.retained.clone();
                    model
                        .sessions
                        .get_mut(&id)
                        .expect("session exists")
                        .on_reconnect(&retained);
                }
            }
            // Drain everything due so far.
            85..=94 => {
                drain(&mut broker, &mut live, &mut replayed_retained, now);
            }
            // Let simulated time pass.
            _ => {}
        }
        now += SimDuration::from_millis(1 + rng.next_below(40));

        // Last-writer-wins holds after every single operation.
        for topic in TOPICS {
            let expected = model.retained.get(topic).map(|&id| payload(id));
            assert_eq!(
                broker.retained_payload(topic).cloned(),
                expected,
                "retained slot of {topic} at step {step}"
            );
        }
    }

    // Settle: resume every session, let all retransmissions land, drain.
    for (&id, session) in &mut model.sessions {
        if !session.connected {
            broker.reconnect(id, now);
            session.connected = true;
            let retained = model.retained.clone();
            session.on_reconnect(&retained);
        }
    }
    now += SimDuration::from_secs(3_600);
    drain(&mut broker, &mut live, &mut replayed_retained, now);

    for (&id, session) in &model.sessions {
        let deliveries = live.remove(&id).unwrap_or_default();
        let ids: Vec<u64> = deliveries.iter().map(payload_id).collect();
        let unique: BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(
            unique.len(),
            ids.len(),
            "seed {seed}: {id} saw a duplicate live delivery"
        );
        for must in &session.must {
            assert!(
                unique.contains(must),
                "seed {seed}: {id} lost guaranteed publish {must}"
            );
        }
        for got in &unique {
            assert!(
                session.must.contains(got) || session.may.contains(got),
                "seed {seed}: {id} received unexpected publish {got}"
            );
        }
        if !session.lossy {
            // Loss-free constant-latency link: live + replayed deliveries
            // arrive in global publish order.
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "seed {seed}: {id} saw reordered deliveries");
        }

        let retained_got = replayed_retained.remove(&id).unwrap_or_default();
        for entry in &retained_got {
            assert!(
                model.retained_history.contains(entry),
                "seed {seed}: {id} got a retained replay {entry:?} that was \
                 never the topic's retained message"
            );
        }
        if !session.lossy {
            assert_eq!(
                retained_got, session.must_retained,
                "seed {seed}: {id} retained replays diverge from the model"
            );
        }
    }
}

#[test]
fn broker_matches_naive_model_across_seeds() {
    for seed in 0..16 {
        run_interleaving(seed, 400);
    }
}

#[test]
fn broker_matches_naive_model_on_long_runs() {
    run_interleaving(777, 2_500);
}

/// The PR 5 regression this file guards (satellite of PR 7): a QoS 1
/// publish addressed to a disconnected persistent session used to be lost;
/// it must be queued and delivered exactly once after the session resumes —
/// and never delivered a second time by later reconnects.
#[test]
fn qos1_publish_while_disconnected_is_delivered_exactly_once_on_resume() {
    let mut broker = MqttBroker::new(SimRng::seed_from_u64(5));
    broker.connect(MANAGER, LinkConfig::ideal());
    broker.connect(SUB_IDEAL, LinkConfig::ideal());
    broker.subscribe(SUB_IDEAL, "cmd/a").expect("valid filter");

    broker.disconnect(SUB_IDEAL);
    broker
        .publish(
            MANAGER,
            "cmd/a",
            payload(1),
            QoS::AtLeastOnce,
            SimTime::from_secs(1),
        )
        .expect("publish is valid");
    assert_eq!(broker.session_queue_len(SUB_IDEAL), Some(1));
    assert!(
        broker.drain_due(SimTime::from_secs(2)).is_empty(),
        "nothing is delivered while the session is down"
    );

    assert!(broker.reconnect(SUB_IDEAL, SimTime::from_secs(3)));
    let replay = broker.drain_due(SimTime::from_secs(4));
    assert_eq!(replay.len(), 1, "the queued publish is replayed");
    assert_eq!(payload_id(&replay[0]), 1);
    assert!(!replay[0].retained);

    // A second resume cycle must not re-deliver it.
    broker.disconnect(SUB_IDEAL);
    assert!(broker.reconnect(SUB_IDEAL, SimTime::from_secs(5)));
    assert!(
        broker.drain_due(SimTime::from_secs(3_600)).is_empty(),
        "the replayed publish must not be delivered twice"
    );
}

/// QoS 2 under heavy loss: every publish still arrives exactly once — the
/// PUBLISH leg retransmits until the link carries it and duplicates forced
/// by lost handshake frames are suppressed by packet id.
#[test]
fn qos2_is_exactly_once_under_heavy_loss() {
    let mut broker = MqttBroker::new(SimRng::seed_from_u64(9));
    broker.connect(MANAGER, LinkConfig::ideal());
    broker.connect(
        SUB_LOSSY,
        LinkConfig {
            loss_probability: 0.6,
            ..LinkConfig::wifi()
        },
    );
    broker.subscribe(SUB_LOSSY, "cmd/+").expect("valid filter");

    const N: u64 = 200;
    for id in 0..N {
        broker
            .publish(
                MANAGER,
                TOPICS[(id % 3) as usize],
                payload(id),
                QoS::ExactlyOnce,
                SimTime::from_millis(id * 10),
            )
            .expect("publish is valid");
    }
    let delivered = broker.drain_due(SimTime::from_secs(3_600));
    let ids: BTreeSet<u64> = delivered.iter().map(payload_id).collect();
    assert_eq!(delivered.len() as u64, N, "no drops and no duplicates");
    assert_eq!(ids.len() as u64, N, "every publish arrived");
    assert!(
        broker.qos2_dup_suppressed() > 0,
        "a 60 % loss rate must have forced at least one suppressed duplicate"
    );
}

/// Retained config reaches late subscribers: last-writer-wins on the slot,
/// a fresh `subscribe_at` receives only the newest payload, and an empty
/// retained publish clears the slot for everyone after.
#[test]
fn retained_config_is_last_writer_wins_for_late_subscribers() {
    let mut broker = MqttBroker::new(SimRng::seed_from_u64(13));
    broker.connect(MANAGER, LinkConfig::ideal());
    for id in 0..3u64 {
        broker
            .publish_with(
                MANAGER,
                "cmd/a",
                payload(id),
                QoS::AtLeastOnce,
                true,
                SimTime::from_secs(id),
            )
            .expect("publish is valid");
    }

    let late = ClientId(30);
    broker.connect(late, LinkConfig::ideal());
    broker
        .subscribe_at(late, "cmd/+", SimTime::from_secs(10))
        .expect("valid filter");
    let got = broker.drain_due(SimTime::from_secs(11));
    assert_eq!(got.len(), 1, "only the newest retained payload is replayed");
    assert_eq!(payload_id(&got[0]), 2);
    assert!(got[0].retained);

    // An empty retained publish clears the slot: the next late subscriber
    // receives nothing.
    broker
        .publish_with(
            MANAGER,
            "cmd/a",
            Bytes::new(),
            QoS::AtLeastOnce,
            true,
            SimTime::from_secs(12),
        )
        .expect("clear is valid");
    assert_eq!(broker.retained_payload("cmd/a"), None);
    // The clear itself crosses the wire to the connected subscriber.
    let clears = broker.drain_due(SimTime::from_secs(13));
    assert!(clears.iter().all(|d| d.payload.is_empty()));
    let later = ClientId(31);
    broker.connect(later, LinkConfig::ideal());
    broker
        .subscribe_at(later, "cmd/a", SimTime::from_secs(13))
        .expect("valid filter");
    assert!(broker.drain_due(SimTime::from_secs(3_600)).is_empty());
}
