//! Layer replay: each pipeline operation timed alone, through its public
//! API, at the shape one workload gives it (records per report, records per
//! window, members per network, networks, tariff).
//!
//! Every result is nanoseconds per operation, the median of
//! [`REPS`] timed batches after a calibration batch that also warms caches.
//! Batches are sized to take at least [`BATCH`], so timer resolution never
//! dominates.

use rtem::aggregator::billing::{BillingEngine, CollectionOrigin, Tariff};
use rtem::aggregator::verify::{VerifierConfig, WindowVerifier};
use rtem::chain::{audit_chain, merkle_root, HashChain, LedgerEntry, MeteringLedger};
use rtem::codecs::{encode, parse, MeterKind, Telegram};
use rtem::consensus::{QuorumConsensus, RoundOutcome, Vote};
use rtem::net::backhaul::BackhaulMesh;
use rtem::net::broker::{ClientId, MqttBroker, QoS};
use rtem::net::link::LinkConfig;
use rtem::net::packet::{AggregatorAddr, DeviceId, MeasurementRecord, Packet};
use rtem::sensors::{Ina219Config, Ina219Model, Milliamps, Millivolts};
use rtem::sim::rng::SimRng;
use rtem::sim::time::{SimDuration, SimTime};
use rtem::telemetry::{MetricId, MetricsRegistry};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per operation.
pub const REPS: usize = 5;

/// Minimum wall time of one batch.
pub const BATCH: Duration = Duration::from_millis(20);

/// The shape one workload gives the layer operations, read off its traced
/// run.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Networks (aggregators) in the world.
    pub networks: usize,
    /// Devices homed on each network.
    pub per_network: usize,
    /// Mean measurement records per consumption report.
    pub records_per_report: usize,
    /// Mean records sealed per verification window of one network.
    pub records_per_window: usize,
    /// The tariff the workload bills under.
    pub tariff: Tariff,
}

/// One timed operation: its metric name and ns per operation.
pub type Cost = (String, f64);

/// Median ns per operation of `batch(ops)`, which must perform `ops`
/// operations. The first (calibration) batch doubles `ops` until one batch
/// takes [`BATCH`].
pub fn ns_per_op(mut batch: impl FnMut(u64)) -> f64 {
    let mut ops = 1u64;
    loop {
        let started = Instant::now();
        batch(ops);
        if started.elapsed() >= BATCH || ops >= 1 << 24 {
            break;
        }
        ops *= 2;
    }
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            batch(ops);
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

fn record(device: u64, sequence: u64) -> MeasurementRecord {
    MeasurementRecord {
        device: DeviceId(device),
        sequence,
        interval_start_us: sequence * 100_000,
        interval_end_us: (sequence + 1) * 100_000,
        mean_current_ua: 400_000 + sequence % 977,
        charge_uas: 40_000 + sequence % 977,
        backfilled: false,
    }
}

fn ledger_entry(device: u64, sequence: u64) -> LedgerEntry {
    let r = record(device, sequence);
    LedgerEntry {
        device_id: device,
        collected_by: 1,
        billed_by: 1,
        sequence,
        interval_start_us: r.interval_start_us,
        interval_end_us: r.interval_end_us,
        charge_uas: r.charge_uas,
        backfilled: false,
    }
}

/// One window's ledger entries: `per_network` devices sharing the records.
fn window_entries(shape: &Shape, window: u64) -> Vec<LedgerEntry> {
    (0..shape.records_per_window as u64)
        .map(|i| {
            let device = i % shape.per_network as u64;
            ledger_entry(device, window * shape.records_per_window as u64 + i)
        })
        .collect()
}

/// `Ina219Model::measure` on the charging current.
pub fn ina219_measure() -> f64 {
    let mut sensor = Ina219Model::new(Ina219Config::testbed(), SimRng::seed_from_u64(7));
    ns_per_op(|ops| {
        for _ in 0..ops {
            black_box(sensor.measure(black_box(Milliamps::new(412.5))));
        }
    })
}

/// `codecs::encode` and `codecs::parse` of one report's telegram, for each
/// real meter kind.
pub fn codecs(shape: &Shape) -> Vec<Cost> {
    let records = (0..shape.records_per_report as u64)
        .map(|seq| record(104, seq))
        .collect();
    let telegram = Telegram::new(DeviceId(104), Some(AggregatorAddr(2)), records);
    let mut costs = Vec::new();
    for kind in MeterKind::REAL {
        let bytes = encode(kind, &telegram).expect("real kinds encode");
        costs.push((
            format!("codecs.encode_{}_ns", kind.label()),
            ns_per_op(|ops| {
                for _ in 0..ops {
                    black_box(encode(kind, black_box(&telegram)).expect("real kinds encode"));
                }
            }),
        ));
        costs.push((
            format!("codecs.parse_{}_ns", kind.label()),
            ns_per_op(|ops| {
                for _ in 0..ops {
                    black_box(parse(kind, black_box(&bytes)).expect("own bytes parse"));
                }
            }),
        ));
    }
    costs
}

/// `MqttBroker::publish` of one device report, then `drain_due` of its
/// delivery, at each QoS level, with every device and aggregator of the
/// workload connected.
pub fn broker(shape: &Shape) -> Vec<Cost> {
    let devices = (shape.networks * shape.per_network) as u64;
    let payload = Packet::ConsumptionReport {
        device: DeviceId(0),
        master: Some(AggregatorAddr(1)),
        records: (0..shape.records_per_report as u64)
            .map(|seq| record(0, seq))
            .collect(),
    }
    .encode();
    [
        ("net.broker_qos0_ns", QoS::AtMostOnce),
        ("net.broker_qos1_ns", QoS::AtLeastOnce),
        ("net.broker_qos2_ns", QoS::ExactlyOnce),
    ]
    .into_iter()
    .map(|(name, qos)| {
        let mut broker = MqttBroker::new(SimRng::seed_from_u64(11));
        let topics: Vec<String> = (0..shape.networks)
            .map(|n| format!("metering/agg-{}/uplink", n + 1))
            .collect();
        for (n, topic) in topics.iter().enumerate() {
            let site = ClientId(1_000_000 + n as u64);
            broker.connect(site, LinkConfig::wifi());
            broker.subscribe(site, topic).expect("valid filter");
        }
        for d in 0..devices {
            broker.connect(ClientId(d), LinkConfig::wifi());
        }
        let mut now = SimTime::ZERO;
        let mut next = 0u64;
        let cost = ns_per_op(|ops| {
            for _ in 0..ops {
                let device = next % devices;
                let topic = &topics[(device as usize / shape.per_network) % topics.len()];
                next += 1;
                now += SimDuration::from_millis(1);
                let _ = broker.publish(ClientId(device), topic, payload.clone(), qos, now);
                // Drain once the link delay and any retries have elapsed;
                // the next publish is stamped after the drain.
                now += SimDuration::from_secs(5);
                black_box(broker.drain_due(now));
            }
        });
        (name.to_string(), cost)
    })
    .collect()
}

/// `BackhaulMesh::send` of one forwarded report, then `drain_due`, over a
/// full mesh of the workload's networks (at least two).
pub fn backhaul(shape: &Shape) -> f64 {
    let addrs: Vec<AggregatorAddr> = (1..=shape.networks.max(2) as u32)
        .map(AggregatorAddr)
        .collect();
    let mut mesh =
        BackhaulMesh::full_mesh(&addrs, LinkConfig::backhaul(), SimRng::seed_from_u64(13));
    let packet = Packet::ForwardedConsumption {
        device: DeviceId(0),
        collector: addrs[1],
        records: (0..shape.records_per_report as u64)
            .map(|seq| record(0, seq))
            .collect(),
    };
    let mut now = SimTime::ZERO;
    let mut next = 0usize;
    ns_per_op(|ops| {
        for _ in 0..ops {
            let from = addrs[next % addrs.len()];
            let to = addrs[(next + 1) % addrs.len()];
            next += 1;
            now += SimDuration::from_millis(1);
            let _ = mesh.send(from, to, packet.clone(), now);
            now += SimDuration::from_secs(1);
            black_box(mesh.drain_due(now));
        }
    })
}

/// `MeteringLedger::stage` of one window's records plus `commit_block`,
/// per record.
pub fn stage_commit(shape: &Shape) -> f64 {
    let mut ledger = MeteringLedger::new(1, 0);
    let mut window = 0u64;
    let per_window = ns_per_op(|ops| {
        for _ in 0..ops {
            window += 1;
            for entry in window_entries(shape, window) {
                ledger.stage(entry);
            }
            black_box(
                ledger
                    .commit_block(1, window * 10_000_000)
                    .expect("monotone"),
            );
        }
    });
    per_window / shape.records_per_window as f64
}

/// `merkle_root` over one window's record bytes, per call.
pub fn merkle(shape: &Shape) -> f64 {
    let leaves: Vec<Vec<u8>> = window_entries(shape, 0)
        .iter()
        .map(LedgerEntry::to_bytes)
        .collect();
    ns_per_op(|ops| {
        for _ in 0..ops {
            black_box(merkle_root(black_box(&leaves)));
        }
    })
}

/// `audit_chain` over a 30-window chain, per record.
pub fn audit(shape: &Shape) -> f64 {
    const WINDOWS: u64 = 30;
    let mut chain = HashChain::new(1, 0);
    for window in 1..=WINDOWS {
        let records = window_entries(shape, window)
            .iter()
            .map(LedgerEntry::to_bytes)
            .collect();
        chain
            .seal_block(1, window * 10_000_000, records)
            .expect("monotone");
    }
    let records = chain.total_records() as f64;
    let anchor = chain.block(0).expect("genesis").hash();
    ns_per_op(|ops| {
        for _ in 0..ops {
            black_box(audit_chain(black_box(&chain), Some(anchor)));
        }
    }) / records
}

/// One tariff of each variant, with the metric-name label of each.
pub fn tariffs() -> [(&'static str, Tariff); 4] {
    [
        Tariff::flat(1.0),
        Tariff::evening_peak(1.0),
        Tariff::two_tier(1.0, 0.5),
        Tariff::DemandCharge {
            price_per_mwh: 1.0,
            demand_price_per_ma: 0.01,
            window: SimDuration::from_secs(60),
        },
    ]
    .map(|tariff| (tariff_label(&tariff), tariff))
}

/// The metric-name label of `tariff`'s variant.
pub fn tariff_label(tariff: &Tariff) -> &'static str {
    match tariff {
        Tariff::Flat { .. } => "flat",
        Tariff::TimeOfUse { .. } => "time_of_use",
        Tariff::Tiered { .. } => "tiered",
        Tariff::DemandCharge { .. } => "demand_charge",
    }
}

/// `BillingEngine::bill_record` for each tariff variant, records spread
/// over one network's devices.
pub fn billing(shape: &Shape) -> Vec<Cost> {
    tariffs()
        .into_iter()
        .map(|(label, tariff)| {
            let mut engine = BillingEngine::new(tariff, Millivolts::usb_bus());
            let mut sequence = 0u64;
            let cost = ns_per_op(|ops| {
                for _ in 0..ops {
                    let r = record(sequence % shape.per_network as u64, sequence);
                    sequence += 1;
                    engine.bill_record(
                        r.device,
                        r.charge_uas,
                        r.interval_start_us,
                        r.interval_end_us,
                        false,
                        CollectionOrigin::Home,
                    );
                }
                black_box(engine.total_cost());
            });
            (format!("aggregator.bill_{label}_ns"), cost)
        })
        .collect()
}

/// `WindowVerifier::check` of one window's sums.
pub fn window_check() -> f64 {
    let mut verifier = WindowVerifier::new(VerifierConfig::default());
    let mut i = 0u64;
    ns_per_op(|ops| {
        for _ in 0..ops {
            i += 1;
            let reported = Milliamps::new(3000.0 + (i % 17) as f64);
            black_box(verifier.check(reported, black_box(Milliamps::new(3150.0))));
        }
    })
}

/// One `QuorumConsensus` round: a proposal of one window's records, then
/// votes from the network's devices until it commits.
pub fn consensus_round(shape: &Shape) -> f64 {
    let validators: Vec<DeviceId> = (0..shape.per_network.max(2) as u64).map(DeviceId).collect();
    let mut consensus = QuorumConsensus::majority(validators.iter().copied());
    let records: Vec<Vec<u8>> = window_entries(shape, 0)
        .iter()
        .map(LedgerEntry::to_bytes)
        .collect();
    let mut round = 0u64;
    ns_per_op(|ops| {
        for _ in 0..ops {
            round += 1;
            consensus
                .propose(validators[0], round * 10_000_000, records.clone())
                .expect("no open proposal");
            for &voter in &validators[1..] {
                let outcome = consensus.vote(voter, Vote::Approve).expect("valid vote");
                if matches!(outcome, RoundOutcome::Committed { .. }) {
                    break;
                }
            }
        }
    })
}

/// `MetricsRegistry::snapshot` with one scope per network filled.
pub fn snapshot(shape: &Shape) -> f64 {
    let mut registry = MetricsRegistry::new();
    for (i, id) in MetricId::ALL.iter().enumerate() {
        registry.fleet_mut().set(*id, i as u64 * 1000);
    }
    for n in 0..shape.networks as u32 {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            registry
                .network_mut(n + 1)
                .set(*id, i as u64 + u64::from(n));
        }
    }
    let mut seq = 0u64;
    ns_per_op(|ops| {
        for _ in 0..ops {
            seq += 1;
            black_box(registry.snapshot(SimTime::from_secs(seq * 10), seq));
        }
    })
}
