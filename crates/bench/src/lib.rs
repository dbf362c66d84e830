//! # rtem-bench — the paper's claims and the system's claims as asserted tables
//!
//! Each row of the paper table re-runs the experiment behind one numeric
//! claim of the paper, with the seeds and parameters it names, and checks
//! the deterministic measurement against the paper's value within a stated
//! tolerance. Each row of the system table ([`measure_system`]) runs one
//! fixed grid of the system's own checks (fault detection, randomized
//! campaigns, fleet commands, telegram framing, tariffs) against a bound.
//! The unit tests assert every row; the `paper_claims` and `system_claims`
//! binaries print the tables README embeds and exit non-zero when a row
//! fails.
//!
//! `scale_sweep` and `obs_overhead` write the committed `BENCH_scale.json`
//! and `BENCH_obs.json`; `perfbench/` measures per-layer costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod system;

use std::ops::RangeInclusive;

use rtem::aggregator::aggregator::{Aggregator, AggregatorConfig};
use rtem::chain::audit::{audit_chain, FindingKind};
use rtem::chain::chain::HashChain;
use rtem::net::backhaul::BackhaulMesh;
use rtem::net::link::LinkConfig;
use rtem::net::packet::{MeasurementRecord, Packet};
use rtem::prelude::*;
use rtem::sensors::ina219::Ina219Config;

pub use system::measure_system;

/// The paper's band for the aggregator-over-devices gap (Fig. 5), percent.
const FIG5_GAP_PERCENT: RangeInclusive<f64> = 0.9..=8.2;

/// The paper's band for Thandshake over 15 runs (§III-B.b), seconds.
const THANDSHAKE_S: RangeInclusive<f64> = 5.5..=6.5;

/// Heading of the paper table's second column.
pub const PAPER_VALUE: &str = "Paper value; tolerance";

/// Heading of the system table's second column.
pub const BOUND: &str = "Bound";

/// One claim next to what this reproduction measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is claimed; for the paper, where it makes the claim (e.g.
    /// `Fig. 5`).
    pub claim: &'static str,
    /// The bound the measurement must meet; for the paper, its value first.
    pub bound: &'static str,
    /// What this reproduction measures.
    pub measured: String,
    /// Seeds and parameters of the measurement.
    pub seeds: &'static str,
    /// Whether the measurement meets the tolerance.
    pub holds: bool,
}

/// Measures every claim of the paper, in table order.
pub fn measure_paper() -> Vec<Claim> {
    vec![
        fig5_gap(),
        fig5_error_sources(),
        fig6_backfill(),
        thandshake(),
        backhaul_delay(),
        tdma_cap(),
        tamper_proof_storage(),
        complementary_measurement(),
    ]
}

/// Renders claims as a Markdown table, one line per claim, with
/// `bound_heading` ([`PAPER_VALUE`] or [`BOUND`]) over the second column.
pub fn markdown(bound_heading: &str, claims: &[Claim]) -> String {
    let mut out = format!(
        "| Claim | {bound_heading} | Measured | Seeds and parameters | Holds |\n\
         |---|---|---|---|---|\n"
    );
    for c in claims {
        let holds = if c.holds { "yes" } else { "**no**" };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {holds} |\n",
            c.claim, c.bound, c.measured, c.seeds
        ));
    }
    out
}

fn fig5_gap() -> Claim {
    let base = ScenarioSpec::paper_testbed(2020).with_horizon(SimDuration::from_secs(120));
    let report = Suite::new(base).run().expect("the testbed is valid");
    let gaps = report
        .aggregates
        .accuracy_overhead_percent
        .expect("windows settle in 120 s");
    Claim {
        claim: "Fig. 5 — the aggregator (centralized) reads above the device (decentralized) sum",
        bound: "by 0.9–8.2 %; every settled window in the band",
        measured: format!(
            "{} windows, {:.2}–{:.2} %, mean {:.2} %",
            gaps.count, gaps.min, gaps.max, gaps.mean
        ),
        seeds: "`paper_testbed(2020)`, 120 s, both networks",
        holds: FIG5_GAP_PERCENT.contains(&gaps.min) && FIG5_GAP_PERCENT.contains(&gaps.max),
    }
}

/// An ideal sensor isolates the ohmic losses. The gap narrows as the offset
/// grows: two device sensors per network over-read by it, the aggregator's
/// one meter only once.
fn fig5_error_sources() -> Claim {
    let offsets_ma = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut sensors = vec![("ideal".to_string(), Ina219Config::ideal())];
    sensors.extend(offsets_ma.map(|offset_error_ma| {
        let sensor = Ina219Config {
            offset_error_ma,
            ..Ina219Config::testbed()
        };
        (format!("offset-{offset_error_ma:.2}mA"), sensor)
    }));
    let base = ScenarioSpec::paper_testbed(7).with_horizon(SimDuration::from_secs(80));
    let report = Suite::new(base)
        .over_sensors(sensors)
        .run()
        .expect("the sweep is valid");
    let gaps: Vec<f64> = report
        .cells
        .iter()
        .map(|c| c.report.mean_overhead_percent())
        .collect::<Option<_>>()
        .expect("windows settle in 80 s");
    Claim {
        claim: "Fig. 5 — the gap comes from ohmic losses plus the INA219 offset",
        bound: "losses + 0.5 mA offset; every sensor's mean gap in 0.9–8.2 %, ideal included",
        measured: format!(
            "ideal sensor {:.3} %; offset {} mA: {} %",
            gaps[0],
            join(offsets_ma.iter().map(f64::to_string)),
            join(gaps[1..].iter().map(|gap| format!("{gap:.3}"))),
        ),
        seeds: "seed 7, 80 s",
        holds: gaps.iter().all(|gap| FIG5_GAP_PERCENT.contains(gap)),
    }
}

fn fig6_backfill() -> Claim {
    let spec = roaming(2020, 90, 115, 205);
    let report = Experiment::new(spec).run().expect("the spec is valid");
    let bill = report.bill(mobile()).expect("the mobile device is billed");
    let handshake_s = temporary_handshake_s(&report);
    Claim {
        claim: "Fig. 6 — records buffered in transit are backfilled and billed at home",
        bound: "backfill after transit; backfilled records > 0, roamed charge > 0 billed at home, \
                Thandshake in 5.5–6.5 s",
        measured: format!(
            "{} backfilled records, {:.1} mA·s roamed, Thandshake {}",
            bill.backfilled_records,
            bill.roaming_charge_uas as f64 / 1000.0,
            handshake_s.map_or("never completed".to_string(), |s| format!("{s:.2} s")),
        ),
        seeds: "seed 2020; unplug at 90 s, re-plug in network 2 at 115 s; 205 s",
        holds: bill.backfilled_records > 0
            && bill.roaming_charge_uas > 0
            && bill.network == ScenarioSpec::network_addr(0)
            && handshake_s.is_some_and(|s| THANDSHAKE_S.contains(&s)),
    }
}

fn thandshake() -> Claim {
    let runs = 15;
    let suite = Suite::new(roaming(0, 60, 80, 140)).over_seeds(3000..3000 + runs);
    let report = suite.run().expect("the runs are valid");
    // A run without a temporary registration gives no sample and fails the
    // count check.
    let durations: Vec<f64> = report
        .cells
        .iter()
        .filter_map(|c| temporary_handshake_s(&c.report))
        .collect();
    let stats = HandshakeStats::from_durations(&durations);
    Claim {
        claim: "§III-B.b — Thandshake, the time to register abroad after plugging in",
        bound: "≈ 6 s, 5.5–6.5 s over 15 runs; each run in 5.5–6.5 s",
        measured: format!(
            "mean {:.2} s, range {:.2}–{:.2} s over {} runs",
            stats.mean_s, stats.min_s, stats.max_s, stats.count
        ),
        seeds: "seeds 3000–3014; unplug at 60 s, re-plug in network 2 at 80 s; 140 s",
        holds: durations.len() as u64 == runs && durations.iter().all(|s| THANDSHAKE_S.contains(s)),
    }
}

fn backhaul_delay() -> Claim {
    let (messages, device, collector) = (1000, DeviceId(1), AggregatorAddr(2));
    // A one-record forwarded report, the message the backhaul carries.
    let record = MeasurementRecord {
        device,
        sequence: 0,
        interval_start_us: 0,
        interval_end_us: 100_000,
        mean_current_ua: 150_000,
        charge_uas: 15_000,
        backfilled: false,
    };
    let packet = Packet::ForwardedConsumption {
        device,
        collector,
        records: vec![record],
    };
    let (mut means_ms, mut max_ms, mut delivered_direct) = (Vec::new(), 0.0f64, true);
    for mesh_size in [2u32, 4, 8, 16] {
        let addrs: Vec<AggregatorAddr> = (1..=mesh_size).map(AggregatorAddr).collect();
        let rng = SimRng::seed_from_u64(u64::from(mesh_size));
        let mut mesh = BackhaulMesh::full_mesh(&addrs, LinkConfig::backhaul(), rng);
        let mut delays_ms = Vec::with_capacity(messages);
        for i in 0..messages {
            let sent_at = SimTime::from_millis(i as u64 * 10);
            let (from, to) = (addrs[i % addrs.len()], addrs[(i + 1) % addrs.len()]);
            mesh.send(from, to, packet.clone(), sent_at)
                .expect("a full mesh links every pair");
            for delivery in mesh.drain_due(SimTime::from_secs(1_000_000)) {
                delays_ms.push(delivery.at.duration_since(sent_at).as_secs_f64() * 1000.0);
                delivered_direct &= delivery.hops == 1;
            }
        }
        delivered_direct &= delays_ms.len() == messages;
        let delays = AggregateStats::from_values(&delays_ms).expect("messages are delivered");
        means_ms.push(delays.mean);
        max_ms = max_ms.max(delays.max);
    }
    let means = AggregateStats::from_values(&means_ms).expect("four meshes");
    Claim {
        claim: "§III-B.b — forwarding between aggregators over the backhaul adds little delay",
        bound: "≈ 1 ms; every mesh's mean in 1 ms ± 10 %, every message delivered over one hop",
        measured: format!(
            "mean {:.3}–{:.3} ms, max {max_ms:.3} ms, 1 hop",
            means.min, means.max
        ),
        seeds: "full meshes of 2 / 4 / 8 / 16 aggregators (seed = size), 1000 messages each",
        holds: delivered_direct && means.min >= 0.9 && means.max <= 1.1,
    }
}

fn tdma_cap() -> Claim {
    let (slots, fleets) = (10, [2, 4, 8, 10, 12, 16, 32]);
    let base = ScenarioSpec::single_network(2, 777)
        .with_load(DeviceLoad::ReportingOnly)
        .with_horizon(SimDuration::from_secs(30));
    let report = Suite::new(base)
        .over_devices_per_network(fleets)
        .run()
        .expect("sweep is valid");
    let members: Vec<usize> = report
        .cells
        .iter()
        .map(|c| c.report.metrics.networks[0].members)
        .collect();
    Claim {
        claim: "§II-A — the TDMA slot budget caps an aggregator's members",
        bound: "10 slots; members = min(devices, 10)",
        measured: format!(
            "{} members of {} devices",
            join(members.iter().map(usize::to_string)),
            join(fleets.iter().map(u32::to_string)),
        ),
        seeds: "`single_network(n, 777)`, reporting only, 30 s",
        holds: members
            .iter()
            .zip(fleets)
            .all(|(&m, n)| m == (n as usize).min(slots)),
    }
}

fn tamper_proof_storage() -> Claim {
    let records_per_block = 50;
    let mut rng = SimRng::seed_from_u64(99);
    let mut localized = 0;
    for blocks in [10u64, 100, 1000] {
        for rewrites in [1, 5, 20] {
            let mut chain = HashChain::new(1, 0);
            for b in 0..blocks {
                let records = (0..records_per_block)
                    .map(|r| format!("block-{b}-record-{r}").into_bytes())
                    .collect();
                chain
                    .seal_block(1, (b + 1) * 1_000_000, records)
                    .expect("blocks are sealed in time order");
            }
            let anchor = chain.head_hash();
            let mut victims = Vec::new();
            for _ in 0..rewrites {
                let block = 1 + rng.next_below(blocks);
                let record = rng.next_below(records_per_block) as usize;
                let victim = chain
                    .block_mut_for_experiment(block)
                    .expect("the block exists");
                victim.tamper_record_for_experiment(record, b"forged".to_vec());
                victims.push(block);
            }
            // A finding at every rewritten block also means the audit failed.
            let audit = audit_chain(&chain, Some(anchor));
            let flagged = |block: &u64| {
                let mut findings = audit.findings.iter();
                findings.any(|f| f.kind == FindingKind::RecordMismatch && f.block_index == *block)
            };
            localized += usize::from(victims.iter().all(flagged));
        }
    }
    Claim {
        claim: "§II-A — tamper-proof storage: every rewrite is detected and localized",
        bound: "tamper-proof; every cell detected and localized to its block",
        measured: format!("{localized} of 9 cells"),
        seeds: "seed 99; chains of 10 / 100 / 1000 blocks × 50 records; 1 / 5 / 20 rewrites",
        holds: localized == 9,
    }
}

/// Under-reporting by 5 % or 10 % lies inside the line losses the check
/// must tolerate (Fig. 5's 0.9–8.2 %): the row shows those cells but claims
/// nothing about them.
fn complementary_measurement() -> Claim {
    let windows = 30;
    let percents = [0u32, 5, 10, 20, 30, 50, 80];
    let flagged = percents.map(|percent| anomalous_windows(f64::from(percent) / 100.0, windows));
    Claim {
        claim: "§II-A — the complementary measurement flags under-reporting (static fleet)",
        bound: "detected; honest: no window flagged, ≥ 20 % under-reported: every window flagged",
        measured: format!(
            "flagged windows of {windows} at {} % under-reported: {}",
            join(percents.iter().map(u32::to_string)),
            join(flagged.iter().map(u64::to_string)),
        ),
        seeds: "seed 42; 2 devices, one under-reporting; 30 windows",
        holds: percents
            .iter()
            .zip(flagged)
            .all(|(&percent, n)| match percent {
                0 => n == 0,
                20.. => n == windows,
                _ => true,
            }),
    }
}

/// The roaming device of the Fig. 6 and Thandshake rows.
fn mobile() -> DeviceId {
    ScenarioSpec::device_id(0, 0)
}

/// The testbed, with [`mobile`] moving from network 1 to network 2.
fn roaming(seed: u64, unplug_s: u64, replug_s: u64, horizon_s: u64) -> ScenarioSpec {
    let away = ScenarioSpec::network_addr(1);
    ScenarioSpec::paper_testbed(seed)
        .with_horizon(SimDuration::from_secs(horizon_s))
        .unplug_at(SimTime::from_secs(unplug_s), mobile())
        .plug_in_at(SimTime::from_secs(replug_s), mobile(), away)
}

/// Seconds [`mobile`] took to register in a foreign network, if it did.
fn temporary_handshake_s(report: &RunReport) -> Option<f64> {
    let handshake = report.metrics.handshakes.get(&mobile().0)?;
    (handshake.membership == MembershipKind::Temporary).then(|| handshake.total().as_secs_f64())
}

/// Drives one aggregator (seed 42) with an honest device and one reporting
/// `1 - under_report` of its true draw, and counts the anomalous windows.
fn anomalous_windows(under_report: f64, windows: u64) -> u64 {
    let addr = AggregatorAddr(1);
    let mut aggregator =
        Aggregator::new(AggregatorConfig::testbed(addr), SimRng::seed_from_u64(42));
    for device in [DeviceId(1), DeviceId(2)] {
        aggregator
            .register_master(device, SimTime::ZERO)
            .expect("a slot is free");
    }
    let mut rng = SimRng::seed_from_u64(42 ^ 0xF00D);
    for window in 0..windows {
        let honest_ma = 180.0 + rng.normal(0.0, 2.0);
        let cheater_ma = 200.0 + rng.normal(0.0, 2.0);
        let reported_ma = cheater_ma * (1.0 - under_report);
        for (device, reported_ma) in [(DeviceId(1), honest_ma), (DeviceId(2), reported_ma)] {
            // Ten 100 ms records per device and window.
            let records = (window * 10..window * 10 + 10)
                .map(|sequence| MeasurementRecord {
                    device,
                    sequence,
                    interval_start_us: sequence * 100_000,
                    interval_end_us: (sequence + 1) * 100_000,
                    mean_current_ua: (reported_ma * 1000.0).max(0.0) as u64,
                    charge_uas: (reported_ma * 100.0).max(0.0) as u64,
                    backfilled: false,
                })
                .collect();
            let report = Packet::ConsumptionReport {
                device,
                master: Some(addr),
                records,
            };
            aggregator.handle_device_packet(&report, SimTime::from_secs(window + 1));
        }
        for s in 0..10 {
            let at = SimTime::from_millis(window * 1000 + s * 100);
            aggregator.observe_upstream(at, Milliamps::new(honest_ma + cheater_ma + 3.0));
        }
        aggregator.end_window(SimTime::from_secs(window + 1));
    }
    aggregator.verdicts().iter().filter(|v| v.anomalous).count() as u64
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(" / ")
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test per row, named after it, so a failing claim names itself.
    macro_rules! row_tests {
        ($($row:ident),*) => {$(
            #[test]
            fn $row() {
                let claim = super::$row();
                let row = markdown(PAPER_VALUE, std::slice::from_ref(&claim));
                assert!(claim.holds, "paper claim does not hold:\n{row}");
            }
        )*};
    }

    row_tests! {
        fig5_gap, fig5_error_sources, fig6_backfill, thandshake,
        backhaul_delay, tdma_cap, tamper_proof_storage, complementary_measurement
    }

    #[test]
    fn readme_embeds_the_rendered_table() {
        let table = markdown(PAPER_VALUE, &measure_paper());
        let block = format!("<!-- paper_claims:begin -->\n{table}<!-- paper_claims:end -->");
        assert!(
            include_str!("../../../README.md").contains(&block),
            "README's paper-claims table differs from the rendered one; replace it with:\n{table}"
        );
    }

    // One test for the whole system table: each row's grid takes seconds in
    // a debug build, so the table is measured once.
    #[test]
    fn system_claims_hold_and_readme_embeds_them() {
        let claims = measure_system();
        let failed: Vec<Claim> = claims.iter().filter(|c| !c.holds).cloned().collect();
        assert!(
            failed.is_empty(),
            "system claims do not hold:\n{}",
            markdown(BOUND, &failed)
        );
        let table = markdown(BOUND, &claims);
        let block = format!("<!-- system_claims:begin -->\n{table}<!-- system_claims:end -->");
        assert!(
            include_str!("../../../README.md").contains(&block),
            "README's system-claims table differs from the rendered one; replace it with:\n{table}"
        );
    }
}
