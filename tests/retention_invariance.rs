//! Retention invariance: the streaming-compaction retention policy is a
//! pure memory knob. A bounded-memory run must reproduce the keep-all
//! digests while actually shrinking resident state.

use rtem::chain::sha256::Sha256;
use rtem::prelude::*;

/// Canonical text rendering, the same fields as
/// `scale_determinism::render`, with the control-plane accounting appended
/// when the spec carries a plan (as `control_determinism` renders it).
fn render(report: &RunReport) -> String {
    let mut rendering = format!(
        "metrics: {:#?}\naccuracy: {:#?}\nhandshakes: {:#?}\nledgers: {:#?}\nbills: {:#?}\nresilience: {:#?}\nfault_records: {:#?}\n",
        report.metrics,
        report.accuracy,
        report.handshakes,
        report.ledgers,
        report.bills,
        report.resilience,
        report.world().fault_records(),
    );
    if let Some(control) = &report.control {
        rendering += &format!("control: {control:#?}\n");
    }
    rendering
}

fn digest(report: &RunReport) -> String {
    Sha256::digest(render(report).as_bytes()).to_hex()
}

/// The committed 200-device scale golden (`scale_determinism::fleet_spec`).
fn fleet_spec() -> ScenarioSpec {
    ScenarioSpec::single_network(200, 4242).with_horizon(SimDuration::from_secs(60))
}

/// A roaming multi-network scenario: one device leaves its home network
/// for an initially empty one.
fn roaming_spec() -> ScenarioSpec {
    let mobile = ScenarioSpec::device_id(0, 0);
    let dest = ScenarioSpec::network_addr(3);
    ScenarioSpec::paper_testbed(777)
        .with_networks(3)
        .with_devices_per_network(8)
        .with_empty_networks(1)
        .with_horizon(SimDuration::from_secs(60))
        .unplug_at(SimTime::from_secs(22), mobile)
        .plug_in_at(SimTime::from_secs(32), mobile, dest)
}

/// The committed control-plane golden
/// (`control_determinism::commanded_spec`): a staged Tmeasure rollout, a
/// retained QoS 2 site command and a mute/resume round-trip.
fn commanded_spec() -> ScenarioSpec {
    let t = SimTime::from_secs;
    let site = ScenarioSpec::network_addr(1);
    let dev = ScenarioSpec::device_id(0, 1);
    let plan = ControlPlan::new()
        .staged_rollout(
            t(20),
            SimDuration::from_secs(5),
            &[50, 100],
            FleetCommand::SetMeasureInterval {
                interval: SimDuration::from_millis(500),
            },
            QoS::AtLeastOnce,
            false,
        )
        .command_with(
            t(28),
            CommandTarget::Site(site),
            FleetCommand::SetTariffHint(TariffHint::flat(2.5)),
            QoS::ExactlyOnce,
            true,
        )
        .stop_reporting(t(32), CommandTarget::Device(dev))
        .start_reporting(t(40), CommandTarget::Device(dev));
    ScenarioSpec::paper_testbed(4242)
        .with_horizon(SimDuration::from_secs(55))
        .with_control_plan(plan)
}

/// A heterogeneous meter-protocol fleet: every real codec on the wire.
fn codec_spec() -> ScenarioSpec {
    ScenarioSpec::single_network(100, 9001)
        .with_horizon(SimDuration::from_secs(30))
        .with_meter_kinds(MeterKind::REAL.to_vec())
}

#[test]
fn bounded_memory_reproduces_keep_all_digests() {
    // Streaming compaction must change nothing the report can see: the
    // sealed-summary chain stands in for the evicted blocks and samples
    // exactly. Checked on the fleet cell, a roaming multi-network scenario,
    // a commanded run and a mixed-codec fleet (no fault plan: scheduled
    // tampers address blocks by index, which a bounded run may have
    // evicted — that pairing is unsupported).
    for (name, spec) in [
        ("fleet", fleet_spec()),
        ("roaming", roaming_spec()),
        ("commanded", commanded_spec()),
        ("codec", codec_spec()),
    ] {
        let keep_all = Experiment::new(spec.clone()).run().expect("valid spec");
        let bounded = Experiment::new(spec.clone().with_bounded_memory(2))
            .run()
            .expect("valid spec");
        assert_eq!(
            digest(&keep_all),
            digest(&bounded),
            "{name}: bounded-memory run diverged from keep-all"
        );
        // And the bound must be real: fewer resident blocks and samples
        // than the keep-all run, with the evicted prefix accounted for.
        let addr = ScenarioSpec::network_addr(0);
        let full = keep_all.world().aggregator(addr).expect("network exists");
        let compact = bounded.world().aggregator(addr).expect("network exists");
        let (full_blocks, full_samples) = full.resident_footprint();
        let (kept_blocks, kept_samples) = compact.resident_footprint();
        assert!(
            kept_blocks < full_blocks,
            "{name}: eviction retained all {full_blocks} blocks"
        );
        assert!(
            kept_samples < full_samples,
            "{name}: pruning retained all {full_samples} samples"
        );
        assert_eq!(
            full.ledger().chain().len(),
            compact.ledger().chain().len(),
            "{name}: logical chain length must include the evicted prefix"
        );
    }
}
