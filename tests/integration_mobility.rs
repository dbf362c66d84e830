//! Integration test: device mobility (Fig. 3 sequence 2/3, Fig. 6) — the
//! core claim of the paper: consumption stays monitorable and billable to
//! the home network while the device operates at a foreign grid-location.

use rtem::metrics::device_trace;
use rtem::prelude::*;

/// The device that moves: device 0 of network 0.
fn mobile() -> DeviceId {
    ScenarioSpec::device_id(0, 0)
}

fn home() -> AggregatorAddr {
    ScenarioSpec::network_addr(0)
}

fn away() -> AggregatorAddr {
    ScenarioSpec::network_addr(1)
}

/// The Fig. 6 shape on the paper's testbed, shortened: the mobile device
/// charges at home, is unplugged at `unplug_s` (Idle — no consumption),
/// plugs into the foreign network at `replug_s` and the run settles until
/// `horizon_s`.
fn roaming(seed: u64, unplug_s: u64, replug_s: u64, horizon_s: u64) -> ScenarioSpec {
    ScenarioSpec::paper_testbed(seed)
        .with_horizon(SimDuration::from_secs(horizon_s))
        .unplug_at(SimTime::from_secs(unplug_s), mobile())
        .plug_in_at(SimTime::from_secs(replug_s), mobile(), away())
}

fn quick(seed: u64) -> ScenarioSpec {
    roaming(seed, 30, 45, 90)
}

/// The mobile device's bill, which its home network issues.
fn home_bill(report: &RunReport) -> &BillLine {
    let bill = report.bill(mobile()).expect("the mobile device is billed");
    assert_eq!(bill.network, home(), "billed at home");
    bill
}

#[test]
fn roaming_device_gets_temporary_membership_and_home_billing() {
    let report = Experiment::new(quick(201)).run().unwrap();

    let handshake = report.metrics.handshakes[&mobile().0];
    assert_eq!(handshake.membership, MembershipKind::Temporary);
    let thandshake = handshake.total().as_secs_f64();
    assert!(
        (5.0..7.0).contains(&thandshake),
        "Thandshake {thandshake} s"
    );
    let bill = home_bill(&report);
    assert!(bill.roaming_charge_uas > 0, "foreign consumption billed");
    assert!(
        bill.charge_uas > bill.roaming_charge_uas,
        "home consumption billed"
    );
}

#[test]
fn locally_buffered_data_is_backfilled_after_the_handshake() {
    let report = Experiment::new(quick(202)).run().unwrap();
    assert!(
        home_bill(&report).backfilled_records > 0,
        "records measured during the handshake must arrive as backfill"
    );
    // The destination aggregator saw the device too.
    let dest = device_trace(report.world(), away(), mobile()).expect("destination trace");
    assert!(!dest.points.is_empty());
}

#[test]
fn home_aggregator_sees_no_consumption_during_transit() {
    let report = Experiment::new(quick(203)).run().unwrap();
    let view = device_trace(report.world(), home(), mobile()).expect("home trace");
    // Unplugged at 30 s (1 s grace for reports in flight), replugged at 45 s.
    let transit_reports = view
        .points
        .iter()
        .filter(|(t, _)| *t > 31.0 && *t < 45.0)
        .count();
    assert_eq!(transit_reports, 0, "transit (idle) is never billed");
}

#[test]
fn mobility_produces_temporary_membership_and_roaming_billing() {
    let report = Experiment::new(roaming(11, 30, 40, 80)).run().unwrap();
    let handshake = report
        .metrics
        .handshakes
        .get(&mobile().0)
        .expect("handshake must complete");
    assert_eq!(handshake.membership, MembershipKind::Temporary);
    let bill = home_bill(&report);
    assert!(
        bill.roaming_charge_uas > 0,
        "home network must bill foreign consumption"
    );
    assert!(bill.charge_uas > bill.roaming_charge_uas);
    assert!(bill.backfilled_records > 0, "buffered records must arrive");
}

#[test]
fn thandshake_is_in_the_papers_band() {
    let report = Experiment::new(roaming(12, 30, 40, 80)).run().unwrap();
    let t = report.metrics.handshakes[&mobile().0].total().as_secs_f64();
    assert!((5.0..7.0).contains(&t), "Thandshake {t} s");
}

#[test]
fn home_view_covers_both_phases() {
    let report = Experiment::new(roaming(13, 30, 40, 80)).run().unwrap();
    let view = device_trace(report.world(), home(), mobile()).expect("home trace");
    let before = view.points.iter().filter(|(t, _)| *t < 30.0).count();
    let after = view.points.iter().filter(|(t, _)| *t > 40.0).count();
    assert!(before > 0, "reports before the move");
    assert!(after > 0, "forwarded reports after the move");
    // Nothing is billed during the transit gap.
    let during = view
        .points
        .iter()
        .filter(|(t, v)| *t > 30.0 && *t < 40.0 && *v > 0.0)
        .count();
    assert_eq!(during, 0, "no consumption reported while in transit");
}

#[test]
fn statistics_over_multiple_runs_match_the_paper() {
    // 5 runs (instead of the paper's 15) keeps the test quick; the
    // Thandshake row of the `paper_claims` table runs the full 15.
    let report = Suite::new(roaming(0, 30, 40, 80))
        .over_seeds(100..105)
        .run()
        .unwrap();
    let durations: Vec<f64> = report
        .cells
        .iter()
        .map(|cell| {
            let handshake = cell.report.metrics.handshakes[&mobile().0];
            assert_eq!(handshake.membership, MembershipKind::Temporary);
            handshake.total().as_secs_f64()
        })
        .collect();
    assert_eq!(durations.len(), 5);
    let stats = HandshakeStats::from_durations(&durations);
    assert!((5.3..6.7).contains(&stats.mean_s), "mean {}", stats.mean_s);
    assert!(stats.min_s >= 5.0, "min {}", stats.min_s);
    assert!(stats.max_s <= 7.0, "max {}", stats.max_s);
}

#[test]
fn stationary_devices_are_unaffected_by_a_peers_move() {
    let mobile = ScenarioSpec::device_id(0, 0);
    let stationary = ScenarioSpec::device_id(0, 1);
    let spec = ScenarioSpec::paper_testbed(204)
        .with_horizon(SimDuration::from_secs(90))
        .unplug_at(SimTime::from_secs(30), mobile)
        .plug_in_at(
            SimTime::from_secs(45),
            mobile,
            ScenarioSpec::network_addr(1),
        );
    let report = Experiment::new(spec).run().unwrap();

    let home = report
        .world()
        .aggregator(ScenarioSpec::network_addr(0))
        .unwrap();
    // The stationary device keeps reporting throughout.
    let stationary_entries = home.ledger().account(stationary.0).unwrap().entries;
    assert!(stationary_entries > 400, "entries {stationary_entries}");
    assert!(report.world().device(stationary).unwrap().is_registered());
    // The home aggregator retains the mobile device's master membership.
    assert_eq!(
        home.registry().membership(mobile).unwrap().kind,
        MembershipKind::Master
    );
}

#[test]
fn returning_home_reuses_the_master_membership() {
    let mobile = ScenarioSpec::device_id(0, 0);
    let home_addr = ScenarioSpec::network_addr(0);
    let away_addr = ScenarioSpec::network_addr(1);
    let spec = ScenarioSpec::paper_testbed(205)
        .with_horizon(SimDuration::from_secs(120))
        .unplug_at(SimTime::from_secs(30), mobile)
        .plug_in_at(SimTime::from_secs(40), mobile, away_addr)
        .unplug_at(SimTime::from_secs(70), mobile)
        .plug_in_at(SimTime::from_secs(80), mobile, home_addr);
    let report = Experiment::new(spec).run().unwrap();

    let device = report.world().device(mobile).unwrap();
    assert!(device.is_registered());
    let (serving, kind, _) = device.registration().unwrap();
    assert_eq!(serving, home_addr);
    assert_eq!(kind, MembershipKind::Master);
    // The temporary membership at the foreign aggregator was only ever
    // temporary; the home one persists.
    let home = report.world().aggregator(home_addr).unwrap();
    assert_eq!(
        home.registry().membership(mobile).unwrap().kind,
        MembershipKind::Master
    );
}
