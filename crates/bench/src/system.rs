//! The system's own claims, beyond the paper's numbers: faults are caught,
//! randomized campaigns meet their expectations, fleet commands land, real
//! telegram framing leaves metering untouched and tariffs only price it.
//!
//! Each row runs one fixed grid, the same in the unit test and in the
//! `system_claims` binary, and checks a bound on its deterministic outcome.

use rtem::net::link::LinkConfig;
use rtem::prelude::*;
use rtem_campaign::{run_campaign, CampaignGenerator};

use crate::{join, Claim, FIG5_GAP_PERCENT};

/// Measures every system claim, in table order.
pub fn measure_system() -> Vec<Claim> {
    vec![
        resilience(),
        campaigns(),
        rollouts(),
        codec_framing(),
        tariffs(),
    ]
}

/// The testbed runs a mixed real-codec fleet, so the corruption cells meet
/// real telegram checksums. `outage/long` goes undetected: the row shows it
/// but gates nothing on it.
fn resilience() -> Claim {
    let base = ScenarioSpec::paper_testbed(909)
        .with_horizon(SimDuration::from_secs(60))
        .with_meter_kinds(MeterKind::REAL.to_vec());
    let report = Suite::new(base.clone())
        .over_fault_plans(fault_plans())
        .run()
        .expect("the fault plans are valid");
    // (label, injected, detected) of every cell.
    let cells: Vec<(&str, usize, usize)> = report
        .cells
        .iter()
        .map(|cell| {
            let label = cell.key.fault_plan.as_deref().expect("the axis is swept");
            let faults = cell
                .report
                .resilience
                .as_ref()
                .expect("every cell has faults");
            (label, faults.injected(), faults.detected())
        })
        .collect();
    let family = |name: &'static str| {
        cells
            .iter()
            .filter(move |(label, ..)| label.split('/').next() == Some(name))
    };
    let [tamper, corruption, byzantine] = ["tamper", "corruption", "byzantine"].map(|name| {
        family(name).fold((0, 0), |(detected, injected), &(_, i, d)| {
            (detected + d, injected + i)
        })
    });
    let rate = |(detected, injected): (usize, usize)| detected as f64 / injected.max(1) as f64;
    let link_cells = family("link").count();
    let link_detected = family("link").filter(|&&(_, _, d)| d > 0).count();
    let (detected, injected) = cells
        .iter()
        .fold((0, 0), |(detected, injected), &(_, i, d)| {
            (detected + d, injected + i)
        });
    let undetected: Vec<&str> = cells
        .iter()
        .filter(|&&(_, i, d)| d < i)
        .map(|&(label, ..)| label)
        .collect();

    let storm_report = Experiment::new(misconfig_storm(base))
        .run()
        .expect("the storm is valid");
    let storm = storm_report
        .control
        .as_ref()
        .expect("the storm has commands");
    let recovered = storm_report
        .world()
        .devices()
        .filter(|(_, device)| device.measure_interval() == SimDuration::from_millis(100))
        .count();
    let fleet = storm_report.world().devices().count();
    let fraction = |(detected, injected): (usize, usize)| format!("{detected}/{injected}");
    Claim {
        claim: "Resilience under injected faults — forgeries, loss bursts, colluding voters and \
                corrupted telegrams are detected; a misconfiguration storm recovers",
        bound: "tamper and byzantine detection ≥ 0.99, corruption > 0.5, every `link/*` cell \
                detected; storm completion 1.0 and every device back on 100 ms",
        measured: format!(
            "tamper {}, corruption {}, byzantine {}, link {link_detected}/{link_cells} cells; \
             storm {}/{} acked, {recovered}/{fleet} back on 100 ms; {detected} of {injected} \
             faults overall, undetected: {}",
            fraction(tamper),
            fraction(corruption),
            fraction(byzantine),
            storm.acked(),
            storm.targets(),
            if undetected.is_empty() {
                "none".to_string()
            } else {
                join(undetected.iter().map(|label| format!("`{label}`")))
            },
        ),
        seeds: "`paper_testbed(909)`, real meter kinds round-robin, 60 s; 22 fault plans with \
                clean twins, plus the misconfiguration storm",
        holds: rate(tamper) >= 0.99
            && rate(corruption) > 0.5
            && link_detected == link_cells
            && rate(byzantine) >= 0.99
            && storm.completion_rate() == Some(1.0)
            && recovered == fleet,
    }
}

/// Seven families at rising intensity on the two-network testbed.
fn fault_plans() -> [(&'static str, FaultPlan); 22] {
    let home = ScenarioSpec::network_addr(0);
    let backup = ScenarioSpec::network_addr(1);
    let dev_a = ScenarioSpec::device_id(0, 0);
    let dev_b = ScenarioSpec::device_id(1, 0);
    let t = SimTime::from_secs;
    let burst = |loss_probability| {
        let degraded = LinkConfig {
            loss_probability,
            ..LinkConfig::wifi()
        };
        FaultPlan::new().link_burst(t(20), t(40), LinkTarget::Wifi { network: None }, degraded)
    };
    let corrupt = |device, mode, per_mille| {
        FaultPlan::new().telegram_corruption_between(t(20), t(40), device, mode, per_mille)
    };
    [
        (
            "sensor/mild",
            FaultPlan::new().sensor_stuck_at(t(20), dev_a, 120.0),
        ),
        (
            "sensor/severe",
            FaultPlan::new().sensor_stuck_at(t(20), dev_a, 30.0),
        ),
        (
            "sensor/dead",
            FaultPlan::new().sensor_stuck_at(t(20), dev_a, 0.0),
        ),
        ("tamper/x1", FaultPlan::new().tamper_at(t(25), home)),
        (
            "tamper/x2",
            FaultPlan::new()
                .tamper_at(t(25), home)
                .tamper_at(t(35), home),
        ),
        (
            "tamper/x3",
            FaultPlan::new()
                .tamper_at(t(25), home)
                .tamper_at(t(35), home)
                .tamper_at(t(45), backup),
        ),
        ("link/loss30", burst(0.3)),
        ("link/loss70", burst(0.7)),
        ("link/blackout", burst(1.0)),
        (
            "crash/short",
            FaultPlan::new().crash_between(t(20), t(30), dev_a),
        ),
        (
            "crash/long",
            FaultPlan::new().crash_between(t(20), t(45), dev_a),
        ),
        (
            "crash/double",
            FaultPlan::new()
                .crash_between(t(20), t(40), dev_a)
                .crash_between(t(22), t(42), dev_b),
        ),
        (
            "outage/blip",
            FaultPlan::new().outage_between(t(20), t(30), home, None),
        ),
        (
            "outage/long",
            FaultPlan::new().outage_between(t(20), t(45), home, None),
        ),
        (
            "outage/failover",
            FaultPlan::new().outage_between(t(20), t(45), home, Some(backup)),
        ),
        (
            "byzantine/minority",
            FaultPlan::new().byzantine_between(t(20), t(50), home, 1),
        ),
        (
            "byzantine/quorum",
            FaultPlan::new().byzantine_between(t(20), t(50), home, 2),
        ),
        (
            "corruption/flip-mild",
            corrupt(dev_a, CorruptionMode::BitFlip { flips: 1 }, 300),
        ),
        (
            "corruption/flip-storm",
            corrupt(dev_a, CorruptionMode::BitFlip { flips: 3 }, 1000),
        ),
        (
            "corruption/truncate",
            corrupt(dev_a, CorruptionMode::Truncate, 500),
        ),
        (
            "corruption/mangle",
            corrupt(dev_b, CorruptionMode::MangleField, 500),
        ),
        (
            "corruption/double",
            FaultPlan::new()
                .telegram_corruption_between(
                    t(20),
                    t(45),
                    dev_a,
                    CorruptionMode::BitFlip { flips: 2 },
                    800,
                )
                .telegram_corruption_between(t(22), t(45), dev_b, CorruptionMode::Truncate, 800),
        ),
    ]
}

/// A retained bad configuration (a 5 s Tmeasure) blasted to the whole fleet
/// in the middle of a 70 % wifi loss burst, then a retained recovery command
/// back to 100 ms while the burst is still on, both at QoS 2. The row checks
/// that every device acks both commands and ends on the 100 ms Tmeasure, so
/// the recovery won last-writer-wins.
fn misconfig_storm(base: ScenarioSpec) -> ScenarioSpec {
    let t = SimTime::from_secs;
    let lossy = LinkConfig {
        loss_probability: 0.7,
        ..LinkConfig::wifi()
    };
    let faults =
        FaultPlan::new().link_burst(t(20), t(40), LinkTarget::Wifi { network: None }, lossy);
    let set_interval = |interval| FleetCommand::SetMeasureInterval { interval };
    let storm = ControlPlan::new()
        .command_with(
            t(22),
            CommandTarget::AllDevices,
            set_interval(SimDuration::from_secs(5)),
            QoS::ExactlyOnce,
            true,
        )
        .command_with(
            t(35),
            CommandTarget::AllDevices,
            set_interval(SimDuration::from_millis(100)),
            QoS::ExactlyOnce,
            true,
        );
    base.with_fault_plan(faults).with_control_plan(storm)
}

/// Every generated campaign runs with its clean twin and is scored against
/// the conservative predicate of what it should detect.
fn campaigns() -> Claim {
    let seeds = 18;
    let verdicts: Vec<_> = (0..seeds)
        .map(|seed| {
            run_campaign(&CampaignGenerator::new(seed).next_campaign())
                .expect("generated campaigns are valid")
        })
        .collect();
    let expected: usize = verdicts.iter().map(|v| v.expected.len()).sum();
    let missed: usize = verdicts.iter().map(|v| v.missed.len()).sum();
    let failed = verdicts.iter().filter(|v| !v.passed()).count();
    let rerun = run_campaign(&CampaignGenerator::new(0).next_campaign())
        .expect("generated campaigns are valid");
    let reproduces = rerun.digest == verdicts[0].digest;
    Claim {
        claim: "Randomized campaigns — every fault expected to be detectable is detected, and \
                every verdict passes",
        bound: "0 missed expected detections, 0 failed verdicts; seed 0's digest reproduces",
        measured: format!(
            "{expected} expected detections, {missed} missed, {failed} failed verdicts; \
             seed 0's digest {}",
            if reproduces {
                "reproduces"
            } else {
                "differs on a re-run"
            },
        ),
        seeds: "`CampaignGenerator::new(seed).next_campaign()`, seeds 0–17, with clean twins",
        holds: missed == 0 && failed == 0 && reproduces,
    }
}

/// Lossy links only delay a rollout: QoS 1 and 2 retransmit until the acks
/// close, so those cells are shown, and only the ideal link is gated.
fn rollouts() -> Claim {
    let base = ScenarioSpec::single_network(100, 1101).with_horizon(SimDuration::from_secs(80));
    let lossy = LinkConfig {
        loss_probability: 0.3,
        ..LinkConfig::wifi()
    };
    let links = [
        ("ideal", LinkConfig::ideal(), LinkConfig::ideal()),
        ("wifi", LinkConfig::wifi(), LinkConfig::backhaul()),
        ("30 % loss", lossy, LinkConfig::backhaul()),
    ];
    let report = Suite::new(base)
        .over_links(links)
        .over_control_plans(rollout_plans())
        .run()
        .expect("the rollouts are valid");
    // Cells are link-major: one row of rollout shapes per link, ideal first.
    let shapes = report.cells.len() / links.len();
    let complete: Vec<usize> = report
        .cells
        .chunks(shapes)
        .map(|row| {
            row.iter()
                .filter(|cell| {
                    let control = cell.report.control.as_ref();
                    control.and_then(|control| control.completion_rate()) == Some(1.0)
                })
                .count()
        })
        .collect();
    let per_link: Vec<String> = links
        .iter()
        .zip(&complete)
        .map(|((label, ..), complete)| format!("{label} {complete}/{shapes}"))
        .collect();
    Claim {
        claim: "Fleet-command rollouts — every rollout on an ideal link completes",
        bound: "completion 1.0 in every ideal-link cell",
        measured: format!("cells complete at 1.0: {}", per_link.join(", ")),
        seeds: "`single_network(100, 1101)`, 80 s; 5 rollout shapes (at 30 s, 10 s stagger) × \
                ideal / wifi / 30 %-loss links",
        holds: complete[0] == shapes,
    }
}

/// The same Tmeasure slowdown through increasingly careful transports, plus
/// a mute/resume round-trip.
fn rollout_plans() -> [(&'static str, ControlPlan); 5] {
    let (at, stagger) = (SimTime::from_secs(30), SimDuration::from_secs(10));
    let slowdown = FleetCommand::SetMeasureInterval {
        interval: SimDuration::from_millis(500),
    };
    let staged = |qos, retained| {
        ControlPlan::new().staged_rollout(at, stagger, &[10, 50, 100], slowdown, qos, retained)
    };
    [
        ("staged/qos1", staged(QoS::AtLeastOnce, false)),
        ("staged/qos2", staged(QoS::ExactlyOnce, false)),
        ("staged/qos1-retained", staged(QoS::AtLeastOnce, true)),
        (
            "blast/qos2-all",
            ControlPlan::new().command_with(
                at,
                CommandTarget::AllDevices,
                slowdown,
                QoS::ExactlyOnce,
                false,
            ),
        ),
        (
            "mute-resume/qos1",
            ControlPlan::new()
                .stop_reporting(at, CommandTarget::AllDevices)
                .start_reporting(at + stagger, CommandTarget::AllDevices),
        ),
    ]
}

/// The internal kind frames no telegram, so its wire image is the native
/// record encoding and its framing ratio is 1 by definition.
fn codec_framing() -> Claim {
    // Internal first, then the real kinds in the bound's order.
    let kinds = [
        ("internal", vec![]),
        ("IEC 62056-21", vec![MeterKind::Iec62056]),
        ("SML", vec![MeterKind::Sml]),
        ("wireless M-Bus", vec![MeterKind::WirelessMbus]),
        ("Modbus RTU", vec![MeterKind::ModbusRtu]),
    ];
    let report = Suite::new(hourly_fleet(6221, 3600))
        .over_workloads(workloads())
        .over_meter_kinds(kinds.clone())
        .run()
        .expect("the codec grid is valid");
    let mut clean = true;
    // Framing ratio per cell, one row of meter kinds per workload.
    let rows: Vec<Vec<f64>> = report
        .cells
        .chunks(kinds.len())
        .map(|row| {
            let internal_gap = row[0].report.mean_overhead_percent();
            row.iter()
                .map(|cell| {
                    let wire = cell.report.world().wire_stats();
                    clean &= wire.parse_failures == 0
                        && internal_gap.is_some()
                        && cell.report.mean_overhead_percent() == internal_gap;
                    let on_wire = if wire.telegrams_sent > 0 {
                        wire.telegram_bytes
                    } else {
                        wire.native_bytes
                    };
                    on_wire as f64 / wire.native_bytes.max(1) as f64
                })
                .collect()
        })
        .collect();
    let ordered = rows.iter().all(|ratios| {
        ratios[0] == 1.0 && ratios[1..].windows(2).all(|pair| pair[0] > pair[1]) && ratios[4] > 1.0
    });
    let ratio_ranges = (0..kinds.len()).map(|kind| {
        let ratios: Vec<f64> = rows.iter().map(|ratios| ratios[kind]).collect();
        format!("{} {}", kinds[kind].0, range(&ratios, 3))
    });
    Claim {
        claim: "Real framing costs bytes, not accuracy — telegrams parse and meter exactly as \
                the internal encoding does",
        bound: "every cell: 0 parse failures, accuracy delta exactly 0 against the internal \
                cell; framing ratio IEC 62056-21 > SML > wireless M-Bus > Modbus RTU > internal \
                = 1 in every workload",
        measured: format!(
            "framing ratio {}; {}",
            join(ratio_ranges),
            if clean {
                "0 parse failures and accuracy delta 0 in every cell"
            } else {
                "a cell failed a parse or moved the accuracy"
            },
        ),
        seeds: "`paper_testbed(6221)` as 4 × 1, Tmeasure and upstream sampling 1 s, 900 s \
                windows, 1 h; 5 meter kinds × 4 workloads",
        holds: clean && ordered,
    }
}

/// Per workload, every tariff sees the same records, energy and Fig. 5 gap;
/// only the demand charge adds a demand cost.
fn tariffs() -> Claim {
    let tariffs = [
        Tariff::flat(1.0),
        Tariff::evening_peak(1.0),
        Tariff::two_tier(1.0, 50.0),
        Tariff::DemandCharge {
            price_per_mwh: 1.0,
            demand_price_per_ma: 0.05,
            window: SimDuration::from_secs(900),
        },
    ];
    let report = Suite::new(hourly_fleet(3107, 2 * 3600))
        .over_workloads(workloads())
        .over_tariffs(
            tariffs
                .iter()
                .map(|tariff| (tariff.label(), tariff.clone())),
        )
        .run()
        .expect("the tariff grid is valid");
    let mut gaps = Vec::new();
    let mut demand_costs = Vec::new();
    let mut metering_agrees = true;
    let mut demand_only_under_the_charge = true;
    // One row of tariffs per workload, the demand charge last.
    for row in report.cells.chunks(tariffs.len()) {
        let metering = |cell: &SuiteCell| {
            let bills = &cell.report.bills;
            let records: u64 = bills.iter().map(|b| b.records).sum();
            let energy: f64 = bills
                .iter()
                .map(|b| b.energy_at(Millivolts::usb_bus()).value())
                .sum();
            (records, energy, cell.report.mean_overhead_percent())
        };
        metering_agrees &= row.iter().all(|cell| metering(cell) == metering(&row[0]));
        let demand: Vec<f64> = row
            .iter()
            .map(|cell| cell.report.bills.iter().map(|b| b.breakdown.demand).sum())
            .collect();
        let (charged, uncharged) = demand.split_last().expect("four tariffs");
        demand_only_under_the_charge &= *charged > 0.0 && uncharged.iter().all(|&d| d == 0.0);
        demand_costs.push(*charged);
        gaps.push(row[0].report.mean_overhead_percent().unwrap_or(f64::NAN));
    }
    Claim {
        claim: "Tariffs bill, they do not meter — a tariff changes prices, never what is measured",
        bound: "per workload: billed records, billed energy and mean Fig. 5 gap equal under \
                every tariff; demand cost > 0 only under the demand charge; every mean gap in \
                0.9–8.2 %",
        measured: format!(
            "records, energy and gap {} across tariffs; mean gap {} %; demand cost {} under \
             the demand charge{}",
            if metering_agrees { "equal" } else { "differ" },
            range(&gaps, 2),
            range(&demand_costs, 1),
            if demand_only_under_the_charge {
                ", 0 under the others"
            } else {
                ", and elsewhere"
            },
        ),
        seeds: "`paper_testbed(3107)` as 4 × 1, same timing, 2 h; 4 workloads × flat / \
                evening-peak / two-tier / demand-charge",
        holds: metering_agrees
            && demand_only_under_the_charge
            && gaps.iter().all(|gap| FIG5_GAP_PERCENT.contains(gap)),
    }
}

/// Four customers, each behind its own meter: the heaviest shape (an EV site
/// with two 1.2 A chargers) draws ~2.4 A at peak, so stacking several behind
/// one network's ±3.2 A INA219 would clip the Fig. 5 check. Diurnal shapes
/// move at hour scale, so a 1 s Tmeasure blurs nothing.
fn hourly_fleet(seed: u64, horizon_s: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_testbed(seed)
        .with_networks(4)
        .with_devices_per_network(1)
        .with_horizon(SimDuration::from_secs(horizon_s));
    spec.t_measure = SimDuration::from_secs(1);
    spec.upstream_sample_interval = SimDuration::from_secs(1);
    spec.with_verification_window(SimDuration::from_secs(900))
}

fn workloads() -> [(String, WorkloadModel); 4] {
    [
        WorkloadModel::residential(),
        WorkloadModel::commercial(),
        WorkloadModel::ev_fleet(),
        WorkloadModel::solar_home(),
    ]
    .map(|workload| (workload.label(), workload))
}

/// `min–max` of `values`, or the one value when they are all equal.
fn range(values: &[f64], decimals: usize) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min == max {
        format!("{min:.decimals$}")
    } else {
        format!("{min:.decimals$}–{max:.decimals$}")
    }
}
