//! The [`Experiment`] runner: spec in, [`RunReport`] out.

use crate::control::build_control;
use crate::faults::{build_resilience, FaultPlan};
use crate::probe::{NullProbe, Probe};
use crate::report::{BillLine, LedgerSummary, NetworkAccuracy, RunReport};
use crate::runner::RunHandle;
use crate::spec::{ScenarioSpec, ScriptEvent, SpecError};
use rtem_chain::audit::audit_chain;
use rtem_core::metrics::{accuracy_windows, WorldMetrics};
use rtem_core::simulation::World;
use rtem_sim::time::SimTime;

/// Owns the build → run → collect loop of one metering experiment.
///
/// ```
/// use rtem::prelude::*;
///
/// let spec = ScenarioSpec::paper_testbed(42).with_horizon(SimDuration::from_secs(30));
/// let report = Experiment::new(spec).run().unwrap();
/// assert!(report.all_ledgers_clean());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    spec: ScenarioSpec,
}

impl Experiment {
    /// Wraps a spec. Validation happens in [`run`](Experiment::run) /
    /// [`build_world`](Experiment::build_world) so an invalid spec is still
    /// inspectable.
    pub fn new(spec: ScenarioSpec) -> Experiment {
        Experiment { spec }
    }

    /// The spec the experiment will run.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Validates the spec and builds the initial world, with every scripted
    /// topology change already scheduled. Useful when a caller needs to
    /// interleave custom logic with the run; most callers use
    /// [`run`](Experiment::run).
    pub fn build_world(&self) -> Result<World, SpecError> {
        self.spec.validate()?;
        let mut world = self.spec.populate();
        for event in &self.spec.script {
            match *event {
                ScriptEvent::PlugIn {
                    at,
                    device,
                    network,
                } => {
                    world.schedule_plug_in(at, device, network);
                }
                ScriptEvent::Unplug { at, device } => {
                    world.schedule_unplug(at, device);
                }
                ScriptEvent::RemoveDevice { at, device, home } => {
                    world.schedule_remove_device(at, device, home);
                }
            }
        }
        for event in &self.spec.fault_plan.events {
            world.schedule_fault(*event);
        }
        for event in &self.spec.control_plan.events {
            world.schedule_control(*event);
        }
        if let Some(config) = self.spec.telemetry {
            world.enable_telemetry(config);
        }
        Ok(world)
    }

    /// Builds the world and returns a [`RunHandle`] that advances it
    /// incrementally — the streaming counterpart of [`run`](Experiment::run).
    pub fn start(self) -> Result<RunHandle, SpecError> {
        self.start_probed(NullProbe)
    }

    /// Like [`start`](Experiment::start), but attaches a
    /// [`Probe`] that receives a callback for every
    /// milestone (sealed block, handshake, plug/unplug, anomaly) as the run
    /// advances.
    pub fn start_probed<P: Probe>(self, probe: P) -> Result<RunHandle<P>, SpecError> {
        let world = self.build_world()?;
        Ok(RunHandle::new(self.spec, world, probe))
    }

    /// Builds the world, runs it to the spec's horizon and collects the
    /// report. Equivalent to `start()?.finish()`.
    pub fn run(self) -> Result<RunReport, SpecError> {
        Ok(self.start()?.finish())
    }

    /// Like [`run`](Experiment::run), but with the clean twin's mean
    /// overhead already known, so the resilience accounting skips its own
    /// baseline simulation. Used by [`Suite`](crate::suite::Suite), which
    /// computes each distinct baseline once per grid instead of once per
    /// cell.
    pub(crate) fn run_with_clean_baseline(
        self,
        baseline: Option<f64>,
    ) -> Result<RunReport, SpecError> {
        let mut handle = self.start()?;
        handle.set_clean_baseline(baseline);
        Ok(handle.finish())
    }
}

/// `clean_baseline`: `None` means "simulate the clean twin here"; `Some(x)`
/// is a precomputed twin mean overhead (possibly itself `None` when the twin
/// had no settled window).
pub(crate) fn collect_report(
    spec: &ScenarioSpec,
    mut world: World,
    horizon: SimTime,
    clean_baseline: Option<Option<f64>>,
) -> RunReport {
    // Tear down telemetry first so the final snapshot is stamped at the
    // horizon, before the world is frozen into the report.
    let telemetry = world.take_telemetry(horizon);
    let metrics = WorldMetrics::collect(&world);
    let handshakes = metrics.handshake_stats();
    let faulted = !spec.fault_plan.is_empty();

    let mut accuracy = Vec::new();
    let mut ledgers = Vec::new();
    let mut bills = Vec::new();
    let mut audit_findings = Vec::new();
    for addr in world.network_addresses() {
        accuracy.push(NetworkAccuracy {
            network: addr,
            windows: accuracy_windows(&world, addr, spec.verification_window, horizon),
        });
        let Some(aggregator) = world.aggregator(addr) else {
            continue;
        };
        let audit = audit_chain(
            aggregator.ledger().chain(),
            Some(aggregator.ledger_anchor()),
        );
        ledgers.push(LedgerSummary {
            network: addr,
            blocks: aggregator.ledger().chain().len(),
            entries: aggregator.ledger().chain().total_records(),
            audit_clean: audit.is_clean(),
            first_bad_block: audit.first_bad_block(),
            accounts_match_chain: aggregator.ledger().accounts_match_chain(),
        });
        if faulted {
            audit_findings.extend(audit.findings.iter().map(|f| (addr, *f)));
        }
        for (device, bill) in aggregator.billing().iter() {
            bills.push(BillLine {
                network: addr,
                device,
                charge_uas: bill.charge_uas,
                roaming_charge_uas: bill.roaming_charge_uas,
                records: bill.records,
                backfilled_records: bill.backfilled_records,
                cost: bill.cost,
                breakdown: bill.breakdown,
                peak_demand_ma: bill.peak_demand_ma,
            });
        }
    }

    let control = (!spec.control_plan.is_empty()).then(|| build_control(world.command_records()));
    let mut report = RunReport {
        metrics,
        accuracy,
        handshakes,
        ledgers,
        bills,
        resilience: None,
        control,
        telemetry,
        world,
    };
    if faulted {
        // The accuracy-under-fault delta needs a clean twin: the identical
        // spec minus the fault plan. Simulated here unless the caller (a
        // Suite sharing one baseline across cells) already ran it. The twin
        // does not collect telemetry — its report is discarded anyway.
        let clean_overhead = match clean_baseline {
            Some(precomputed) => precomputed,
            None => {
                let mut twin = spec.clone().with_fault_plan(FaultPlan::new());
                twin.telemetry = None;
                Experiment::new(twin)
                    .run()
                    .expect("a spec that validated with its plan validates without it")
                    .mean_overhead_percent()
            }
        };
        report.resilience = Some(build_resilience(
            report.world.fault_records(),
            &spec.fault_plan.events,
            &audit_findings,
            report.mean_overhead_percent(),
            clean_overhead,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    #[test]
    fn invalid_spec_is_rejected_before_building() {
        let spec = ScenarioSpec::paper_testbed(1).with_networks(0);
        assert_eq!(
            Experiment::new(spec).run().unwrap_err(),
            SpecError::NoNetworks
        );
    }

    #[test]
    fn short_run_produces_a_complete_report() {
        let spec = ScenarioSpec::paper_testbed(77).with_horizon(SimDuration::from_secs(25));
        let report = Experiment::new(spec).run().unwrap();
        assert_eq!(report.metrics.networks.len(), 2);
        assert_eq!(report.accuracy.len(), 2);
        assert_eq!(report.ledgers.len(), 2);
        assert!(report.handshakes.is_some(), "handshakes completed");
        assert!(report.all_ledgers_clean());
        assert!(!report.bills.is_empty(), "devices were billed");
        assert_eq!(report.world().device_ids().len(), 4);
    }

    #[test]
    fn scripted_events_are_applied() {
        let mobile = ScenarioSpec::device_id(0, 0);
        let spec = ScenarioSpec::paper_testbed(78)
            .with_horizon(SimDuration::from_secs(70))
            .unplug_at(SimTime::from_secs(25), mobile)
            .plug_in_at(
                SimTime::from_secs(35),
                mobile,
                ScenarioSpec::network_addr(1),
            );
        let report = Experiment::new(spec).run().unwrap();
        assert_eq!(
            report.world().device_network(mobile),
            Some(ScenarioSpec::network_addr(1)),
            "the scripted move must have happened"
        );
    }
}
