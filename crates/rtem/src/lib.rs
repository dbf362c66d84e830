//! # rtem — the unified facade over the decentralized metering workspace
//!
//! This workspace reproduces *Real-Time Energy Monitoring in IoT-enabled
//! Mobile Devices* (Shivaraman et al., DATE 2020, arXiv:2004.14804) as a
//! deterministic simulation. The substrate lives in eight crates
//! (`rtem-sim`, `rtem-net`, `rtem-sensors`, `rtem-chain`, `rtem-codecs`,
//! `rtem-device`, `rtem-aggregator`, `rtem-core`); **this crate is the
//! supported public surface over all of them**:
//!
//! * [`spec`] — the declarative [`ScenarioSpec`](spec::ScenarioSpec):
//!   networks, devices per network, load, link quality, seed, horizon and
//!   scripted topology changes in one validated value.
//! * [`experiment`] — the [`Experiment`](experiment::Experiment) runner that
//!   owns the build → run → collect loop.
//! * [`runner`] — the [`RunHandle`](runner::RunHandle) returned by
//!   [`Experiment::start`](experiment::Experiment::start): incremental
//!   stepping (`step_window` / `run_to`), live
//!   [`progress`](runner::RunHandle::progress) snapshots and observer
//!   dispatch while the world advances.
//! * [`probe`] — the [`Probe`](probe::Probe) observer trait (callbacks on
//!   sealed block, handshake completion, plug/unplug, anomaly) and the
//!   ready-made [`RecordingProbe`](probe::RecordingProbe).
//! * [`suite`] — the [`Suite`](suite::Suite): declarative sweeps (axes over
//!   seeds, devices, links, sensors, fault plans) executed on a thread pool
//!   into a [`SuiteReport`](suite::SuiteReport) with cross-cell aggregates.
//! * [`faults`] — the fault-injection subsystem: a declarative
//!   [`FaultPlan`](faults::FaultPlan) over seven fault families (sensor,
//!   tamper, link, crash, outage, byzantine, telegram corruption) and the
//!   [`ResilienceReport`](faults::ResilienceReport) accounting of injected
//!   vs. detected faults, detection latency and accuracy-under-fault.
//! * [`control`] — the fleet-command subsystem: a declarative
//!   [`ControlPlan`](control::ControlPlan) of timed commands (Tmeasure,
//!   tariff hints, meter protocols, reporting mute/resume, crash-recovery
//!   config) published over the simulated MQTT broker with QoS 1/2 and
//!   retained delivery, and the [`ControlReport`](control::ControlReport)
//!   accounting of rollout completion and latency.
//! * [`report`] — the [`RunReport`](report::RunReport) bundling world
//!   metrics, Fig. 5 accuracy windows, Thandshake statistics, ledger audit
//!   summaries and consolidated bills.
//! * [`telemetry`] — the observability subsystem: a typed
//!   [`MetricsRegistry`](telemetry::MetricsRegistry) sampled on a
//!   deterministic sim-time grid into
//!   [`MetricsSnapshot`](telemetry::MetricsSnapshot)s, Chrome trace-event
//!   export of the scheduler and notification streams, and a wall-clock
//!   dispatch profiler — enabled per run via
//!   [`ScenarioSpec::with_telemetry`](spec::ScenarioSpec::with_telemetry)
//!   and returned as the
//!   [`TelemetryReport`](telemetry::TelemetryReport) in
//!   [`RunReport::telemetry`](report::RunReport::telemetry). Strictly
//!   observational: simulation results are bit-identical with it on or off.
//! * [`prelude`] — the curated one-line import.
//!
//! The substrate remains reachable under stable module paths
//! (`rtem::simulation::World`, `rtem::chain::audit`, `rtem::net::packet`,
//! …) for drill-down, but new code should start from the spec:
//!
//! ```
//! use rtem::prelude::*;
//!
//! let spec = ScenarioSpec::paper_testbed(42).with_horizon(SimDuration::from_secs(30));
//! let report = Experiment::new(spec).run().unwrap();
//! assert_eq!(report.metrics.networks.len(), 2);
//! assert!(report.all_ledgers_clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod control;
pub mod experiment;
pub mod faults;
pub mod probe;
pub mod report;
pub mod runner;
pub mod spec;
pub mod suite;

// Stable module paths into the composed architecture (rtem-core).
pub use rtem_core::{consensus, loadbalance, metrics, simulation};

// Stable module paths into the substrate crates.
pub use rtem_aggregator as aggregator;
pub use rtem_chain as chain;
pub use rtem_codecs as codecs;
pub use rtem_device as device;
pub use rtem_net as net;
pub use rtem_sensors as sensors;
pub use rtem_sim as sim;
pub use rtem_telemetry as telemetry;
pub use rtem_workloads as workloads;

/// Convenient glob-import of the curated facade surface.
///
/// Brings in the facade types (spec / experiment / report), the identifiers
/// and time types every experiment touches, and the most commonly inspected
/// metric types. Substrate detail stays behind the module re-exports
/// (`rtem::chain`, `rtem::net`, …).
pub mod prelude {
    pub use crate::control::{
        CommandRecord, CommandTarget, ControlError, ControlEvent, ControlPlan, ControlReport,
        FleetCommand, TariffHint,
    };
    pub use crate::experiment::Experiment;
    pub use crate::faults::{
        CorruptionMode, DetectionSignal, FamilyResilience, FaultEvent, FaultFamily, FaultPlan,
        FaultPlanError, FaultRecord, LinkTarget, ResilienceReport, SensorFault, SensorFaultKind,
    };
    pub use crate::probe::{NullProbe, Probe, RecordingProbe, RunEvent};
    pub use crate::report::{BillLine, LedgerSummary, NetworkAccuracy, RunReport};
    pub use crate::runner::{NetworkProgress, RunHandle, RunProgress};
    pub use crate::spec::{DeviceLoad, ScenarioSpec, ScriptEvent, SpecError};
    pub use crate::suite::{
        AggregateStats, CellKey, Suite, SuiteAggregates, SuiteCell, SuiteReport,
    };
    pub use rtem_aggregator::aggregator::RetentionPolicy;
    pub use rtem_aggregator::billing::{CostBreakdown, Tariff, TariffError, TierRate, TouWindow};
    pub use rtem_codecs::{CodecError, MeterKind, Telegram};
    pub use rtem_core::metrics::{
        AccuracyWindow, DeviceTrace, HandshakeStats, NetworkSummary, WorldMetrics,
    };
    pub use rtem_core::simulation::World;
    pub use rtem_net::broker::QoS;
    pub use rtem_net::packet::{AggregatorAddr, DeviceId, MembershipKind};
    pub use rtem_sensors::energy::{MilliampSeconds, Milliamps, Millivolts, MilliwattHours};
    pub use rtem_sim::rng::SimRng;
    pub use rtem_sim::time::{SimDuration, SimTime};
    pub use rtem_telemetry::{
        MetricId, MetricsSnapshot, TelemetryConfig, TelemetryReport, TraceLog,
    };
    pub use rtem_workloads::{WorkloadError, WorkloadModel};
}
