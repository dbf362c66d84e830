//! Observability primitives for the rtem workspace.
//!
//! The simulation core is *deterministic*: two runs of the same seed must
//! be bit-identical, and that property is locked by committed SHA-256
//! goldens. Telemetry therefore splits into two strictly separated halves:
//!
//! * **Deterministic metrics** — the typed, allocation-light
//!   [`MetricsRegistry`] of counters and gauges keyed by the [`MetricId`]
//!   enum, with a fleet-wide scope and one scope per network. The world
//!   *pulls* cumulative subsystem counters (broker, links, scheduler,
//!   devices, aggregators, codecs, control plane) into the registry at
//!   snapshot time, so enabling telemetry never adds RNG draws, events or
//!   state the simulation outcome could observe. Periodic
//!   [`MetricsSnapshot`]s are emitted on a fixed sim-time grid and are
//!   themselves deterministic.
//! * **Wall-clock profiling** — the [`DispatchProfiler`] histogramming
//!   real (host) event-dispatch cost by event kind. Wall time is
//!   non-deterministic by nature, so it lives outside the snapshot stream
//!   and never feeds back into simulated state.
//!
//! The [`TraceLog`] sits with the deterministic half: its spans and
//! instants carry *simulated* timestamps only, so a Chrome trace of the
//! same seed is stable across runs and machines.
//!
//! ```
//! use rtem_telemetry::{MetricId, MetricsRegistry};
//! use rtem_sim::time::SimTime;
//!
//! let mut registry = MetricsRegistry::new();
//! registry.fleet_mut().add(MetricId::BrokerPublishes, 3);
//! registry.network_mut(1).set(MetricId::NetworkMembers, 4);
//! let snapshot = registry.snapshot(SimTime::from_secs(10), 0);
//! assert_eq!(snapshot.fleet.get(MetricId::BrokerPublishes), 3);
//! assert_eq!(snapshot.network(1).unwrap().get(MetricId::NetworkMembers), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod metric;
pub mod profiler;
pub mod registry;
pub mod report;
pub mod trace;

pub use config::TelemetryConfig;
pub use metric::{MetricId, MetricScope};
pub use profiler::{DispatchProfile, DispatchProfiler, Histogram, KindProfile};
pub use registry::{CodecFailureTable, MetricsRegistry, MetricsSnapshot};
pub use report::TelemetryReport;
pub use trace::{TraceEvent, TraceLog, TracePhase};
