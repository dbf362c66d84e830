//! # rtem-core — the decentralized real-time energy-metering architecture
//!
//! Primary crate of the `rtem` workspace, a from-scratch reproduction of
//! *Real-Time Energy Monitoring in IoT-enabled Mobile Devices*
//! (Shivaraman et al., DATE 2020, arXiv:2004.14804).
//!
//! The paper proposes an architecture in which IoT-enabled devices meter
//! their own consumption, report it to a trusted per-network aggregator,
//! stay billable to their home network while charging elsewhere (device
//! mobility), and have their data stored in a consensus-free permissioned
//! hash chain. This crate assembles the substrate crates into that
//! architecture, plus the metrics the experiments read and two extensions:
//!
//! * [`simulation`] — the [`World`](simulation::World): devices,
//!   aggregators, grids, MQTT broker and backhaul driven by simulated time
//!   (the replacement for the paper's hardware testbed).
//! * [`metrics`] — Fig. 5 accuracy windows, Thandshake statistics, run
//!   summaries.
//! * [`consensus`] — device-level quorum consensus (future-work extension).
//! * [`loadbalance`] — dynamic load balancing of mobile devices
//!   (future-work extension).
//!
//! Scenarios (the paper's testbed, fleets, scripted mobility) are described
//! with the `rtem` facade's `ScenarioSpec`, which populates a `World` with
//! devices.
//!
//! # Examples
//!
//! ```no_run
//! use rtem_core::simulation::{World, WorldConfig};
//! use rtem_net::packet::AggregatorAddr;
//! use rtem_net::rssi::Position;
//! use rtem_sim::time::SimTime;
//!
//! // One aggregator without devices, run for a minute.
//! let mut world = World::new(WorldConfig::default());
//! world.add_network(AggregatorAddr(1), Position::new(0.0, 0.0));
//! world.run_until(SimTime::from_secs(60));
//! assert_eq!(world.metrics().networks.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consensus;
mod device_table;
pub mod loadbalance;
pub mod metrics;
pub mod simulation;

// The supported public surface is the `rtem` facade crate; everything in
// this crate stays reachable through its module paths (`rtem::simulation`,
// `rtem::metrics`, ...).
