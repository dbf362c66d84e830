//! Middleware layer of the device stack (Fig. 2).
//!
//! "The middleware layer is mainly composed of the operating system and the
//! firmware to control the hardware peripherals." In the simulation this is
//! the device's static configuration (identity, reporting interval, storage
//! budget), its power-state machine and the firmware-style uptime/health
//! counters an operator would query through remote management.

use rtem_net::DeviceId;
use rtem_sim::time::{SimDuration, SimTime};

/// Static configuration flashed into a device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Device identity (registered with the home network).
    pub device_id: DeviceId,
    /// Reporting interval Tmeasure. The paper's testbed uses 100 ms
    /// ("10 times per second").
    pub t_measure: SimDuration,
    /// Maximum number of measurement records the data layer may buffer when
    /// the network is unavailable.
    pub local_store_capacity: usize,
    /// How long the device waits for an Ack before treating a report as
    /// unacknowledged and keeping its records for retransmission.
    pub ack_timeout: SimDuration,
    /// Receiver sensitivity used during aggregator discovery, in dBm.
    pub rssi_sensitivity_dbm: f64,
    /// Human-readable firmware version string.
    pub firmware_version: String,
}

impl DeviceConfig {
    /// The configuration matching the paper's testbed devices.
    pub fn testbed(device_id: DeviceId) -> Self {
        DeviceConfig {
            device_id,
            t_measure: SimDuration::from_millis(100),
            local_store_capacity: 4096,
            ack_timeout: SimDuration::from_millis(250),
            rssi_sensitivity_dbm: -88.0,
            firmware_version: "rtem-esp32-1.0.0".to_string(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `t_measure` is zero or the store capacity is zero.
    pub fn validate(&self) {
        assert!(!self.t_measure.is_zero(), "Tmeasure must be non-zero");
        assert!(
            self.local_store_capacity > 0,
            "local store needs at least one slot"
        );
    }
}

/// Coarse power/operational state of the device firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Booting after power-on; not yet measuring.
    Booting,
    /// Operational but not connected to a grid (in transit).
    Idle,
    /// Connected and metering.
    Metering,
    /// A fault was detected (e.g. sensor failure); requires remote reset.
    Fault,
}

/// Firmware health counters surfaced through remote management.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HealthCounters {
    /// Number of reboots since manufacturing.
    pub reboots: u32,
    /// Number of reports sent.
    pub reports_sent: u64,
    /// Number of acks received.
    pub acks_received: u64,
    /// Number of nacks received.
    pub nacks_received: u64,
    /// Number of records that had to be buffered locally.
    pub records_buffered: u64,
    /// Number of records dropped because the local store was full.
    pub records_dropped: u64,
}

/// The middleware layer: configuration + state machine + counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Middleware {
    config: DeviceConfig,
    state: PowerState,
    booted_at: Option<SimTime>,
    counters: HealthCounters,
}

impl Middleware {
    /// Creates the middleware for a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: DeviceConfig) -> Self {
        config.validate();
        Middleware {
            config,
            state: PowerState::Booting,
            booted_at: None,
            counters: HealthCounters::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Reconfigures Tmeasure at runtime (remote management). Zero intervals
    /// are rejected and leave the configuration unchanged; returns whether
    /// the new interval was applied.
    pub fn set_measure_interval(&mut self, interval: SimDuration) -> bool {
        if interval.is_zero() {
            return false;
        }
        self.config.t_measure = interval;
        true
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Mutable health counters (updated by the other layers).
    pub fn counters_mut(&mut self) -> &mut HealthCounters {
        &mut self.counters
    }

    /// Health counters snapshot.
    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// Completes boot at `now` and enters [`PowerState::Idle`].
    pub fn boot(&mut self, now: SimTime) {
        self.booted_at = Some(now);
        self.counters.reboots += 1;
        self.state = PowerState::Idle;
    }

    /// Moves to the metering state (device plugged and registered).
    pub fn enter_metering(&mut self) {
        if self.state != PowerState::Fault {
            self.state = PowerState::Metering;
        }
    }

    /// Moves back to idle (device unplugged).
    pub fn enter_idle(&mut self) {
        if self.state != PowerState::Fault {
            self.state = PowerState::Idle;
        }
    }

    /// Latches the fault state.
    pub fn raise_fault(&mut self) {
        self.state = PowerState::Fault;
    }

    /// Clears a fault (remote-management reset) and reboots.
    pub fn reset(&mut self, now: SimTime) {
        self.state = PowerState::Booting;
        self.boot(now);
    }

    /// Uptime since the last boot, if booted.
    pub fn uptime(&self, now: SimTime) -> Option<SimDuration> {
        self.booted_at.map(|t| now.saturating_duration_since(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_config_matches_paper_parameters() {
        let cfg = DeviceConfig::testbed(DeviceId(1));
        assert_eq!(cfg.t_measure, SimDuration::from_millis(100));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "Tmeasure")]
    fn zero_t_measure_rejected() {
        let mut cfg = DeviceConfig::testbed(DeviceId(1));
        cfg.t_measure = SimDuration::ZERO;
        Middleware::new(cfg);
    }

    #[test]
    fn boot_and_state_transitions() {
        let mut mw = Middleware::new(DeviceConfig::testbed(DeviceId(1)));
        assert_eq!(mw.state(), PowerState::Booting);
        mw.boot(SimTime::from_secs(1));
        assert_eq!(mw.state(), PowerState::Idle);
        assert_eq!(mw.counters().reboots, 1);
        mw.enter_metering();
        assert_eq!(mw.state(), PowerState::Metering);
        mw.enter_idle();
        assert_eq!(mw.state(), PowerState::Idle);
    }

    #[test]
    fn fault_latches_until_reset() {
        let mut mw = Middleware::new(DeviceConfig::testbed(DeviceId(1)));
        mw.boot(SimTime::ZERO);
        mw.raise_fault();
        mw.enter_metering();
        assert_eq!(mw.state(), PowerState::Fault, "fault must latch");
        mw.reset(SimTime::from_secs(5));
        assert_eq!(mw.state(), PowerState::Idle);
        assert_eq!(mw.counters().reboots, 2);
    }

    #[test]
    fn uptime_counts_from_boot() {
        let mut mw = Middleware::new(DeviceConfig::testbed(DeviceId(1)));
        assert!(mw.uptime(SimTime::from_secs(10)).is_none());
        mw.boot(SimTime::from_secs(10));
        assert_eq!(
            mw.uptime(SimTime::from_secs(25)),
            Some(SimDuration::from_secs(15))
        );
    }

    #[test]
    fn counters_are_updatable() {
        let mut mw = Middleware::new(DeviceConfig::testbed(DeviceId(1)));
        mw.counters_mut().reports_sent += 3;
        mw.counters_mut().acks_received += 2;
        assert_eq!(mw.counters().reports_sent, 3);
        assert_eq!(mw.counters().acks_received, 2);
    }
}
