//! Radio propagation and aggregator discovery.
//!
//! The paper's devices pick their reporting aggregator by Received Signal
//! Strength Indication (RSSI) when the communication channel is wireless
//! (footnote 2 in §II-C). This module provides a log-distance path-loss
//! model, per-sample shadowing, and the scan procedure a device runs when it
//! is plugged in at a new grid-location.

use rtem_sim::rng::SimRng;

use crate::packet::AggregatorAddr;

/// A position on the 2-D floor plan of the simulated site, in metres.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance_to(&self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Log-distance path-loss propagation model with optional shadowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Transmit power in dBm (ESP32 default is about +20 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance, in dB.
    pub reference_loss_db: f64,
    /// Path-loss exponent (2 free space, ~3 indoors).
    pub exponent: f64,
    /// Standard deviation of log-normal shadowing in dB.
    pub shadowing_sigma_db: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel {
            tx_power_dbm: 20.0,
            reference_loss_db: 40.0,
            exponent: 3.0,
            shadowing_sigma_db: 2.0,
        }
    }
}

impl PathLossModel {
    /// Free-space-like propagation with no shadowing, for deterministic tests.
    pub fn deterministic() -> Self {
        PathLossModel {
            tx_power_dbm: 20.0,
            reference_loss_db: 40.0,
            exponent: 2.0,
            shadowing_sigma_db: 0.0,
        }
    }

    /// Mean RSSI (dBm) at `distance_m` metres, without shadowing.
    pub fn mean_rssi_dbm(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        self.tx_power_dbm - self.reference_loss_db - 10.0 * self.exponent * d.log10()
    }

    /// One RSSI sample at `distance_m`, including shadowing drawn from `rng`.
    pub fn sample_rssi_dbm(&self, distance_m: f64, rng: &mut SimRng) -> f64 {
        let mean = self.mean_rssi_dbm(distance_m);
        if self.shadowing_sigma_db > 0.0 {
            mean + rng.normal(0.0, self.shadowing_sigma_db)
        } else {
            mean
        }
    }
}

/// One aggregator beacon heard during a scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanResult {
    /// Aggregator that was heard.
    pub aggregator: AggregatorAddr,
    /// Measured signal strength in dBm.
    pub rssi_dbm: f64,
}

/// A radio environment: aggregator positions plus a propagation model.
///
/// # Examples
///
/// ```
/// use rtem_net::packet::AggregatorAddr;
/// use rtem_net::rssi::{PathLossModel, Position, RadioEnvironment};
/// use rtem_sim::rng::SimRng;
///
/// let mut env = RadioEnvironment::new(PathLossModel::deterministic());
/// env.place_aggregator(AggregatorAddr(1), Position::new(0.0, 0.0));
/// env.place_aggregator(AggregatorAddr(2), Position::new(50.0, 0.0));
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let best = env.best_aggregator(Position::new(5.0, 0.0), -90.0, &mut rng).unwrap();
/// assert_eq!(best.aggregator, AggregatorAddr(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RadioEnvironment {
    model: PathLossModel,
    aggregators: Vec<(AggregatorAddr, Position)>,
}

impl RadioEnvironment {
    /// Creates an empty environment with the given propagation model.
    pub fn new(model: PathLossModel) -> Self {
        RadioEnvironment {
            model,
            aggregators: Vec::new(),
        }
    }

    /// The propagation model in use.
    pub fn model(&self) -> &PathLossModel {
        &self.model
    }

    /// Registers (or moves) an aggregator's radio at `position`.
    pub fn place_aggregator(&mut self, addr: AggregatorAddr, position: Position) {
        if let Some(entry) = self.aggregators.iter_mut().find(|(a, _)| *a == addr) {
            entry.1 = position;
        } else {
            self.aggregators.push((addr, position));
        }
    }

    /// Removes an aggregator's radio. Returns `true` if it was present.
    pub fn remove_aggregator(&mut self, addr: AggregatorAddr) -> bool {
        let before = self.aggregators.len();
        self.aggregators.retain(|(a, _)| *a != addr);
        self.aggregators.len() != before
    }

    /// Number of aggregators currently placed.
    pub fn aggregator_count(&self) -> usize {
        self.aggregators.len()
    }

    /// Performs a full scan from `position`: one RSSI sample per aggregator,
    /// strongest first, discarding everything below `sensitivity_dbm`.
    pub fn scan(
        &self,
        position: Position,
        sensitivity_dbm: f64,
        rng: &mut SimRng,
    ) -> Vec<ScanResult> {
        let mut results: Vec<ScanResult> = self
            .aggregators
            .iter()
            .map(|(addr, pos)| ScanResult {
                aggregator: *addr,
                rssi_dbm: self.model.sample_rssi_dbm(position.distance_to(*pos), rng),
            })
            .filter(|r| r.rssi_dbm >= sensitivity_dbm)
            .collect();
        results.sort_by(|a, b| {
            b.rssi_dbm
                .partial_cmp(&a.rssi_dbm)
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        results
    }

    /// Convenience: the strongest aggregator heard from `position`, if any.
    pub fn best_aggregator(
        &self,
        position: Position,
        sensitivity_dbm: f64,
        rng: &mut SimRng,
    ) -> Option<ScanResult> {
        self.scan(position, sensitivity_dbm, rng).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_aggregator_env() -> RadioEnvironment {
        let mut env = RadioEnvironment::new(PathLossModel::deterministic());
        env.place_aggregator(AggregatorAddr(1), Position::new(0.0, 0.0));
        env.place_aggregator(AggregatorAddr(2), Position::new(100.0, 0.0));
        env
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rssi_decreases_with_distance() {
        let model = PathLossModel::default();
        assert!(model.mean_rssi_dbm(1.0) > model.mean_rssi_dbm(10.0));
        assert!(model.mean_rssi_dbm(10.0) > model.mean_rssi_dbm(100.0));
    }

    #[test]
    fn distances_below_one_metre_clamp() {
        let model = PathLossModel::deterministic();
        assert_eq!(model.mean_rssi_dbm(0.0), model.mean_rssi_dbm(1.0));
    }

    #[test]
    fn closest_aggregator_wins_the_scan() {
        let env = two_aggregator_env();
        let mut rng = SimRng::seed_from_u64(5);
        let near_first = env
            .best_aggregator(Position::new(10.0, 0.0), -120.0, &mut rng)
            .unwrap();
        assert_eq!(near_first.aggregator, AggregatorAddr(1));
        let near_second = env
            .best_aggregator(Position::new(90.0, 0.0), -120.0, &mut rng)
            .unwrap();
        assert_eq!(near_second.aggregator, AggregatorAddr(2));
    }

    #[test]
    fn scan_orders_by_strength_and_applies_sensitivity() {
        let env = two_aggregator_env();
        let mut rng = SimRng::seed_from_u64(6);
        let results = env.scan(Position::new(10.0, 0.0), -120.0, &mut rng);
        assert_eq!(results.len(), 2);
        assert!(results[0].rssi_dbm >= results[1].rssi_dbm);
        // A strict sensitivity hides the distant aggregator.
        let strict = env.scan(
            Position::new(10.0, 0.0),
            results[1].rssi_dbm + 1.0,
            &mut rng,
        );
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].aggregator, AggregatorAddr(1));
    }

    #[test]
    fn out_of_range_scan_is_empty() {
        let env = two_aggregator_env();
        let mut rng = SimRng::seed_from_u64(7);
        let results = env.scan(Position::new(10_000.0, 0.0), -90.0, &mut rng);
        assert!(results.is_empty());
        assert!(env
            .best_aggregator(Position::new(10_000.0, 0.0), -90.0, &mut rng)
            .is_none());
    }

    #[test]
    fn placing_twice_moves_the_aggregator() {
        let mut env = two_aggregator_env();
        assert_eq!(env.aggregator_count(), 2);
        env.place_aggregator(AggregatorAddr(1), Position::new(200.0, 0.0));
        assert_eq!(env.aggregator_count(), 2);
        let mut rng = SimRng::seed_from_u64(8);
        let best = env
            .best_aggregator(Position::new(190.0, 0.0), -120.0, &mut rng)
            .unwrap();
        assert_eq!(best.aggregator, AggregatorAddr(1));
    }

    #[test]
    fn removing_aggregator_hides_it_from_scans() {
        let mut env = two_aggregator_env();
        assert!(env.remove_aggregator(AggregatorAddr(1)));
        assert!(!env.remove_aggregator(AggregatorAddr(1)));
        let mut rng = SimRng::seed_from_u64(9);
        let best = env
            .best_aggregator(Position::new(0.0, 0.0), -120.0, &mut rng)
            .unwrap();
        assert_eq!(best.aggregator, AggregatorAddr(2));
    }

    #[test]
    fn shadowing_produces_variation_but_preserves_mean_ordering() {
        let model = PathLossModel::default();
        let mut rng = SimRng::seed_from_u64(10);
        let near: f64 = (0..500)
            .map(|_| model.sample_rssi_dbm(5.0, &mut rng))
            .sum::<f64>()
            / 500.0;
        let far: f64 = (0..500)
            .map(|_| model.sample_rssi_dbm(50.0, &mut rng))
            .sum::<f64>()
            / 500.0;
        assert!(near > far);
    }
}
