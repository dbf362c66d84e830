//! Physical-grid model: branch topology and ohmic losses.
//!
//! In the testbed the aggregator has its own electrical connection to the
//! network and measures the *total* current feeding all devices — this is the
//! "system-level complementary measurement" used to verify device reports and
//! the stand-in for a centralized meter in Fig. 5. The aggregator's reading
//! exceeds the sum of the device readings because of ohmic losses in wiring
//! and connectors plus its own sensor error.
//!
//! [`GridNetwork`] models one aggregator's electrical network as a star of
//! branches, each with a series resistance. Loss current for each branch is
//! derived from the branch's voltage drop (I²R dissipation referred to the
//! supply rail), which produces the per-device-load-dependent 1–8 % overhead
//! observed in the paper.

use crate::energy::{Milliamps, Millivolts};

/// Identifier of a branch (one device connection) within a grid network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(pub u32);

/// Electrical parameters of one branch of the star network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Branch {
    /// Series resistance of the branch wiring and connectors, in ohms.
    pub series_resistance_ohm: f64,
    /// Fixed parasitic draw of the branch (indicator LEDs, sensor supply
    /// current, etc.) in mA, present whenever the branch is energized.
    pub parasitic_ma: f64,
}

impl Default for Branch {
    fn default() -> Self {
        // Breadboard wiring, USB leads and the INA219 shunt add up to a few
        // hundred milliohms; the sensor itself draws about 1 mA.
        Branch {
            series_resistance_ohm: 0.35,
            parasitic_ma: 1.0,
        }
    }
}

impl Branch {
    /// Creates a branch with the given series resistance and parasitic draw.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or not finite.
    pub fn new(series_resistance_ohm: f64, parasitic_ma: f64) -> Self {
        assert!(
            series_resistance_ohm.is_finite() && series_resistance_ohm >= 0.0,
            "resistance must be finite and non-negative"
        );
        assert!(
            parasitic_ma.is_finite() && parasitic_ma >= 0.0,
            "parasitic draw must be finite and non-negative"
        );
        Branch {
            series_resistance_ohm,
            parasitic_ma,
        }
    }

    /// A lossless branch (ablation baseline).
    pub fn lossless() -> Self {
        Branch {
            series_resistance_ohm: 0.0,
            parasitic_ma: 0.0,
        }
    }
}

/// Result of evaluating the grid at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSnapshot {
    /// Sum of the true device load currents.
    pub device_total: Milliamps,
    /// Additional current attributable to ohmic losses and parasitics.
    pub loss_total: Milliamps,
    /// What the aggregator-side meter sees: device total + losses.
    pub upstream_total: Milliamps,
}

impl GridSnapshot {
    /// Relative overhead of the upstream measurement over the device total,
    /// e.g. `0.03` for 3 %. Zero when no device draws current.
    pub fn overhead_fraction(&self) -> f64 {
        if self.device_total.value() <= f64::EPSILON {
            0.0
        } else {
            self.loss_total.value() / self.device_total.value()
        }
    }
}

/// A star-topology electrical network below one aggregator.
///
/// # Examples
///
/// ```
/// use rtem_sensors::energy::Milliamps;
/// use rtem_sensors::grid::{Branch, BranchId, GridNetwork};
///
/// let mut grid = GridNetwork::new();
/// let a = grid.add_branch(Branch::default());
/// let b = grid.add_branch(Branch::default());
/// let snap = grid.evaluate(&[(a, Milliamps::new(150.0)), (b, Milliamps::new(120.0))]);
/// assert!(snap.upstream_total > snap.device_total);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridNetwork {
    /// Connected branches in ascending id order. Ids are handed out in
    /// increasing order, so adding a branch appends.
    branches: Vec<(BranchId, Branch)>,
    next_id: u32,
    supply: Millivolts,
}

impl GridNetwork {
    /// Creates an empty network on the 5 V testbed rail.
    pub fn new() -> Self {
        GridNetwork {
            branches: Vec::new(),
            next_id: 0,
            supply: Millivolts::usb_bus(),
        }
    }

    /// Creates an empty network with a custom supply voltage.
    pub fn with_supply(supply: Millivolts) -> Self {
        GridNetwork {
            branches: Vec::new(),
            next_id: 0,
            supply,
        }
    }

    /// Supply voltage of this network.
    pub fn supply(&self) -> Millivolts {
        self.supply
    }

    /// Adds a branch and returns its identifier.
    pub fn add_branch(&mut self, branch: Branch) -> BranchId {
        let id = BranchId(self.next_id);
        self.next_id += 1;
        self.branches.push((id, branch));
        id
    }

    /// Removes a branch (device physically unplugged). Returns the branch if
    /// it existed.
    pub fn remove_branch(&mut self, id: BranchId) -> Option<Branch> {
        let index = self.position(id).ok()?;
        Some(self.branches.remove(index).1)
    }

    /// Number of branches currently connected.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Returns the branch parameters, if the branch exists.
    pub fn branch(&self, id: BranchId) -> Option<&Branch> {
        let index = self.position(id).ok()?;
        Some(&self.branches[index].1)
    }

    fn position(&self, id: BranchId) -> Result<usize, usize> {
        self.branches
            .binary_search_by_key(&id, |&(branch_id, _)| branch_id)
    }

    /// Evaluates the network for the given per-branch device load currents.
    ///
    /// Branch ids not present in `loads` are treated as drawing zero device
    /// current (their parasitic draw still counts while connected). Loads for
    /// unknown branches are ignored; of several loads for one branch, the
    /// last counts.
    ///
    /// The totals are summed in ascending branch-id order whatever the order
    /// of `loads` (`f64` addition is not associative, so the order is part
    /// of the result). Loads already in ascending branch order are evaluated
    /// in one merge pass that allocates nothing; any other order is first
    /// sorted into a copy.
    pub fn evaluate(&self, loads: &[(BranchId, Milliamps)]) -> GridSnapshot {
        if loads.windows(2).all(|pair| pair[0].0 <= pair[1].0) {
            return self.evaluate_sorted(loads);
        }
        let mut sorted = loads.to_vec();
        // Stable, so the last of several loads for one branch stays last.
        sorted.sort_by_key(|&(id, _)| id);
        self.evaluate_sorted(&sorted)
    }

    /// [`evaluate`](Self::evaluate) for loads in ascending branch order:
    /// walks the branches and the loads together.
    fn evaluate_sorted(&self, mut loads: &[(BranchId, Milliamps)]) -> GridSnapshot {
        let mut device_total = Milliamps::ZERO;
        let mut loss_total = Milliamps::ZERO;

        for &(id, branch) in &self.branches {
            let mut device = Milliamps::ZERO;
            while let Some((&(load_id, current), rest)) = loads.split_first() {
                if load_id > id {
                    break;
                }
                if load_id == id {
                    device = current;
                }
                loads = rest;
            }
            let device = device.clamp_non_negative();
            // I²R loss referred to the supply rail: extra current the upstream
            // meter must deliver to cover the branch dissipation.
            // P_loss = I² * R  (I in A, R in Ω, P in W)
            // I_loss = P_loss / V_supply
            let amps = device.value() / 1000.0;
            let loss_w = amps * amps * branch.series_resistance_ohm;
            let loss_ma = if self.supply.value() > 0.0 {
                loss_w / (self.supply.value() / 1000.0) * 1000.0
            } else {
                0.0
            };
            let branch_loss = Milliamps::new(loss_ma + branch.parasitic_ma);
            device_total += device;
            loss_total += branch_loss;
        }

        GridSnapshot {
            device_total,
            loss_total,
            upstream_total: device_total + loss_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::rng::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn empty_grid_reports_zero() {
        let grid = GridNetwork::new();
        let snap = grid.evaluate(&[]);
        assert_eq!(snap.device_total, Milliamps::ZERO);
        assert_eq!(snap.upstream_total, Milliamps::ZERO);
        assert_eq!(snap.overhead_fraction(), 0.0);
    }

    #[test]
    fn lossless_branches_add_exactly() {
        let mut grid = GridNetwork::new();
        let a = grid.add_branch(Branch::lossless());
        let b = grid.add_branch(Branch::lossless());
        let snap = grid.evaluate(&[(a, Milliamps::new(100.0)), (b, Milliamps::new(50.0))]);
        assert_eq!(snap.device_total.value(), 150.0);
        assert_eq!(snap.upstream_total.value(), 150.0);
        assert_eq!(snap.loss_total, Milliamps::ZERO);
    }

    #[test]
    fn upstream_exceeds_device_total_with_losses() {
        let mut grid = GridNetwork::new();
        let a = grid.add_branch(Branch::default());
        let b = grid.add_branch(Branch::default());
        let snap = grid.evaluate(&[(a, Milliamps::new(180.0)), (b, Milliamps::new(160.0))]);
        assert!(snap.upstream_total > snap.device_total);
        let overhead = snap.overhead_fraction();
        // The paper reports 0.9 % – 8.2 %; the default parameters must land in
        // (or near) that band at testbed-like loads.
        assert!(
            (0.005..0.10).contains(&overhead),
            "overhead fraction {overhead}"
        );
    }

    #[test]
    fn overhead_grows_with_branch_resistance() {
        let loads = |grid: &GridNetwork, a, b| {
            grid.evaluate(&[(a, Milliamps::new(200.0)), (b, Milliamps::new(200.0))])
                .overhead_fraction()
        };
        let mut low = GridNetwork::new();
        let la = low.add_branch(Branch::new(0.1, 0.5));
        let lb = low.add_branch(Branch::new(0.1, 0.5));
        let mut high = GridNetwork::new();
        let ha = high.add_branch(Branch::new(1.0, 0.5));
        let hb = high.add_branch(Branch::new(1.0, 0.5));
        assert!(loads(&high, ha, hb) > loads(&low, la, lb));
    }

    #[test]
    fn parasitic_draw_present_even_when_idle() {
        let mut grid = GridNetwork::new();
        let a = grid.add_branch(Branch::new(0.3, 1.5));
        let snap = grid.evaluate(&[(a, Milliamps::ZERO)]);
        assert_eq!(snap.device_total, Milliamps::ZERO);
        assert!((snap.upstream_total.value() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn removing_branch_removes_its_contribution() {
        let mut grid = GridNetwork::new();
        let a = grid.add_branch(Branch::default());
        let b = grid.add_branch(Branch::default());
        assert_eq!(grid.branch_count(), 2);
        let removed = grid.remove_branch(a);
        assert!(removed.is_some());
        assert_eq!(grid.branch_count(), 1);
        let snap = grid.evaluate(&[(a, Milliamps::new(500.0)), (b, Milliamps::new(100.0))]);
        // Branch a no longer exists, its load must be ignored.
        assert!((snap.device_total.value() - 100.0).abs() < 1e-12);
        assert!(grid.branch(a).is_none());
        assert!(grid.branch(b).is_some());
    }

    #[test]
    fn unknown_loads_are_ignored() {
        let mut grid = GridNetwork::new();
        let _a = grid.add_branch(Branch::default());
        let snap = grid.evaluate(&[(BranchId(999), Milliamps::new(100.0))]);
        assert_eq!(snap.device_total, Milliamps::ZERO);
    }

    /// The map-based evaluation the merge pass replaced, kept verbatim as
    /// the oracle of its summation order.
    fn oracle_evaluate(
        grid: &GridNetwork,
        loads: &[(BranchId, Milliamps)],
    ) -> (Milliamps, Milliamps, Milliamps) {
        let branches: BTreeMap<BranchId, Branch> = grid.branches.iter().copied().collect();
        let load_map: BTreeMap<BranchId, Milliamps> = loads.iter().copied().collect();
        let mut device_total = Milliamps::ZERO;
        let mut loss_total = Milliamps::ZERO;

        for (&id, branch) in &branches {
            let device = load_map
                .get(&id)
                .copied()
                .unwrap_or(Milliamps::ZERO)
                .clamp_non_negative();
            let amps = device.value() / 1000.0;
            let loss_w = amps * amps * branch.series_resistance_ohm;
            let loss_ma = if grid.supply.value() > 0.0 {
                loss_w / (grid.supply.value() / 1000.0) * 1000.0
            } else {
                0.0
            };
            let branch_loss = Milliamps::new(loss_ma + branch.parasitic_ma);
            device_total += device;
            loss_total += branch_loss;
        }

        (device_total, loss_total, device_total + loss_total)
    }

    /// Bit-for-bit agreement with the oracle over seeded grids: gapped ids
    /// (removed branches), branches with no load, loads for unknown or
    /// removed branches, duplicate loads, and loads both in branch order
    /// and shuffled.
    #[test]
    fn matches_the_map_oracle_bit_for_bit() {
        let bits = |(d, l, u): (Milliamps, Milliamps, Milliamps)| {
            (
                d.value().to_bits(),
                l.value().to_bits(),
                u.value().to_bits(),
            )
        };
        for seed in 0..200 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut grid = if seed % 5 == 0 {
                GridNetwork::with_supply(Millivolts::new(3300.0))
            } else {
                GridNetwork::new()
            };
            let count = rng.next_below(64) as usize;
            let mut ids = Vec::new();
            for _ in 0..count {
                let branch = if rng.chance(0.2) {
                    Branch::lossless()
                } else {
                    Branch::new(rng.uniform(0.0, 2.0), rng.uniform(0.0, 3.0))
                };
                ids.push(grid.add_branch(branch));
            }
            let mut loads = Vec::new();
            for &id in &ids {
                if rng.chance(0.15) {
                    grid.remove_branch(id);
                }
                if rng.chance(0.8) {
                    loads.push((id, Milliamps::new(rng.uniform(-50.0, 900.0))));
                }
                if rng.chance(0.05) {
                    loads.push((id, Milliamps::new(rng.uniform(0.0, 900.0))));
                }
            }
            for _ in 0..rng.next_below(3) {
                let unknown = BranchId(count as u32 + rng.next_below(10) as u32);
                loads.push((unknown, Milliamps::new(rng.uniform(0.0, 900.0))));
            }
            let expected = bits(oracle_evaluate(&grid, &loads));
            let snap = grid.evaluate(&loads);
            assert_eq!(
                bits((snap.device_total, snap.loss_total, snap.upstream_total)),
                expected,
                "seed {seed}, loads in branch order"
            );
            let mut shuffled = loads.clone();
            for i in (1..shuffled.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                shuffled.swap(i, j);
            }
            let expected = bits(oracle_evaluate(&grid, &shuffled));
            let snap = grid.evaluate(&shuffled);
            assert_eq!(
                bits((snap.device_total, snap.loss_total, snap.upstream_total)),
                expected,
                "seed {seed}, shuffled loads"
            );
        }
    }
}
