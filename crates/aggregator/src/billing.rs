//! Consolidated billing at the home aggregator.
//!
//! The home network "can continue billing the device for its consumption in
//! the external network" (§II-C): records collected locally and records
//! forwarded by foreign aggregators are consolidated into one per-device
//! bill. Billing only covers time the device is electrically connected —
//! transit (Idle in Fig. 6) is never billed because no records exist for it.
//!
//! Pricing goes through a [`Tariff`]: the flat per-mWh rate of the paper's
//! testbed, a time-of-use schedule with validated non-overlapping daily
//! windows, a tier ladder over cumulative energy, or a demand charge on the
//! peak sliding-window draw. Every bill carries a [`CostBreakdown`] so the
//! volumetric, demand and roaming components stay separately auditable.

use core::fmt;
use rtem_net::packet::{AggregatorAddr, DeviceId};
use rtem_sensors::energy::{MilliampSeconds, Millivolts, MilliwattHours};
use rtem_sim::time::SimDuration;
use std::collections::BTreeMap;

/// Seconds in one billing day.
const SECONDS_PER_DAY: u64 = 86_400;

/// One daily time-of-use pricing window: `[start_s, end_s)` seconds from
/// midnight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TouWindow {
    /// Window start, seconds from midnight (inclusive).
    pub start_s: u64,
    /// Window end, seconds from midnight (exclusive, at most 86 400).
    pub end_s: u64,
    /// Price per mWh inside the window.
    pub price_per_mwh: f64,
}

impl TouWindow {
    /// Creates a window.
    pub fn new(start_s: u64, end_s: u64, price_per_mwh: f64) -> TouWindow {
        TouWindow {
            start_s,
            end_s,
            price_per_mwh,
        }
    }

    fn contains(&self, second_of_day: u64) -> bool {
        self.start_s <= second_of_day && second_of_day < self.end_s
    }

    fn overlaps(&self, other: &TouWindow) -> bool {
        self.start_s < other.end_s && other.start_s < self.end_s
    }
}

/// One rung of a [`Tariff::Tiered`] ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierRate {
    /// Cumulative-energy upper bound of the tier in mWh; `None` marks the
    /// final, unbounded tier.
    pub limit_mwh: Option<f64>,
    /// Price per mWh inside the tier.
    pub price_per_mwh: f64,
}

impl TierRate {
    /// A bounded tier: applies up to `limit_mwh` of cumulative energy.
    pub fn upto(limit_mwh: f64, price_per_mwh: f64) -> TierRate {
        TierRate {
            limit_mwh: Some(limit_mwh),
            price_per_mwh,
        }
    }

    /// The final, unbounded tier.
    pub fn beyond(price_per_mwh: f64) -> TierRate {
        TierRate {
            limit_mwh: None,
            price_per_mwh,
        }
    }
}

/// Why a [`Tariff`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TariffError {
    /// A rate is negative or not finite.
    NegativeRate {
        /// The offending rate (per mWh, or per mA for demand charges).
        rate: f64,
    },
    /// A time-of-use window starts at or after its end.
    InvertedTouWindow {
        /// Window start, seconds from midnight.
        start_s: u64,
        /// Window end, seconds from midnight.
        end_s: u64,
    },
    /// A time-of-use window extends past 24 h.
    TouWindowPastMidnight {
        /// The offending window end, seconds from midnight.
        end_s: u64,
    },
    /// Two time-of-use windows overlap — the price at an instant inside
    /// both would be ambiguous.
    OverlappingTouWindows {
        /// Index of the first window in declaration order.
        first: usize,
        /// Index of the second (overlapping) window.
        second: usize,
    },
    /// A time-of-use tariff declares no windows at all (use
    /// [`Tariff::Flat`] instead).
    EmptyTimeOfUse,
    /// A tier ladder has no rungs.
    EmptyTierLadder,
    /// A tier's cumulative-energy limit does not strictly increase over the
    /// previous rung.
    NonAscendingTiers {
        /// Index of the offending rung.
        index: usize,
    },
    /// A bounded rung follows the unbounded one (everything after `None`
    /// would be unreachable).
    BoundedTierAfterUnbounded {
        /// Index of the offending rung.
        index: usize,
    },
    /// The ladder never declares an unbounded final rung, leaving energy
    /// beyond the last limit without a declared price.
    NoUnboundedTier,
    /// A tier limit is non-positive or not finite.
    InvalidTierLimit {
        /// The offending limit, mWh.
        limit_mwh: f64,
    },
    /// A demand charge's sliding window is zero — peak demand would be
    /// undefined.
    ZeroDemandWindow,
}

impl fmt::Display for TariffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TariffError::NegativeRate { rate } => {
                write!(f, "tariff rate must be finite and non-negative, got {rate}")
            }
            TariffError::InvertedTouWindow { start_s, end_s } => {
                write!(
                    f,
                    "time-of-use window starts at {start_s} s but ends at {end_s} s"
                )
            }
            TariffError::TouWindowPastMidnight { end_s } => {
                write!(
                    f,
                    "time-of-use window ends at {end_s} s, past 24 h ({SECONDS_PER_DAY} s)"
                )
            }
            TariffError::OverlappingTouWindows { first, second } => {
                write!(f, "time-of-use windows {first} and {second} overlap")
            }
            TariffError::EmptyTimeOfUse => {
                write!(
                    f,
                    "time-of-use tariff declares no windows (use a flat tariff)"
                )
            }
            TariffError::EmptyTierLadder => write!(f, "tier ladder has no rungs"),
            TariffError::NonAscendingTiers { index } => {
                write!(
                    f,
                    "tier {index} does not increase over the previous rung's limit"
                )
            }
            TariffError::BoundedTierAfterUnbounded { index } => {
                write!(
                    f,
                    "tier {index} follows the unbounded rung and is unreachable"
                )
            }
            TariffError::InvalidTierLimit { limit_mwh } => {
                write!(
                    f,
                    "tier limit must be finite and positive, got {limit_mwh} mWh"
                )
            }
            TariffError::NoUnboundedTier => {
                write!(f, "tier ladder never declares an unbounded final rung")
            }
            TariffError::ZeroDemandWindow => write!(f, "demand-charge window is zero"),
        }
    }
}

impl std::error::Error for TariffError {}

/// How billed energy is priced.
///
/// # Examples
///
/// ```
/// use rtem_aggregator::billing::{Tariff, TouWindow};
///
/// let tou = Tariff::TimeOfUse {
///     windows: vec![TouWindow::new(18 * 3600, 22 * 3600, 3.0)],
///     off_window_price_per_mwh: 1.0,
/// };
/// assert!(tou.validate().is_ok());
/// assert_eq!(tou.energy_price_at(19 * 3600), 3.0);
/// assert_eq!(tou.energy_price_at(9 * 3600), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Tariff {
    /// One price at every hour — the paper's testbed billing.
    Flat {
        /// Price per mWh.
        price_per_mwh: f64,
    },
    /// Daily pricing windows (validated non-overlapping); consumption
    /// outside every window is priced at `off_window_price_per_mwh`.
    TimeOfUse {
        /// The declared windows.
        windows: Vec<TouWindow>,
        /// Price per mWh outside every window.
        off_window_price_per_mwh: f64,
    },
    /// A ladder over the device's cumulative billed energy: each rung prices
    /// the slice of energy between the previous limit and its own. A record
    /// spanning a rung boundary is split proportionally.
    Tiered {
        /// The ladder, in ascending-limit order, ending with an unbounded
        /// rung.
        tiers: Vec<TierRate>,
    },
    /// A volumetric price plus a charge on the device's peak mean draw over
    /// any sliding window of the given length.
    DemandCharge {
        /// Volumetric price per mWh.
        price_per_mwh: f64,
        /// Price per mA of peak sliding-window mean draw.
        demand_price_per_ma: f64,
        /// Length of the sliding window.
        window: SimDuration,
    },
}

impl Default for Tariff {
    fn default() -> Self {
        Tariff::flat(1.0)
    }
}

impl Tariff {
    /// A flat tariff.
    pub fn flat(price_per_mwh: f64) -> Tariff {
        Tariff::Flat { price_per_mwh }
    }

    /// A ready-made evening-peak time-of-use tariff: 3x the base price
    /// 18:00–22:00, 0.6x overnight 00:00–06:00, base price otherwise.
    pub fn evening_peak(base_price_per_mwh: f64) -> Tariff {
        Tariff::TimeOfUse {
            windows: vec![
                TouWindow::new(0, 6 * 3600, base_price_per_mwh * 0.6),
                TouWindow::new(18 * 3600, 22 * 3600, base_price_per_mwh * 3.0),
            ],
            off_window_price_per_mwh: base_price_per_mwh,
        }
    }

    /// A ready-made two-rung tier ladder: the first `first_tier_mwh` of
    /// cumulative energy at the base price, everything beyond at 2.5x.
    pub fn two_tier(base_price_per_mwh: f64, first_tier_mwh: f64) -> Tariff {
        Tariff::Tiered {
            tiers: vec![
                TierRate::upto(first_tier_mwh, base_price_per_mwh),
                TierRate::beyond(base_price_per_mwh * 2.5),
            ],
        }
    }

    /// A short human-readable label, used in suite cell keys and bench
    /// snapshots.
    pub fn label(&self) -> String {
        match self {
            Tariff::Flat { .. } => "flat".to_string(),
            Tariff::TimeOfUse { windows, .. } => format!("tou-{}w", windows.len()),
            Tariff::Tiered { tiers } => format!("tiered-{}", tiers.len()),
            Tariff::DemandCharge { .. } => "demand".to_string(),
        }
    }

    /// Checks the tariff for inconsistencies, returning the first found.
    pub fn validate(&self) -> Result<(), TariffError> {
        let check_rate = |rate: f64| {
            if rate.is_finite() && rate >= 0.0 {
                Ok(())
            } else {
                Err(TariffError::NegativeRate { rate })
            }
        };
        match self {
            Tariff::Flat { price_per_mwh } => check_rate(*price_per_mwh),
            Tariff::TimeOfUse {
                windows,
                off_window_price_per_mwh,
            } => {
                check_rate(*off_window_price_per_mwh)?;
                if windows.is_empty() {
                    return Err(TariffError::EmptyTimeOfUse);
                }
                for window in windows {
                    check_rate(window.price_per_mwh)?;
                    if window.start_s >= window.end_s {
                        return Err(TariffError::InvertedTouWindow {
                            start_s: window.start_s,
                            end_s: window.end_s,
                        });
                    }
                    if window.end_s > SECONDS_PER_DAY {
                        return Err(TariffError::TouWindowPastMidnight {
                            end_s: window.end_s,
                        });
                    }
                }
                for (i, a) in windows.iter().enumerate() {
                    for (j, b) in windows.iter().enumerate().skip(i + 1) {
                        if a.overlaps(b) {
                            return Err(TariffError::OverlappingTouWindows {
                                first: i,
                                second: j,
                            });
                        }
                    }
                }
                Ok(())
            }
            Tariff::Tiered { tiers } => {
                if tiers.is_empty() {
                    return Err(TariffError::EmptyTierLadder);
                }
                let mut previous_limit = 0.0;
                let mut unbounded_seen = false;
                for (index, tier) in tiers.iter().enumerate() {
                    check_rate(tier.price_per_mwh)?;
                    if unbounded_seen {
                        return Err(TariffError::BoundedTierAfterUnbounded { index });
                    }
                    match tier.limit_mwh {
                        Some(limit) => {
                            if !limit.is_finite() || limit <= 0.0 {
                                return Err(TariffError::InvalidTierLimit { limit_mwh: limit });
                            }
                            if limit <= previous_limit {
                                return Err(TariffError::NonAscendingTiers { index });
                            }
                            previous_limit = limit;
                        }
                        None => unbounded_seen = true,
                    }
                }
                if !unbounded_seen {
                    return Err(TariffError::NoUnboundedTier);
                }
                Ok(())
            }
            Tariff::DemandCharge {
                price_per_mwh,
                demand_price_per_ma,
                window,
            } => {
                check_rate(*price_per_mwh)?;
                check_rate(*demand_price_per_ma)?;
                if window.is_zero() {
                    return Err(TariffError::ZeroDemandWindow);
                }
                Ok(())
            }
        }
    }

    /// The volumetric price applicable at `second_of_day` (tier ladders
    /// return their first rung's price; demand charges their volumetric
    /// component).
    pub fn energy_price_at(&self, second_of_day: u64) -> f64 {
        match self {
            Tariff::Flat { price_per_mwh } => *price_per_mwh,
            Tariff::TimeOfUse {
                windows,
                off_window_price_per_mwh,
            } => windows
                .iter()
                .find(|w| w.contains(second_of_day % SECONDS_PER_DAY))
                .map(|w| w.price_per_mwh)
                .unwrap_or(*off_window_price_per_mwh),
            Tariff::Tiered { tiers } => tiers.first().map(|t| t.price_per_mwh).unwrap_or(0.0),
            Tariff::DemandCharge { price_per_mwh, .. } => *price_per_mwh,
        }
    }

    /// Cost of `energy_mwh` consumed with `prior_mwh` already on the bill,
    /// integrating across rung boundaries for tier ladders.
    fn tiered_cost(tiers: &[TierRate], prior_mwh: f64, energy_mwh: f64) -> f64 {
        let mut cost = 0.0;
        let mut from = prior_mwh;
        let to = prior_mwh + energy_mwh;
        let mut lower = 0.0;
        for tier in tiers {
            let upper = tier.limit_mwh.unwrap_or(f64::INFINITY);
            if from < upper {
                let slice = (to.min(upper) - from.max(lower)).max(0.0);
                cost += slice * tier.price_per_mwh;
                from += slice;
                if from >= to {
                    break;
                }
            }
            lower = upper;
        }
        // Energy beyond a (mis-declared) fully bounded ladder is priced at
        // the last rung; validation rejects such ladders up front.
        if from < to {
            if let Some(last) = tiers.last() {
                cost += (to - from) * last.price_per_mwh;
            }
        }
        cost
    }
}

/// Where a billed record was collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionOrigin {
    /// Collected by the home aggregator itself.
    Home,
    /// Collected by a foreign aggregator and forwarded over the backhaul.
    Roaming {
        /// The foreign aggregator that collected the records.
        collector: AggregatorAddr,
    },
}

/// Per-component decomposition of a bill's cost.
///
/// Invariant (tested): `energy + demand` equals the bill's total `cost`;
/// `roaming` is the portion of `energy` collected while the device roamed
/// (a subset, not an addition).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Volumetric (per-mWh) component.
    pub energy: f64,
    /// Demand-charge component (peak sliding-window draw).
    pub demand: f64,
    /// Portion of `energy` priced on records collected in foreign networks.
    pub roaming: f64,
}

impl CostBreakdown {
    /// `energy + demand` — must equal the bill's `cost`.
    pub fn total(&self) -> f64 {
        self.energy + self.demand
    }
}

/// Per-device billing state.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DeviceBill {
    /// Total charge billed, in microamp-seconds.
    pub charge_uas: u64,
    /// Charge collected while the device roamed in foreign networks.
    pub roaming_charge_uas: u64,
    /// Number of records billed.
    pub records: u64,
    /// Number of records that arrived via backfill (local storage).
    pub backfilled_records: u64,
    /// Accumulated cost in currency units.
    pub cost: f64,
    /// Per-component decomposition of `cost`.
    pub breakdown: CostBreakdown,
    /// Peak sliding-window mean draw seen so far, mA (only maintained under
    /// a demand-charge tariff; zero otherwise).
    pub peak_demand_ma: f64,
}

impl DeviceBill {
    /// Billed energy at the given supply voltage.
    pub fn energy_at(&self, supply: Millivolts) -> MilliwattHours {
        MilliampSeconds::from_uas(self.charge_uas).energy_at(supply)
    }
}

/// One record tracked by a device's sliding demand window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DemandEntry {
    start_us: u64,
    end_us: u64,
    charge_uas: u64,
}

/// Sliding-window demand state of one device under a demand-charge tariff.
#[derive(Debug, Default, Clone, PartialEq)]
struct DemandState {
    /// Records overlapping the current window, sorted by interval end.
    entries: Vec<DemandEntry>,
    /// Total charge of the tracked records, µA·s.
    window_charge_uas: u64,
}

/// Consolidated billing engine of one home aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct BillingEngine {
    tariff: Tariff,
    supply: Millivolts,
    bills: BTreeMap<DeviceId, DeviceBill>,
    demand: BTreeMap<DeviceId, DemandState>,
}

impl BillingEngine {
    /// Creates a billing engine applying `tariff`.
    pub fn new(tariff: Tariff, supply: Millivolts) -> Self {
        BillingEngine {
            tariff,
            supply,
            bills: BTreeMap::new(),
            demand: BTreeMap::new(),
        }
    }

    /// Creates a billing engine with a flat price per mWh (the paper's
    /// testbed configuration).
    pub fn flat(price_per_mwh: f64, supply: Millivolts) -> Self {
        BillingEngine::new(Tariff::flat(price_per_mwh), supply)
    }

    /// The tariff the engine applies.
    pub fn tariff(&self) -> &Tariff {
        &self.tariff
    }

    /// Bills one verified record for `device`. The record's measurement
    /// interval (`interval_start_us`, `interval_end_us`, device-local
    /// microseconds) anchors time-of-use pricing and the demand-charge
    /// sliding window.
    pub fn bill_record(
        &mut self,
        device: DeviceId,
        charge_uas: u64,
        interval_start_us: u64,
        interval_end_us: u64,
        backfilled: bool,
        origin: CollectionOrigin,
    ) {
        let bill = self.bills.entry(device).or_default();
        let energy = MilliampSeconds::from_uas(charge_uas).energy_at(self.supply);
        let energy_cost = match &self.tariff {
            Tariff::Flat { price_per_mwh } => energy.value() * *price_per_mwh,
            Tariff::TimeOfUse { .. } => {
                let second_of_day = interval_start_us / 1_000_000 % SECONDS_PER_DAY;
                energy.value() * self.tariff.energy_price_at(second_of_day)
            }
            Tariff::Tiered { tiers } => {
                let prior_mwh = MilliampSeconds::from_uas(bill.charge_uas)
                    .energy_at(self.supply)
                    .value();
                Tariff::tiered_cost(tiers, prior_mwh, energy.value())
            }
            Tariff::DemandCharge { price_per_mwh, .. } => energy.value() * *price_per_mwh,
        };

        bill.charge_uas += charge_uas;
        bill.records += 1;
        if backfilled {
            bill.backfilled_records += 1;
        }
        bill.cost += energy_cost;
        bill.breakdown.energy += energy_cost;
        if let CollectionOrigin::Roaming { .. } = origin {
            bill.roaming_charge_uas += charge_uas;
            bill.breakdown.roaming += energy_cost;
        }

        if let Tariff::DemandCharge {
            demand_price_per_ma,
            window,
            ..
        } = &self.tariff
        {
            let window_us = window.as_micros().max(1);
            let state = self.demand.entry(device).or_default();
            // Keep the window sorted by interval end. Records almost always
            // arrive in order (the walk terminates immediately), but
            // backfilled batches re-pushed after a failed transmission and
            // roaming forwards crossing the backhaul can arrive late — an
            // unsorted window would mix charges from disjoint time ranges
            // into one "peak" and overbill demand irrecoverably.
            let mut at = state.entries.len();
            while at > 0 && state.entries[at - 1].end_us > interval_end_us {
                at -= 1;
            }
            state.entries.insert(
                at,
                DemandEntry {
                    start_us: interval_start_us.min(interval_end_us),
                    end_us: interval_end_us,
                    charge_uas,
                },
            );
            state.window_charge_uas += charge_uas;
            // Slide relative to the *newest* interval end seen: drop records
            // that ended at or before the window's trailing edge (a late
            // record older than the whole window is evicted in the same
            // pass and contributes nothing).
            let latest_end_us = state.entries.last().expect("just inserted").end_us;
            let trailing = latest_end_us.saturating_sub(window_us);
            let mut drop = 0;
            for entry in state.entries.iter() {
                if entry.end_us <= trailing {
                    state.window_charge_uas -= entry.charge_uas;
                    drop += 1;
                } else {
                    break;
                }
            }
            state.entries.drain(..drop);
            // A record's charge counts only for the part of its interval
            // inside the window: the oldest surviving entry may straddle
            // the trailing edge (device intervals are sequential, so at
            // most one does), and a single record longer than the whole
            // window must read as its own mean current, not as its total
            // charge compressed into the window.
            let mut effective_uas = state.window_charge_uas as f64;
            if let Some(first) = state.entries.first() {
                if first.start_us < trailing {
                    let len_us = (first.end_us - first.start_us).max(1) as f64;
                    let outside_us = (trailing - first.start_us) as f64;
                    effective_uas -= first.charge_uas as f64 * (outside_us / len_us);
                }
            }
            let window_s = window_us as f64 / 1e6;
            let mean_ma = effective_uas / 1000.0 / window_s;
            if mean_ma > bill.peak_demand_ma {
                let delta = (mean_ma - bill.peak_demand_ma) * *demand_price_per_ma;
                bill.peak_demand_ma = mean_ma;
                bill.cost += delta;
                bill.breakdown.demand += delta;
            }
        }
    }

    /// The bill for `device`, if any records were billed.
    pub fn bill(&self, device: DeviceId) -> Option<&DeviceBill> {
        self.bills.get(&device)
    }

    /// Iterates over all bills.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &DeviceBill)> {
        self.bills.iter().map(|(d, b)| (*d, b))
    }

    /// Total billed energy across all devices.
    pub fn total_energy(&self) -> MilliwattHours {
        self.bills.values().map(|b| b.energy_at(self.supply)).sum()
    }

    /// Total billed cost across all devices.
    pub fn total_cost(&self) -> f64 {
        self.bills.values().map(|b| b.cost).sum()
    }

    /// Number of devices with at least one billed record.
    pub fn device_count(&self) -> usize {
        self.bills.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> BillingEngine {
        BillingEngine::flat(1.0, Millivolts::usb_bus())
    }

    /// Bills `charge_uas` over a 100 ms interval ending at `end_s` seconds.
    fn bill_at(e: &mut BillingEngine, device: DeviceId, charge_uas: u64, end_s: u64) {
        e.bill_record(
            device,
            charge_uas,
            end_s * 1_000_000 - 100_000,
            end_s * 1_000_000,
            false,
            CollectionOrigin::Home,
        );
    }

    #[test]
    fn billing_accumulates_per_device() {
        let mut e = engine();
        bill_at(&mut e, DeviceId(1), 10_000, 1);
        e.bill_record(
            DeviceId(1),
            20_000,
            1_900_000,
            2_000_000,
            true,
            CollectionOrigin::Home,
        );
        bill_at(&mut e, DeviceId(2), 5_000, 1);
        let b1 = e.bill(DeviceId(1)).unwrap();
        assert_eq!(b1.charge_uas, 30_000);
        assert_eq!(b1.records, 2);
        assert_eq!(b1.backfilled_records, 1);
        assert_eq!(b1.roaming_charge_uas, 0);
        assert_eq!(e.bill(DeviceId(2)).unwrap().charge_uas, 5_000);
        assert!(e.bill(DeviceId(3)).is_none());
        assert_eq!(e.device_count(), 2);
    }

    #[test]
    fn roaming_charge_tracked_separately() {
        let mut e = engine();
        bill_at(&mut e, DeviceId(1), 10_000, 1);
        e.bill_record(
            DeviceId(1),
            40_000,
            1_900_000,
            2_000_000,
            true,
            CollectionOrigin::Roaming {
                collector: AggregatorAddr(2),
            },
        );
        let b = e.bill(DeviceId(1)).unwrap();
        assert_eq!(b.charge_uas, 50_000);
        assert_eq!(b.roaming_charge_uas, 40_000);
        // The roaming component is the cost share of the roamed records.
        assert!((b.breakdown.roaming / b.breakdown.energy - 0.8).abs() < 1e-9);
    }

    #[test]
    fn cost_scales_with_energy_and_price() {
        let mut cheap = BillingEngine::flat(1.0, Millivolts::usb_bus());
        let mut pricey = BillingEngine::flat(3.0, Millivolts::usb_bus());
        // 3.6e9 µA·s = 3600 mA·s = 1 mAh -> 5 mWh at 5 V.
        bill_at(&mut cheap, DeviceId(1), 3_600_000, 1);
        bill_at(&mut pricey, DeviceId(1), 3_600_000, 1);
        let cheap_cost = cheap.bill(DeviceId(1)).unwrap().cost;
        let pricey_cost = pricey.bill(DeviceId(1)).unwrap().cost;
        assert!((pricey_cost / cheap_cost - 3.0).abs() < 1e-9);
        assert!((cheap.total_energy().value() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn totals_sum_over_devices() {
        let mut e = engine();
        for i in 0..4u64 {
            bill_at(&mut e, DeviceId(i), 1_000, 1);
        }
        assert_eq!(e.iter().count(), 4);
        assert!(e.total_cost() > 0.0);
        assert!(e.total_energy().value() > 0.0);
    }

    #[test]
    fn time_of_use_prices_by_interval_start() {
        let tou = Tariff::TimeOfUse {
            windows: vec![TouWindow::new(18 * 3600, 22 * 3600, 5.0)],
            off_window_price_per_mwh: 1.0,
        };
        let mut e = BillingEngine::new(tou, Millivolts::usb_bus());
        bill_at(&mut e, DeviceId(1), 3_600_000, 12 * 3600); // off-window noon
        bill_at(&mut e, DeviceId(2), 3_600_000, 19 * 3600); // evening peak
        let off = e.bill(DeviceId(1)).unwrap().cost;
        let peak = e.bill(DeviceId(2)).unwrap().cost;
        assert!((peak / off - 5.0).abs() < 1e-9, "peak {peak} off {off}");
        // Second simulated day wraps onto the same schedule.
        bill_at(&mut e, DeviceId(3), 3_600_000, 86_400 + 19 * 3600);
        assert!((e.bill(DeviceId(3)).unwrap().cost - peak).abs() < 1e-9);
    }

    #[test]
    fn tiered_ladder_splits_records_across_rungs() {
        // 1.0 per mWh up to 5 mWh, 4.0 beyond.
        let tiers = Tariff::Tiered {
            tiers: vec![TierRate::upto(5.0, 1.0), TierRate::beyond(4.0)],
        };
        let mut e = BillingEngine::new(tiers, Millivolts::usb_bus());
        // Two records of 5 mWh each (3.6e6 µA·s = 5 mWh at 5 V): the first
        // fills tier 1 exactly, the second is entirely tier 2.
        bill_at(&mut e, DeviceId(1), 3_600_000, 1);
        assert!((e.bill(DeviceId(1)).unwrap().cost - 5.0).abs() < 1e-9);
        bill_at(&mut e, DeviceId(1), 3_600_000, 2);
        assert!((e.bill(DeviceId(1)).unwrap().cost - 25.0).abs() < 1e-9);
        // A record straddling the boundary splits proportionally.
        let mut e2 = BillingEngine::new(
            Tariff::Tiered {
                tiers: vec![TierRate::upto(5.0, 1.0), TierRate::beyond(4.0)],
            },
            Millivolts::usb_bus(),
        );
        bill_at(&mut e2, DeviceId(1), 7_200_000, 1); // 10 mWh: 5@1.0 + 5@4.0
        assert!((e2.bill(DeviceId(1)).unwrap().cost - 25.0).abs() < 1e-9);
        // Cumulation is per device: a second device starts at the bottom.
        bill_at(&mut e2, DeviceId(2), 3_600_000, 2);
        assert!((e2.bill(DeviceId(2)).unwrap().cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn demand_charge_prices_peak_window_draw() {
        let tariff = Tariff::DemandCharge {
            price_per_mwh: 1.0,
            demand_price_per_ma: 0.5,
            window: SimDuration::from_secs(1),
        };
        let mut e = BillingEngine::new(tariff, Millivolts::usb_bus());
        // Ten 100 ms records of 10 mA·s each: a sustained 100 mA draw.
        for i in 1..=10u64 {
            e.bill_record(
                DeviceId(1),
                10_000,
                (i - 1) * 100_000,
                i * 100_000,
                false,
                CollectionOrigin::Home,
            );
        }
        let b = e.bill(DeviceId(1)).unwrap();
        assert!(
            (b.peak_demand_ma - 100.0).abs() < 1e-6,
            "peak {}",
            b.peak_demand_ma
        );
        assert!(
            (b.breakdown.demand - 50.0).abs() < 1e-6,
            "demand {}",
            b.breakdown.demand
        );
        // A later idle stretch must not lower the already-billed peak.
        e.bill_record(
            DeviceId(1),
            0,
            10_000_000,
            10_100_000,
            false,
            CollectionOrigin::Home,
        );
        let b = e.bill(DeviceId(1)).unwrap();
        assert!((b.peak_demand_ma - 100.0).abs() < 1e-6);
        assert!((b.cost - b.breakdown.total()).abs() < 1e-9);
    }

    #[test]
    fn demand_window_survives_out_of_order_backfill() {
        // A backfilled record whose interval predates the live window by
        // several window lengths must not be mixed into the current
        // window's mean: charges nine seconds apart are not concurrent
        // demand.
        let tariff = Tariff::DemandCharge {
            price_per_mwh: 0.0,
            demand_price_per_ma: 1.0,
            window: SimDuration::from_secs(1),
        };
        let mut e = BillingEngine::new(tariff, Millivolts::usb_bus());
        // A sustained 100 mA draw through 10.0..11.0 s.
        for i in 0..10u64 {
            e.bill_record(
                DeviceId(1),
                10_000,
                10_000_000 + i * 100_000,
                10_100_000 + i * 100_000,
                false,
                CollectionOrigin::Home,
            );
        }
        assert!((e.bill(DeviceId(1)).unwrap().peak_demand_ma - 100.0).abs() < 1e-6);
        // A delayed backfill from 1.0–2.0 s arrives late: it is older than
        // the whole sliding window, so the peak must not move.
        e.bill_record(
            DeviceId(1),
            200_000,
            1_000_000,
            2_000_000,
            true,
            CollectionOrigin::Home,
        );
        let b = e.bill(DeviceId(1)).unwrap();
        assert!(
            (b.peak_demand_ma - 100.0).abs() < 1e-6,
            "stale backfill inflated the peak to {}",
            b.peak_demand_ma
        );
        // A late record *inside* the live window still counts towards it.
        e.bill_record(
            DeviceId(1),
            10_000,
            10_200_000,
            10_300_000,
            true,
            CollectionOrigin::Home,
        );
        let b = e.bill(DeviceId(1)).unwrap();
        assert!(
            (b.peak_demand_ma - 110.0).abs() < 1e-6,
            "in-window backfill must raise the mean, got {}",
            b.peak_demand_ma
        );
    }

    #[test]
    fn demand_window_prorates_intervals_longer_than_the_window() {
        // A 10 s record at a true 1 mA draw (10,000 µA·s) under a 1 s
        // demand window must read as 1 mA, not as the whole charge
        // compressed into the window (10 mA).
        let tariff = Tariff::DemandCharge {
            price_per_mwh: 0.0,
            demand_price_per_ma: 1.0,
            window: SimDuration::from_secs(1),
        };
        let mut e = BillingEngine::new(tariff, Millivolts::usb_bus());
        e.bill_record(
            DeviceId(1),
            10_000,
            0,
            10_000_000,
            false,
            CollectionOrigin::Home,
        );
        let b = e.bill(DeviceId(1)).unwrap();
        assert!(
            (b.peak_demand_ma - 1.0).abs() < 1e-6,
            "long interval compressed into the window: {} mA",
            b.peak_demand_ma
        );
        // A straddling record prorates: the window [1.5 s, 2.5 s] holds
        // 0.5 s of a 2 s / 2 mA record (1 mA·s) plus a fresh
        // 0.5 s / 4 mA record (2 mA·s) -> 3 mA·s over 1 s.
        let mut e2 = BillingEngine::new(
            Tariff::DemandCharge {
                price_per_mwh: 0.0,
                demand_price_per_ma: 1.0,
                window: SimDuration::from_secs(1),
            },
            Millivolts::usb_bus(),
        );
        e2.bill_record(
            DeviceId(1),
            4_000,
            0,
            2_000_000,
            false,
            CollectionOrigin::Home,
        );
        e2.bill_record(
            DeviceId(1),
            2_000,
            2_000_000,
            2_500_000,
            false,
            CollectionOrigin::Home,
        );
        let b = e2.bill(DeviceId(1)).unwrap();
        assert!(
            (b.peak_demand_ma - 3.0).abs() < 1e-6,
            "straddling record not prorated: {} mA",
            b.peak_demand_ma
        );
    }

    #[test]
    fn breakdown_components_sum_to_cost() {
        for tariff in [
            Tariff::flat(2.0),
            Tariff::evening_peak(1.0),
            Tariff::two_tier(1.0, 0.001),
            Tariff::DemandCharge {
                price_per_mwh: 1.0,
                demand_price_per_ma: 0.1,
                window: SimDuration::from_secs(2),
            },
        ] {
            let mut e = BillingEngine::new(tariff.clone(), Millivolts::usb_bus());
            for i in 1..=20u64 {
                e.bill_record(
                    DeviceId(1),
                    7_500 + i * 13,
                    (i - 1) * 100_000,
                    i * 100_000,
                    i % 3 == 0,
                    if i % 4 == 0 {
                        CollectionOrigin::Roaming {
                            collector: AggregatorAddr(2),
                        }
                    } else {
                        CollectionOrigin::Home
                    },
                );
            }
            let b = e.bill(DeviceId(1)).unwrap();
            assert!(
                (b.cost - b.breakdown.total()).abs() < 1e-9,
                "{}: cost {} != breakdown {}",
                tariff.label(),
                b.cost,
                b.breakdown.total()
            );
            assert!(b.breakdown.roaming <= b.breakdown.energy + 1e-12);
        }
    }

    #[test]
    fn flat_tariff_matches_legacy_pricing_bit_for_bit() {
        // The flat path must reproduce the pre-tariff arithmetic exactly:
        // cost += energy.value() * price.
        let mut e = BillingEngine::flat(1.7, Millivolts::usb_bus());
        let mut expected = 0.0;
        for i in 1..=50u64 {
            let uas = 9_000 + i * 31;
            bill_at(&mut e, DeviceId(1), uas, i);
            expected += MilliampSeconds::from_uas(uas)
                .energy_at(Millivolts::usb_bus())
                .value()
                * 1.7;
        }
        assert_eq!(e.bill(DeviceId(1)).unwrap().cost, expected);
    }

    #[test]
    fn overlapping_tou_windows_rejected() {
        let tariff = Tariff::TimeOfUse {
            windows: vec![
                TouWindow::new(6 * 3600, 12 * 3600, 2.0),
                TouWindow::new(11 * 3600, 14 * 3600, 3.0),
            ],
            off_window_price_per_mwh: 1.0,
        };
        assert_eq!(
            tariff.validate(),
            Err(TariffError::OverlappingTouWindows {
                first: 0,
                second: 1
            })
        );
        // Adjacent windows (end == start) do not overlap.
        let adjacent = Tariff::TimeOfUse {
            windows: vec![
                TouWindow::new(6 * 3600, 12 * 3600, 2.0),
                TouWindow::new(12 * 3600, 14 * 3600, 3.0),
            ],
            off_window_price_per_mwh: 1.0,
        };
        assert_eq!(adjacent.validate(), Ok(()));
    }

    #[test]
    fn degenerate_tariffs_rejected_with_typed_errors() {
        assert_eq!(
            Tariff::flat(-1.0).validate(),
            Err(TariffError::NegativeRate { rate: -1.0 })
        );
        assert_eq!(
            Tariff::Tiered { tiers: Vec::new() }.validate(),
            Err(TariffError::EmptyTierLadder)
        );
        assert_eq!(
            Tariff::TimeOfUse {
                windows: Vec::new(),
                off_window_price_per_mwh: 1.0
            }
            .validate(),
            Err(TariffError::EmptyTimeOfUse)
        );
        assert_eq!(
            Tariff::TimeOfUse {
                windows: vec![TouWindow::new(10, 5, 1.0)],
                off_window_price_per_mwh: 1.0
            }
            .validate(),
            Err(TariffError::InvertedTouWindow {
                start_s: 10,
                end_s: 5
            })
        );
        assert_eq!(
            Tariff::TimeOfUse {
                windows: vec![TouWindow::new(0, 90_000, 1.0)],
                off_window_price_per_mwh: 1.0
            }
            .validate(),
            Err(TariffError::TouWindowPastMidnight { end_s: 90_000 })
        );
        assert_eq!(
            Tariff::Tiered {
                tiers: vec![TierRate::upto(5.0, 1.0), TierRate::upto(5.0, 2.0)]
            }
            .validate(),
            Err(TariffError::NonAscendingTiers { index: 1 })
        );
        assert_eq!(
            Tariff::Tiered {
                tiers: vec![TierRate::beyond(1.0), TierRate::upto(5.0, 2.0)]
            }
            .validate(),
            Err(TariffError::BoundedTierAfterUnbounded { index: 1 })
        );
        assert_eq!(
            Tariff::Tiered {
                tiers: vec![TierRate::upto(-2.0, 1.0)]
            }
            .validate(),
            Err(TariffError::InvalidTierLimit { limit_mwh: -2.0 })
        );
        // A fully bounded ladder leaves energy beyond the last limit
        // without a declared price.
        assert_eq!(
            Tariff::Tiered {
                tiers: vec![TierRate::upto(5.0, 1.0), TierRate::upto(9.0, 2.0)]
            }
            .validate(),
            Err(TariffError::NoUnboundedTier)
        );
        assert_eq!(
            Tariff::DemandCharge {
                price_per_mwh: 1.0,
                demand_price_per_ma: 0.1,
                window: SimDuration::ZERO,
            }
            .validate(),
            Err(TariffError::ZeroDemandWindow)
        );
        // Errors render human-readably.
        assert!(TariffError::EmptyTierLadder.to_string().contains("rungs"));
    }

    #[test]
    fn ready_made_tariffs_validate() {
        for tariff in [
            Tariff::default(),
            Tariff::flat(0.5),
            Tariff::evening_peak(1.0),
            Tariff::two_tier(1.0, 100.0),
        ] {
            assert_eq!(tariff.validate(), Ok(()), "{}", tariff.label());
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(Tariff::flat(1.0).label(), "flat");
        assert_eq!(Tariff::evening_peak(1.0).label(), "tou-2w");
        assert_eq!(Tariff::two_tier(1.0, 5.0).label(), "tiered-2");
    }
}
