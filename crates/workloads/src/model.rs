//! The declarative [`WorkloadModel`] DSL.
//!
//! A model is plain data — comparable, cloneable, serializable — that a
//! scenario embeds and validates up front, exactly like a
//! `FaultPlan` or a tariff. Building it (with a seed) produces the stateful
//! [`LoadProfile`] the physical layer samples.

use crate::profiles::{
    CommercialProfile, EvFleetProfile, ResidentialProfile, SolarOffsetProfile, SECONDS_PER_DAY,
};
use core::fmt;
use rtem_sensors::profile::LoadProfile;
use rtem_sim::rng::SimRng;

/// Why a [`WorkloadModel`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadError {
    /// A current magnitude (base load, peak amplitude, generation peak …)
    /// is negative or not finite.
    InvalidMagnitude {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value, in mA.
        value_ma: f64,
    },
    /// A commercial model opens at or after it closes.
    InvertedBusinessHours {
        /// Declared opening time, seconds from midnight.
        open_s: u64,
        /// Declared closing time, seconds from midnight.
        close_s: u64,
    },
    /// A time of day lies beyond 24 h.
    TimePastMidnight {
        /// The offending time, seconds from midnight.
        at_s: u64,
    },
    /// An EV fleet declares zero charge points — nothing could ever charge.
    ZeroChargers,
    /// An EV fleet declares a non-positive arrival rate.
    NoArrivals {
        /// The declared sessions per day.
        sessions_per_day: f64,
    },
    /// A mix contains no component workloads.
    EmptyMix,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidMagnitude { what, value_ma } => {
                write!(
                    f,
                    "workload {what} must be finite and non-negative, got {value_ma} mA"
                )
            }
            WorkloadError::InvertedBusinessHours { open_s, close_s } => {
                write!(
                    f,
                    "business hours open at {open_s} s but close at {close_s} s"
                )
            }
            WorkloadError::TimePastMidnight { at_s } => {
                write!(
                    f,
                    "time of day {at_s} s lies beyond 24 h ({SECONDS_PER_DAY} s)"
                )
            }
            WorkloadError::ZeroChargers => write!(f, "EV fleet declares zero chargers"),
            WorkloadError::NoArrivals { sessions_per_day } => {
                write!(
                    f,
                    "EV fleet arrival rate must be positive, got {sessions_per_day}/day"
                )
            }
            WorkloadError::EmptyMix => write!(f, "workload mix has no components"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A composable, seed-deterministic diurnal load generator.
///
/// Each variant compiles down to a [`LoadProfile`] via
/// [`build_for_device`](WorkloadModel::build_for_device); the
/// [`Mix`](WorkloadModel::Mix) variant assigns component workloads
/// round-robin by device ordinal, turning one spec into a block of
/// distinguishable customers.
///
/// # Examples
///
/// ```
/// use rtem_workloads::WorkloadModel;
/// use rtem_sim::rng::SimRng;
/// use rtem_sim::time::SimTime;
///
/// let model = WorkloadModel::residential();
/// assert!(model.validate().is_ok());
/// let mut profile = model.build_for_device(0, SimRng::seed_from_u64(7));
/// let noon = profile.current_at(SimTime::from_secs(12 * 3600));
/// assert!(noon.value() >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadModel {
    /// A home: always-on base draw, morning and evening occupancy peaks,
    /// plus stochastic appliance events (kettle, washer, oven).
    Residential {
        /// Always-on draw (refrigeration, standby), mA.
        base_ma: f64,
        /// Amplitude of the morning occupancy peak, mA.
        morning_peak_ma: f64,
        /// Amplitude of the evening occupancy peak, mA.
        evening_peak_ma: f64,
        /// Expected stochastic appliance events per day.
        appliance_events_per_day: f64,
        /// Peak draw of one appliance event, mA.
        appliance_ma: f64,
    },
    /// A shop or office: business-hours plateau with opening/closing ramps
    /// and HVAC cycling, near-idle outside hours (and on weekends when
    /// `weekends_closed`).
    Commercial {
        /// Draw while closed, mA.
        closed_ma: f64,
        /// Plateau draw while open, mA.
        open_ma: f64,
        /// Opening time, seconds from midnight.
        open_s: u64,
        /// Closing time, seconds from midnight.
        close_s: u64,
        /// Whether days 5 and 6 of each 7-day week stay closed.
        weekends_closed: bool,
    },
    /// A shared charging site: vehicles arrive through the day (biased
    /// towards the evening), queue for one of `chargers` points and then run
    /// a CC/CV charge session reusing the sensor layer's
    /// [`ChargingProfile`](rtem_sensors::profile::ChargingProfile).
    EvFleet {
        /// Number of charge points; arrivals beyond them queue.
        chargers: u32,
        /// Expected charge-session arrivals per day.
        sessions_per_day: f64,
        /// Bulk (constant-current) charge draw of one session, mA.
        session_cc_ma: f64,
        /// Length of the constant-current phase, seconds.
        session_cc_s: u64,
        /// Exponential taper time constant of the CV phase, seconds.
        session_taper_s: u64,
    },
    /// Rooftop PV behind the meter: the inner workload minus a midday
    /// generation bell (scaled by per-day cloud cover), clipped at zero —
    /// the meter never observes a negative draw.
    SolarOffset {
        /// The load behind the panel.
        base: Box<WorkloadModel>,
        /// Clear-sky peak generation, mA.
        peak_generation_ma: f64,
    },
    /// Assigns component workloads round-robin by device ordinal: device
    /// `i` gets `components[i % len]`. One spec, a block of distinguishable
    /// customers.
    Mix(Vec<WorkloadModel>),
}

fn check_magnitude(what: &'static str, value_ma: f64) -> Result<(), WorkloadError> {
    if value_ma.is_finite() && value_ma >= 0.0 {
        Ok(())
    } else {
        Err(WorkloadError::InvalidMagnitude { what, value_ma })
    }
}

impl WorkloadModel {
    /// A typical home: ~60 mA base, 200/350 mA morning/evening peaks, four
    /// appliance events a day peaking around 600 mA. Sized so a handful of
    /// homes behind one aggregator stays inside the network INA219's
    /// ±3.2 A range — saturating the system-level sensor would corrupt the
    /// Fig. 5 verification, not just the bill.
    pub fn residential() -> WorkloadModel {
        WorkloadModel::Residential {
            base_ma: 60.0,
            morning_peak_ma: 200.0,
            evening_peak_ma: 350.0,
            appliance_events_per_day: 4.0,
            appliance_ma: 600.0,
        }
    }

    /// A shop: 40 mA closed, 650 mA open plateau, 08:00–18:00, closed on
    /// weekends.
    pub fn commercial() -> WorkloadModel {
        WorkloadModel::Commercial {
            closed_ma: 40.0,
            open_ma: 650.0,
            open_s: 8 * 3600,
            close_s: 18 * 3600,
            weekends_closed: true,
        }
    }

    /// A shared charging site: two charge points, six sessions a day,
    /// e-scooter-class 1.2 A bulk charges (a fully busy site peaks at
    /// 2.4 A, inside one network meter's range).
    pub fn ev_fleet() -> WorkloadModel {
        WorkloadModel::EvFleet {
            chargers: 2,
            sessions_per_day: 6.0,
            session_cc_ma: 1200.0,
            session_cc_s: 2 * 3600,
            session_taper_s: 30 * 60,
        }
    }

    /// A home with rooftop PV: [`residential`](WorkloadModel::residential)
    /// behind a 450 mA clear-sky panel.
    pub fn solar_home() -> WorkloadModel {
        WorkloadModel::SolarOffset {
            base: Box::new(WorkloadModel::residential()),
            peak_generation_ma: 450.0,
        }
    }

    /// The default city-block mix: residential, commercial, EV fleet and a
    /// solar home, assigned round-robin.
    pub fn neighborhood() -> WorkloadModel {
        WorkloadModel::Mix(vec![
            WorkloadModel::residential(),
            WorkloadModel::commercial(),
            WorkloadModel::ev_fleet(),
            WorkloadModel::solar_home(),
        ])
    }

    /// A short human-readable label, used in suite cell keys and bench
    /// snapshots.
    pub fn label(&self) -> String {
        match self {
            WorkloadModel::Residential { .. } => "residential".to_string(),
            WorkloadModel::Commercial { .. } => "commercial".to_string(),
            WorkloadModel::EvFleet { .. } => "ev-fleet".to_string(),
            WorkloadModel::SolarOffset { base, .. } => format!("solar+{}", base.label()),
            WorkloadModel::Mix(parts) => format!("mix-of-{}", parts.len()),
        }
    }

    /// Checks the model for inconsistencies, returning the first found.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            WorkloadModel::Residential {
                base_ma,
                morning_peak_ma,
                evening_peak_ma,
                appliance_events_per_day,
                appliance_ma,
            } => {
                check_magnitude("residential base", *base_ma)?;
                check_magnitude("residential morning peak", *morning_peak_ma)?;
                check_magnitude("residential evening peak", *evening_peak_ma)?;
                check_magnitude("residential appliance peak", *appliance_ma)?;
                if !appliance_events_per_day.is_finite() || *appliance_events_per_day < 0.0 {
                    return Err(WorkloadError::InvalidMagnitude {
                        what: "residential appliance rate",
                        value_ma: *appliance_events_per_day,
                    });
                }
                Ok(())
            }
            WorkloadModel::Commercial {
                closed_ma,
                open_ma,
                open_s,
                close_s,
                ..
            } => {
                check_magnitude("commercial closed draw", *closed_ma)?;
                check_magnitude("commercial open draw", *open_ma)?;
                for &at_s in [open_s, close_s] {
                    if at_s > SECONDS_PER_DAY {
                        return Err(WorkloadError::TimePastMidnight { at_s });
                    }
                }
                if open_s >= close_s {
                    return Err(WorkloadError::InvertedBusinessHours {
                        open_s: *open_s,
                        close_s: *close_s,
                    });
                }
                Ok(())
            }
            WorkloadModel::EvFleet {
                chargers,
                sessions_per_day,
                session_cc_ma,
                ..
            } => {
                if *chargers == 0 {
                    return Err(WorkloadError::ZeroChargers);
                }
                if !sessions_per_day.is_finite() || *sessions_per_day <= 0.0 {
                    return Err(WorkloadError::NoArrivals {
                        sessions_per_day: *sessions_per_day,
                    });
                }
                check_magnitude("EV session bulk draw", *session_cc_ma)
            }
            WorkloadModel::SolarOffset {
                base,
                peak_generation_ma,
            } => {
                check_magnitude("solar peak generation", *peak_generation_ma)?;
                base.validate()
            }
            WorkloadModel::Mix(parts) => {
                if parts.is_empty() {
                    return Err(WorkloadError::EmptyMix);
                }
                parts.iter().try_for_each(WorkloadModel::validate)
            }
        }
    }

    /// Compiles the model into the stateful profile device `ordinal` draws.
    ///
    /// `ordinal` only matters for [`Mix`](WorkloadModel::Mix), which assigns
    /// components round-robin; every other variant ignores it. The returned
    /// profile's stochastic structure derives entirely from `rng`.
    pub fn build_for_device(&self, ordinal: u64, rng: SimRng) -> Box<dyn LoadProfile + Send> {
        match self {
            WorkloadModel::Residential {
                base_ma,
                morning_peak_ma,
                evening_peak_ma,
                appliance_events_per_day,
                appliance_ma,
            } => Box::new(ResidentialProfile::new(
                *base_ma,
                *morning_peak_ma,
                *evening_peak_ma,
                *appliance_events_per_day,
                *appliance_ma,
                rng,
            )),
            WorkloadModel::Commercial {
                closed_ma,
                open_ma,
                open_s,
                close_s,
                weekends_closed,
            } => Box::new(CommercialProfile::new(
                *closed_ma,
                *open_ma,
                *open_s,
                *close_s,
                *weekends_closed,
                rng,
            )),
            WorkloadModel::EvFleet {
                chargers,
                sessions_per_day,
                session_cc_ma,
                session_cc_s,
                session_taper_s,
            } => Box::new(EvFleetProfile::new(
                *chargers,
                *sessions_per_day,
                *session_cc_ma,
                *session_cc_s,
                *session_taper_s,
                rng,
            )),
            WorkloadModel::SolarOffset {
                base,
                peak_generation_ma,
            } => {
                let inner = base.build_for_device(ordinal, rng.derive(0x0501A2));
                Box::new(SolarOffsetProfile::new(
                    inner,
                    *peak_generation_ma,
                    rng.derive(0x0501A3),
                ))
            }
            WorkloadModel::Mix(parts) => {
                let pick = (ordinal as usize) % parts.len();
                parts[pick].build_for_device(ordinal, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimTime;

    #[test]
    fn ready_made_models_validate() {
        for model in [
            WorkloadModel::residential(),
            WorkloadModel::commercial(),
            WorkloadModel::ev_fleet(),
            WorkloadModel::solar_home(),
            WorkloadModel::neighborhood(),
        ] {
            assert_eq!(model.validate(), Ok(()), "{}", model.label());
        }
    }

    #[test]
    fn invalid_models_are_rejected_with_typed_errors() {
        let negative = WorkloadModel::Residential {
            base_ma: -1.0,
            morning_peak_ma: 0.0,
            evening_peak_ma: 0.0,
            appliance_events_per_day: 0.0,
            appliance_ma: 0.0,
        };
        assert!(matches!(
            negative.validate(),
            Err(WorkloadError::InvalidMagnitude { .. })
        ));
        let inverted = WorkloadModel::Commercial {
            closed_ma: 10.0,
            open_ma: 100.0,
            open_s: 18 * 3600,
            close_s: 8 * 3600,
            weekends_closed: false,
        };
        assert_eq!(
            inverted.validate(),
            Err(WorkloadError::InvertedBusinessHours {
                open_s: 18 * 3600,
                close_s: 8 * 3600
            })
        );
        let past_midnight = WorkloadModel::Commercial {
            closed_ma: 10.0,
            open_ma: 100.0,
            open_s: 8 * 3600,
            close_s: 25 * 3600,
            weekends_closed: false,
        };
        assert_eq!(
            past_midnight.validate(),
            Err(WorkloadError::TimePastMidnight { at_s: 25 * 3600 })
        );
        let no_chargers = WorkloadModel::EvFleet {
            chargers: 0,
            sessions_per_day: 4.0,
            session_cc_ma: 2000.0,
            session_cc_s: 3600,
            session_taper_s: 600,
        };
        assert_eq!(no_chargers.validate(), Err(WorkloadError::ZeroChargers));
        assert_eq!(
            WorkloadModel::Mix(Vec::new()).validate(),
            Err(WorkloadError::EmptyMix)
        );
        // Nested invalids surface through the wrapper.
        let wrapped = WorkloadModel::SolarOffset {
            base: Box::new(no_chargers),
            peak_generation_ma: 100.0,
        };
        assert_eq!(wrapped.validate(), Err(WorkloadError::ZeroChargers));
    }

    #[test]
    fn errors_render_human_readably() {
        let err = WorkloadModel::Mix(Vec::new()).validate().unwrap_err();
        assert!(err.to_string().contains("no components"));
        assert!(WorkloadError::ZeroChargers.to_string().contains("charger"));
    }

    #[test]
    fn mix_assigns_components_round_robin() {
        let mix = WorkloadModel::Mix(vec![
            WorkloadModel::residential(),
            WorkloadModel::commercial(),
        ]);
        let rng = SimRng::seed_from_u64(1);
        let a = mix.build_for_device(0, rng.derive(0));
        let b = mix.build_for_device(1, rng.derive(1));
        let c = mix.build_for_device(2, rng.derive(2));
        assert!(a.label().contains("residential"), "{}", a.label());
        assert!(b.label().contains("commercial"), "{}", b.label());
        assert!(c.label().contains("residential"), "{}", c.label());
    }

    #[test]
    fn built_profiles_are_seed_deterministic() {
        for model in [
            WorkloadModel::residential(),
            WorkloadModel::commercial(),
            WorkloadModel::ev_fleet(),
            WorkloadModel::solar_home(),
        ] {
            let mut a = model.build_for_device(0, SimRng::seed_from_u64(99));
            let mut b = model.build_for_device(0, SimRng::seed_from_u64(99));
            for hour in 0..48u64 {
                let at = SimTime::from_secs(hour * 1800);
                assert_eq!(
                    a.current_at(at),
                    b.current_at(at),
                    "{} diverged at {at}",
                    model.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(WorkloadModel::residential().label(), "residential");
        assert_eq!(WorkloadModel::solar_home().label(), "solar+residential");
        assert_eq!(WorkloadModel::neighborhood().label(), "mix-of-4");
    }
}
