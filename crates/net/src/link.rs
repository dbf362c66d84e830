//! Point-to-point link model.
//!
//! Wireless and wired hops in the simulated testbed are described by a
//! [`LinkConfig`]: a base propagation/processing latency, random jitter, a
//! loss probability and a serialization bandwidth. [`LinkModel`] turns a
//! packet size into "delivered after d" or "lost" decisions using the
//! scenario RNG, which is all the higher layers (broker, backhaul) need.

use rtem_sim::rng::SimRng;
use rtem_sim::time::SimDuration;

/// Static description of a link's quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Fixed one-way latency (propagation + protocol processing).
    pub base_latency: SimDuration,
    /// Maximum additional uniform jitter added per packet.
    pub jitter: SimDuration,
    /// Probability that a packet is lost outright.
    pub loss_probability: f64,
    /// Serialization bandwidth in bits per second. `None` models an
    /// effectively infinite-bandwidth hop.
    pub bandwidth_bps: Option<u64>,
}

impl LinkConfig {
    /// A typical home Wi-Fi hop as seen by an ESP32-class device: a few
    /// milliseconds of latency, noticeable jitter, light loss.
    pub fn wifi() -> Self {
        LinkConfig {
            base_latency: SimDuration::from_millis(3),
            jitter: SimDuration::from_millis(4),
            loss_probability: 0.01,
            bandwidth_bps: Some(20_000_000),
        }
    }

    /// The aggregator backhaul the paper assumes: high bandwidth, ~1 ms
    /// delay, negligible loss.
    pub fn backhaul() -> Self {
        LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::from_micros(100),
            loss_probability: 0.0,
            bandwidth_bps: Some(1_000_000_000),
        }
    }

    /// A perfect link: zero latency, zero loss. Useful in unit tests.
    pub fn ideal() -> Self {
        LinkConfig {
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            bandwidth_bps: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `loss_probability` is outside `[0, 1]` or a zero bandwidth
    /// is given.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss_probability),
            "loss probability must be within [0, 1]"
        );
        if let Some(bw) = self.bandwidth_bps {
            assert!(bw > 0, "bandwidth must be positive when specified");
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::wifi()
    }
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transit {
    /// The packet will arrive after the contained delay.
    Delivered(SimDuration),
    /// The packet was lost.
    Lost,
}

impl Transit {
    /// The delivery delay, if the packet survived.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            Transit::Delivered(d) => Some(d),
            Transit::Lost => None,
        }
    }
}

/// A stateful link that applies a [`LinkConfig`] to individual packets.
///
/// # Examples
///
/// ```
/// use rtem_net::link::{LinkConfig, LinkModel, Transit};
/// use rtem_sim::rng::SimRng;
///
/// let mut link = LinkModel::new(LinkConfig::ideal(), SimRng::seed_from_u64(1));
/// match link.offer(128) {
///     Transit::Delivered(delay) => assert!(delay.is_zero()),
///     Transit::Lost => unreachable!("ideal links never lose packets"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct LinkModel {
    config: LinkConfig,
    rng: SimRng,
    offered: u64,
    lost: u64,
    offered_bytes: u64,
    lost_bytes: u64,
}

impl LinkModel {
    /// Creates a link with the given configuration and RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`LinkConfig::validate`]).
    pub fn new(config: LinkConfig, rng: SimRng) -> Self {
        config.validate();
        LinkModel {
            config,
            rng,
            offered: 0,
            lost: 0,
            offered_bytes: 0,
            lost_bytes: 0,
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Replaces the link's configuration mid-run, preserving the offered and
    /// lost counters and the RNG stream. This is what fault-injection bursts
    /// use to degrade and later restore a live link without resetting its
    /// observed loss-rate history.
    ///
    /// # Panics
    ///
    /// Panics if the new configuration is invalid (see
    /// [`LinkConfig::validate`]).
    pub fn reconfigure(&mut self, config: LinkConfig) {
        config.validate();
        self.config = config;
    }

    /// Offers a packet of `size_bytes` to the link and returns its fate.
    pub fn offer(&mut self, size_bytes: usize) -> Transit {
        self.offered += 1;
        self.offered_bytes += size_bytes as u64;
        if self.config.loss_probability > 0.0 && self.rng.chance(self.config.loss_probability) {
            self.lost += 1;
            self.lost_bytes += size_bytes as u64;
            return Transit::Lost;
        }
        let mut delay = self.config.base_latency;
        if !self.config.jitter.is_zero() {
            let jitter_us = self.rng.uniform(0.0, self.config.jitter.as_micros() as f64);
            delay += SimDuration::from_micros(jitter_us as u64);
        }
        if let Some(bw) = self.config.bandwidth_bps {
            let bits = size_bytes as f64 * 8.0;
            delay += SimDuration::from_secs_f64(bits / bw as f64);
        }
        Transit::Delivered(delay)
    }

    /// Number of packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Number of packets lost so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Observed loss rate (0 when nothing was offered).
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.lost as f64 / self.offered as f64
        }
    }

    /// This link's cumulative traffic counters as one mergeable value.
    pub fn totals(&self) -> LinkTotals {
        LinkTotals {
            offered: self.offered,
            lost: self.lost,
            offered_bytes: self.offered_bytes,
            lost_bytes: self.lost_bytes,
        }
    }
}

/// Cumulative traffic counters of one link (or a merged set of links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkTotals {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets lost.
    pub lost: u64,
    /// Bytes offered to the link.
    pub offered_bytes: u64,
    /// Bytes on lost packets.
    pub lost_bytes: u64,
}

impl LinkTotals {
    /// Bytes that actually made it across.
    pub fn delivered_bytes(&self) -> u64 {
        self.offered_bytes - self.lost_bytes
    }

    /// Packets that actually made it across.
    pub fn delivered(&self) -> u64 {
        self.offered - self.lost
    }
}

impl std::ops::AddAssign for LinkTotals {
    fn add_assign(&mut self, rhs: LinkTotals) {
        self.offered += rhs.offered;
        self.lost += rhs.lost;
        self.offered_bytes += rhs.offered_bytes;
        self.lost_bytes += rhs.lost_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(11)
    }

    #[test]
    fn ideal_link_delivers_instantly() {
        let mut link = LinkModel::new(LinkConfig::ideal(), rng());
        for _ in 0..100 {
            assert_eq!(link.offer(1000), Transit::Delivered(SimDuration::ZERO));
        }
        assert_eq!(link.loss_rate(), 0.0);
    }

    #[test]
    fn latency_includes_serialization_time() {
        let cfg = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            bandwidth_bps: Some(8_000), // 1 kB/s
        };
        let mut link = LinkModel::new(cfg, rng());
        let delay = link.offer(1000).delay().unwrap();
        // 1000 bytes at 1 kB/s = 1 s (+1 ms base).
        assert_eq!(delay, SimDuration::from_millis(1001));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let cfg = LinkConfig {
            base_latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(3),
            loss_probability: 0.0,
            bandwidth_bps: None,
        };
        let mut link = LinkModel::new(cfg, rng());
        for _ in 0..1000 {
            let d = link.offer(64).delay().unwrap();
            assert!(d >= SimDuration::from_millis(2));
            assert!(d <= SimDuration::from_millis(5));
        }
    }

    #[test]
    fn loss_rate_tracks_configuration() {
        let cfg = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 0.2,
            bandwidth_bps: None,
        };
        let mut link = LinkModel::new(cfg, rng());
        for _ in 0..20_000 {
            let _ = link.offer(64);
        }
        assert!(
            (link.loss_rate() - 0.2).abs() < 0.02,
            "rate {}",
            link.loss_rate()
        );
        assert_eq!(link.offered(), 20_000);
    }

    #[test]
    fn backhaul_is_about_one_millisecond() {
        let mut link = LinkModel::new(LinkConfig::backhaul(), rng());
        let d = link.offer(256).delay().unwrap();
        assert!(d >= SimDuration::from_millis(1));
        assert!(d < SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_rejected() {
        let cfg = LinkConfig {
            loss_probability: 1.5,
            ..LinkConfig::ideal()
        };
        let _ = LinkModel::new(cfg, rng());
    }

    #[test]
    fn reconfigure_preserves_counters() {
        let lossy = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 1.0,
            bandwidth_bps: None,
        };
        let mut link = LinkModel::new(lossy, rng());
        for _ in 0..10 {
            assert_eq!(link.offer(64), Transit::Lost);
        }
        assert_eq!(link.lost(), 10);
        link.reconfigure(LinkConfig::ideal());
        assert_eq!(link.offer(64), Transit::Delivered(SimDuration::ZERO));
        // The history survived the reconfiguration.
        assert_eq!(link.offered(), 11);
        assert_eq!(link.lost(), 10);
        assert_eq!(*link.config(), LinkConfig::ideal());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn reconfigure_validates_the_new_config() {
        let mut link = LinkModel::new(LinkConfig::ideal(), rng());
        link.reconfigure(LinkConfig {
            loss_probability: -0.5,
            ..LinkConfig::ideal()
        });
    }

    #[test]
    fn totals_track_bytes_and_merge() {
        let lossy = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 1.0,
            bandwidth_bps: None,
        };
        let mut a = LinkModel::new(LinkConfig::ideal(), rng());
        let _ = a.offer(100);
        let _ = a.offer(50);
        let mut b = LinkModel::new(lossy, rng());
        let _ = b.offer(30);
        let mut merged = a.totals();
        merged += b.totals();
        assert_eq!(
            merged,
            LinkTotals {
                offered: 3,
                lost: 1,
                offered_bytes: 180,
                lost_bytes: 30,
            }
        );
        assert_eq!(merged.delivered(), 2);
        assert_eq!(merged.delivered_bytes(), 150);
    }

    #[test]
    fn transit_delay_accessor() {
        assert_eq!(Transit::Lost.delay(), None);
        assert_eq!(
            Transit::Delivered(SimDuration::from_millis(4)).delay(),
            Some(SimDuration::from_millis(4))
        );
    }
}
