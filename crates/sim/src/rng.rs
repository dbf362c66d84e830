//! Deterministic pseudo-random number generation for the simulation.
//!
//! All stochastic effects in the testbed substitution (sensor noise, Wi-Fi
//! scan jitter, packet loss, load variability) draw from a [`SimRng`] seeded
//! from the scenario configuration, so every experiment is exactly
//! reproducible run-to-run. The generator is a `SplitMix64`-seeded
//! `xoshiro256**`, implemented locally so that the statistical stream is
//! pinned by this file alone and no external crate can change it.

/// Deterministic simulation random number generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use rtem_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state }
    }

    /// Derives an independent child stream, e.g. one per device.
    ///
    /// Children with different `stream` values produce statistically
    /// independent sequences while remaining a pure function of the parent
    /// seed, which keeps multi-entity scenarios reproducible regardless of
    /// the order entities are created in.
    pub fn derive(&self, stream: u64) -> SimRng {
        let mut s = self.state[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is not finite.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low <= high, "uniform requires low <= high");
        low + (high - low) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below requires n > 0");
        // Multiply-shift rejection-free mapping is fine for simulation use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal variate (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let root = SimRng::seed_from_u64(99);
        let mut c1 = root.derive(1);
        let mut c1_again = root.derive(1);
        let mut c2 = root.derive(2);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = rng.uniform(5.5, 6.5);
            assert!((5.5..6.5).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn normal_sample_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.normal(6.0, 0.25)).sum::<f64>() / n as f64;
        assert!((mean - 6.0).abs() < 0.01, "sample mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn exponential_is_positive_with_expected_mean() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.exponential(2.0);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "sample mean {mean}");
    }
}
