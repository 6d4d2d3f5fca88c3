//! Deterministic pseudorandom number generation.
//!
//! The whole reproduction hinges on bit-exact determinism, so the generator is
//! implemented here (splitmix64 seeding into xoshiro256++) instead of relying
//! on `rand`, whose default algorithms are allowed to change across versions.

/// A deterministic xoshiro256++ generator seeded via splitmix64.
///
/// Cloning produces an identical stream; [`DetRng::split`] derives an
/// independent child stream, which is how per-node RNGs are created from a
/// run seed.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// The child stream is a deterministic function of the parent state, and
    /// the parent advances, so successive splits yield distinct children.
    pub fn split(&mut self) -> DetRng {
        let seed = self.next_u64() ^ 0xA076_1D64_78BD_642F;
        DetRng::new(seed)
    }

    /// Returns the next 64 uniformly random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire). The retry loop terminates with
        // overwhelming probability; span is tiny compared to 2^64.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0, n as u64) as usize
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Samples a normal distribution via Box–Muller.
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.gen_f64().max(1e-300);
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Samples an exponential distribution with the given rate (events per
    /// unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn gen_exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let u = (1.0 - self.gen_f64()).max(1e-300);
        -u.ln() / rate
    }

    /// Samples a Pareto distribution with scale `xm` and shape `alpha`.
    ///
    /// Used for heavy-tailed inter-arrival times in synthetic traces.
    pub fn gen_pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = (1.0 - self.gen_f64()).max(1e-300);
        xm / u.powf(1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = DetRng::new(9);
        let mut parent2 = DetRng::new(9);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // A second split must give a different stream than the first.
        let mut c3 = parent1.split();
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let v = r.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen_normal(5.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen_exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = DetRng::new(19);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
