//! Seeded arrival streams for the open-loop service driver.
//!
//! The benchmark owns its generator (the program's `TrafficSpec` is a layer
//! under test): splitmix64 for the bits, exponential gaps for a Poisson
//! process. The workload seed enters here and in the matrix generators and
//! nowhere else.

/// splitmix64: a small, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times, in seconds from the start of the step, of a Poisson process of
/// `rate` arrivals per second over `duration` seconds.
pub fn poisson(rng: &mut SplitMix64, rate: f64, duration: f64) -> Vec<f64> {
    assert!(
        rate > 0.0 && duration > 0.0,
        "poisson: rate and duration must be positive"
    );
    let mut due = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.next_f64().ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let a = poisson(&mut SplitMix64::new(7), 500.0, 4.0);
        let b = poisson(&mut SplitMix64::new(7), 500.0, 4.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn another_seed_gives_another_stream() {
        let a = poisson(&mut SplitMix64::new(7), 500.0, 4.0);
        let b = poisson(&mut SplitMix64::new(8), 500.0, 4.0);
        assert_ne!(a, b);
    }

    #[test]
    fn the_mean_rate_is_within_two_percent() {
        for seed in [1, 42, 2024] {
            let due = poisson(&mut SplitMix64::new(seed), 5_000.0, 20.0);
            let rate = due.len() as f64 / 20.0;
            assert!((rate / 5_000.0 - 1.0).abs() < 0.02, "seed {seed}: {rate}");
        }
    }

    #[test]
    fn due_times_increase_and_stay_inside_the_step() {
        let due = poisson(&mut SplitMix64::new(3), 1_000.0, 2.0);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.iter().all(|&t| t > 0.0 && t < 2.0));
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!(x > 0.0 && x < 1.0);
            assert!(rng.below(32) < 32);
        }
    }
}
