//! Deterministic random number generation.
//!
//! Everything in this workspace that draws randomness goes through [`Rng`],
//! a self-contained xoshiro256** generator seeded through splitmix64 (no
//! external dependency — the build runs fully offline). Simulators, dataset
//! generators and training loops all take an explicit seed so that every
//! experiment is bit-reproducible.

/// Seeded random source used across the workspace.
#[derive(Clone, Debug)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut s = seed;
        let state =
            [splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s)];
        Rng { state, spare_normal: None }
    }

    /// Next raw 64-bit output (xoshiro256**).
    fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`. Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Lemire-style rejection-free reduction is overkill here; modulo
        // bias is negligible for the n (< 2^32) this workspace draws.
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f32) -> bool {
        self.unit() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        // Avoid ln(0).
        let u1 = (1.0 - self.unit()).max(f32::MIN_POSITIVE);
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with explicit mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Log-normal draw parameterised by the underlying normal's mean/std.
    pub fn log_normal(&mut self, mu: f32, sigma: f32) -> f32 {
        self.normal_ms(mu, sigma).exp()
    }

    /// Exponential with rate `lambda`.
    pub fn exponential(&mut self, lambda: f32) -> f32 {
        let u = (1.0 - self.unit()).max(f32::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Sample an index from an (unnormalised, non-negative) weight slice.
    /// Falls back to the argmax when the weights do not sum to a positive
    /// finite value.
    pub fn categorical(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "categorical over empty weights");
        let total: f32 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            // Argmax over finite weights; NaN entries are ignored.
            let mut best: Option<usize> = None;
            for (i, &w) in weights.iter().enumerate() {
                if w.is_finite() && best.is_none_or(|b| w > weights[b]) {
                    best = Some(i);
                }
            }
            return best.unwrap_or(0);
        }
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// Choose `k` distinct indices from `0..n` (k <= n).
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "choose {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng::seeded(7);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = Rng::seeded(1);
        let mut counts = [0usize; 3];
        for _ in 0..9000 {
            counts[r.categorical(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0], "{counts:?}");
    }

    #[test]
    fn categorical_degenerate_weights_fall_back_to_argmax() {
        let mut r = Rng::seeded(1);
        assert_eq!(r.categorical(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(r.categorical(&[f32::NAN, 1.0, 2.0]), 2);
    }

    #[test]
    fn choose_indices_distinct() {
        let mut r = Rng::seeded(5);
        let picks = r.choose_indices(10, 6);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn exponential_positive() {
        let mut r = Rng::seeded(3);
        for _ in 0..100 {
            assert!(r.exponential(2.0) > 0.0);
        }
    }
}
