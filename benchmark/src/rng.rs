//! The benchmark's own random source.
//!
//! Inputs must be a pure function of `--seed`, independent of whatever
//! `rand` stand-in the system under test vendors, so corpus, query pool and
//! request streams all draw from this SplitMix64 generator.

/// SplitMix64: tiny, seedable, and good enough to shuffle and sample with.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`"corpus"`, `"client 0"`, …),
    /// so adding a consumer never shifts the numbers another one sees.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Multiply-shift: unbiased enough for n ≪ 2^64.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf–Mandelbrot sampler over ranks `0..n`: rank `k` has weight
/// `1/(k+1+q)^s`. `q = 0` is plain Zipf; a positive `q` flattens the head
/// and leaves the tail.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, q: f64) -> Self {
        assert!(n > 0, "empty rank range");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64 + q).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }

    /// Probability mass of rank `k`.
    #[cfg(test)]
    pub fn mass(&self, k: usize) -> f64 {
        let below = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        self.cumulative[k] - below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(
            Rng::fork(7, "corpus").next_u64(),
            Rng::fork(7, "pool").next_u64()
        );
        assert_ne!(
            Rng::fork(7, "corpus").next_u64(),
            Rng::fork(8, "corpus").next_u64()
        );
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[r.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_frequencies_follow_the_masses() {
        let zipf = Zipf::new(100, 1.0, 0.0);
        let total: f64 = (0..100).map(|k| zipf.mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Rank 0 carries 1/H(100) ≈ 0.1928 of the mass.
        assert!((zipf.mass(0) - 0.1928).abs() < 1e-3);
        let mut rng = Rng::new(42);
        let mut counts = [0usize; 100];
        let n = 200_000;
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for k in [0, 1, 9, 49] {
            let got = counts[k] as f64 / n as f64;
            let want = zipf.mass(k);
            assert!(
                (got - want).abs() < 0.1 * want + 0.001,
                "rank {k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn offset_flattens_the_head_and_keeps_the_order() {
        let plain = Zipf::new(4_000, 1.0, 0.0);
        let flat = Zipf::new(4_000, 1.0, 10.0);
        assert!(plain.mass(0) > 0.11 && flat.mass(0) < 0.02);
        assert!((0..3_999).all(|k| flat.mass(k) > flat.mass(k + 1)));
    }

    #[test]
    fn zipf_exponent_zero_is_uniform_and_samples_stay_in_range() {
        let zipf = Zipf::new(4, 0.0, 0.0);
        assert!((0..4).all(|k| (zipf.mass(k) - 0.25).abs() < 1e-12));
        let mut rng = Rng::new(5);
        assert!((0..1_000).all(|_| zipf.sample(&mut rng) < 4));
    }
}
