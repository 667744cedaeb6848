//! Deterministic pseudo-random numbers for scene synthesis.
//!
//! The build environment has no crates.io access, so instead of the `rand`
//! crate the builder uses this self-contained generator: SplitMix64 for
//! seeding into xoshiro256**, the same construction rand's small RNGs use.
//! Scenes remain a pure function of `(preset, seed)`; the exact stream
//! differs from rand's `StdRng`, which only shifts which statistically
//! equivalent cloud a seed denotes.

/// The SplitMix64 output function: one full-avalanche mixing round over a
/// `u64`. Besides seeding [`StdRng`], it is the workspace's stable
/// non-cryptographic hash — `gcc-wire`'s consistent-hash shard ring folds
/// scene ids through it — so its exact output is a cross-process,
/// cross-platform contract, not an implementation detail.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic 64-bit generator (xoshiro256**, SplitMix64-seeded) with
/// the sampling helpers the scene builder needs.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seeds the full 256-bit state from one `u64` via SplitMix64: state
    /// word `i` is [`splitmix64`] applied to the seed advanced `i + 1`
    /// golden-ratio increments.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = move || {
            let word = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            word
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        self.step();
        result
    }

    /// One state transition of xoshiro256.
    fn step(&mut self) {
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
    }

    /// Steps over the next `draws` draws: the state is left exactly where
    /// `draws` discarded `gen::<u64>()` calls (or draws of any other type:
    /// every [`Sample`] and [`SampleRange`] here consumes one) leave it,
    /// without computing their outputs. It is how a reader of the stream
    /// runs ahead of the consumers of its draws: clone the generator,
    /// `advance` past what the clone's owner will draw, and carry on.
    pub fn advance(&mut self, draws: usize) {
        for _ in 0..draws {
            self.step();
        }
    }

    /// Uniform sample in `[0, 1)` with 24 bits of mantissa entropy.
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample in a half-open range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait Sample {
    /// Draws one uniform value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for f32 {
    fn sample(rng: &mut StdRng) -> Self {
        // Top 24 bits → [0, 1) on the f32 lattice.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for u64 {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

impl SampleRange for std::ops::Range<f32> {
    type Output = f32;

    fn sample(self, rng: &mut StdRng) -> f32 {
        assert!(self.start < self.end, "empty range {self:?}");
        let u: f32 = rng.gen();
        let v = self.start + u * (self.end - self.start);
        // `start + u*(end-start)` can round up to exactly `end` even for
        // u < 1; pin the half-open contract by stepping such draws down
        // to the largest representable value below `end` (≥ start, since
        // the range is non-empty).
        if v < self.end {
            v
        } else {
            self.end.next_down()
        }
    }
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;

    fn sample(self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "empty range {self:?}");
        // Multiply-shift bounded sampling (Lemire): the u128 widening
        // product cannot overflow for any usize span, and the residual
        // modulo bias (< span/2^64) is irrelevant at scene-builder scales.
        let span = (self.end - self.start) as u128;
        let x = u128::from(rng.next_u64());
        self.start + ((x * span) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vectors() {
        // The first outputs of the reference SplitMix64 stream for seed 0
        // (state advanced once per output). Pinned because the shard ring
        // relies on this exact function across processes.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
        // Seeding draws its state words from the same stream.
        let rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.s[0], splitmix64(0));
        assert_eq!(rng.s[1], splitmix64(0x9E37_79B9_7F4A_7C15));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_leaves_the_state_discarded_draws_leave() {
        for n in (0..=300).chain([1_000_003]) {
            let mut drawn = StdRng::seed_from_u64(0x0AD7_A9CE);
            let mut advanced = drawn.clone();
            for _ in 0..n {
                let _: u64 = drawn.gen();
            }
            advanced.advance(n);
            assert_eq!(advanced.s, drawn.s, "n = {n}");
            assert_eq!(advanced.next_u64(), drawn.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn every_sampler_consumes_one_draw() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut one = rng.clone();
        let _: f32 = rng.gen();
        one.advance(1);
        assert_eq!(rng.s, one.s);
        let _ = rng.gen_range(-1.0f32..1.0);
        one.advance(1);
        assert_eq!(rng.s, one.s);
        let _ = rng.gen_range(0usize..17);
        one.advance(1);
        assert_eq!(rng.s, one.s);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_samples_are_in_unit_interval_and_spread() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut mean = 0.0f64;
        const N: usize = 10_000;
        for _ in 0..N {
            let v: f32 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            mean += f64::from(v);
        }
        mean /= N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_sampling_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-2.0f32..3.5);
            assert!((-2.0..3.5).contains(&v));
            let i = rng.gen_range(0usize..7);
            assert!(i < 7);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn usize_range_handles_spans_beyond_32_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let (start, end) = (7usize, 7 + (1usize << 33));
        let mut above_u32 = 0;
        for _ in 0..64 {
            let v = rng.gen_range(start..end);
            assert!((start..end).contains(&v), "v {v} escaped");
            if v - start > u32::MAX as usize {
                above_u32 += 1;
            }
        }
        // With a 2^33 span, about half the draws land above 2^32.
        assert!(above_u32 > 10, "only {above_u32} draws above u32::MAX");
    }

    #[test]
    fn usize_range_hits_every_bucket() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = [0u32; 5];
        for _ in 0..5000 {
            hits[rng.gen_range(0usize..5)] += 1;
        }
        for (i, h) in hits.iter().enumerate() {
            assert!(*h > 700, "bucket {i} starved: {h}");
        }
    }

    #[test]
    fn f32_range_upper_bound_is_exclusive_even_under_rounding() {
        // Over a 1-ULP span, `start + u * span` rounds up to `end` for
        // roughly half of all `u` draws — the half-open contract must
        // hold anyway.
        let mut rng = StdRng::seed_from_u64(42);
        let (start, end) = (1.0f32, 1.0 + f32::EPSILON);
        for _ in 0..10_000 {
            let v = rng.gen_range(start..end);
            assert!(v >= start && v < end, "v {v} escaped [{start}, {end})");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_range(1.0f32..1.0);
    }
}
