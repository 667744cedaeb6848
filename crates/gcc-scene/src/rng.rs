//! Deterministic pseudo-random numbers for scene synthesis.
//!
//! The build environment has no crates.io access, so instead of the `rand`
//! crate the builder uses this self-contained generator: SplitMix64 for
//! seeding into xoshiro256**, the same construction rand's small RNGs use.
//! Scenes remain a pure function of `(preset, seed)`; the exact stream
//! differs from rand's `StdRng`, which only shifts which statistically
//! equivalent cloud a seed denotes. The step, the output function and the
//! `f32` lattice are `gcc_core::dispatch`'s, the scalar twin of the kernel
//! that draws a block of scene tails at once.

use gcc_core::dispatch;

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
        dispatch::xoshiro_next(&mut self.s)
    }

    /// Steps over the next `draws` draws: the state is left exactly where
    /// `draws` discarded `gen::<u64>()` calls (or draws of any other type:
    /// every [`Sample`] and [`SampleRange`] here consumes one) leave it,
    /// without computing their outputs, one state transition a draw. It
    /// defines what the scene builder's scout does in 64 table lookups
    /// for the fixed count of a Gaussian's tail (`Jump`), and the tests
    /// hold the jump to it.
    pub fn advance(&mut self, draws: usize) {
        for _ in 0..draws {
            dispatch::xoshiro_step(&mut self.s);
        }
    }

    /// Steps over `jump`'s draws as [`advance`](Self::advance) does, in
    /// 64 table lookups whatever their number.
    pub(crate) fn jump(&mut self, jump: &Jump) {
        let mut s = [0u64; 4];
        for (nibbles, word) in jump.table.chunks_exact(16).zip(self.s) {
            for (i, images) in nibbles.iter().enumerate() {
                let image = &images[(word >> (4 * i)) as usize & 15];
                for (w, v) in s.iter_mut().zip(image) {
                    *w ^= v;
                }
            }
        }
        self.s = s;
    }

    /// The state, for a [`DrawUniformsFn`] to draw from where this
    /// generator stands.
    ///
    /// [`DrawUniformsFn`]: gcc_core::dispatch::DrawUniformsFn
    pub(crate) fn state(&self) -> [u64; 4] {
        self.s
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

/// A fixed number of draws to step over, as one linear map. xoshiro256's
/// step is linear over GF(2), so `draws` of them are one 256 × 256 bit
/// matrix: the state after them is the XOR of the images of the state's
/// set bits. The table holds those images summed per nibble — entry
/// `[i][v]` is the image of nibble value `v` at bits `4i..4i + 4` of the
/// state (word-major, low bits first) — so a jump is 64 lookups and XORs
/// (32 KiB of table) instead of `draws` steps.
pub(crate) struct Jump {
    table: [[[u64; 4]; 16]; 64],
}

impl Jump {
    /// The jump over `draws` draws, built from `draws` steps of each of the
    /// 256 unit states.
    pub(crate) const fn over(draws: usize) -> Self {
        let mut table = [[[0u64; 4]; 16]; 64];
        let mut bit = 0;
        while bit < 256 {
            let mut image = [0u64; 4];
            image[bit / 64] = 1 << (bit % 64);
            let mut k = 0;
            while k < draws {
                dispatch::xoshiro_step(&mut image);
                k += 1;
            }
            // Into every entry of the bit's nibble whose value has it set.
            let mut v = 0;
            while v < 16 {
                if v >> (bit % 4) & 1 == 1 {
                    let mut w = 0;
                    while w < 4 {
                        table[bit / 4][v][w] ^= image[w];
                        w += 1;
                    }
                }
                v += 1;
            }
            bit += 1;
        }
        Self { table }
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait Sample {
    /// Draws one uniform value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for f32 {
    fn sample(rng: &mut StdRng) -> Self {
        dispatch::lattice_f32(rng.next_u64())
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
        in_range(self, rng.gen())
    }
}

/// Where [`StdRng::gen_range`] puts the uniform `u` (a draw of
/// [`StdRng::gen`]) in the non-empty `range`: what a reader that draws
/// uniforms in bulk maps them through.
#[inline(always)]
pub(crate) fn in_range(range: std::ops::Range<f32>, u: f32) -> f32 {
    let v = range.start + u * (range.end - range.start);
    // `start + u*(end-start)` can round up to exactly `end` even for
    // u < 1; pin the half-open contract by stepping such draws down
    // to the largest representable value below `end` (≥ start, since
    // the range is non-empty).
    if v < range.end {
        v
    } else {
        range.end.next_down()
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

    /// The state whose only set bit is `bit` (word-major, low bits first).
    fn unit_state(bit: usize) -> StdRng {
        let mut s = [0u64; 4];
        s[bit / 64] = 1 << (bit % 64);
        StdRng { s }
    }

    #[test]
    fn the_tail_jump_is_advance_over_the_tail_on_every_unit_state_and_seeded_states() {
        // The table is linear algebra over GF(2): its 256 columns are the
        // images of the unit states, and every other state is their XOR.
        // So the unit states pin each entry, and 10⁵ seeded states the
        // lookup that sums them.
        let tail = crate::builder::TAIL_DRAWS;
        let jump = &crate::builder::TAIL_JUMP;
        let seeded = (0..100_000u64).map(|seed| StdRng::seed_from_u64(splitmix64(seed)));
        for (i, state) in (0..256).map(unit_state).chain(seeded).enumerate() {
            let (mut jumped, mut advanced) = (state.clone(), state);
            jumped.jump(jump);
            advanced.advance(tail);
            assert_eq!(jumped.s, advanced.s, "state {i}");
        }
        // Any other count, the empty jump included.
        for draws in [0, 1, 2, 63, 300] {
            let jump = Jump::over(draws);
            for i in 0..300 {
                let mut jumped = StdRng::seed_from_u64(i);
                let mut advanced = jumped.clone();
                jumped.jump(&jump);
                advanced.advance(draws);
                assert_eq!(jumped.s, advanced.s, "{draws} draws, seed {i}");
            }
        }
    }

    /// Every backend's [`DrawUniformsFn`], and the active one, against
    /// `StdRng` stepping each state alone: the same uniforms, bit for bit,
    /// in draw-major order, and the same states after them.
    ///
    /// [`DrawUniformsFn`]: gcc_core::dispatch::DrawUniformsFn
    fn assert_draws_are_std_rng_draws(states: &[StdRng], draws: usize) {
        let n = states.len();
        let mut want = vec![0.0f32; draws * n];
        let mut after = states.to_vec();
        for (g, rng) in after.iter_mut().enumerate() {
            for k in 0..draws {
                want[k * n + g] = rng.gen();
            }
        }
        let active = dispatch::active();
        let tables = dispatch::available()
            .into_iter()
            .map(|b| dispatch::kernel_set(b).unwrap());
        for kernels in tables.chain([active]) {
            let mut got_states: Vec<[u64; 4]> = states.iter().map(StdRng::state).collect();
            let mut got = vec![f32::NAN; draws * n];
            (kernels.draw_uniforms)(&mut got_states, &mut got);
            let b = kernels.backend;
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{b}: draw {} of state {}",
                    i / n.max(1),
                    i % n.max(1)
                );
            }
            for (g, (got, want)) in got_states.iter().zip(&after).enumerate() {
                assert_eq!(*got, want.s, "{b}: state {g} after {draws} draws");
            }
        }
    }

    #[test]
    fn the_draw_kernels_draw_what_std_rng_draws_over_every_block_shape() {
        // Whole groups of eight, a group of four, ragged groups of every
        // remainder, a scene tail's worth of draws and a block's worth of
        // states; the block fill's ragged last stage among them.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 128, 131] {
            for draws in [0, 1, 2, 107] {
                let states: Vec<StdRng> = (0..n as u64)
                    .map(|i| StdRng::seed_from_u64(splitmix64(i ^ (draws as u64) << 32)))
                    .collect();
                assert_draws_are_std_rng_draws(&states, draws);
            }
        }
        // States no seeding reaches: a unit state per lane position, the
        // all-ones state.
        let odd: Vec<StdRng> = (0..256)
            .step_by(9)
            .map(unit_state)
            .chain([StdRng { s: [!0; 4] }])
            .collect();
        assert_draws_are_std_rng_draws(&odd, 5);
    }

    #[test]
    fn the_draw_kernels_reject_ragged_shapes() {
        for b in dispatch::available() {
            let kernels = dispatch::kernel_set(b).unwrap();
            for (n, len) in [(3, 7), (0, 1), (8, 9)] {
                let ragged = std::panic::catch_unwind(|| {
                    (kernels.draw_uniforms)(&mut vec![[1, 2, 3, 4]; n], &mut vec![0.0; len]);
                });
                assert!(ragged.is_err(), "{b} drew {len} uniforms from {n} states");
            }
        }
    }

    /// The multiplicative inverse of an odd `a` modulo 2⁶⁴ (Newton).
    fn inverse(a: u64) -> u64 {
        let mut x = a;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        }
        x
    }

    #[test]
    #[ignore = "every lattice point: run in release"]
    fn whole_lattice_draws_are_std_rng_draws_on_every_backend() {
        // For each of the 2²⁴ lattice points a state whose next draw lands
        // on it: xoshiro256**'s output `rotl(5·s1, 7)·9` is invertible in
        // `s1`, so pick the draw (the point in the top 24 bits, hashed low
        // bits) and solve. Three draws each: the chosen one, then two more.
        let (inv5, inv9) = (inverse(5), inverse(9));
        const CHUNK: u32 = 1 << 14;
        for start in (0..1u32 << 24).step_by(CHUNK as usize) {
            let states: Vec<StdRng> = (start..start + CHUNK)
                .map(|k| {
                    let draw = u64::from(k) << 40 | splitmix64(u64::from(k)) >> 24;
                    let s1 = draw.wrapping_mul(inv9).rotate_right(7).wrapping_mul(inv5);
                    let mut rng = StdRng::seed_from_u64(u64::from(k));
                    rng.s[1] = s1;
                    assert_eq!(rng.clone().gen::<f32>(), k as f32 / (1u32 << 24) as f32);
                    rng
                })
                .collect();
            assert_draws_are_std_rng_draws(&states, 3);
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
