//! Runtime-dispatched SIMD kernels for the frame hot path.
//!
//! The renderers in `gcc-render` spend almost their entire frame budget in
//! six loops: depth-key generation before the radix sort, SH color
//! evaluation, and the four that make up the paper's Alpha and Blending
//! Units — the `E(p)` test of a whole pixel block (Algorithm 1's PE-array
//! dispatch), the forward-difference power chain of a block, the
//! exponential/clamp tail of alpha evaluation, and the masked
//! front-to-back blend of those alphas into the pixel planes. This module
//! provides explicitly vectorized `core::arch` implementations of those
//! loops (SSE2/AVX2 on x86-64, NEON on aarch64) behind a one-time runtime
//! dispatch table, with the scalar path kept as the bit-exactness
//! reference.
//!
//! # Bit-exactness contract
//!
//! Every kernel in a [`KernelSet`] is **bit-identical** to its scalar twin
//! on all inputs the renderers produce. This is by construction, not by
//! tolerance:
//!
//! * the exponential is [`gcc_math::exp::det_exp`] — a fixed sequence of
//!   IEEE-754 single-precision operations with no FMA and no libm call —
//!   and the SIMD kernels perform the same per-lane operation sequence;
//! * sequentially-dependent arithmetic (the [`RowAlpha`] forward-difference
//!   chain) is never re-associated: a variable span of the standard
//!   schedule runs it scalar, and [`BlockPowersFn`] runs the *same*
//!   recurrence with a block's rows in the vector lanes — eight
//!   independent chains advance together, each lane adding exactly what
//!   the scalar chain of its row adds, in the same order;
//! * [`BlockPassFn`] evaluates [`EffectiveTest::passes`]'s expression tree
//!   per lane (columns as lanes, left-to-right products, no FMA) and
//!   reduces the comparison to a bit per lane;
//! * kernels never use horizontal float reductions, re-association, or
//!   FMA contraction, so lane results equal scalar results bit for bit
//!   (the counts [`BlendSpanFn`] returns are integer popcounts of lane
//!   masks).
//!
//! Any future kernel that cannot preserve operation order must stay behind
//! an off-by-default fast-math-style opt-in rather than joining the default
//! dispatch table. The `tests/simd_parity.rs` suite in `gcc-render` pins
//! the contract (kernel-level sweeps over awkward lengths plus whole-frame
//! image comparisons), and the `simd-matrix` CI job runs the entire test
//! suite both dispatched and with [`FORCE_SCALAR_ENV`] set.
//!
//! # Selection
//!
//! [`active`] resolves the best supported backend once (cached): AVX2 if
//! the CPU reports it, else SSE2 on x86-64, NEON on aarch64, scalar
//! elsewhere. (The NEON table routes the two block kernels to their scalar
//! twins — the documented fallback of [`KernelSet`] — until someone can
//! build and test intrinsics for them on an aarch64 host.) Setting the environment variable `GCC_FORCE_SCALAR` to
//! anything but `0`/empty forces the scalar reference. Renderer configs can
//! also pin a backend per call (`StandardConfig::backend`), which is what
//! the in-process parity tests use — no global state involved.

mod scalar;

// The SIMD modules are the crate's sanctioned `unsafe` islands
// (intrinsics only — no raw-pointer data structures).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon;

use crate::bounds::EffectiveTest;
use crate::{Gaussian3D, ProjectedGaussian};
use std::sync::OnceLock;

/// Environment variable that forces the scalar reference kernels
/// (`GCC_FORCE_SCALAR=1`). Values `0` and the empty string leave dispatch
/// untouched; anything else forces scalar.
pub const FORCE_SCALAR_ENV: &str = "GCC_FORCE_SCALAR";

/// A vectorization backend the dispatch table can route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar Rust — the bit-exactness reference.
    Scalar,
    /// x86-64 SSE2 (baseline on every x86-64 CPU): 4-lane f32.
    Sse2,
    /// x86-64 AVX2 (+ POPCNT): 8-lane f32 with gathers (requires CPU
    /// support).
    Avx2,
    /// aarch64 NEON (baseline on every aarch64 CPU): 4-lane f32.
    Neon,
}

impl Backend {
    /// Stable lowercase name (used in logs, stats, and test assertions).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Sse2 => "sse2",
            Self::Avx2 => "avx2",
            Self::Neon => "neon",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fills `keys[i]` with the radix-sortable order-preserving key of
/// `depths[i]` ([`crate::sort::depth_key`]). Slices must be equal length.
pub type DepthKeysFn = fn(depths: &[f32], keys: &mut [u32]);

/// Converts a buffer of raw [`RowAlpha`] power values into clamped alphas
/// **in place**, in `ExpMode::Exact` semantics: `x < −5.54 → 0`,
/// `x ≥ 0 → 1`, else `det_exp(x)`, then `min(ALPHA_MAX)` and the
/// `< ALPHA_MIN → 0` cutoff. The power fill itself (the
/// sequentially-dependent forward-difference chain) always runs scalar in
/// the caller, so kernels only see the independent per-element exp/clamp
/// tail, which is what vectorizes.
pub type AlphaPowersFn = fn(powers: &mut [f32]);

/// Lane-group width of [`BlendSpanFn`]: every slice it takes is a whole
/// number of 8-lane groups (one AVX2 vector, two SSE2/NEON vectors).
pub const BLEND_LANES: usize = 8;

/// A run of pixels in struct-of-arrays form: accumulated color planes and
/// the transmittance plane (paper Eq. 4's `C` and `T`), all the same
/// length.
#[derive(Debug)]
pub struct PixelLanes<'a> {
    /// Accumulated red.
    pub r: &'a mut [f32],
    /// Accumulated green.
    pub g: &'a mut [f32],
    /// Accumulated blue.
    pub b: &'a mut [f32],
    /// Remaining transmittance.
    pub t: &'a mut [f32],
}

/// What one [`BlendSpanFn`] call did, as lane counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlendCounts {
    /// Lanes blended: live (`T ≥ ε`) with `α > alpha_min`.
    pub blended: u32,
    /// Blended lanes whose transmittance fell below
    /// [`TRANSMITTANCE_EPS`](crate::TRANSMITTANCE_EPS) — pixels that
    /// terminated in this call.
    pub terminated: u32,
}

/// Front-to-back blend of one Gaussian's alphas into a run of pixels — the
/// one blend loop of the workspace. Per lane, exactly the reference
///
/// ```text
/// if !pixel.terminated() && α > alpha_min { pixel.blend(α, color) }
/// ```
///
/// i.e. `w = α·T; C += color·w` (multiply, then add, per channel),
/// `T *= 1 − α`, with termination (`T < TRANSMITTANCE_EPS`) read before
/// and after. The SIMD twins evaluate every lane and blend `α = 0` where
/// the condition fails, which adds `+0.0` and multiplies by `1.0` — the
/// pixel's bits do not change. That is also what makes padding sound: a
/// lane whose alpha came from [`PAD_POWER`](crate::alpha::PAD_POWER) holds
/// `α = 0` and is never blended, since `alpha_min ≥ 0`.
///
/// `alphas` and the four planes of `px` must share one length, a multiple
/// of [`BLEND_LANES`]; `alphas` are values in `[0, 1]` as
/// [`AlphaPowersFn`] produces them and `alpha_min` is non-negative.
///
/// # Panics
///
/// Panics when the lengths differ or are not a multiple of
/// [`BLEND_LANES`].
pub type BlendSpanFn =
    fn(alphas: &[f32], color: [f32; 3], alpha_min: f32, px: PixelLanes<'_>) -> BlendCounts;

/// The length check every [`BlendSpanFn`] twin runs before touching lanes;
/// returns the shared length.
fn blend_lanes_len(alphas: &[f32], px: &PixelLanes<'_>) -> usize {
    let n = alphas.len();
    assert!(
        n.is_multiple_of(BLEND_LANES)
            && px.r.len() == n
            && px.g.len() == n
            && px.b.len() == n
            && px.t.len() == n,
        "blend_span takes equal-length runs of whole {BLEND_LANES}-lane groups"
    );
    n
}

/// The Alpha Unit's PE array: evaluates `E(p)` on every pixel of one block
/// and returns the pass pattern as row masks. The block's first pixel is
/// `origin`, it is `cols` pixels wide and
/// `masks.len() / cols.div_ceil(BLEND_LANES)` pixels tall (both already
/// clipped to the image: a lane that is no pixel is never evaluated into
/// a mask). `masks` is row-major, one byte per 8-lane group of a row: bit
/// `l` of `masks[row · groups + g]` is lane `8·g + l` of that row, and the
/// bits past `cols` in a row's last byte are clear.
///
/// Per lane this is [`EffectiveTest::passes`], operation for operation:
/// `dx = x as f32 + 0.5 − μx`, `dy` likewise,
/// `q = a·dx·dx + 2·b·dx·dy + c·dy·dy` evaluated left to right with
/// separate multiplies and adds, `q ≤ extent_sq`, and no lane passes when
/// `extent_sq ≤ 0`.
///
/// # Panics
///
/// Panics when `cols` is zero or `masks` is not a whole number of rows.
pub type BlockPassFn = fn(test: &EffectiveTest, origin: (i32, i32), cols: usize, masks: &mut [u8]);

/// The shape check every [`BlockPassFn`] twin runs first; returns the mask
/// bytes per row.
fn block_pass_groups(cols: usize, masks: &[u8]) -> usize {
    let groups = cols.div_ceil(BLEND_LANES);
    assert!(
        cols > 0 && masks.len().is_multiple_of(groups),
        "block_pass takes {groups} mask bytes per row of {cols} lanes"
    );
    groups
}

/// Fills a block's row-major power tile: row `r` of `tile` (rows are
/// `row_lanes` apart, there are `tile.len() / row_lanes` of them) receives
/// the exponents of pixels `(origin.0 .. origin.0 + cols, origin.1 + r)`
/// in its first `cols` lanes and [`PAD_POWER`](crate::alpha::PAD_POWER) in
/// the rest.
///
/// Per row this is exactly the [`RowAlpha`](crate::alpha::RowAlpha) chain
/// the per-span fill of the renderers runs — `RowAlpha::new` at the row's
/// first pixel, then `power += step; step += curve` per pixel. The SIMD
/// twins put the block's *rows* in the vector lanes, so every lane
/// performs its row's scalar additions in the scalar order, and transpose
/// the column vectors into the row-major tile.
///
/// # Panics
///
/// Panics when `row_lanes` is not a positive multiple of [`BLEND_LANES`],
/// `cols` exceeds it, or `tile` is not a whole number of rows.
pub type BlockPowersFn =
    fn(p: &ProjectedGaussian, origin: (i32, i32), cols: usize, row_lanes: usize, tile: &mut [f32]);

/// The shape check every [`BlockPowersFn`] twin runs first; returns the
/// tile's row count.
fn block_powers_rows(cols: usize, row_lanes: usize, tile: &[f32]) -> usize {
    assert!(
        row_lanes > 0
            && row_lanes.is_multiple_of(BLEND_LANES)
            && cols <= row_lanes
            && tile.len().is_multiple_of(row_lanes),
        "block_powers takes whole rows of whole {BLEND_LANES}-lane groups"
    );
    tile.len() / row_lanes
}

/// Evaluates SH colors for a batch of survivors and writes
/// `out[i].color`. Coefficients are read in place from
/// `gaussians[out[i].id].sh` (48 floats: 16 per channel, channel-major) —
/// survivors are culled source records, so the coefficient "SoA" is the
/// source array itself, indexed by survivor id; copying 48 floats per
/// survivor into a packed side buffer costs more than the evaluation
/// saves. `dir_x/y/z` are the unit view directions, `degree` clamps the
/// SH band exactly like [`crate::sh::eval_color_deg`]. The direction
/// slices must match `out.len()`, and every `out[i].id` must index
/// `gaussians`.
pub type ShColorsFn = fn(
    gaussians: &[Gaussian3D],
    dir_x: &[f32],
    dir_y: &[f32],
    dir_z: &[f32],
    degree: u8,
    out: &mut [ProjectedGaussian],
);

/// The dispatch table: one function pointer per vectorized hot loop, all
/// from the same backend (except where a backend has no profitable
/// implementation of a kernel, in which case the scalar twin is wired in —
/// bit-identical either way).
#[derive(Debug, Clone, Copy)]
pub struct KernelSet {
    /// Which backend this table routes to.
    pub backend: Backend,
    /// Depth-key generation kernel.
    pub depth_keys: DepthKeysFn,
    /// Block-wide `E(p)` evaluation (Algorithm 1's PE-array dispatch).
    pub block_pass: BlockPassFn,
    /// Block-wide power chain, rows as lanes (Gaussian-wise blend fill).
    pub block_powers: BlockPowersFn,
    /// Power → clamped-alpha kernel (`ExpMode::Exact` datapath).
    pub alpha_powers: AlphaPowersFn,
    /// Masked front-to-back blend kernel (both exponential datapaths).
    pub blend_span: BlendSpanFn,
    /// SH color evaluation kernel.
    pub sh_colors: ShColorsFn,
}

/// The scalar reference table.
static SCALAR: KernelSet = KernelSet {
    backend: Backend::Scalar,
    depth_keys: scalar::depth_keys,
    block_pass: scalar::block_pass,
    block_powers: scalar::block_powers,
    alpha_powers: scalar::alpha_powers,
    blend_span: scalar::blend_span,
    sh_colors: scalar::sh_colors,
};

/// Best backend the current CPU supports, ignoring any override.
pub fn detected() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx2_available() {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Backend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Backend::Scalar
    }
}

/// Whether the current process can execute kernels of backend `b`.
pub fn supported(b: Backend) -> bool {
    kernel_set(b).is_some()
}

/// All backends the current process can execute, scalar first.
pub fn available() -> Vec<Backend> {
    [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|&b| supported(b))
        .collect()
}

/// Pure selection rule: the backend [`active`] resolves to, given whether
/// the scalar override is in force and what the CPU supports. Split out so
/// tests can pin the routing without touching process environment.
pub fn select(force_scalar: bool, detected: Backend) -> Backend {
    if force_scalar {
        Backend::Scalar
    } else {
        detected
    }
}

/// Parses a `GCC_FORCE_SCALAR` value: unset, empty, and `0` mean "no
/// override"; anything else forces scalar.
pub fn force_scalar_requested(value: Option<&str>) -> bool {
    !matches!(value, None | Some("") | Some("0"))
}

/// The kernel table for backend `b`, or `None` when the current
/// process cannot execute it (wrong architecture or missing CPU feature).
pub fn kernel_set(b: Backend) -> Option<&'static KernelSet> {
    match b {
        Backend::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => Some(&x86::SSE2),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            if x86::avx2_available() {
                Some(&x86::AVX2)
            } else {
                None
            }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => Some(&neon::NEON),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

/// The process-wide active kernel table: the best supported backend, or
/// scalar when `GCC_FORCE_SCALAR` is set. Resolved once on first call and
/// cached for the lifetime of the process.
pub fn active() -> &'static KernelSet {
    static ACTIVE: OnceLock<&'static KernelSet> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let force = force_scalar_requested(std::env::var(FORCE_SCALAR_ENV).ok().as_deref());
        let backend = select(force, detected());
        kernel_set(backend).unwrap_or(&SCALAR)
    })
}

/// Backend of the process-wide active kernel table.
pub fn active_backend() -> Backend {
    active().backend
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::{ExpMode, PixelState, RowAlpha, PAD_POWER};
    use crate::splitmix;
    use crate::{ALPHA_MIN, TRANSMITTANCE_EPS};
    use gcc_math::{SymMat2, Vec2, Vec3};

    fn proj(mean: Vec2, cov: SymMat2, opacity: f32) -> ProjectedGaussian {
        ProjectedGaussian {
            id: 7,
            mean2d: mean,
            cov2d: cov,
            conic: cov.inverse().unwrap(),
            depth: 2.5,
            opacity,
            ln_opacity: opacity.ln(),
            radius: 8.0,
            color: Vec3::ZERO,
        }
    }

    #[test]
    fn select_is_pure_and_total() {
        for b in [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon] {
            assert_eq!(select(true, b), Backend::Scalar);
            assert_eq!(select(false, b), b);
        }
    }

    #[test]
    fn force_scalar_parsing_matches_the_documented_rule() {
        assert!(!force_scalar_requested(None));
        assert!(!force_scalar_requested(Some("")));
        assert!(!force_scalar_requested(Some("0")));
        assert!(force_scalar_requested(Some("1")));
        assert!(force_scalar_requested(Some("true")));
        assert!(force_scalar_requested(Some("yes")));
    }

    #[test]
    fn scalar_is_always_supported_and_first_in_available() {
        assert!(supported(Backend::Scalar));
        assert_eq!(available()[0], Backend::Scalar);
        // The detected backend must itself be executable.
        assert!(supported(detected()));
    }

    #[test]
    fn kernel_set_backend_field_matches_the_requested_backend() {
        for b in available() {
            assert_eq!(kernel_set(b).unwrap().backend, b);
        }
    }

    #[test]
    fn active_backend_is_supported() {
        assert!(supported(active_backend()));
    }

    /// Fills `out` with the walker's powers, advancing once per element —
    /// the fill phase every alpha test shares.
    fn fill_powers(row: &mut RowAlpha, out: &mut [f32]) {
        for slot in out.iter_mut() {
            *slot = row.power();
            row.advance();
        }
    }

    #[test]
    fn scalar_alpha_powers_matches_row_alpha_bitwise() {
        // The scalar kernel must be *the same arithmetic* as the per-pixel
        // RowAlpha::alpha(Exact) loop it replaces — bitwise.
        let p = proj(Vec2::new(9.3, 7.1), SymMat2::new(6.0, 1.5, 4.0), 0.87);
        let exact = ExpMode::Exact;
        for y in 0..12 {
            let mut k_row = RowAlpha::new(&p, 0, y);
            let mut r_row = RowAlpha::new(&p, 0, y);
            let mut buf = [0.0f32; 17];
            fill_powers(&mut k_row, &mut buf);
            (SCALAR.alpha_powers)(&mut buf);
            for a in buf {
                let want = r_row.alpha(&exact);
                r_row.advance();
                assert_eq!(a.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn scalar_alpha_powers_applies_the_alpha_min_cutoff() {
        // Far from the mean every alpha must be exactly 0.0, not merely
        // small: the kernel bakes in the 1/255 cutoff.
        let p = proj(Vec2::new(500.0, 500.0), SymMat2::new(4.0, 0.0, 4.0), 0.9);
        let mut row = RowAlpha::new(&p, 0, 0);
        let mut buf = [1.0f32; 9];
        fill_powers(&mut row, &mut buf);
        (SCALAR.alpha_powers)(&mut buf);
        for a in buf {
            assert_eq!(a, 0.0);
        }
        // And near the mean, alphas are inside [ALPHA_MIN, ALPHA_MAX].
        let mut row = RowAlpha::new(&p, 498, 500);
        let mut buf = [0.0f32; 4];
        fill_powers(&mut row, &mut buf);
        (SCALAR.alpha_powers)(&mut buf);
        assert!(buf.iter().any(|&a| a >= ALPHA_MIN));
    }

    #[test]
    fn scalar_depth_keys_matches_depth_key() {
        let depths = [0.2f32, 1.0, -3.5, 0.0, -0.0, f32::MAX, 1e-40];
        let mut keys = [0u32; 7];
        (SCALAR.depth_keys)(&depths, &mut keys);
        for (d, k) in depths.iter().zip(keys) {
            assert_eq!(k, crate::sort::depth_key(*d));
        }
    }

    /// Awkward batch sizes around every backend's lane width, plus two
    /// large primes so multi-chunk paths and tails are both exercised.
    const AWKWARD_LENS: [usize; 13] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 251, 1009];

    #[test]
    fn depth_keys_kernels_match_scalar_bitwise_on_awkward_lengths() {
        for &len in &AWKWARD_LENS {
            let depths: Vec<f32> = (0..len)
                .map(|i| ((i as f32 * 0.737).sin() * 50.0) - 10.0)
                .collect();
            let mut want = vec![0u32; len];
            (SCALAR.depth_keys)(&depths, &mut want);
            for b in available() {
                let ks = kernel_set(b).unwrap();
                let mut got = vec![0u32; len];
                (ks.depth_keys)(&depths, &mut got);
                assert_eq!(got, want, "depth_keys {b} diverges at len {len}");
            }
        }
    }

    #[test]
    fn alpha_powers_kernels_match_scalar_bitwise_on_awkward_lengths() {
        // The walker crosses the Gaussian so lanes hit every clamp branch:
        // below −5.54, the live (det_exp) range, and ≥ 0 saturation (via
        // the >1 pseudo-opacity).
        for opacity in [0.87f32, 1.3] {
            let mut p = proj(Vec2::new(64.0, 3.0), SymMat2::new(180.0, 20.0, 120.0), 0.87);
            p.ln_opacity = opacity.ln();
            for &len in &AWKWARD_LENS {
                let mut powers = vec![0.0f32; len];
                let mut row = RowAlpha::new(&p, 0, 3);
                fill_powers(&mut row, &mut powers);
                let mut want = powers.clone();
                (SCALAR.alpha_powers)(&mut want);
                for b in available() {
                    let ks = kernel_set(b).unwrap();
                    let mut got = powers.clone();
                    (ks.alpha_powers)(&mut got);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "alpha_powers {b} diverges at len {len} index {i}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sh_colors_kernels_match_scalar_bitwise_on_awkward_lengths() {
        for &len in &AWKWARD_LENS {
            // Survivor ids deliberately reverse the array order so the
            // kernels' id-indexed coefficient gathers are exercised on a
            // non-identity mapping.
            let gaussians: Vec<Gaussian3D> = (0..len.max(1))
                .map(|g| {
                    let mut sh = [0.0f32; crate::SH_FLOATS];
                    for (i, v) in sh.iter_mut().enumerate() {
                        *v = (((g * crate::SH_FLOATS + i) as f32) * 0.193).sin() * 0.6;
                    }
                    Gaussian3D {
                        sh,
                        ..Default::default()
                    }
                })
                .collect();
            let dirs: Vec<Vec3> = (0..len)
                .map(|i| {
                    Vec3::new(
                        (i as f32 * 0.41).sin(),
                        (i as f32 * 0.29).cos(),
                        0.5 + (i as f32 * 0.13).sin() * 0.4,
                    )
                    .normalized()
                })
                .collect();
            let dx: Vec<f32> = dirs.iter().map(|d| d.x).collect();
            let dy: Vec<f32> = dirs.iter().map(|d| d.y).collect();
            let dz: Vec<f32> = dirs.iter().map(|d| d.z).collect();
            let blank = |i: usize| {
                let mut p = proj(Vec2::new(1.0, 1.0), SymMat2::new(4.0, 0.0, 4.0), 0.5);
                p.id = (len - 1 - i) as u32;
                p
            };
            for degree in 0..=3u8 {
                let mut want: Vec<ProjectedGaussian> = (0..len).map(blank).collect();
                (SCALAR.sh_colors)(&gaussians, &dx, &dy, &dz, degree, &mut want);
                for b in available() {
                    let ks = kernel_set(b).unwrap();
                    let mut got: Vec<ProjectedGaussian> = (0..len).map(blank).collect();
                    (ks.sh_colors)(&gaussians, &dx, &dy, &dz, degree, &mut got);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            (
                                g.color.x.to_bits(),
                                g.color.y.to_bits(),
                                g.color.z.to_bits()
                            ),
                            (
                                w.color.x.to_bits(),
                                w.color.y.to_bits(),
                                w.color.z.to_bits()
                            ),
                            "sh_colors {b} diverges at len {len} deg {degree} index {i}"
                        );
                    }
                }
            }
        }
    }

    /// Runs `kernel` over SoA copies of `pixels` and returns the pixels it
    /// leaves behind together with its counts.
    fn run_blend(
        kernel: BlendSpanFn,
        alphas: &[f32],
        color: Vec3,
        alpha_min: f32,
        pixels: &[PixelState],
    ) -> (Vec<PixelState>, BlendCounts) {
        let mut r: Vec<f32> = pixels.iter().map(|p| p.color.x).collect();
        let mut g: Vec<f32> = pixels.iter().map(|p| p.color.y).collect();
        let mut b: Vec<f32> = pixels.iter().map(|p| p.color.z).collect();
        let mut t: Vec<f32> = pixels.iter().map(|p| p.transmittance).collect();
        let counts = kernel(
            alphas,
            [color.x, color.y, color.z],
            alpha_min,
            PixelLanes {
                r: &mut r,
                g: &mut g,
                b: &mut b,
                t: &mut t,
            },
        );
        let out = (0..pixels.len())
            .map(|i| PixelState {
                color: Vec3::new(r[i], g[i], b[i]),
                transmittance: t[i],
            })
            .collect();
        (out, counts)
    }

    fn assert_pixels_bitwise_equal(got: &[PixelState], want: &[PixelState], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let bits = |p: &PixelState| {
                [
                    p.color.x.to_bits(),
                    p.color.y.to_bits(),
                    p.color.z.to_bits(),
                    p.transmittance.to_bits(),
                ]
            };
            assert_eq!(bits(g), bits(w), "{what}: lane {i} {g:?} vs {w:?}");
        }
    }

    #[test]
    fn blend_span_kernels_match_the_reference_loop_bitwise() {
        // Seeded spans of 0–16 live lanes inside whole 8-lane groups: the
        // lanes past the span hold the alpha of a padded power. Alphas hit
        // the mask's edges (0, below 1/255, exactly `alpha_min`, the 0.99
        // ceiling), pixels arrive fresh, mid-blend, pre-terminated and with
        // T placed so that this blend carries it across ε or just not.
        let color = Vec3::new(0.9, 0.35, 0.05);
        let mut pad = [PAD_POWER];
        (SCALAR.alpha_powers)(&mut pad);
        let mut seed = 0x5EED_B1E4D;
        for alpha_min in [0.0f32, 0.05] {
            let edge_alphas = [0.0, 0.003, alpha_min, 0.99, 0.5, ALPHA_MIN];
            let edge_ts = [
                1.0,
                0.37,
                0.0,
                TRANSMITTANCE_EPS,
                TRANSMITTANCE_EPS * 0.99,
                TRANSMITTANCE_EPS * 1.5,
                // × (1 − 0.99) lands just above / just below ε.
                TRANSMITTANCE_EPS * 101.0,
                TRANSMITTANCE_EPS * 99.0,
            ];
            for len in 0..=16usize {
                for _ in 0..8 {
                    let lanes = len.div_ceil(BLEND_LANES) * BLEND_LANES;
                    let mut alphas = vec![pad[0]; lanes];
                    let mut pixels = vec![PixelState::new(); lanes];
                    for i in 0..lanes {
                        let pick = splitmix(&mut seed);
                        if i < len {
                            alphas[i] = match pick % 3 {
                                0 => edge_alphas[(pick >> 8) as usize % edge_alphas.len()],
                                _ => ((pick >> 8) % 1000) as f32 / 1010.0,
                            };
                        }
                        pixels[i].transmittance = match (pick >> 32) % 3 {
                            0 => edge_ts[(pick >> 40) as usize % edge_ts.len()],
                            _ => ((pick >> 40) % 1000) as f32 / 999.0,
                        };
                        pixels[i].color =
                            Vec3::new(0.2, 0.4, 0.6) * (1.0 - pixels[i].transmittance);
                    }
                    // The loop both renderers carried before the kernel.
                    let mut want = pixels.clone();
                    let mut want_counts = BlendCounts::default();
                    for (st, &a) in want.iter_mut().zip(&alphas) {
                        if !st.terminated() && a > alpha_min {
                            st.blend(a, color);
                            want_counts.blended += 1;
                            want_counts.terminated += u32::from(st.terminated());
                        }
                    }
                    for b in available() {
                        let ks = kernel_set(b).unwrap();
                        let (got, counts) =
                            run_blend(ks.blend_span, &alphas, color, alpha_min, &pixels);
                        let what = format!("blend_span {b} len {len} alpha_min {alpha_min}");
                        assert_pixels_bitwise_equal(&got, &want, &what);
                        assert_eq!(counts, want_counts, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn padded_lanes_never_change_a_pixel() {
        // Both exponential datapaths turn the pad power into α = 0, and a
        // lane holding α = 0 is masked off whatever its pixel holds.
        let mut exact = [PAD_POWER; BLEND_LANES];
        (SCALAR.alpha_powers)(&mut exact);
        assert_eq!(exact, [0.0; BLEND_LANES]);
        assert_eq!(ExpMode::lut().alpha(PAD_POWER), 0.0);
        let pixels: Vec<PixelState> = (0..BLEND_LANES)
            .map(|i| PixelState {
                color: Vec3::new(0.1 * i as f32, 0.0, 1.0),
                transmittance: [1.0, 0.5, 2e-4, 1e-4, 5e-5, 0.0, 0.9, 0.01][i],
            })
            .collect();
        for alpha_min in [0.0f32, 0.05] {
            for b in available() {
                let ks = kernel_set(b).unwrap();
                for n in [0, BLEND_LANES] {
                    let (got, counts) = run_blend(
                        ks.blend_span,
                        &exact[..n],
                        Vec3::new(5.0, 5.0, 5.0),
                        alpha_min,
                        &pixels[..n],
                    );
                    assert_pixels_bitwise_equal(&got, &pixels[..n], &format!("padded {b}"));
                    assert_eq!(counts, BlendCounts::default(), "padded {b}");
                }
            }
        }
    }

    #[test]
    fn blend_span_rejects_ragged_runs() {
        // Not a whole number of groups, and planes of different lengths.
        for b in available() {
            let kernel = kernel_set(b).unwrap().blend_span;
            for (alphas, lanes) in [(5usize, 5usize), (8, 16)] {
                let ragged = std::panic::catch_unwind(|| {
                    let mut plane = vec![0.0f32; lanes];
                    let (mut g, mut bl, mut t) = (plane.clone(), plane.clone(), plane.clone());
                    kernel(
                        &vec![0.5; alphas],
                        [1.0; 3],
                        0.0,
                        PixelLanes {
                            r: &mut plane,
                            g: &mut g,
                            b: &mut bl,
                            t: &mut t,
                        },
                    )
                });
                assert!(
                    ragged.is_err(),
                    "{b} accepted {alphas} alphas on {lanes} lanes"
                );
            }
        }
    }

    /// Projected Gaussians the block kernels are swept over: thin,
    /// rotated, huge and too faint to pass anywhere, centred on the
    /// blocks, beside them and at negative coordinates, then seeded ones.
    fn block_cases() -> Vec<ProjectedGaussian> {
        let mut cases = Vec::new();
        for mean in [
            Vec2::new(9.3, 7.1),
            Vec2::new(-13.7, -4.2),
            Vec2::new(70.5, 3.0),
            Vec2::new(1003.25, 2001.75),
        ] {
            for (cov, opacity) in [
                (SymMat2::new(0.4, 0.0, 30.0), 0.9),
                (SymMat2::new(20.0, 14.0, 12.0), 0.6),
                (SymMat2::new(4000.0, 900.0, 2500.0), 0.99),
                (SymMat2::new(9.0, 0.0, 9.0), 1.0 / 255.0),
                (SymMat2::new(9.0, 0.0, 9.0), 0.002),
            ] {
                cases.push(proj(mean, cov, opacity));
            }
        }
        let mut seed = 0xB10C_0001;
        for _ in 0..24 {
            let mut unit = || (splitmix(&mut seed) % 10_000) as f32 / 10_000.0;
            let (a, c) = (0.3 + 80.0 * unit(), 0.3 + 80.0 * unit());
            let b = (unit() - 0.5) * 1.9 * (a * c).sqrt();
            let mean = Vec2::new(unit() * 96.0 - 24.0, unit() * 48.0 - 16.0);
            cases.push(proj(mean, SymMat2::new(a, b, c), 0.01 + unit()));
        }
        cases
    }

    const BLOCK_COLS: [usize; 8] = [1, 3, 7, 8, 9, 12, 16, 72];
    /// Full blocks and clipped last rows.
    const BLOCK_ROWS: [usize; 4] = [1, 5, 8, 13];
    const BLOCK_ORIGINS: [(i32, i32); 4] = [(0, 0), (-16, -8), (5, 3), (1000, 2000)];

    #[test]
    fn block_pass_kernels_match_effective_test_lane_by_lane() {
        let mut passing = 0usize;
        for p in block_cases() {
            let test = EffectiveTest::new(p.mean2d, p.conic, p.opacity);
            for origin in BLOCK_ORIGINS {
                for cols in BLOCK_COLS {
                    let groups = cols.div_ceil(BLEND_LANES);
                    for rows in BLOCK_ROWS {
                        for b in available() {
                            // Stale bits must not survive a call.
                            let mut masks = vec![0xA5u8; rows * groups];
                            (kernel_set(b).unwrap().block_pass)(&test, origin, cols, &mut masks);
                            if p.opacity <= ALPHA_MIN {
                                assert!(masks.iter().all(|&m| m == 0), "{b}: faint, not empty");
                            }
                            for row in 0..rows {
                                for lane in 0..groups * BLEND_LANES {
                                    let bit = masks[row * groups + lane / 8] >> (lane % 8) & 1;
                                    let (x, y) = (origin.0 + lane as i32, origin.1 + row as i32);
                                    let want = lane < cols && test.passes(x, y);
                                    assert_eq!(
                                        bit == 1,
                                        want,
                                        "block_pass {b}: {test:?} origin {origin:?} \
                                         cols {cols} row {row} lane {lane}"
                                    );
                                    passing += usize::from(want);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(passing > 10_000, "the sweep must hit passing lanes");
    }

    #[test]
    fn block_powers_kernels_match_the_row_alpha_chain_bitwise() {
        for p in block_cases() {
            for origin in BLOCK_ORIGINS {
                for cols in BLOCK_COLS {
                    // The tightest tile and one with a whole group of padding.
                    let tight = cols.next_multiple_of(BLEND_LANES);
                    for row_lanes in [tight, tight + BLEND_LANES] {
                        for rows in BLOCK_ROWS {
                            for b in available() {
                                let mut tile = vec![f32::NAN; rows * row_lanes];
                                (kernel_set(b).unwrap().block_powers)(
                                    &p, origin, cols, row_lanes, &mut tile,
                                );
                                for (row, lanes) in tile.chunks_exact(row_lanes).enumerate() {
                                    let mut chain =
                                        RowAlpha::new(&p, origin.0, origin.1 + row as i32);
                                    for (lane, got) in lanes.iter().enumerate() {
                                        let want = if lane < cols {
                                            chain.power()
                                        } else {
                                            PAD_POWER
                                        };
                                        chain.advance();
                                        assert_eq!(
                                            got.to_bits(),
                                            want.to_bits(),
                                            "block_powers {b}: origin {origin:?} cols {cols} \
                                             of {row_lanes} row {row} lane {lane}: {got} vs {want}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernels_reject_ragged_shapes() {
        let p = proj(Vec2::new(4.0, 4.0), SymMat2::new(6.0, 1.0, 5.0), 0.8);
        let test = EffectiveTest::new(p.mean2d, p.conic, p.opacity);
        for b in available() {
            let ks = kernel_set(b).unwrap();
            // (cols, mask bytes): no lanes; a 12-lane row is two bytes.
            for (cols, bytes) in [(0usize, 4usize), (12, 3)] {
                let ragged = std::panic::catch_unwind(|| {
                    (ks.block_pass)(&test, (0, 0), cols, &mut vec![0u8; bytes]);
                });
                assert!(
                    ragged.is_err(),
                    "{b} block_pass took {cols} cols, {bytes} bytes"
                );
            }
            // (cols, row_lanes, tile lanes): rows of half a group, a span
            // wider than its row, half a row.
            for (cols, row_lanes, lanes) in [(8usize, 12usize, 24usize), (9, 8, 16), (8, 16, 24)] {
                let ragged = std::panic::catch_unwind(|| {
                    (ks.block_powers)(&p, (0, 0), cols, row_lanes, &mut vec![0.0; lanes]);
                });
                assert!(
                    ragged.is_err(),
                    "{b} block_powers took {cols} of {row_lanes} lanes in {lanes}"
                );
            }
        }
    }

    #[test]
    fn the_scalar_table_holds_the_six_scalar_twins() {
        // What a `Backend::Scalar`-pinned render runs: no entry of the
        // reference table may route to an intrinsic kernel.
        let ks = kernel_set(Backend::Scalar).unwrap();
        assert_eq!(ks.backend, Backend::Scalar);
        assert!(std::ptr::fn_addr_eq(
            ks.depth_keys,
            scalar::depth_keys as DepthKeysFn
        ));
        assert!(std::ptr::fn_addr_eq(
            ks.block_pass,
            scalar::block_pass as BlockPassFn
        ));
        assert!(std::ptr::fn_addr_eq(
            ks.block_powers,
            scalar::block_powers as BlockPowersFn
        ));
        assert!(std::ptr::fn_addr_eq(
            ks.alpha_powers,
            scalar::alpha_powers as AlphaPowersFn
        ));
        assert!(std::ptr::fn_addr_eq(
            ks.blend_span,
            scalar::blend_span as BlendSpanFn
        ));
        assert!(std::ptr::fn_addr_eq(
            ks.sh_colors,
            scalar::sh_colors as ShColorsFn
        ));
    }

    #[test]
    fn scalar_sh_colors_matches_eval_color_deg() {
        let n = 5usize;
        let gaussians: Vec<Gaussian3D> = (0..n)
            .map(|g| {
                let mut sh = [0.0f32; crate::SH_FLOATS];
                for (i, v) in sh.iter_mut().enumerate() {
                    *v = (((g * crate::SH_FLOATS + i) as f32) * 0.193).sin() * 0.6;
                }
                Gaussian3D {
                    sh,
                    ..Default::default()
                }
            })
            .collect();
        let dirs: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.3 + i as f32, -0.2, 0.9 - 0.1 * i as f32).normalized())
            .collect();
        let dx: Vec<f32> = dirs.iter().map(|d| d.x).collect();
        let dy: Vec<f32> = dirs.iter().map(|d| d.y).collect();
        let dz: Vec<f32> = dirs.iter().map(|d| d.z).collect();
        for degree in 0..=3u8 {
            let mut out: Vec<ProjectedGaussian> = (0..n)
                .map(|i| {
                    let mut p = proj(Vec2::new(1.0, 1.0), SymMat2::new(4.0, 0.0, 4.0), 0.5);
                    p.id = i as u32;
                    p
                })
                .collect();
            (SCALAR.sh_colors)(&gaussians, &dx, &dy, &dz, degree, &mut out);
            for (i, p) in out.iter().enumerate() {
                let want = crate::sh::eval_color_deg(&gaussians[i].sh, dirs[i], degree);
                assert_eq!(p.color.x.to_bits(), want.x.to_bits());
                assert_eq!(p.color.y.to_bits(), want.y.to_bits());
                assert_eq!(p.color.z.to_bits(), want.z.to_bits());
            }
        }
    }
}
