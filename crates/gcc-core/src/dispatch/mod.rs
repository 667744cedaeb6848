//! Runtime-dispatched SIMD kernels for the frame hot path.
//!
//! The renderers in `gcc-render` spend almost their entire frame budget in
//! eight loops: depth-key generation before the radix sort, SH color
//! evaluation, and the six that make up the paper's Alpha and Blending
//! Units — the `E(p)` test of a whole pixel block (Algorithm 1's PE-array
//! dispatch) and the forward-difference power chain of a block for the
//! Gaussian-wise schedule; the effective row spans of a (Gaussian, tile)
//! pair and the power chains over those spans for the tile-wise one; and
//! the tail both share, the exponential/clamp of alpha evaluation and the
//! masked front-to-back blend of those alphas into the pixel planes. A
//! ninth kernel runs before any frame: the Box–Muller transform that turns
//! a synthetic scene's uniform draws into its normals. This module
//! provides explicitly vectorized `core::arch` implementations of those
//! loops (AVX2 on x86-64) behind a one-time runtime dispatch table,
//! with the scalar path kept as the bit-exactness reference.
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
//!   so are the logarithm and cosine of [`BoxMullerFn`]
//!   ([`gcc_math::det_ln`], [`gcc_math::det_sin_cos`]), whose every
//!   data-dependent choice is a bit-mask select a lane can make;
//! * sequentially-dependent arithmetic (the
//!   [`RowAlpha`](crate::alpha::RowAlpha) forward-difference chain) is
//!   never re-associated: [`BlockPowersFn`] and [`SpanPowersFn`] run the
//!   *same* recurrence with a block's or a tile's rows in the vector
//!   lanes — eight independent chains advance together, each lane adding
//!   exactly what the scalar chain of its row adds, in the same order, a
//!   span's chain started at its own row's first column; likewise
//!   [`RowSpansFn`] keeps the span walker's `f64` forward differences
//!   scalar and in row order and vectorizes what follows them, where every
//!   operation (`sqrt`, `floor`, `ceil`, `min`, `max`, a multiply, an add)
//!   is one correctly rounded IEEE-754 operation per lane;
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
//! the CPU reports it, scalar otherwise (x86-64 without AVX2 and aarch64
//! included). Setting the environment variable `GCC_FORCE_SCALAR` to
//! anything but `0`/empty forces the scalar reference. Renderer configs
//! can also pin a backend per call (`StandardConfig::backend`), which is
//! what the in-process parity tests use — no global state involved.

mod scalar;

// The SIMD modules are the crate's sanctioned `unsafe` islands
// (intrinsics only — no raw-pointer data structures).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

use crate::alpha::EffectiveSpanWalker;
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
    /// x86-64 AVX2 (+ POPCNT): 8-lane f32 with gathers (requires CPU
    /// support).
    Avx2,
}

impl Backend {
    /// Stable lowercase name (used in logs, stats, and test assertions).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
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

/// Converts a buffer of raw [`RowAlpha`](crate::alpha::RowAlpha) power
/// values into clamped alphas
/// **in place**, in `ExpMode::Exact` semantics: `x < −5.54 → 0`,
/// `x ≥ 0 → 1`, else `det_exp(x)`, then `min(ALPHA_MAX)` and the
/// `< ALPHA_MIN → 0` cutoff. The power fill itself is a kernel of its own
/// ([`BlockPowersFn`], [`SpanPowersFn`]): this one sees only the
/// independent per-element exp/clamp tail. The SIMD twins store `+0.0` for
/// a whole lane group below the input floor without evaluating it —
/// bit for bit what the clamps make of each such lane, and most of what a
/// padded power tile holds.
pub type AlphaPowersFn = fn(powers: &mut [f32]);

/// Lane-group width of [`BlendSpanFn`]: every slice it takes is a whole
/// number of 8-lane groups (one AVX2 vector).
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

/// Solves the effective row spans of one (Gaussian, clip window) pair: row
/// `r` of `lo` / `hi` receives what the `r`-th
/// [`EffectiveSpanWalker::next_span`] call returns, as the half-open pixel
/// interval `[lo[r], hi[r])` — inside the walker's clip window, and
/// `lo[r] == hi[r]` (both the window's left edge) on a row the Gaussian
/// cannot reach.
///
/// The scalar twin *is* that loop. The vector twins keep the walker's
/// three `f64` forward differences per row as scalar adds in row order
/// (they are a dependent chain, and not what costs) and run the tail of
/// `next_span` — the sign test, `sqrt · inv_a`, the `floor` / `ceil`
/// rounding with its one-pixel pads, the clip by `max` / `min`, the
/// `lo ≥ hi` test and the two casts — on four rows per `f64` vector: each
/// of those is one correctly rounded IEEE-754 operation, so a lane holds
/// its row's scalar result bit for bit (a NaN discriminant takes the full
/// window in both, through the same `max` / `min` operand order).
///
/// # Panics
///
/// Panics when `lo` and `hi` differ in length.
pub type RowSpansFn = fn(walker: EffectiveSpanWalker, lo: &mut [i32], hi: &mut [i32]);

/// Fills a power tile from per-row spans — the standard schedule's fill of
/// the blend loop. `tile` is `lo.len()` rows of `row_lanes` lanes whose
/// first lane is pixel `origin` in `p`'s coordinates, and `[lo[r], hi[r])`
/// are the pixels of row `r` that can contribute, none when
/// `lo[r] >= hi[r]`. Returns the lane range of `tile` from the first to
/// the last non-empty row (whole rows; `0..0` when every row is empty) —
/// what the exponential + blend tail has to visit. Inside that range, row
/// `r` receives the [`RowAlpha`](crate::alpha::RowAlpha) chain **started
/// at the row's own `lo[r]`** (`RowAlpha::new(p, lo[r], origin.1 + r)`,
/// then `power += step; step += curve` per pixel) in the lanes of its
/// span and [`PAD_POWER`](crate::alpha::PAD_POWER) in every other lane.
/// Rows before the range are left as they were; lanes after it are left
/// as they were or hold `PAD_POWER` (a vector store that ends a row may
/// run on into the next).
///
/// Empty rows may sit anywhere, also between two non-empty ones (the
/// intersection with an OBB span can round one in). The SIMD twins put
/// the rows in the vector lanes with one start column per lane: every
/// lane builds `RowAlpha::new`'s expression tree operation for operation
/// (`(a·dx)·dx + ((2b)·dx)·dy + (c·dy)·dy`, separate multiplies and
/// adds) from its own `dx`, the chains advance together for the longest
/// span of the lane group, and each row's values are transposed out and
/// stored at its own column offset.
///
/// # Panics
///
/// Panics when `lo` and `hi` differ in length, `row_lanes` is not a
/// positive multiple of [`BLEND_LANES`], `tile` is not `lo.len()` rows,
/// or a non-empty span leaves its row (`lo[r] < origin.0` or
/// `hi[r] − origin.0 > row_lanes`).
pub type SpanPowersFn = fn(
    p: &ProjectedGaussian,
    origin: (i32, i32),
    lo: &[i32],
    hi: &[i32],
    row_lanes: usize,
    tile: &mut [f32],
) -> std::ops::Range<usize>;

/// The shape check every [`SpanPowersFn`] twin runs first.
fn span_powers_shape(lo: &[i32], hi: &[i32], row_lanes: usize, tile: &[f32]) {
    assert!(
        lo.len() == hi.len()
            && row_lanes > 0
            && row_lanes.is_multiple_of(BLEND_LANES)
            && tile.len() == lo.len() * row_lanes,
        "span_powers takes one span per whole row of whole {BLEND_LANES}-lane groups"
    );
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

/// Box–Muller transform of a batch of uniform pairs: `out[i]` is
/// [`box_muller_one`]`(u1[i], u2[i])`, the standard normal
/// `√(−2·ln u1) · cos(2π·u2)` through [`gcc_math::det_ln`] and
/// [`gcc_math::det_sin_cos`]. The scene builder evaluates a Gaussian's
/// 52 tail normals in one call. The SIMD twins run `det_ln`'s and
/// `det_sin_cos`'s operation sequences per lane, selects included, so
/// they are bit-identical for every `u1` — not only the builder's
/// `[1e-7, 1)` — and every `u2` whose angle `2π·u2` is within
/// [`gcc_math::det::DET_SIN_COS_MAX`], the range the cosine is specified
/// on.
///
/// # Panics
///
/// Panics when the three slices differ in length.
pub type BoxMullerFn = fn(u1: &[f32], u2: &[f32], out: &mut [f32]);

/// The length check every [`BoxMullerFn`] twin runs first.
fn box_muller_len(u1: &[f32], u2: &[f32], out: &[f32]) {
    assert!(
        u1.len() == out.len() && u2.len() == out.len(),
        "box_muller takes equal-length slices"
    );
}

/// One Box–Muller normal, the element [`BoxMullerFn`] is defined by:
/// `√(−2·ln u1) · cos(2π·u2)` with [`gcc_math::det_ln`] and
/// [`gcc_math::det_sin_cos`].
#[inline(always)]
pub fn box_muller_one(u1: f32, u2: f32) -> f32 {
    (-2.0 * gcc_math::det_ln(u1)).sqrt() * gcc_math::det_sin_cos(std::f32::consts::TAU * u2).1
}

/// The dispatch table: one function pointer per vectorized hot loop, all
/// from the same backend.
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
    /// Effective row spans of a (Gaussian, tile) pair, rows as lanes.
    pub row_spans: RowSpansFn,
    /// Power chain over per-row spans, rows as lanes with a start column
    /// each (standard blend fill).
    pub span_powers: SpanPowersFn,
    /// Power → clamped-alpha kernel (`ExpMode::Exact` datapath).
    pub alpha_powers: AlphaPowersFn,
    /// Masked front-to-back blend kernel (both exponential datapaths).
    pub blend_span: BlendSpanFn,
    /// SH color evaluation kernel.
    pub sh_colors: ShColorsFn,
    /// Box–Muller normals from uniform pairs (scene synthesis).
    pub box_muller: BoxMullerFn,
}

/// The scalar reference table.
static SCALAR: KernelSet = KernelSet {
    backend: Backend::Scalar,
    depth_keys: scalar::depth_keys,
    block_pass: scalar::block_pass,
    block_powers: scalar::block_powers,
    row_spans: scalar::row_spans,
    span_powers: scalar::span_powers,
    alpha_powers: scalar::alpha_powers,
    blend_span: scalar::blend_span,
    sh_colors: scalar::sh_colors,
    box_muller: scalar::box_muller,
};

/// Best backend the current CPU supports, ignoring any override.
pub fn detected() -> Backend {
    if supported(Backend::Avx2) {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Whether the current process can execute kernels of backend `b`.
pub fn supported(b: Backend) -> bool {
    kernel_set(b).is_some()
}

/// All backends the current process can execute, scalar first.
pub fn available() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2]
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
        Backend::Avx2 if x86::avx2_available() => Some(&x86::AVX2),
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
// Test data: libm fills the kernels' inputs; the kernels run none.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::alpha::{ExpMode, PixelState, RowAlpha, PAD_POWER};

    /// The largest float below the exponential's input floor.
    const EXP_FLOOR_BELOW: f32 = f32::from_bits(gcc_math::exp::EXP_INPUT_MIN.to_bits() + 1);
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
        for b in [Backend::Scalar, Backend::Avx2] {
            assert_eq!(select(true, b), Backend::Scalar);
            assert_eq!(select(false, b), b);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_has_one_vector_table_and_it_replaces_every_scalar_twin() {
        let mut want = vec![Backend::Scalar];
        if x86::avx2_available() {
            want.push(Backend::Avx2);
        }
        assert_eq!(available(), want);
        let KernelSet {
            backend,
            depth_keys,
            block_pass,
            block_powers,
            row_spans,
            span_powers,
            alpha_powers,
            blend_span,
            sh_colors,
            box_muller,
        } = x86::AVX2;
        assert_eq!(backend, Backend::Avx2);
        use std::ptr::fn_addr_eq;
        let twins = [
            ("depth_keys", fn_addr_eq(depth_keys, SCALAR.depth_keys)),
            ("block_pass", fn_addr_eq(block_pass, SCALAR.block_pass)),
            (
                "block_powers",
                fn_addr_eq(block_powers, SCALAR.block_powers),
            ),
            ("row_spans", fn_addr_eq(row_spans, SCALAR.row_spans)),
            ("span_powers", fn_addr_eq(span_powers, SCALAR.span_powers)),
            (
                "alpha_powers",
                fn_addr_eq(alpha_powers, SCALAR.alpha_powers),
            ),
            ("blend_span", fn_addr_eq(blend_span, SCALAR.blend_span)),
            ("sh_colors", fn_addr_eq(sh_colors, SCALAR.sh_colors)),
            ("box_muller", fn_addr_eq(box_muller, SCALAR.box_muller)),
        ];
        for (kernel, is_scalar) in twins {
            assert!(
                !is_scalar,
                "the AVX2 table routes {kernel} to its scalar twin"
            );
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
            let test = EffectiveTest::new(p.mean2d, p.conic, p.ln_opacity);
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
        let test = EffectiveTest::new(p.mean2d, p.conic, p.ln_opacity);
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

    /// A projected Gaussian given by its conic, as the span kernels read
    /// it: mean, conic and `ln_opacity` only.
    fn conic_proj(mean: Vec2, (a, b, c): (f32, f32, f32), ln_opacity: f32) -> ProjectedGaussian {
        let conic = SymMat2::new(a, b, c);
        ProjectedGaussian {
            conic,
            ln_opacity,
            opacity: ln_opacity.exp(),
            ..proj(mean, SymMat2::new(1.0, 0.0, 1.0), 0.5)
        }
    }

    /// What the span kernels are swept over, finite inputs first: round
    /// and needle-thin conics, `det → 0`, a denormal and a non-positive
    /// `a` (the degenerate full span), `ln_opacity` from the `1/255`
    /// cutoff to above saturation, means on the tile, beside it and far
    /// off-screen, then seeded ones. `non_finite_span_cases` continues.
    fn span_cases() -> Vec<ProjectedGaussian> {
        let ln_min = ALPHA_MIN.ln();
        let mut cases = Vec::new();
        for mean in [
            Vec2::new(9.3, 7.1),
            Vec2::new(15.5, 16.5),
            Vec2::new(-13.7, 40.2),
            Vec2::new(1.0e6, -1.0e6),
            Vec2::new(-5000.25, 3.0),
        ] {
            for (conic, ln_opacity) in [
                ((0.25, 0.0, 0.25), -0.1),
                ((0.02, 0.0, 0.02), 0.0),
                ((0.004, 0.0, 3.0), -0.4),
                ((3.0, 0.0, 0.004), -0.4),
                ((1.2, 1.19, 1.2), -0.05),
                ((1.0, 0.999_999_9, 1.0), -0.2),
                ((1.0, 1.0, 1.0), -0.2),
                ((1.0e-40, 0.0, 0.5), -0.3),
                ((1.0e-40, 1.0e-20, 1.0e-40), -0.3),
                ((0.0, 0.0, 0.3), -0.3),
                ((-0.2, 0.1, 0.3), -0.3),
                ((0.3, 0.05, 0.2), ln_min),
                ((0.3, 0.05, 0.2), ln_min - 1.0e-3),
                ((0.3, 0.05, 0.2), ln_min + 1.0e-3),
                ((0.3, 0.05, 0.2), 0.3),
                ((40.0, -12.0, 9.0), -0.01),
            ] {
                cases.push(conic_proj(mean, conic, ln_opacity));
            }
        }
        let mut seed = 0x5EED_5BA2;
        for _ in 0..48 {
            let mut unit = || (splitmix(&mut seed) % 10_000) as f32 / 10_000.0;
            let (a, c) = (0.003 + 2.0 * unit() * unit(), 0.003 + 2.0 * unit() * unit());
            let b = (unit() - 0.5) * 1.98 * (a * c).sqrt();
            let mean = Vec2::new(unit() * 64.0 - 16.0, unit() * 64.0 - 16.0);
            cases.push(conic_proj(mean, (a, b, c), ln_min * unit()));
        }
        cases
    }

    /// Inputs projection never produces: the kernels must still agree on
    /// the spans and stay inside their tile.
    fn non_finite_span_cases() -> Vec<ProjectedGaussian> {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let mean = Vec2::new(9.3, 7.1);
        vec![
            conic_proj(mean, (nan, 0.0, 0.3), -0.2),
            conic_proj(mean, (inf, 0.0, 0.3), -0.2),
            conic_proj(mean, (0.3, nan, 0.3), -0.2),
            conic_proj(mean, (0.3, inf, 0.3), -0.2),
            conic_proj(mean, (0.3, 0.0, nan), -0.2),
            conic_proj(mean, (0.3, 0.0, -inf), -0.2),
            conic_proj(mean, (0.3, 0.05, 0.2), nan),
            conic_proj(mean, (0.3, 0.05, 0.2), inf),
            conic_proj(mean, (0.3, 0.05, 0.2), -inf),
            conic_proj(Vec2::new(nan, 7.1), (0.3, 0.05, 0.2), -0.2),
            conic_proj(Vec2::new(9.3, inf), (0.3, 0.05, 0.2), -0.2),
            conic_proj(Vec2::new(-inf, nan), (0.3, 0.05, 0.2), -0.2),
            conic_proj(Vec2::new(3.0e38, 7.1), (3.0e38, 0.0, 3.0e38), -0.2),
        ]
    }

    /// Block edges of the span sweeps; the rows of a tile are as many.
    const SPAN_BLOCKS: [i32; 4] = [8, 16, 24, 32];
    const SPAN_ORIGINS: [(i32, i32); 3] = [(0, 0), (-16, 32), (992, -2016)];
    /// Written around every buffer a kernel is handed a part of.
    const CANARY_I32: i32 = 0x5CA1_AB1E;

    /// Runs `kernel` on the middle of canary-framed buffers and returns
    /// the spans; the frame must come back intact.
    fn run_row_spans(
        kernel: RowSpansFn,
        walker: EffectiveSpanWalker,
        rows: usize,
    ) -> Vec<(i32, i32)> {
        let mut lo = vec![CANARY_I32; rows + 16];
        let mut hi = vec![CANARY_I32; rows + 16];
        kernel(walker, &mut lo[8..8 + rows], &mut hi[8..8 + rows]);
        for buf in [&lo, &hi] {
            assert!(buf[..8]
                .iter()
                .chain(&buf[8 + rows..])
                .all(|&v| v == CANARY_I32));
        }
        lo[8..8 + rows]
            .iter()
            .copied()
            .zip(hi[8..8 + rows].iter().copied())
            .collect()
    }

    #[test]
    fn row_spans_kernels_match_the_next_span_loop() {
        // Every clip window of a tile over all its rows, and every row
        // count from several first rows over a few windows; the
        // definition is the `next_span` loop itself.
        let (mut non_empty, mut clipped, mut full) = (0usize, 0usize, 0usize);
        let cases: Vec<_> = span_cases()
            .into_iter()
            .chain(non_finite_span_cases())
            .collect();
        for p in &cases {
            for block in SPAN_BLOCKS {
                for (ox, oy) in SPAN_ORIGINS {
                    let mut sweep = |x0: i32, x1: i32, y0: i32, rows: usize| {
                        let walker = EffectiveSpanWalker::new(p, x0, x1, y0);
                        let mut reference = walker;
                        let want: Vec<(i32, i32)> =
                            (0..rows).map(|_| reference.next_span()).collect();
                        for &(lo, hi) in &want {
                            assert!(
                                x0 <= lo && lo <= hi && hi <= x1,
                                "[{lo},{hi}) of [{x0},{x1})"
                            );
                            non_empty += usize::from(lo < hi);
                            clipped += usize::from(lo < hi && (lo > x0 || hi < x1));
                            full += usize::from(lo < hi && lo == x0 && hi == x1);
                        }
                        for b in available() {
                            let got = run_row_spans(kernel_set(b).unwrap().row_spans, walker, rows);
                            assert_eq!(
                                got, want,
                                "row_spans {b}: {p:?} window [{x0},{x1}) rows {y0}+{rows}"
                            );
                        }
                    };
                    for x0 in 0..block {
                        for x1 in x0 + 1..=block {
                            sweep(ox + x0, ox + x1, oy, block as usize);
                        }
                    }
                    for rows in 1..=block {
                        for y0 in [0, (block - rows) / 2, block - rows] {
                            sweep(ox, ox + block, oy + y0, rows as usize);
                            sweep(ox + 3, ox + block - 2, oy + y0, rows as usize);
                        }
                    }
                }
            }
        }
        assert!(non_empty > 100_000 && clipped > 10_000 && full > 10_000);
    }

    /// What a kernel finds in every lane it is handed or could overrun.
    const CANARY_F32: f32 = 12_345_678.0;

    /// The fill `span_powers` is defined by: from the first to the last
    /// non-empty row, the `RowAlpha` chain from the row's own first pixel
    /// and padding elsewhere; the rows around them untouched.
    fn reference_span_powers(
        p: &ProjectedGaussian,
        (x0, y0): (i32, i32),
        spans: &[(i32, i32)],
        row_lanes: usize,
    ) -> (Vec<f32>, std::ops::Range<usize>) {
        let live = |&(lo, hi): &(i32, i32)| lo < hi;
        let mut tile = vec![CANARY_F32; spans.len() * row_lanes];
        let Some(first) = spans.iter().position(live) else {
            return (tile, 0..0);
        };
        let end = spans.iter().rposition(live).unwrap() + 1;
        for row in first..end {
            let lanes = &mut tile[row * row_lanes..(row + 1) * row_lanes];
            lanes.fill(PAD_POWER);
            let (lo, hi) = spans[row];
            if lo < hi {
                let mut chain = RowAlpha::new(p, lo, y0 + row as i32);
                fill_powers(
                    &mut chain,
                    &mut lanes[(lo - x0) as usize..(hi - x0) as usize],
                );
            }
        }
        (tile, first * row_lanes..end * row_lanes)
    }

    /// Every backend's `span_powers` on `spans` against the reference
    /// fill: the returned range, its rows bit for bit (NaN for NaN when
    /// `finite` is off: which NaN an operation hands on is not pinned),
    /// nothing written before them or around the tile, and nothing but
    /// padding after them.
    fn assert_span_powers(
        p: &ProjectedGaussian,
        origin: (i32, i32),
        spans: &[(i32, i32)],
        row_lanes: usize,
        finite: bool,
    ) {
        let (want, want_range) = reference_span_powers(p, origin, spans, row_lanes);
        let (lo, hi): (Vec<i32>, Vec<i32>) = spans.iter().copied().unzip();
        for b in available() {
            let frame = 2 * row_lanes;
            let mut buf = vec![CANARY_F32; want.len() + 2 * frame];
            let got_range = (kernel_set(b).unwrap().span_powers)(
                p,
                origin,
                &lo,
                &hi,
                row_lanes,
                &mut buf[frame..frame + want.len()],
            );
            let what = format!("span_powers {b}: {p:?} origin {origin:?} spans {spans:?}");
            assert_eq!(got_range, want_range, "{what}");
            for (i, got) in buf.iter().enumerate() {
                let inside = (frame..frame + want.len()).contains(&i);
                let want = if inside { want[i - frame] } else { CANARY_F32 };
                let same = got.to_bits() == want.to_bits();
                let in_range = inside && want_range.contains(&(i - frame));
                let after = inside && i - frame >= want_range.end;
                assert!(
                    same || (in_range && !finite && got.is_nan() && want.is_nan())
                        || (after && got.to_bits() == PAD_POWER.to_bits()),
                    "{what}: lane {} of {row_lanes}-lane rows: {got} vs {want}",
                    i as isize - frame as isize
                );
            }
        }
    }

    #[test]
    fn span_powers_kernels_match_the_row_alpha_fill_on_solved_spans() {
        // The spans `row_spans` solves for each case: the whole tile, then
        // every row count from the top, the middle and the bottom.
        for (cases, finite) in [(span_cases(), true), (non_finite_span_cases(), false)] {
            for p in &cases {
                for block in SPAN_BLOCKS {
                    for (ox, oy) in SPAN_ORIGINS {
                        let solve = |x0: i32, x1: i32, y0: i32, rows: usize| {
                            run_row_spans(
                                SCALAR.row_spans,
                                EffectiveSpanWalker::new(p, x0, x1, y0),
                                rows,
                            )
                        };
                        let lanes = block as usize;
                        for rows in 1..=block {
                            for y0 in [0, (block - rows) / 2, block - rows] {
                                let spans = solve(ox, ox + block, oy + y0, rows as usize);
                                assert_span_powers(p, (ox, oy + y0), &spans, lanes, finite);
                            }
                        }
                        // A clipped window, in a tile with a group to spare.
                        let spans = solve(ox + 3, ox + block - 2, oy, lanes);
                        assert_span_powers(p, (ox, oy), &spans, lanes + BLEND_LANES, finite);
                    }
                }
            }
        }
    }

    #[test]
    fn span_powers_kernels_match_the_row_alpha_fill_on_any_span_pattern() {
        // Spans no solver would hand over, which the OBB intersection can:
        // every `[lo, hi)` of a row, all-empty pairs, one non-empty row
        // anywhere, an empty row between non-empty ones, inverted spans,
        // seeded mixes — for every row count, plus a row too wide for the
        // vector twins' staging (they hand it to the scalar twin).
        let cases = [
            conic_proj(Vec2::new(9.3, 7.1), (0.02, 0.004, 0.03), -0.1),
            conic_proj(Vec2::new(-40.0, 70.0), (0.3, -0.1, 0.2), -0.7),
        ];
        let mut seed = 0x5BA2_0002;
        for p in &cases {
            for block in SPAN_BLOCKS.into_iter().chain([40]) {
                let lanes = block as usize;
                let origin = (-5, 11);
                let local = |lo: i32, hi: i32| (origin.0 + lo, origin.0 + hi);
                // Every span of a row, dealt round-robin onto full tiles.
                let every: Vec<(i32, i32)> = (0..block)
                    .flat_map(|lo| (lo + 1..=block).map(move |hi| local(lo, hi)))
                    .collect();
                for spans in every.chunks(lanes) {
                    assert_span_powers(p, origin, spans, lanes, true);
                }
                for rows in 1..=lanes {
                    let empty = vec![local(3, 3); rows];
                    assert_span_powers(p, origin, &empty, lanes, true);
                    // Empty rows are `lo >= hi`, whatever the values.
                    let inverted = vec![(origin.0 + block + 9, origin.0 - 9); rows];
                    assert_span_powers(p, origin, &inverted, lanes, true);
                    for row in 0..rows {
                        let mut single = empty.clone();
                        single[row] = local(row as i32 % block, block);
                        assert_span_powers(p, origin, &single, lanes, true);
                        // A hole at `row` in an otherwise full pair.
                        let mut hole = vec![local(1, block - 1); rows];
                        hole[row] = local(5, 5);
                        assert_span_powers(p, origin, &hole, lanes, true);
                    }
                    for _ in 0..6 {
                        let spans: Vec<(i32, i32)> = (0..rows)
                            .map(|_| {
                                let pick = splitmix(&mut seed);
                                let lo = (pick % block as u64) as i32;
                                let len = ((pick >> 16) % (block - lo + 1) as u64) as i32;
                                // Two rows in five are empty.
                                if (pick >> 32) % 5 < 2 {
                                    local(lo, lo)
                                } else {
                                    local(lo, lo + len)
                                }
                            })
                            .collect();
                        assert_span_powers(p, origin, &spans, lanes, true);
                    }
                }
            }
        }
    }

    #[test]
    fn span_kernels_reject_ragged_shapes() {
        let p = conic_proj(Vec2::new(4.0, 4.0), (0.2, 0.01, 0.3), -0.2);
        for b in available() {
            let ks = kernel_set(b).unwrap();
            let ragged = std::panic::catch_unwind(|| {
                let walker = EffectiveSpanWalker::new(&p, 0, 16, 0);
                (ks.row_spans)(walker, &mut [0; 4], &mut [0; 5]);
            });
            assert!(ragged.is_err(), "{b} row_spans took 4 and 5 rows");
            // (lo, hi, row_lanes, tile lanes): a hi short, half a group per
            // row, a row short, a span left of its row, one right of it.
            for (lo, hi, row_lanes, lanes) in [
                (vec![2, 2], vec![5], 8usize, 16usize),
                (vec![2], vec![5], 12, 12),
                (vec![2, 2], vec![5, 5], 8, 8),
                (vec![-1], vec![5], 8, 8),
                (vec![2], vec![9], 8, 8),
            ] {
                let ragged = std::panic::catch_unwind(|| {
                    (ks.span_powers)(&p, (0, 0), &lo, &hi, row_lanes, &mut vec![0.0; lanes]);
                });
                assert!(
                    ragged.is_err(),
                    "{b} span_powers took {lo:?}..{hi:?} on {lanes} lanes by {row_lanes}"
                );
            }
        }
    }

    #[test]
    fn alpha_powers_dead_groups_come_out_as_the_clamp_chain_leaves_them() {
        // A lane group wholly below the exponential's input floor is
        // stored as `+0.0` without evaluation — bit for bit what the
        // clamps make of such lanes. Groups that are all padding, mixed,
        // and dead but for one lane that is live, saturated, `−0.0`,
        // exactly on the floor or NaN (which compares false and must take
        // the full path), at every position of the group.
        let below = [PAD_POWER, -5.6, f32::NEG_INFINITY, -1.0e30, EXP_FLOOR_BELOW];
        for len in [8usize, 16, 24, 19, 5] {
            for odd in [
                PAD_POWER,
                -2.5,
                0.0,
                -0.0,
                0.7,
                gcc_math::exp::EXP_INPUT_MIN,
                f32::NAN,
            ] {
                for at in 0..len {
                    let mut powers: Vec<f32> = (0..len).map(|i| below[i % below.len()]).collect();
                    powers[at] = odd;
                    let mut want = powers.clone();
                    (SCALAR.alpha_powers)(&mut want);
                    for b in available() {
                        let mut got = powers.clone();
                        (kernel_set(b).unwrap().alpha_powers)(&mut got);
                        let (got, want): (Vec<u32>, Vec<u32>) = got
                            .iter()
                            .zip(&want)
                            .map(|(g, w)| (g.to_bits(), w.to_bits()))
                            .unzip();
                        assert_eq!(got, want, "alpha_powers {b}: {odd} at {at} of {len}");
                    }
                }
            }
        }
        let mut dead = [PAD_POWER; 3 * BLEND_LANES];
        for b in available() {
            (kernel_set(b).unwrap().alpha_powers)(&mut dead);
            assert!(dead.iter().all(|a| a.to_bits() == 0), "{b}: not +0.0");
            dead.fill(PAD_POWER);
        }
    }

    #[test]
    fn the_scalar_table_holds_the_nine_scalar_twins() {
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
            ks.row_spans,
            scalar::row_spans as RowSpansFn
        ));
        assert!(std::ptr::fn_addr_eq(
            ks.span_powers,
            scalar::span_powers as SpanPowersFn
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
        assert!(std::ptr::fn_addr_eq(
            ks.box_muller,
            scalar::box_muller as BoxMullerFn
        ));
    }

    /// The scene builder's uniform lattice point `k · 2⁻²⁴`.
    fn lattice(k: u32) -> f32 {
        (k & 0x00ff_ffff) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Every backend's `box_muller` against the scalar twin, bit for bit.
    fn assert_box_muller(u1: &[f32], u2: &[f32]) {
        let mut want = vec![0.0f32; u1.len()];
        (SCALAR.box_muller)(u1, u2, &mut want);
        for b in available() {
            let mut got = vec![f32::NAN; u1.len()];
            (kernel_set(b).unwrap().box_muller)(u1, u2, &mut got);
            for i in 0..u1.len() {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "box_muller {b}: ({}, {}) at {i} of {}",
                    u1[i],
                    u2[i],
                    u1.len()
                );
            }
        }
    }

    /// The pairs the builder draws for lattice points `ks`: `u1` mapped
    /// onto `[1e-7, 1)`, `u2` the lattice point of an odd multiple of `k`
    /// so the two sweep independently.
    fn builder_pairs(ks: impl Iterator<Item = u32>) -> (Vec<f32>, Vec<f32>) {
        ks.map(|k| {
            let u1 = (1e-7 + lattice(k) * (1.0 - 1e-7)).min(1.0f32.next_down());
            (u1, lattice(k.wrapping_mul(0x9E37_79B1)))
        })
        .unzip()
    }

    #[test]
    fn box_muller_kernels_match_the_scalar_twin_at_every_length() {
        // Whole vectors, a ragged tail on either side of one, the SH
        // batch, the whole tail the builder evaluates, and the tail with
        // a ground point's height (53) or a cluster offset (55) after it.
        for len in [0usize, 1, 7, 8, 9, 48, 52, 53, 55] {
            for start in [0u32, 1, 4096, 0x00ff_fff0] {
                let (u1, u2) = builder_pairs((start..).take(len));
                assert_box_muller(&u1, &u2);
            }
        }
        // Off the builder's domain: zero, one, subnormals, the √½ split,
        // negative and non-finite inputs, in every lane position.
        let odd = [
            0.0,
            -0.0,
            1.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            std::f32::consts::FRAC_1_SQRT_2,
            -0.5,
            f32::INFINITY,
            f32::NAN,
            3.5,
        ];
        let (base1, base2) = builder_pairs(0..13);
        for &v in &odd {
            for at in 0..base1.len() {
                let mut u1 = base1.clone();
                u1[at] = v;
                assert_box_muller(&u1, &base2);
                let mut u2 = base2.clone();
                u2[at] = if v.is_finite() { v * 100.0 } else { 0.25 };
                assert_box_muller(&base1, &u2);
            }
        }
    }

    #[test]
    #[ignore = "every lattice point: run in release"]
    fn box_muller_kernels_match_the_scalar_twin_on_the_whole_lattice() {
        const CHUNK: u32 = 1 << 16;
        for start in (0..1u32 << 24).step_by(CHUNK as usize) {
            let (u1, u2) = builder_pairs(start..start + CHUNK);
            assert_box_muller(&u1, &u2);
            // The raw lattice as u1, zero included.
            let raw: Vec<f32> = (start..start + CHUNK).map(lattice).collect();
            assert_box_muller(&raw, &u2);
        }
    }

    #[test]
    fn box_muller_kernels_reject_ragged_slices() {
        for b in available() {
            let ks = kernel_set(b).unwrap();
            let ragged = std::panic::catch_unwind(|| {
                (ks.box_muller)(&[0.5; 8], &[0.5; 9], &mut [0.0; 8]);
            });
            assert!(ragged.is_err(), "{b} box_muller took 8, 9 and 8");
        }
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
