//! Deterministic scene synthesis from preset parameters.
//!
//! Layout recipes per [`SceneKind`]:
//!
//! * `Object` — cluster centers inside a ball; the camera orbits outside,
//!   so the whole object stays in frustum (synthetic captures).
//! * `Outdoor` — a ground-plane sector, subject clusters and a distant
//!   background shell, angularly concentrated around the scanned
//!   direction; the camera stands at the sector's base (Tanks & Temples).
//! * `Indoor` — a wall shell plus furniture clusters inside a room; the
//!   camera stands inside (Deep Blending).
//!
//! Angular concentration uses a truncated normal on the azimuth so the
//! in-frustum fraction lands in the range the paper reports, and the
//! opacity mixture (low tail / mid band / opaque mode) reproduces the
//! effective-vs-bounding-box footprint gap of Fig. 4 / Table 1.

use crate::preset::{PresetParams, SceneKind};
use crate::rng::{in_range, Jump, StdRng};
use crate::scene::{Scene, SceneConfig};
use crate::trajectory::OrbitRig;
use gcc_core::{Gaussian3D, SH_COEFFS_PER_CHANNEL, SH_FLOATS};
use gcc_math::{det_exp, det_ln, det_sin_cos, Quat, Vec3};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Mutex;

/// Rough cost of synthesizing one Gaussian on one thread, for
/// [`gcc_parallel::worthwhile_threads`]' floor. Priced on the host the
/// other floors were (Lego@0.5, 17 000 Gaussians, took 14.4 ms at
/// 800 ns while every normal called libm); the batched tail took that
/// to 400 ns, and batching the position's normals with it to 320 ns.
/// Filling a block stage by stage behind a scout that jumps the tails
/// takes a one-thread build to about 0.82× of that one (the median ratio
/// over the six presets at scale 0.5 and four interleaved rounds on one
/// 2-vCPU AVX2 host; single rounds read 0.62–1.30).
const GAUSSIAN_NS: u32 = 260;

/// Gaussians per block the scout hands the fillers.
const BLOCK: usize = 128;

/// Blocks the scout may run ahead of the fillers before it fills the block
/// in its hands itself: enough that a filler never finds the queue empty
/// while the scout is busy filling, few enough that the heads in flight
/// (72 bytes each with their generator states: 16 × 128 of them are
/// 144 KiB) stay in cache.
const BLOCKS_AHEAD: usize = 16;

/// Normals of a Gaussian's tail: four of its scale
/// ([`scale_exponents`]), then one per SH coefficient ([`SH_SIGMA`]).
const TAIL_NORMALS: usize = 4 + SH_FLOATS;

/// Draws the tail of a Gaussian consumes, whatever the [`SceneKind`]: two
/// per normal and the three uniforms of its [`rotation`].
pub(crate) const TAIL_DRAWS: usize = 2 * TAIL_NORMALS + 3;

/// The scout's step over a tail it does not draw.
pub(crate) static TAIL_JUMP: Jump = Jump::over(TAIL_DRAWS);

/// The first of the rotation's three draws in a tail: after the four
/// scale pairs.
const ROTATION_DRAW: usize = 8;

/// Where tail normal `j`'s Box–Muller pair sits among the tail's draws:
/// `u1` at this index, `u2` after it — the four scale pairs, the
/// rotation's three draws, then the SH pairs.
const fn pair_draw(j: usize) -> usize {
    if j < 4 {
        2 * j
    } else {
        2 * j + 3
    }
}

/// Builds a scene from preset parameters and a config, on up to `threads`
/// threads. Any thread count builds the same scene, bit for bit.
///
/// The scene is a function of one PRNG stream, and the stream is
/// sequential. But a Gaussian's tail — [`TAIL_DRAWS`] draws whatever the
/// scene — decides no draw count, and the state after it is a linear map
/// of the state before it. So the calling thread is a *scout*: it draws
/// each Gaussian's head ([`draw_head`]: position and opacity, the draws
/// whose count depends on their values among them), evaluates only what
/// decides which draws come next (the role draw, the azimuth loops), keeps
/// the generator's state where the tail starts, and jumps over the tail
/// ([`TAIL_JUMP`]: 64 table lookups, not 107 steps). *Fillers* take blocks
/// of heads as the scout publishes them and fill each block stage by stage
/// ([`fill_block`]); the scout fills a block itself whenever it is
/// [`BLOCKS_AHEAD`], and joins the fillers when the stream ends. One
/// thread, or a scene too small to be worth a second, runs the same
/// pipeline with no filler: the scout fills each block as it scouts it.
pub fn build_scene(params: &PresetParams, config: &SceneConfig, threads: usize) -> Scene {
    let seed = config.seed.unwrap_or(params.seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let count = ((params.base_count as f32 * config.scale) as usize).max(16);

    let clusters = sample_cluster_centers(params, &mut rng);
    let threads = gcc_parallel::worthwhile_threads(threads, count, GAUSSIAN_NS);
    let mut gaussians = vec![Gaussian3D::default(); count];
    scout_and_fill(
        &mut gaussians,
        threads,
        rng,
        |rng| draw_head(params, clusters.len(), rng),
        |block, heads, tails| fill_block(params, &clusters, block, heads, tails),
    );

    Scene {
        name: params.name.to_string(),
        gaussians,
        resolution: params.resolution,
        fov_y_deg: params.fov_y_deg,
        rig: camera_rig(params),
        lod: None,
    }
}

/// The pipeline of [`build_scene`]: the caller scouts `rng`'s stream for
/// `out.len()` Gaussians with `head`, and it and up to `threads - 1`
/// parked helpers ([`gcc_parallel::run`]) `fill` them in, a block at a
/// time, from the block's heads and the generator states its tails start
/// from.
fn scout_and_fill(
    out: &mut [Gaussian3D],
    threads: usize,
    mut rng: StdRng,
    mut head: impl FnMut(&mut StdRng) -> Head,
    fill: impl Fn(&mut [Gaussian3D], &[Head], &mut [[u64; 4]]) + Sync,
) {
    type Job<'a> = (&'a mut [Gaussian3D], Vec<Head>, Vec<[u64; 4]>);
    let fill = |(block, heads, mut tails): Job<'_>| fill(block, &heads, &mut tails);
    // With no filler to hand a block to, a queue of none: every block is
    // filled while its heads are still in cache.
    let ahead = if threads > 1 { BLOCKS_AHEAD } else { 0 };
    let (publish, published) = sync_channel::<Job<'_>>(ahead);
    let published = Mutex::new(published);
    // `None` once the scout has hung up and the queue is drained. Only a
    // thread with nothing else to do waits here, lock in hand.
    let next = || {
        let queue = published
            .lock()
            .expect("nothing panics with the queue in hand");
        queue.recv().ok()
    };
    let drain = || {
        while let Some(job) = next() {
            fill(job);
        }
    };
    // The scout owns `publish`: however its share ends, a return or a
    // panic, the hang-up releases every filler waiting in `next`.
    gcc_parallel::run(threads - 1, &drain, || {
        for block in out.chunks_mut(BLOCK) {
            let mut heads = Vec::with_capacity(block.len());
            let mut tails = Vec::with_capacity(block.len());
            for _ in 0..block.len() {
                heads.push(head(&mut rng));
                tails.push(rng.state());
                rng.jump(&TAIL_JUMP);
            }
            match publish.try_send((block, heads, tails)) {
                Ok(()) => {}
                Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => fill(job),
            }
        }
        drop(publish);
        drain();
    });
}

/// Gaussians [`fill_block`] runs each stage over at once: a multiple of
/// the eight generators the AVX2 draw kernel steps together, and few
/// enough that one draw or one normal of all of them is one cache line
/// (16 floats), so a Gaussian's 52 normals sit in 52 lines of distinct L1
/// sets when it is evaluated.
const STAGE: usize = 16;

/// Normals [`fill_block`] evaluates per Gaussian in one
/// [`KernelSet::box_muller`] call: the tail's, then the position's.
///
/// [`KernelSet::box_muller`]: gcc_core::dispatch::KernelSet
const BATCH: usize = TAIL_NORMALS + PLACE_NORMALS;

/// Fills `block` from its scouted `heads` and the generator states
/// `tails` their tails start from, [`STAGE`] Gaussians at a time, one
/// stage over all of them after another: every tail's [`TAIL_DRAWS`]
/// draws ([`KernelSet::draw_uniforms`]), their mapping onto Box–Muller
/// pairs, the tails' and the positions' normals in one
/// [`KernelSet::box_muller`] call, then each Gaussian from its column of
/// what those stages left.
///
/// [`KernelSet::draw_uniforms`]: gcc_core::dispatch::KernelSet
/// [`KernelSet::box_muller`]: gcc_core::dispatch::KernelSet
fn fill_block(
    params: &PresetParams,
    clusters: &[Cluster],
    block: &mut [Gaussian3D],
    heads: &[Head],
    tails: &mut [[u64; 4]],
) {
    let kernels = gcc_core::dispatch::active();
    // Row-major, a row per draw or normal and a column per Gaussian: the
    // tail's normals first, then the positions' at three per Gaussian.
    let mut draws = [0.0f32; TAIL_DRAWS * STAGE];
    let (mut u1, mut u2) = ([0.0f32; BATCH * STAGE], [0.0f32; BATCH * STAGE]);
    let mut normals = [0.0f32; BATCH * STAGE];
    let mut exps = [0.0f32; 4 * STAGE];
    let (mut angles, mut sin, mut cos) = ([0.0f32; 2 * STAGE], [0.0; 2 * STAGE], [0.0; 2 * STAGE]);
    let stages = block.chunks_mut(STAGE).zip(heads.chunks(STAGE));
    for ((block, heads), tails) in stages.zip(tails.chunks_mut(STAGE)) {
        let n = block.len();
        let draws = &mut draws[..TAIL_DRAWS * n];
        (kernels.draw_uniforms)(tails, draws);
        let (u1, u2) = (&mut u1[..BATCH * n], &mut u2[..BATCH * n]);
        let pairs = u1.chunks_exact_mut(n).zip(u2.chunks_exact_mut(n));
        for (j, (u1, u2)) in pairs.take(TAIL_NORMALS).enumerate() {
            let (a, b) = draws[pair_draw(j) * n..][..2 * n].split_at(n);
            for (((u1, u2), &a), &b) in u1.iter_mut().zip(u2.iter_mut()).zip(a).zip(b) {
                (*u1, *u2) = normal_pair(a, b);
            }
        }
        // A slot a position leaves is `(1, 0)`: a normal of 0 nothing
        // reads.
        let place1 = u1[TAIL_NORMALS * n..].chunks_exact_mut(PLACE_NORMALS);
        let place2 = u2[TAIL_NORMALS * n..].chunks_exact_mut(PLACE_NORMALS);
        for ((head, u1), u2) in heads.iter().zip(place1).zip(place2) {
            u1.fill(1.0);
            u2.fill(0.0);
            head.place.pairs(u1, u2);
        }
        let normals = &mut normals[..BATCH * n];
        (kernels.box_muller)(u1, u2, normals);
        let (tail, place) = normals.split_at(TAIL_NORMALS * n);
        // The SH coefficients straight into their slots, one coefficient
        // of every Gaussian at a time.
        let sh = tail[4 * n..].chunks_exact(n).zip(SH_SIGMA);
        for (k, (row, sigma)) in sh.enumerate() {
            for (slot, &normal) in block.iter_mut().zip(row) {
                slot.sh[k] = normal * sigma;
            }
        }
        // The scale's four exponentials, a row each.
        let exps = &mut exps[..4 * n];
        for g in 0..n {
            let normals = std::array::from_fn(|j| tail[j * n + g]);
            for (j, e) in scale_exponents(params, normals).into_iter().enumerate() {
                exps[j * n + g] = e;
            }
        }
        (kernels.exp)(exps);
        // The rotation's two angles, a row each.
        let (angles, sin, cos) = (&mut angles[..2 * n], &mut sin[..2 * n], &mut cos[..2 * n]);
        let turns = &draws[(ROTATION_DRAW + 1) * n..][..2 * n];
        for (angle, &turn) in angles.iter_mut().zip(turns) {
            *angle = turn * std::f32::consts::TAU;
        }
        (kernels.sin_cos)(angles, sin, cos);
        let places = place.chunks_exact(PLACE_NORMALS);
        for (g, ((slot, head), place)) in block.iter_mut().zip(heads).zip(places).enumerate() {
            let (position, opacity, size_mul) = head.evaluate(params, clusters, place);
            let angle = |a: usize| (sin[a * n + g], cos[a * n + g]);
            *slot = Gaussian3D::new(
                position,
                scale(size_mul, std::array::from_fn(|j| exps[j * n + g])),
                rotation(draws[ROTATION_DRAW * n + g], angle(0), angle(1)),
                opacity,
                slot.sh,
            );
        }
    }
}

/// Azimuth (radians) from a truncated normal with σ = half-angle/2,
/// clipped at ±half-angle — the angular concentration knob.
fn sample_azimuth(params: &PresetParams, rng: &mut StdRng) -> f32 {
    let half = params.sector_half_angle_deg.to_radians();
    let sigma = half * 0.5;
    for _ in 0..16 {
        let theta = normal(rng) * sigma;
        if theta.abs() <= half {
            return theta;
        }
    }
    rng.gen_range(-half..half)
}

/// The Box–Muller pair of one normal, `u1` on `[1e-7, 1)`, `u2` on
/// `[0, 1)`.
#[inline(always)]
fn normal_draws(rng: &mut StdRng) -> (f32, f32) {
    let u1 = rng.gen();
    normal_pair(u1, rng.gen())
}

/// [`normal_draws`]' pair from its two uniforms ([`StdRng::gen`]'s):
/// each mapped onto its range as [`StdRng::gen_range`] maps it.
#[inline(always)]
fn normal_pair(u1: f32, u2: f32) -> (f32, f32) {
    (in_range(1e-7..1.0, u1), in_range(0.0..1.0, u2))
}

/// Standard normal via Box–Muller: the element the tail's batched
/// [`KernelSet::box_muller`](gcc_core::dispatch::KernelSet) evaluates.
fn normal(rng: &mut StdRng) -> f32 {
    let (u1, u2) = normal_draws(rng);
    gcc_core::dispatch::box_muller_one(u1, u2)
}

/// `(dist·cos θ, y, dist·sin θ)`: a point at azimuth `theta`.
fn at_azimuth(dist: f32, y: f32, theta: f32) -> Vec3 {
    let (sin, cos) = det_sin_cos(theta);
    Vec3::new(dist * cos, y, dist * sin)
}

/// A cluster is a surface patch: a center plus a normal along which the
/// patch is squashed (real scenes are dominated by surfaces, which is what
/// lets early termination form clean occlusion fronts).
#[derive(Debug, Clone, Copy)]
struct Cluster {
    center: Vec3,
    normal: Vec3,
}

fn sample_cluster_centers(params: &PresetParams, rng: &mut StdRng) -> Vec<Cluster> {
    let centers = sample_cluster_positions(params, rng);
    centers
        .into_iter()
        .map(|center| {
            let normal = loop {
                let n = Vec3::new(normal_dir(rng), normal_dir(rng), normal_dir(rng));
                if n.norm_sq() > 1e-6 {
                    break n.normalized();
                }
            };
            Cluster { center, normal }
        })
        .collect()
}

fn normal_dir(rng: &mut StdRng) -> f32 {
    normal(rng)
}

fn sample_cluster_positions(params: &PresetParams, rng: &mut StdRng) -> Vec<Vec3> {
    let r = params.world_radius;
    (0..params.cluster_count)
        .map(|_| match params.kind {
            SceneKind::Object => {
                // Uniform in a ball of 0.8·R.
                loop {
                    let p = Vec3::new(
                        rng.gen_range(-1.0..1.0f32),
                        rng.gen_range(-1.0..1.0f32),
                        rng.gen_range(-1.0..1.0f32),
                    );
                    if p.norm_sq() <= 1.0 {
                        break p * (0.8 * r);
                    }
                }
            }
            SceneKind::Outdoor => {
                let theta = sample_azimuth(params, rng);
                let dist = r * rng.gen_range(0.15f32..1.0).sqrt();
                at_azimuth(dist, rng.gen_range(0.0..0.30f32) * r, theta)
            }
            SceneKind::Indoor => {
                let theta = sample_azimuth(params, rng);
                let dist = r * rng.gen_range(0.25f32..0.9);
                at_azimuth(dist, rng.gen_range(0.0..0.40f32) * r, theta)
            }
        })
        .collect()
}

/// Where a Gaussian sits, as the scout reads it off the stream: the mapped
/// draws of its position, evaluated by the filler. Backdrops (sky shells,
/// room walls) are forced reasonably opaque so every view ray eventually
/// terminates, as in fully reconstructed captures.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Part of the surface patch of `clusters[cluster]`: the Box–Muller
    /// pairs of the in-patch offset's three normals.
    Surface {
        cluster: u32,
        u1: [f32; 3],
        u2: [f32; 3],
    },
    /// Ground-plane point (outdoor) at azimuth `theta` and distance
    /// `dist`: the Box–Muller pair of its height's normal.
    Ground {
        theta: f32,
        dist: f32,
        u1: f32,
        u2: f32,
    },
    /// Distant shell / wall point closing off the view, at `(dist, y)` and
    /// azimuth `theta`, at least `floor` opaque (drawn after the opacity,
    /// by [`draw_head`]).
    Backdrop {
        theta: f32,
        dist: f32,
        y: f32,
        floor: f32,
    },
}

/// Normals a position adds to its Gaussian's batch, at most: a
/// [`Place::Surface`] offset's.
const PLACE_NORMALS: usize = 3;

fn draw_place(params: &PresetParams, clusters: usize, rng: &mut StdRng) -> Place {
    let r = params.world_radius;
    let surface = |rng: &mut StdRng| {
        let cluster = rng.gen_range(0..clusters) as u32;
        let (mut u1, mut u2) = ([0.0; 3], [0.0; 3]);
        for i in 0..3 {
            (u1[i], u2[i]) = normal_draws(rng);
        }
        Place::Surface { cluster, u1, u2 }
    };
    match params.kind {
        SceneKind::Object => surface(rng),
        SceneKind::Outdoor => {
            let u: f32 = rng.gen();
            if u < 0.22 {
                // Ground-plane sector.
                let theta = sample_azimuth(params, rng);
                let dist = r * rng.gen_range(0.1f32..1.0);
                let (u1, u2) = normal_draws(rng);
                Place::Ground {
                    theta,
                    dist,
                    u1,
                    u2,
                }
            } else if u < 0.80 {
                surface(rng)
            } else {
                // Distant backdrop shell (buildings / tree line / sky).
                let theta = sample_azimuth(params, rng) * 1.4;
                let dist = r * rng.gen_range(0.9f32..1.3);
                let y = rng.gen_range(0.0..0.75f32) * r;
                Place::Backdrop {
                    theta,
                    dist,
                    y,
                    floor: 0.0,
                }
            }
        }
        SceneKind::Indoor => {
            let u: f32 = rng.gen();
            if u < 0.30 {
                // Wall shell: fixed radius, any height of the room.
                let theta = sample_azimuth(params, rng) * 1.2;
                let y = rng.gen_range(0.0..0.6f32) * r;
                Place::Backdrop {
                    theta,
                    dist: r,
                    y,
                    floor: 0.0,
                }
            } else {
                surface(rng)
            }
        }
    }
}

impl Place {
    /// Writes the Box–Muller pairs of the position's normals to the front
    /// of `u1` and `u2`; returns how many.
    #[inline(always)]
    fn pairs(&self, u1: &mut [f32], u2: &mut [f32]) -> usize {
        match *self {
            Place::Surface { u1: a, u2: b, .. } => {
                u1[..3].copy_from_slice(&a);
                u2[..3].copy_from_slice(&b);
                3
            }
            Place::Ground { u1: a, u2: b, .. } => {
                (u1[0], u2[0]) = (a, b);
                1
            }
            Place::Backdrop { .. } => 0,
        }
    }

    /// The position, from the normals of [`Place::pairs`].
    #[inline(always)]
    fn position(&self, params: &PresetParams, clusters: &[Cluster], normals: &[f32]) -> Vec3 {
        let r = params.world_radius;
        match *self {
            Place::Surface { cluster, .. } => {
                let c = clusters[cluster as usize];
                let spread = params.cluster_sigma * r;
                // In-patch offset, squashed to 15% along the surface normal.
                let off = Vec3::new(
                    normals[0] * spread,
                    normals[1] * spread,
                    normals[2] * spread,
                );
                let along = c.normal * off.dot(c.normal);
                c.center + (off - along) + along * 0.15
            }
            Place::Ground { theta, dist, .. } => at_azimuth(dist, normals[0] * 0.015 * r, theta),
            Place::Backdrop { theta, dist, y, .. } => at_azimuth(dist, y, theta),
        }
    }
}

/// The opacity mixture's draws: the branch, and the one draw of the
/// branch it picked.
#[derive(Debug, Clone, Copy)]
enum Opacity {
    /// Near-transparent tail: `x` on `[0, 1)`.
    Low(f32),
    /// Mid band: the opacity itself.
    Mid(f32),
    /// Opaque mode: `t` on `[0, 1)`.
    Opaque(f32),
}

fn draw_opacity(params: &PresetParams, rng: &mut StdRng) -> Opacity {
    let u: f32 = rng.gen();
    if u < params.opacity_low_frac {
        Opacity::Low(rng.gen())
    } else if u < params.opacity_low_frac + params.opacity_mid_frac {
        Opacity::Mid(rng.gen_range(0.08..0.6f32))
    } else {
        Opacity::Opaque(rng.gen())
    }
}

impl Opacity {
    #[inline(always)]
    fn value(self) -> f32 {
        match self {
            Opacity::Low(x) => {
                // Skewed low: t = x^1.8.
                let t = if x == 0.0 {
                    0.0
                } else {
                    det_exp(1.8 * det_ln(x))
                };
                0.004 + t * (0.045 - 0.004)
            }
            Opacity::Mid(w) => w,
            // Skewed toward 1.
            Opacity::Opaque(t) => 0.6 + 0.4 * t.sqrt(),
        }
    }
}

/// The exponents of a Gaussian's scale, from its four scale normals: its
/// base size's, then its three axes' factors.
#[inline(always)]
fn scale_exponents(params: &PresetParams, normals: [f32; 4]) -> [f32; 4] {
    [
        params.log_scale_mean + params.log_scale_sigma * normals[0],
        0.35 * normals[1],
        0.35 * normals[2],
        -1.7 + 0.5 * normals[3],
    ]
}

/// The scale from the exponentials of [`scale_exponents`].
#[inline(always)]
fn scale(size_mul: f32, [base, x, y, z]: [f32; 4]) -> Vec3 {
    let base = size_mul * base;
    // Trained 3DGS splats are strongly surfel-like: two comparable in-plane
    // axes and one much thinner normal axis (ratio ~5-6× on average). The
    // thin axis makes the projected ellipses elongated, which is what makes
    // OBBs ~3× tighter than AABBs (paper Table 1).
    Vec3::new(base * x, base * y, base * z)
}

/// A uniform random rotation (Shoemake) from `u` on `[0, 1)` and the sine
/// and cosine of two uniform angles.
#[inline(always)]
fn rotation(u: f32, (sin2, cos2): (f32, f32), (sin3, cos3): (f32, f32)) -> Quat {
    let a = (1.0 - u).sqrt();
    let b = u.sqrt();
    Quat::new(a * sin2, a * cos2, b * sin3, b * cos3)
}

/// The spread of each SH coefficient's normal, channel-major: the DC
/// term's, then decaying view-dependent detail per degree.
const SH_SIGMA: [f32; SH_FLOATS] = {
    let mut sigma = [0.0f32; SH_FLOATS];
    let mut k = 0;
    while k < SH_FLOATS {
        let coeff = k % SH_COEFFS_PER_CHANNEL;
        sigma[k] = match coeff {
            // DC: colors spread around 0.5 after the +0.5 offset of Eq. 2.
            0 => 0.55,
            // Degree l of 1–3 holds coefficients l²..(l + 1)².
            1..4 => 0.15,
            4..9 => 0.15 / 4.0,
            _ => 0.15 / 9.0,
        };
        k += 1;
    }
    sigma
};

/// What the scout reads off the stream for one Gaussian: its head's draws,
/// mapped, for the filler to evaluate ([`Head::evaluate`]).
#[derive(Debug, Clone, Copy)]
struct Head {
    place: Place,
    opacity: Opacity,
}

/// Draws a Gaussian's head — its position, its opacity and a backdrop's
/// opacity floor. Of what is computed from these draws it evaluates only
/// what decides the draws that follow: the role draw and the azimuth
/// loops (an Object scene's head has neither).
#[inline(always)]
fn draw_head(params: &PresetParams, clusters: usize, rng: &mut StdRng) -> Head {
    let mut place = draw_place(params, clusters, rng);
    let opacity = draw_opacity(params, rng);
    if let Place::Backdrop { floor, .. } = &mut place {
        // Backdrops close off every view ray: force them reasonably opaque
        // (a fully trained capture has no see-through sky or walls).
        *floor = rng.gen_range(0.6..1.0f32);
    }
    Head { place, opacity }
}

impl Head {
    /// Position, opacity and size multiplier, from the normals of
    /// [`Place::pairs`].
    #[inline(always)]
    fn evaluate(
        &self,
        params: &PresetParams,
        clusters: &[Cluster],
        normals: &[f32],
    ) -> (Vec3, f32, f32) {
        let mut opacity = self.opacity.value();
        if let Place::Backdrop { floor, .. } = self.place {
            opacity = opacity.max(floor);
        }
        // Trained models pair near-transparent splats with large spatial
        // support (fog/fill Gaussians): their 3σ bounding boxes are huge
        // while their α ≥ 1/255 region is tiny — the Table 1 / Fig. 4 gap.
        let size_mul = match self.place {
            _ if opacity < 0.045 => 1.75,
            Place::Backdrop { .. } => 1.2,
            _ => 0.8,
        };
        (
            self.place.position(params, clusters, normals),
            opacity,
            size_mul,
        )
    }
}

fn camera_rig(params: &PresetParams) -> OrbitRig {
    let r = params.world_radius;
    match params.kind {
        SceneKind::Object => OrbitRig {
            center: Vec3::ZERO,
            look_at: Vec3::ZERO,
            radius: params.camera_distance * r,
            height: 0.38 * r,
            arc: 1.0,
            phase: 0.0,
        },
        SceneKind::Outdoor | SceneKind::Indoor => OrbitRig {
            // Eye stands at the sector base (−X of the content), looking
            // into the scanned direction.
            center: Vec3::new(0.0, 0.14 * r, 0.0),
            look_at: Vec3::new(0.45 * r, 0.10 * r, 0.0),
            radius: params.camera_distance * r,
            height: 0.0,
            arc: 0.08,
            phase: std::f32::consts::PI,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenePreset, ALL_PRESETS};

    // The fused loop the library ran before the block fill: each Gaussian
    // drawn and evaluated whole on the one generator, its normals in one
    // Box–Muller call of their own. The reference every build is pinned
    // against.

    /// The uniforms of a Gaussian's tail, each mapped as it is drawn: the
    /// Box–Muller pairs of its normals — the first [`TAIL_NORMALS`] of `u1`
    /// and `u2`, the rest left for the position's — and the three of its
    /// rotation.
    struct TailDraws {
        u1: [f32; BATCH],
        u2: [f32; BATCH],
        rotation: [f32; 3],
    }

    /// Draws a Gaussian's tail: exactly [`TAIL_DRAWS`] draws of `rng`, in
    /// the order the tail consumes them — the four scale pairs, the
    /// rotation, then the SH pairs.
    fn draw_tail(rng: &mut StdRng) -> TailDraws {
        let mut draws = TailDraws {
            u1: [0.0; BATCH],
            u2: [0.0; BATCH],
            rotation: [0.0; 3],
        };
        let mut pair = |i: usize, rng: &mut StdRng| {
            (draws.u1[i], draws.u2[i]) = normal_draws(rng);
        };
        for i in 0..4 {
            pair(i, rng);
        }
        let rotation = [
            rng.gen::<f32>(),
            rng.gen::<f32>() * std::f32::consts::TAU,
            rng.gen::<f32>() * std::f32::consts::TAU,
        ];
        for i in 4..TAIL_NORMALS {
            pair(i, rng);
        }
        draws.rotation = rotation;
        draws
    }

    fn sample_scale(params: &PresetParams, size_mul: f32, normals: &[f32; 4]) -> Vec3 {
        let base = size_mul * det_exp(params.log_scale_mean + params.log_scale_sigma * normals[0]);
        // Trained 3DGS splats are strongly surfel-like: two comparable in-plane
        // axes and one much thinner normal axis (ratio ~5-6× on average). The
        // thin axis makes the projected ellipses elongated, which is what makes
        // OBBs ~3× tighter than AABBs (paper Table 1).
        Vec3::new(
            base * det_exp(0.35 * normals[1]),
            base * det_exp(0.35 * normals[2]),
            base * det_exp(-1.7 + 0.5 * normals[3]),
        )
    }

    fn sample_rotation([u1, u2, u3]: [f32; 3]) -> Quat {
        // Uniform random rotation (Shoemake): u1 on [0, 1), u2 and u3 angles.
        let a = (1.0 - u1).sqrt();
        let b = u1.sqrt();
        let (sin2, cos2) = det_sin_cos(u2);
        let (sin3, cos3) = det_sin_cos(u3);
        Quat::new(a * sin2, a * cos2, b * sin3, b * cos3)
    }

    /// Head and tail on one generator: the whole Gaussian.
    fn sample_gaussian(
        params: &PresetParams,
        clusters: &[Cluster],
        rng: &mut StdRng,
    ) -> Gaussian3D {
        let head = draw_head(params, clusters.len(), rng);
        sample_tail(params, clusters, &head, rng)
    }

    /// The rest of the Gaussian `head` starts: exactly [`TAIL_DRAWS`] draws
    /// of `rng`. They are all drawn first ([`draw_tail`]), then the tail's
    /// and the position's normals are evaluated as one batch, then the
    /// Gaussian from them: no draw waits on an evaluation, and no evaluation
    /// on the serial generator.
    fn sample_tail(
        params: &PresetParams,
        clusters: &[Cluster],
        head: &Head,
        rng: &mut StdRng,
    ) -> Gaussian3D {
        let mut draws = draw_tail(rng);
        let (u1, u2) = (&mut draws.u1, &mut draws.u2);
        let len = TAIL_NORMALS
            + head
                .place
                .pairs(&mut u1[TAIL_NORMALS..], &mut u2[TAIL_NORMALS..]);
        let mut normals = [0.0f32; BATCH];
        (gcc_core::dispatch::active().box_muller)(&u1[..len], &u2[..len], &mut normals[..len]);
        let (scale, rest) = normals.split_at(4);
        let (sh, place) = rest.split_at(SH_FLOATS);
        let (position, opacity, size_mul) = head.evaluate(params, clusters, place);
        Gaussian3D::new(
            position,
            sample_scale(params, size_mul, scale.try_into().expect("four")),
            sample_rotation(draws.rotation),
            opacity,
            sample_sh(sh.try_into().expect("one per coefficient")),
        )
    }

    fn sample_sh(normals: &[f32; SH_FLOATS]) -> [f32; SH_FLOATS] {
        let mut sh = [0.0f32; SH_FLOATS];
        for c in 0..3 {
            let base = c * SH_COEFFS_PER_CHANNEL;
            // DC: colors spread around 0.5 after the +0.5 offset of Eq. 2.
            sh[base] = normals[base] * 0.55;
            // Degree 1–3: decaying view-dependent detail.
            for l in 1..=3usize {
                let sigma = 0.15 / (l * l) as f32;
                let start = l * l;
                let end = (l + 1) * (l + 1);
                for k in start..end {
                    sh[base + k] = normals[base + k] * sigma;
                }
            }
        }
        sh
    }

    #[test]
    fn the_tail_of_a_gaussian_is_exactly_tail_draws_for_every_scene_kind() {
        // What lets the scout step over a tail it does not evaluate. An
        // edit to a tail sampler that changes its draw count fails here.
        // Six presets, all three kinds; 200 Gaussians take every branch
        // of `draw_place` and `draw_opacity`.
        for preset in ALL_PRESETS {
            let params = preset.params();
            let mut rng = StdRng::seed_from_u64(params.seed);
            let clusters = sample_cluster_centers(&params, &mut rng);
            for _ in 0..200 {
                let head = draw_head(&params, clusters.len(), &mut rng);
                let mut stepped = rng.clone();
                stepped.advance(TAIL_DRAWS);
                sample_tail(&params, &clusters, &head, &mut rng);
                assert_eq!(rng.gen::<u64>(), stepped.gen::<u64>(), "{preset}");
            }
        }
    }

    #[test]
    fn the_scouted_head_draws_what_the_evaluating_head_draws_and_evaluates_to_it() {
        // The scout's head defers every evaluation that decides no draw
        // count. It must still consume exactly the draws the evaluating
        // head (`reference_head`, the samplers as they were before the
        // deferral) consumes, and the filler's evaluation of it must give
        // the same position, opacity and size, bit for bit. Six presets,
        // all three kinds, every position form.
        for preset in ALL_PRESETS {
            let params = preset.params();
            let mut rng = StdRng::seed_from_u64(params.seed);
            let clusters = sample_cluster_centers(&params, &mut rng);
            for _ in 0..200 {
                let mut reference = rng.clone();
                let (position, opacity, size_mul) =
                    reference_head(&params, &clusters, &mut reference);
                let head = draw_head(&params, clusters.len(), &mut rng);
                assert_eq!(rng.clone().gen::<u64>(), reference.gen::<u64>(), "{preset}");
                let (mut u1, mut u2) = ([0.0; PLACE_NORMALS], [0.0; PLACE_NORMALS]);
                let len = head.place.pairs(&mut u1, &mut u2);
                let normals = u1[..len]
                    .iter()
                    .zip(&u2)
                    .map(|(&a, &b)| gcc_core::dispatch::box_muller_one(a, b))
                    .collect::<Vec<_>>();
                let bits = |(p, o, s): (Vec3, f32, f32)| [p.x, p.y, p.z, o, s].map(f32::to_bits);
                let want = (position, opacity, size_mul);
                let got = head.evaluate(&params, &clusters, &normals);
                assert_eq!(bits(got), bits(want), "{preset}");
            }
        }
    }

    /// The head samplers as they were before the scout deferred their
    /// evaluations: each normal, azimuth and opacity evaluated as it is
    /// drawn. Returns the position, the opacity and the size multiplier.
    fn reference_head(
        params: &PresetParams,
        clusters: &[Cluster],
        rng: &mut StdRng,
    ) -> (Vec3, f32, f32) {
        let r = params.world_radius;
        let cluster_spread = params.cluster_sigma * r;
        let from_cluster = |rng: &mut StdRng| {
            let c = clusters[rng.gen_range(0..clusters.len())];
            let off = Vec3::new(
                normal(rng) * cluster_spread,
                normal(rng) * cluster_spread,
                normal(rng) * cluster_spread,
            );
            let along = c.normal * off.dot(c.normal);
            c.center + (off - along) + along * 0.15
        };
        let (position, backdrop) = match params.kind {
            SceneKind::Object => (from_cluster(rng), false),
            SceneKind::Outdoor => {
                let u: f32 = rng.gen();
                if u < 0.22 {
                    let theta = sample_azimuth(params, rng);
                    let dist = r * rng.gen_range(0.1f32..1.0);
                    (at_azimuth(dist, normal(rng) * 0.015 * r, theta), false)
                } else if u < 0.80 {
                    (from_cluster(rng), false)
                } else {
                    let theta = sample_azimuth(params, rng) * 1.4;
                    let dist = r * rng.gen_range(0.9f32..1.3);
                    (
                        at_azimuth(dist, rng.gen_range(0.0..0.75f32) * r, theta),
                        true,
                    )
                }
            }
            SceneKind::Indoor => {
                let u: f32 = rng.gen();
                if u < 0.30 {
                    let theta = sample_azimuth(params, rng) * 1.2;
                    (at_azimuth(r, rng.gen_range(0.0..0.6f32) * r, theta), true)
                } else {
                    (from_cluster(rng), false)
                }
            }
        };
        let u: f32 = rng.gen();
        let mut opacity = if u < params.opacity_low_frac {
            let x: f32 = rng.gen();
            let t = if x == 0.0 {
                0.0
            } else {
                det_exp(1.8 * det_ln(x))
            };
            0.004 + t * (0.045 - 0.004)
        } else if u < params.opacity_low_frac + params.opacity_mid_frac {
            rng.gen_range(0.08..0.6f32)
        } else {
            let t: f32 = rng.gen::<f32>().sqrt();
            0.6 + 0.4 * t
        };
        if backdrop {
            opacity = opacity.max(rng.gen_range(0.6..1.0f32));
        }
        let size_mul = match backdrop {
            _ if opacity < 0.045 => 1.75,
            true => 1.2,
            false => 0.8,
        };
        (position, opacity, size_mul)
    }

    #[test]
    fn the_batched_tail_draws_exactly_tail_draws_in_consumption_order() {
        // The tail is drawn whole before any of it is evaluated: the draw
        // step alone leaves the generator where stepping over
        // `TAIL_DRAWS` does, and holds the draws in the order the
        // samplers consume them — four normals, the rotation, 48 normals.
        assert_eq!(TAIL_DRAWS, 107);
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for _ in 0..100 {
            let mut stepped = rng.clone();
            stepped.advance(TAIL_DRAWS);
            let mut one_by_one = rng.clone();
            let draws = draw_tail(&mut rng);
            assert_eq!(rng.gen::<u64>(), stepped.gen::<u64>());
            let mut pairs = (0..4)
                .map(|_| normal_draws(&mut one_by_one))
                .collect::<Vec<_>>();
            let u1 = one_by_one.gen::<f32>();
            let u2 = one_by_one.gen::<f32>() * std::f32::consts::TAU;
            let u3 = one_by_one.gen::<f32>() * std::f32::consts::TAU;
            pairs.extend((0..SH_FLOATS).map(|_| normal_draws(&mut one_by_one)));
            let (want_u1, want_u2): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
            assert_eq!(draws.u1[..TAIL_NORMALS], want_u1);
            assert_eq!(draws.u2[..TAIL_NORMALS], want_u2);
            assert_eq!(draws.rotation, [u1, u2, u3]);
        }
    }

    #[test]
    fn the_pipeline_fills_what_the_fused_loop_builds_whatever_the_block_split() {
        // Counts under the work floor reach the pipeline through
        // `build_scene` on one thread only; it is driven directly, over a
        // partial block, one block, a ragged last block and more threads
        // than blocks. Six presets: every scene kind and every position
        // form.
        for preset in ALL_PRESETS {
            let params = preset.params();
            for count in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
                let mut rng = StdRng::seed_from_u64(params.seed);
                let clusters = sample_cluster_centers(&params, &mut rng);
                let mut fused_rng = rng.clone();
                let fused: Vec<Gaussian3D> = (0..count)
                    .map(|_| sample_gaussian(&params, &clusters, &mut fused_rng))
                    .collect();
                for threads in [1, 2, 3, 8] {
                    let out = pipelined(&params, &clusters, rng.clone(), count, threads);
                    assert!(out == fused, "{preset} count {count} threads {threads}");
                }
            }
        }
    }

    fn pipelined(
        params: &PresetParams,
        clusters: &[Cluster],
        rng: StdRng,
        count: usize,
        threads: usize,
    ) -> Vec<Gaussian3D> {
        let mut out = vec![Gaussian3D::default(); count];
        scout_and_fill(
            &mut out,
            threads,
            rng,
            |rng| draw_head(params, clusters.len(), rng),
            |block, heads, tails| fill_block(params, clusters, block, heads, tails),
        );
        out
    }

    #[test]
    fn a_panic_in_the_scout_or_a_filler_reaches_the_caller_and_the_next_build_fills() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering};
        let params = ScenePreset::Truck.params();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let clusters = sample_cluster_centers(&params, &mut rng);
        let count = 6 * BLOCK;
        let me = std::thread::current().id();
        let boom = |what: &str, build: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(build)).expect_err(what);
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "{what}");
            let mut fused_rng = rng.clone();
            let fused: Vec<Gaussian3D> = (0..count)
                .map(|_| sample_gaussian(&params, &clusters, &mut fused_rng))
                .collect();
            let out = pipelined(&params, &clusters, rng.clone(), count, 2);
            assert!(out == fused, "the build after {what}");
        };
        // The scout dies with blocks published and fillers waiting for
        // more: its hang-up still releases them.
        boom("the scout", &|| {
            let mut heads = 0;
            let mut out = vec![Gaussian3D::default(); count];
            scout_and_fill(
                &mut out,
                2,
                rng.clone(),
                |rng| {
                    heads += 1;
                    if heads == 3 * BLOCK {
                        panic!("boom");
                    }
                    draw_head(&params, clusters.len(), rng)
                },
                |block, heads, tails| fill_block(&params, &clusters, block, heads, tails),
            );
        });
        // A filler dies on its first block; the scout waits for that
        // before scouting past the second, so a helper did take one.
        boom("a filler", &|| {
            let filler_ran = AtomicBool::new(false);
            let mut heads = 0;
            let mut out = vec![Gaussian3D::default(); count];
            scout_and_fill(
                &mut out,
                2,
                rng.clone(),
                |rng| {
                    heads += 1;
                    if heads == 2 * BLOCK {
                        while !filler_ran.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    draw_head(&params, clusters.len(), rng)
                },
                |block, heads, tails| {
                    if std::thread::current().id() != me {
                        filler_ran.store(true, Ordering::Release);
                        panic!("boom");
                    }
                    fill_block(&params, &clusters, block, heads, tails)
                },
            );
        });
    }

    #[test]
    fn determinism_same_seed_same_scene() {
        let a = ScenePreset::Train.build(&SceneConfig::with_scale(0.05));
        let b = ScenePreset::Train.build(&SceneConfig::with_scale(0.05));
        assert_eq!(a.gaussians, b.gaussians);
    }

    #[test]
    fn seed_override_changes_scene() {
        let a = ScenePreset::Train.build(&SceneConfig::with_scale(0.05));
        let mut cfg = SceneConfig::with_scale(0.05);
        cfg.seed = Some(42);
        let b = ScenePreset::Train.build(&cfg);
        assert_ne!(a.gaussians, b.gaussians);
    }

    #[test]
    fn scale_controls_count() {
        let small = ScenePreset::Truck.build(&SceneConfig::with_scale(0.01));
        let large = ScenePreset::Truck.build(&SceneConfig::with_scale(0.05));
        assert!(large.len() > 3 * small.len());
    }

    #[test]
    fn all_presets_build_and_are_valid() {
        for p in ALL_PRESETS {
            let scene = p.build(&SceneConfig::with_scale(0.02));
            assert!(!scene.is_empty(), "{p}");
            for g in &scene.gaussians {
                assert!(g.mean.is_finite(), "{p}: non-finite mean");
                assert!(g.scale.x > 0.0 && g.scale.y > 0.0 && g.scale.z > 0.0);
                let w = g.opacity();
                assert!((0.0..=1.0).contains(&w), "{p}: opacity {w}");
            }
        }
    }

    #[test]
    fn opacity_mixture_has_low_tail_and_opaque_mode() {
        let scene = ScenePreset::Drjohnson.build(&SceneConfig::with_scale(0.1));
        let n = scene.len() as f32;
        let low = scene
            .gaussians
            .iter()
            .filter(|g| g.opacity() < 0.08)
            .count() as f32;
        let high = scene.gaussians.iter().filter(|g| g.opacity() > 0.6).count() as f32;
        let p = ScenePreset::Drjohnson.params();
        // Backdrop points (walls) are forced opaque, so the low tail is
        // diluted below its nominal fraction and the opaque mode exceeds
        // its nominal fraction.
        assert!(low / n > 0.5 * p.opacity_low_frac && low / n <= p.opacity_low_frac + 0.05);
        assert!(high / n >= 1.0 - p.opacity_low_frac - p.opacity_mid_frac - 0.05);
    }

    #[test]
    fn object_scene_is_compact() {
        let p = ScenePreset::Lego.params();
        let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.1));
        let mut inside = 0usize;
        for g in &scene.gaussians {
            if g.mean.norm() <= 1.3 * p.world_radius {
                inside += 1;
            }
        }
        assert!(inside as f32 / scene.len() as f32 > 0.95);
    }

    #[test]
    fn default_camera_sees_most_of_an_object_scene() {
        let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.05));
        let cam = scene.default_camera();
        let visible = scene
            .gaussians
            .iter()
            .filter(|g| {
                cam.project_point(g.mean)
                    .map(|(px, _)| cam.in_bounds(px))
                    .unwrap_or(false)
            })
            .count();
        let frac = visible as f32 / scene.len() as f32;
        assert!(frac > 0.85, "object in-frustum fraction {frac}");
    }

    #[test]
    fn scan_scenes_have_out_of_frustum_content() {
        for p in [ScenePreset::Train, ScenePreset::Truck] {
            let scene = p.build(&SceneConfig::with_scale(0.05));
            let cam = scene.default_camera();
            let visible = scene
                .gaussians
                .iter()
                .filter(|g| {
                    cam.project_point(g.mean)
                        .map(|(px, _)| cam.in_bounds(px))
                        .unwrap_or(false)
                })
                .count();
            let frac = visible as f32 / scene.len() as f32;
            assert!(
                frac > 0.4 && frac < 0.92,
                "{p}: in-frustum fraction {frac} out of the plausible scan range"
            );
        }
    }

    #[test]
    fn rotations_are_normalized() {
        let scene = ScenePreset::Palace.build(&SceneConfig::with_scale(0.05));
        for g in scene.gaussians.iter().take(500) {
            assert!((g.rot.norm() - 1.0).abs() < 1e-3);
        }
    }
}
