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
use crate::rng::StdRng;
use crate::scene::{Scene, SceneConfig};
use crate::trajectory::OrbitRig;
use gcc_core::{Gaussian3D, SH_COEFFS_PER_CHANNEL, SH_FLOATS};
use gcc_math::{Quat, Vec3};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Mutex;

/// Rough cost of synthesizing one Gaussian on one thread, for
/// [`gcc_parallel::worthwhile_threads`]' floor (Lego@0.5: 17 000 in
/// 14.4 ms).
const GAUSSIAN_NS: u32 = 800;

/// Gaussians per block the scout hands the fillers.
const BLOCK: usize = 128;

/// Blocks the scout may run ahead of the fillers before it fills the block
/// in its hands itself: enough that a filler never finds the queue empty
/// while the scout is busy filling, few enough that the heads in flight
/// (≈ 56 bytes each) stay in cache.
const BLOCKS_AHEAD: usize = 16;

/// Draws the tail of a Gaussian consumes, whatever the [`SceneKind`]:
/// four normals of [`sample_scale`], three uniforms of [`sample_rotation`]
/// and one normal per coefficient of [`sample_sh`], a normal being two
/// draws.
const TAIL_DRAWS: usize = 2 * 4 + 3 + 2 * SH_FLOATS;

/// Builds a scene from preset parameters and a config, on up to `threads`
/// threads. Any thread count builds the same scene, bit for bit.
///
/// The scene is a function of one PRNG stream, and the stream is
/// sequential — but a draw costs ≈ 1 ns and what is computed *from* the
/// draws (`ln`, `cos`, `sqrt`, `exp`) ≈ 50 times that. So with more than
/// one thread the calling thread becomes a *scout*: it walks the stream
/// through the draws whose count depends on their values (the head of a
/// Gaussian: position, opacity, the backdrop draw), keeps a copy of the
/// generator where the tail starts, and steps over the tail's
/// [`TAIL_DRAWS`] draws without evaluating them. *Fillers* take blocks of
/// heads as the scout publishes them and run the tail (scale, rotation,
/// SH — 107 of a Gaussian's ≈ 117 draws) from each copy into their block
/// of the output; the scout fills a block itself whenever it is
/// [`BLOCKS_AHEAD`], and joins the fillers when the stream ends. One
/// thread, or a scene too small to be worth a second, runs head and tail
/// fused on the one generator: no copy, no stepping over.
pub fn build_scene(params: &PresetParams, config: &SceneConfig, threads: usize) -> Scene {
    let seed = config.seed.unwrap_or(params.seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let count = ((params.base_count as f32 * config.scale) as usize).max(16);

    let clusters = sample_cluster_centers(params, &mut rng);
    let threads = gcc_parallel::worthwhile_threads(threads, count, GAUSSIAN_NS);
    let gaussians = if threads <= 1 {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(sample_gaussian(params, &clusters, &mut rng));
        }
        out
    } else {
        let mut out = vec![Gaussian3D::default(); count];
        scout_and_fill(
            &mut out,
            threads,
            rng,
            |rng| sample_head(params, &clusters, rng),
            |head, rng| sample_tail(params, head, rng),
        );
        out
    };

    Scene {
        name: params.name.to_string(),
        gaussians,
        resolution: params.resolution,
        fov_y_deg: params.fov_y_deg,
        rig: camera_rig(params),
        lod: None,
    }
}

/// The pipelined build of [`build_scene`]: the caller scouts `rng`'s
/// stream for `out.len()` Gaussians with `head`, up to `threads - 1`
/// parked helpers fill them in with `tail` ([`gcc_parallel::run`]).
fn scout_and_fill(
    out: &mut [Gaussian3D],
    threads: usize,
    mut rng: StdRng,
    mut head: impl FnMut(&mut StdRng) -> Head,
    tail: impl Fn(&Head, &mut StdRng) -> Gaussian3D + Sync,
) {
    type Job<'a> = (&'a mut [Gaussian3D], Vec<(Head, StdRng)>);
    let fill = |(block, heads): Job<'_>| {
        for (slot, (head, mut rng)) in block.iter_mut().zip(heads) {
            *slot = tail(&head, &mut rng);
        }
    };
    let (publish, published) = sync_channel::<Job<'_>>(BLOCKS_AHEAD);
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
            let heads = block
                .iter()
                .map(|_| {
                    let head = head(&mut rng);
                    let tail = rng.clone();
                    rng.advance(TAIL_DRAWS);
                    (head, tail)
                })
                .collect();
            match publish.try_send((block, heads)) {
                Ok(()) => {}
                Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => fill(job),
            }
        }
        drop(publish);
        drain();
    });
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

/// Standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0f32);
    let u2: f32 = rng.gen_range(0.0..1.0f32);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
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
                Vec3::new(
                    dist * theta.cos(),
                    rng.gen_range(0.0..0.30f32) * r,
                    dist * theta.sin(),
                )
            }
            SceneKind::Indoor => {
                let theta = sample_azimuth(params, rng);
                let dist = r * rng.gen_range(0.25f32..0.9);
                Vec3::new(
                    dist * theta.cos(),
                    rng.gen_range(0.0..0.40f32) * r,
                    dist * theta.sin(),
                )
            }
        })
        .collect()
}

/// What a Gaussian stands for in the scene layout; backdrops (sky shells,
/// room walls) are forced reasonably opaque so every view ray eventually
/// terminates, as in fully reconstructed captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Part of a surface cluster.
    Surface,
    /// Ground-plane point (outdoor).
    Ground,
    /// Distant shell / wall point closing off the view.
    Backdrop,
}

fn sample_position(params: &PresetParams, clusters: &[Cluster], rng: &mut StdRng) -> (Vec3, Role) {
    let r = params.world_radius;
    let cluster_spread = params.cluster_sigma * r;
    let from_cluster = |rng: &mut StdRng| {
        let c = clusters[rng.gen_range(0..clusters.len())];
        // In-patch offset, squashed to 15% along the surface normal.
        let off = Vec3::new(
            normal(rng) * cluster_spread,
            normal(rng) * cluster_spread,
            normal(rng) * cluster_spread,
        );
        let along = c.normal * off.dot(c.normal);
        c.center + (off - along) + along * 0.15
    };
    match params.kind {
        SceneKind::Object => (from_cluster(rng), Role::Surface),
        SceneKind::Outdoor => {
            let u: f32 = rng.gen();
            if u < 0.22 {
                // Ground-plane sector.
                let theta = sample_azimuth(params, rng);
                let dist = r * rng.gen_range(0.1f32..1.0);
                (
                    Vec3::new(
                        dist * theta.cos(),
                        normal(rng) * 0.015 * r,
                        dist * theta.sin(),
                    ),
                    Role::Ground,
                )
            } else if u < 0.80 {
                (from_cluster(rng), Role::Surface)
            } else {
                // Distant backdrop shell (buildings / tree line / sky).
                let theta = sample_azimuth(params, rng) * 1.4;
                let dist = r * rng.gen_range(0.9f32..1.3);
                (
                    Vec3::new(
                        dist * theta.cos(),
                        rng.gen_range(0.0..0.75f32) * r,
                        dist * theta.sin(),
                    ),
                    Role::Backdrop,
                )
            }
        }
        SceneKind::Indoor => {
            let u: f32 = rng.gen();
            if u < 0.30 {
                // Wall shell: fixed radius, any height of the room.
                let theta = sample_azimuth(params, rng) * 1.2;
                (
                    Vec3::new(
                        r * theta.cos(),
                        rng.gen_range(0.0..0.6f32) * r,
                        r * theta.sin(),
                    ),
                    Role::Backdrop,
                )
            } else {
                (from_cluster(rng), Role::Surface)
            }
        }
    }
}

fn sample_opacity(params: &PresetParams, rng: &mut StdRng) -> f32 {
    let u: f32 = rng.gen();
    if u < params.opacity_low_frac {
        // Near-transparent tail, skewed low.
        let t: f32 = rng.gen::<f32>().powf(1.8);
        0.004 + t * (0.045 - 0.004)
    } else if u < params.opacity_low_frac + params.opacity_mid_frac {
        rng.gen_range(0.08..0.6f32)
    } else {
        // Opaque mode, skewed toward 1.
        let t: f32 = rng.gen::<f32>().powf(0.5);
        0.6 + 0.4 * t
    }
}

#[inline(always)]
fn sample_scale(params: &PresetParams, size_mul: f32, rng: &mut StdRng) -> Vec3 {
    let base = size_mul * (params.log_scale_mean + params.log_scale_sigma * normal(rng)).exp();
    // Trained 3DGS splats are strongly surfel-like: two comparable in-plane
    // axes and one much thinner normal axis (ratio ~5-6× on average). The
    // thin axis makes the projected ellipses elongated, which is what makes
    // OBBs ~3× tighter than AABBs (paper Table 1).
    let in_plane = |rng: &mut StdRng| (0.35 * normal(rng)).exp();
    Vec3::new(
        base * in_plane(rng),
        base * in_plane(rng),
        base * (-1.7 + 0.5 * normal(rng)).exp(),
    )
}

#[inline(always)]
fn sample_rotation(rng: &mut StdRng) -> Quat {
    // Uniform random rotation (Shoemake).
    let u1: f32 = rng.gen();
    let u2: f32 = rng.gen::<f32>() * std::f32::consts::TAU;
    let u3: f32 = rng.gen::<f32>() * std::f32::consts::TAU;
    let a = (1.0 - u1).sqrt();
    let b = u1.sqrt();
    Quat::new(a * u2.sin(), a * u2.cos(), b * u3.sin(), b * u3.cos())
}

#[inline(always)]
fn sample_sh(rng: &mut StdRng) -> [f32; SH_FLOATS] {
    let mut sh = [0.0f32; SH_FLOATS];
    for c in 0..3 {
        let base = c * SH_COEFFS_PER_CHANNEL;
        // DC: colors spread around 0.5 after the +0.5 offset of Eq. 2.
        sh[base] = normal(rng) * 0.55;
        // Degree 1–3: decaying view-dependent detail.
        for l in 1..=3usize {
            let sigma = 0.15 / (l * l) as f32;
            let start = l * l;
            let end = (l + 1) * (l + 1);
            for k in start..end {
                sh[base + k] = normal(rng) * sigma;
            }
        }
    }
    sh
}

/// What the scout reads off the stream for one Gaussian: everything whose
/// draw count depends on the values drawn.
#[derive(Debug, Clone, Copy)]
struct Head {
    position: Vec3,
    opacity: f32,
    size_mul: f32,
}

#[inline(always)]
fn sample_head(params: &PresetParams, clusters: &[Cluster], rng: &mut StdRng) -> Head {
    let (position, role) = sample_position(params, clusters, rng);
    let mut opacity = sample_opacity(params, rng);
    if role == Role::Backdrop {
        // Backdrops close off every view ray: force them reasonably opaque
        // (a fully trained capture has no see-through sky or walls).
        opacity = opacity.max(rng.gen_range(0.6..1.0f32));
    }
    // Trained models pair near-transparent splats with large spatial
    // support (fog/fill Gaussians): their 3σ bounding boxes are huge while
    // their α ≥ 1/255 region is tiny — the Table 1 / Fig. 4 gap.
    let size_mul = match role {
        _ if opacity < 0.045 => 1.75,
        Role::Backdrop => 1.2,
        _ => 0.8,
    };
    Head {
        position,
        opacity,
        size_mul,
    }
}

/// Head and tail fused on one generator: the whole Gaussian.
#[inline(always)]
fn sample_gaussian(params: &PresetParams, clusters: &[Cluster], rng: &mut StdRng) -> Gaussian3D {
    let head = sample_head(params, clusters, rng);
    sample_tail(params, &head, rng)
}

/// The rest of the Gaussian `head` starts: exactly [`TAIL_DRAWS`] draws
/// of `rng`, in this order.
///
/// The samplers on this path are `inline(always)`: with two callers (the
/// fused loop, the fillers) the compiler otherwise stops inlining what it
/// inlined for one, and the one-thread build gets 3–4 % slower.
#[inline(always)]
fn sample_tail(params: &PresetParams, head: &Head, rng: &mut StdRng) -> Gaussian3D {
    Gaussian3D::new(
        head.position,
        sample_scale(params, head.size_mul, rng),
        sample_rotation(rng),
        head.opacity,
        sample_sh(rng),
    )
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

    #[test]
    fn the_tail_of_a_gaussian_is_exactly_tail_draws_for_every_scene_kind() {
        // What lets the scout step over a tail it does not evaluate. An
        // edit to a tail sampler that changes its draw count fails here.
        // Six presets, all three kinds; 200 Gaussians take every branch
        // of `sample_position` and `sample_opacity`.
        for preset in ALL_PRESETS {
            let params = preset.params();
            let mut rng = StdRng::seed_from_u64(params.seed);
            let clusters = sample_cluster_centers(&params, &mut rng);
            for _ in 0..200 {
                let head = sample_head(&params, &clusters, &mut rng);
                let mut stepped = rng.clone();
                stepped.advance(TAIL_DRAWS);
                sample_tail(&params, &head, &mut rng);
                assert_eq!(rng.gen::<u64>(), stepped.gen::<u64>(), "{preset}");
            }
        }
    }

    #[test]
    fn the_pipeline_fills_what_the_fused_loop_builds_whatever_the_block_split() {
        // Counts under the work floor never reach the pipeline through
        // `build_scene`; it is driven directly, over a partial block, one
        // block, a ragged last block and more threads than blocks.
        for preset in [
            ScenePreset::Palace,
            ScenePreset::Truck,
            ScenePreset::Drjohnson,
        ] {
            let params = preset.params();
            for count in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17] {
                let mut rng = StdRng::seed_from_u64(params.seed);
                let clusters = sample_cluster_centers(&params, &mut rng);
                let mut fused_rng = rng.clone();
                let fused: Vec<Gaussian3D> = (0..count)
                    .map(|_| sample_gaussian(&params, &clusters, &mut fused_rng))
                    .collect();
                for threads in [2, 3, 8] {
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
            |rng| sample_head(params, clusters, rng),
            |head, rng| sample_tail(params, head, rng),
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
                    sample_head(&params, &clusters, rng)
                },
                |head, rng| sample_tail(&params, head, rng),
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
                    sample_head(&params, &clusters, rng)
                },
                |head, rng| {
                    if std::thread::current().id() != me {
                        filler_ran.store(true, Ordering::Release);
                        panic!("boom");
                    }
                    sample_tail(&params, head, rng)
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
