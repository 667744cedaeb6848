//! Scene (de)serialization: JSON for interchange, a compact binary float
//! format for large clouds.
//!
//! The binary layout is the accelerator's DRAM image: a small header
//! followed by each Gaussian's 59-float record (see
//! [`gcc_core::Gaussian3D::to_floats`]), little-endian.
//!
//! Both decoders run over the whole file in memory, in one pass, straight
//! into [`gcc_core::Gaussian3D`] records: the JSON one pulls tokens from a
//! [`json::Reader`] and parses each number once from its source text (no
//! document tree is built), the binary one slices records off a byte
//! slice. Either way every Gaussian array ends with `capacity == len`,
//! so [`Scene::approx_bytes`] does not depend on the format a scene was
//! loaded from. A JSON document's record arrays are decoded in chunks on
//! the threads the caller can spare ([`load_scene_file_on`]), each array
//! on as many as its length is worth; the scene decoded does not depend
//! on how many those are.

use crate::codec;
use crate::json::{self, Reader};
use crate::lod::{read_binary_records, read_json_records, SceneLod};
use crate::{OrbitRig, Scene};
use gcc_core::PARAM_FLOATS;
use gcc_math::Vec3;
use gcc_parallel::available_threads;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the binary format.
const MAGIC: &[u8; 8] = b"GCC3DGS\0";

/// Errors from scene I/O.
#[derive(Debug)]
pub enum SceneIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed file contents.
    Format(String),
}

impl std::fmt::Display for SceneIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Format(m) => write!(f, "invalid scene file: {m}"),
        }
    }
}

impl std::error::Error for SceneIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Format(_) => None,
        }
    }
}

impl From<io::Error> for SceneIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl SceneIoError {
    /// Whether retrying the same load could plausibly succeed.
    ///
    /// Transient I/O conditions (interrupted syscalls, timeouts, remote
    /// stores that momentarily refuse) are retryable; anything that
    /// reflects a property of the file itself — missing, unreadable by
    /// policy, or malformed ([`Self::Format`]) — is fatal, because the
    /// bytes will be exactly as bad on the next attempt. Unknown I/O
    /// kinds default to retryable: a serving layer would rather burn a
    /// few bounded retries than permanently quarantine a scene over a
    /// transient failure it could not classify.
    pub fn is_retryable(&self) -> bool {
        match self {
            Self::Format(_) => false,
            Self::Io(e) => !matches!(
                e.kind(),
                io::ErrorKind::NotFound
                    | io::ErrorKind::PermissionDenied
                    | io::ErrorKind::InvalidData
                    | io::ErrorKind::InvalidInput
                    | io::ErrorKind::Unsupported
            ),
        }
    }
}

/// Bounded-retry policy for scene loads: up to `max_attempts` tries with
/// deterministic exponential backoff (`base_backoff * 2^(attempt-1)`,
/// capped at `max_backoff`). Deterministic on purpose — no jitter — so
/// fault-injected tests replay the exact same schedule every run. The
/// policy is pure data; the serving layer owns the sleep-and-retry loop
/// (and may bail early on shutdown between attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total load attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: std::time::Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms → 20 ms between them, capped at 500 ms.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: std::time::Duration::from_millis(10),
            max_backoff: std::time::Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Backoff to sleep after failed attempt `attempt` (1-based), or
    /// `None` when the policy is exhausted and no further attempt should
    /// be made.
    pub fn backoff_for(&self, attempt: u32) -> Option<std::time::Duration> {
        if attempt >= self.max_attempts.max(1) {
            return None;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let backoff = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX));
        Some(backoff.min(self.max_backoff))
    }
}

/// Serializes a scene as JSON (pretty when `pretty`).
///
/// Floats are written with Rust's shortest round-trip formatting, so
/// [`from_json`] recovers bit-identical values. Each Gaussian is one
/// 59-float array in [`gcc_core::Gaussian3D::to_floats`] order.
///
/// # Errors
///
/// Returns [`SceneIoError::Format`] if the scene contains a non-finite
/// float (JSON has no NaN/infinity tokens, and a silent `NaN` would
/// break the round trip at parse time instead of here).
pub fn to_json(scene: &Scene, pretty: bool) -> Result<String, SceneIoError> {
    let finite = |v: f32, what: &str| {
        if v.is_finite() {
            Ok(())
        } else {
            Err(SceneIoError::Format(format!("non-finite {what}: {v}")))
        }
    };
    finite(scene.fov_y_deg, "fov_y_deg")?;
    let r = &scene.rig;
    for (v, what) in [
        (r.center.x, "rig.center"),
        (r.center.y, "rig.center"),
        (r.center.z, "rig.center"),
        (r.look_at.x, "rig.look_at"),
        (r.look_at.y, "rig.look_at"),
        (r.look_at.z, "rig.look_at"),
        (r.radius, "rig.radius"),
        (r.height, "rig.height"),
        (r.arc, "rig.arc"),
        (r.phase, "rig.phase"),
    ] {
        finite(v, what)?;
    }

    let (nl, ind, sp) = if pretty {
        ("\n", "  ", " ")
    } else {
        ("", "", "")
    };
    let mut out = String::with_capacity(scene.gaussians.len() * PARAM_FLOATS * 8 + 256);
    out.push('{');
    out.push_str(nl);

    let _ = write!(out, "{ind}\"name\":{sp}");
    json::write_str(&mut out, &scene.name);
    let _ = write!(
        out,
        ",{nl}{ind}\"resolution\":{sp}[{},{sp}{}],{nl}",
        scene.resolution.0, scene.resolution.1
    );
    let _ = write!(out, "{ind}\"fov_y_deg\":{sp}{},{nl}", scene.fov_y_deg);

    let r = &scene.rig;
    let _ = write!(
        out,
        "{ind}\"rig\":{sp}{{\"center\":{sp}[{},{sp}{},{sp}{}],{sp}\"look_at\":{sp}[{},{sp}{},{sp}{}],{sp}\
         \"radius\":{sp}{},{sp}\"height\":{sp}{},{sp}\"arc\":{sp}{},{sp}\"phase\":{sp}{}}},{nl}",
        r.center.x, r.center.y, r.center.z,
        r.look_at.x, r.look_at.y, r.look_at.z,
        r.radius, r.height, r.arc, r.phase
    );

    let _ = write!(out, "{ind}\"gaussians\":{sp}[{nl}");
    for (i, g) in scene.gaussians.iter().enumerate() {
        let _ = write!(out, "{ind}{ind}[");
        for (j, v) in g.to_floats().iter().enumerate() {
            if !v.is_finite() {
                return Err(SceneIoError::Format(format!(
                    "non-finite float in gaussian {i} (index {j}): {v}"
                )));
            }
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
        if i + 1 != scene.gaussians.len() {
            out.push(',');
        }
        out.push_str(nl);
    }
    let _ = write!(out, "{ind}]");
    if let Some(lod) = &scene.lod {
        let _ = write!(out, ",{nl}{ind}\"lod\":{sp}");
        lod.write_json(&mut out).map_err(SceneIoError::Format)?;
    }
    let _ = write!(out, "{nl}}}");
    Ok(out)
}

fn missing(key: &str) -> String {
    format!("missing field '{key}'")
}

fn vec3(r: &mut Reader<'_>, key: &str) -> Result<Vec3, String> {
    let [x, y, z] = r
        .f32_array::<3>()
        .map_err(|e| format!("field '{key}' is not a 3-array of numbers: {e}"))?;
    Ok(Vec3::new(x, y, z))
}

fn f32_field(r: &mut Reader<'_>, key: &str) -> Result<f32, String> {
    r.f32()
        .map_err(|e| format!("field '{key}' is not a number: {e}"))
}

/// Reads the `rig` object. Like the scene object around it: keys in any
/// order, unknown ones skipped, the first of a repeated key kept.
fn rig_from_json(r: &mut Reader<'_>) -> Result<OrbitRig, String> {
    let (mut center, mut look_at) = (None, None);
    let (mut radius, mut height, mut arc, mut phase) = (None, None, None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "center" if center.is_none() => center = Some(vec3(r, &key)?),
            "look_at" if look_at.is_none() => look_at = Some(vec3(r, &key)?),
            "radius" if radius.is_none() => radius = Some(f32_field(r, &key)?),
            "height" if height.is_none() => height = Some(f32_field(r, &key)?),
            "arc" if arc.is_none() => arc = Some(f32_field(r, &key)?),
            "phase" if phase.is_none() => phase = Some(f32_field(r, &key)?),
            _ => r.skip_value()?,
        }
    }
    Ok(OrbitRig {
        center: center.ok_or_else(|| missing("center"))?,
        look_at: look_at.ok_or_else(|| missing("look_at"))?,
        radius: radius.ok_or_else(|| missing("radius"))?,
        height: height.ok_or_else(|| missing("height"))?,
        arc: arc.ok_or_else(|| missing("arc"))?,
        phase: phase.ok_or_else(|| missing("phase"))?,
    })
}

fn resolution_from_json(r: &mut Reader<'_>) -> Result<(u32, u32), String> {
    let not_a_pair =
        |r: &Reader<'_>| format!("'resolution' is not a 2-array at byte {}", r.offset());
    r.begin_array()?;
    let mut res = [0u32; 2];
    for (slot, what) in res.iter_mut().zip(["width", "height"]) {
        if !r.next_element()? {
            return Err(not_a_pair(r));
        }
        *slot = r.u32().map_err(|e| format!("bad {what}: {e}"))?;
    }
    if r.next_element()? {
        return Err(not_a_pair(r));
    }
    Ok((res[0], res[1]))
}

/// [`from_json_on`] with the error as the decoder words it.
pub(crate) fn scene_from_json(s: &str, threads: usize) -> Result<Scene, String> {
    let mut r = Reader::new(s);
    let (mut name, mut resolution, mut fov_y_deg, mut rig) = (None, None, None, None);
    let (mut gaussians, mut lod) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "name" if name.is_none() => {
                let v = r
                    .string()
                    .map_err(|e| format!("'name' is not a string: {e}"));
                name = Some(v?.into_owned());
            }
            "resolution" if resolution.is_none() => {
                resolution = Some(resolution_from_json(&mut r)?)
            }
            "fov_y_deg" if fov_y_deg.is_none() => fov_y_deg = Some(f32_field(&mut r, &key)?),
            "rig" if rig.is_none() => rig = Some(rig_from_json(&mut r)?),
            "gaussians" if gaussians.is_none() => {
                gaussians = Some(read_json_records(&mut r, "gaussian", threads)?);
            }
            "lod" if lod.is_none() => lod = Some(SceneLod::read_json_on(&mut r, threads)?),
            // The two keys that carry records: decoding a second copy to
            // throw it away is the cost this decoder exists to avoid.
            "gaussians" | "lod" => {
                return Err(format!("repeated '{key}' at byte {}", r.offset()));
            }
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    Ok(Scene {
        name: name.ok_or_else(|| missing("name"))?,
        gaussians: gaussians.ok_or_else(|| missing("gaussians"))?,
        resolution: resolution.ok_or_else(|| missing("resolution"))?,
        fov_y_deg: fov_y_deg.ok_or_else(|| missing("fov_y_deg"))?,
        rig: rig.ok_or_else(|| missing("rig"))?,
        lod,
    })
}

/// Parses a scene from the JSON produced by [`to_json`]: one pass over
/// `s`, keys in any order, unknown keys skipped — on every hardware
/// thread: [`from_json_on`] for a caller with nothing else running.
///
/// # Errors
///
/// Returns [`SceneIoError::Format`] for malformed JSON or a wrong schema,
/// naming the byte offset where the tokenizer knows it.
pub fn from_json(s: &str) -> Result<Scene, SceneIoError> {
    from_json_on(s, available_threads())
}

/// [`from_json`] on up to `threads` threads — as many of them as each
/// record array keeps busy. The scene decoded, or the error, is the same
/// at every thread count.
///
/// # Errors
///
/// As [`from_json`].
pub fn from_json_on(s: &str, threads: usize) -> Result<Scene, SceneIoError> {
    scene_from_json(s, threads).map_err(SceneIoError::Format)
}

/// Writes the binary DRAM-image format.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_binary<W: Write>(scene: &Scene, mut w: W) -> Result<(), SceneIoError> {
    w.write_all(MAGIC)?;
    codec::write_str(&mut w, &scene.name)?;
    codec::write_u32(&mut w, scene.resolution.0)?;
    codec::write_u32(&mut w, scene.resolution.1)?;
    codec::write_f32(&mut w, scene.fov_y_deg)?;
    let rig = [
        scene.rig.center.x,
        scene.rig.center.y,
        scene.rig.center.z,
        scene.rig.look_at.x,
        scene.rig.look_at.y,
        scene.rig.look_at.z,
        scene.rig.radius,
        scene.rig.height,
        scene.rig.arc,
        scene.rig.phase,
    ];
    for v in rig {
        codec::write_f32(&mut w, v)?;
    }
    codec::write_u64(&mut w, scene.gaussians.len() as u64)?;
    for g in &scene.gaussians {
        for v in g.to_floats() {
            codec::write_f32(&mut w, v)?;
        }
    }
    // Optional trailing LOD section: a presence flag, then the hierarchy.
    // Files written before the adaptive-quality subsystem simply end at
    // the last Gaussian record; the reader treats EOF here as "no lod".
    match &scene.lod {
        Some(lod) => {
            codec::write_u8(&mut w, 1)?;
            lod.write_binary(&mut w)?;
        }
        None => codec::write_u8(&mut w, 0)?,
    }
    Ok(())
}

/// Reads the binary DRAM-image format: `r` is read to its end and the
/// scene decoded from memory.
///
/// # Errors
///
/// Returns [`SceneIoError::Format`] for bad magic/truncated payloads and
/// [`SceneIoError::Io`] for reader failures.
pub fn read_binary<R: Read>(mut r: R) -> Result<Scene, SceneIoError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_binary(&bytes)
}

/// Decodes a whole binary scene file held in memory.
fn decode_binary(bytes: &[u8]) -> Result<Scene, SceneIoError> {
    let Some(mut r) = bytes.strip_prefix(MAGIC) else {
        return Err(if bytes.len() < MAGIC.len() {
            io::Error::from(io::ErrorKind::UnexpectedEof).into()
        } else {
            SceneIoError::Format("bad magic".into())
        });
    };
    let r = &mut r;
    // `read_str` would fold the cap and UTF-8 checks into one
    // `InvalidData` I/O error; the name is read by hand so both keep
    // surfacing as the historical `Format` errors.
    let name_len = codec::read_u32(r)? as usize;
    if name_len > 4096 {
        return Err(SceneIoError::Format(format!("name length {name_len}")));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| SceneIoError::Format("non-UTF8 name".into()))?;
    let width = codec::read_u32(r)?;
    let height = codec::read_u32(r)?;
    let fov_y_deg = codec::read_f32(r)?;
    let mut rig = [0.0f32; 10];
    for v in &mut rig {
        *v = codec::read_f32(r)?;
    }
    let count = codec::read_u64(r)?;
    let gaussians = read_binary_records(r, count)?;
    // Optional trailing LOD section. Pre-LOD files end here, so a clean
    // EOF at the flag byte means "no hierarchy"; any other flag value or
    // a truncated section is a format error.
    let lod = match codec::read_u8(r) {
        Ok(1) => Some(
            SceneLod::read_binary(r)
                .map_err(|e| SceneIoError::Format(format!("bad lod section: {e}")))?,
        ),
        Ok(0) => None,
        Ok(flag) => {
            return Err(SceneIoError::Format(format!("bad lod flag {flag}")));
        }
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => None,
        Err(e) => return Err(e.into()),
    };
    Ok(Scene {
        name,
        gaussians,
        resolution: (width, height),
        fov_y_deg,
        rig: OrbitRig {
            center: gcc_math::Vec3::new(rig[0], rig[1], rig[2]),
            look_at: gcc_math::Vec3::new(rig[3], rig[4], rig[5]),
            radius: rig[6],
            height: rig[7],
            arc: rig[8],
            phase: rig[9],
        },
        lod,
    })
}

/// Writes `scene` to `path` in the binary DRAM-image format (buffered).
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_binary_file(scene: &Scene, path: &Path) -> Result<(), SceneIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    write_binary(scene, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Writes `scene` to `path` as (compact) JSON.
///
/// # Errors
///
/// Propagates serialization and write failures.
pub fn write_json_file(scene: &Scene, path: &Path) -> Result<(), SceneIoError> {
    let s = to_json(scene, false)?;
    std::fs::write(path, s)?;
    Ok(())
}

/// Loads a scene from `path`, sniffing the format: files starting with the
/// binary magic parse as the DRAM-image format, everything else as JSON.
/// This is the loader handle the serving layer's cache uses for on-demand
/// residency, so it must accept both interchange formats by content, not
/// by extension. The file is read once and decoded from memory, on every
/// hardware thread: [`load_scene_file_on`] for a caller with nothing else
/// running.
///
/// # Errors
///
/// Returns [`SceneIoError::Io`] for filesystem failures and
/// [`SceneIoError::Format`] for malformed contents in either format.
pub fn load_scene_file(path: &Path) -> Result<Scene, SceneIoError> {
    load_scene_file_on(path, available_threads())
}

/// [`load_scene_file`] on up to `threads` threads (what a serving worker
/// is lent at the moment it loads). Only a JSON file has use for more than
/// one — a binary file's decode is a copy — and the scene loaded, or the
/// error, is the same at every thread count.
///
/// # Errors
///
/// As [`load_scene_file`].
pub fn load_scene_file_on(path: &Path, threads: usize) -> Result<Scene, SceneIoError> {
    decode_scene(&std::fs::read(path)?, threads)
}

/// Decodes a whole scene file held in memory, in the format its first
/// bytes say it is. UTF-8 is validated over the full contents.
pub(crate) fn decode_scene(bytes: &[u8], threads: usize) -> Result<Scene, SceneIoError> {
    if bytes.starts_with(MAGIC) {
        return decode_binary(bytes);
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SceneIoError::Format("neither binary magic nor UTF-8 JSON".into()))?;
    from_json_on(text, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SceneConfig, ScenePreset};
    use gcc_core::Gaussian3D;

    fn small_scene() -> Scene {
        ScenePreset::Lego.build(&SceneConfig::with_scale(0.02))
    }

    #[test]
    fn json_round_trip() {
        let scene = small_scene();
        let s = to_json(&scene, false).unwrap();
        let back = from_json(&s).unwrap();
        assert_eq!(scene.name, back.name);
        assert_eq!(scene.gaussians, back.gaussians);
        assert_eq!(scene.resolution, back.resolution);
    }

    #[test]
    fn overflowing_floats_are_rejected_at_parse_time() {
        // A foreign/hand-edited document whose value saturates f32 to
        // infinity must fail parsing, mirroring the writer-side check.
        let doc = |fov: &str| {
            format!(
                "{{\"name\":\"x\",\"resolution\":[4,4],\"fov_y_deg\":{fov},\
                 \"rig\":{{\"center\":[0,0,0],\"look_at\":[0,0,1],\"radius\":1,\
                 \"height\":0,\"arc\":1,\"phase\":0}},\"gaussians\":[]}}"
            )
        };
        assert!(from_json(&doc("47")).is_ok());
        let err = from_json(&doc("1e39")).unwrap_err();
        assert!(matches!(err, SceneIoError::Format(_)), "{err}");
    }

    #[test]
    fn non_finite_scene_is_rejected_at_write_time() {
        let mut scene = small_scene();
        scene.gaussians[0].ln_opacity = f32::NAN;
        let err = to_json(&scene, false).unwrap_err();
        assert!(matches!(err, SceneIoError::Format(_)), "{err}");
        let mut scene = small_scene();
        scene.fov_y_deg = f32::INFINITY;
        assert!(to_json(&scene, false).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let scene = small_scene();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(scene.name, back.name);
        assert_eq!(scene.gaussians, back.gaussians);
        assert_eq!(scene.rig, back.rig);
    }

    #[test]
    fn binary_size_matches_59_float_records() {
        let scene = small_scene();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        let payload = scene.gaussians.len() * PARAM_FLOATS * 4;
        // Header: magic 8 + name_len 4 + name + res 8 + fov 4 + rig 40 + count 8.
        let header = 8 + 4 + scene.name.len() + 8 + 4 + 40 + 8;
        // Trailer: 1 lod-presence flag byte (0 here: no hierarchy).
        assert_eq!(buf.len(), header + payload + 1);
    }

    fn scene_with_lod() -> Scene {
        let mut scene = small_scene();
        let coarse: Vec<Gaussian3D> = scene.gaussians.iter().step_by(3).cloned().collect();
        let coarser: Vec<Gaussian3D> = scene.gaussians.iter().step_by(9).cloned().collect();
        scene.lod = Some(crate::lod::SceneLod {
            levels: vec![
                crate::lod::LodLevel {
                    gaussians: coarse,
                    cell_size: 0.25,
                },
                crate::lod::LodLevel {
                    gaussians: coarser,
                    cell_size: 0.5,
                },
            ],
            seed: 99,
        });
        scene
    }

    #[test]
    fn json_round_trip_preserves_lod_hierarchy() {
        let scene = scene_with_lod();
        let s = to_json(&scene, true).unwrap();
        let back = from_json(&s).unwrap();
        assert_eq!(scene.gaussians, back.gaussians);
        assert_eq!(scene.lod, back.lod);
    }

    #[test]
    fn binary_round_trip_preserves_lod_hierarchy() {
        let scene = scene_with_lod();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(scene.gaussians, back.gaussians);
        assert_eq!(scene.lod, back.lod);
    }

    #[test]
    fn pre_lod_binary_files_still_load() {
        // Files written before the LOD section simply end after the last
        // Gaussian record — strip the flag byte to simulate one.
        let scene = small_scene();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(scene.gaussians, back.gaussians);
        assert!(back.lod.is_none());
    }

    #[test]
    fn corrupt_lod_flag_is_a_format_error() {
        let scene = small_scene();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        *buf.last_mut().unwrap() = 7;
        assert!(matches!(
            read_binary(buf.as_slice()).unwrap_err(),
            SceneIoError::Format(_)
        ));
    }

    #[test]
    fn truncated_lod_section_is_a_format_error() {
        let scene = scene_with_lod();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_binary(buf.as_slice()).unwrap_err(),
            SceneIoError::Format(_)
        ));
    }

    #[test]
    fn file_loader_sniffs_both_formats() {
        let scene = small_scene();
        let dir = std::env::temp_dir().join(format!("gcc_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("scene.bin");
        let json = dir.join("scene.json");
        write_binary_file(&scene, &bin).unwrap();
        write_json_file(&scene, &json).unwrap();
        for path in [&bin, &json] {
            let back = load_scene_file(path).unwrap();
            assert_eq!(scene.name, back.name);
            assert_eq!(scene.gaussians, back.gaussians);
            assert_eq!(scene.resolution, back.resolution);
        }
        // A short garbage file is a format error, not a panic.
        let junk = dir.join("junk");
        std::fs::write(&junk, b"no").unwrap();
        assert!(matches!(
            load_scene_file(&junk).unwrap_err(),
            SceneIoError::Format(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_sniff_survives_multibyte_char_across_the_head_boundary() {
        // A multi-byte UTF-8 character spanning the 8-byte sniff head
        // must not break format detection: validation is whole-file.
        let scene = small_scene();
        let orig = to_json(&scene, false).unwrap();
        let doc = format!("{{\"xy\":\"é\",{}", &orig[1..]);
        assert_eq!(doc.as_bytes()[7], 0xC3, "é must straddle bytes 7..9");
        let dir = std::env::temp_dir().join(format!("gcc_io_mb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scene.json");
        std::fs::write(&path, &doc).unwrap();
        let back = load_scene_file(&path).unwrap();
        assert_eq!(scene.gaussians, back.gaussians);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retryability_classifies_io_kinds_and_format_errors() {
        use std::io::ErrorKind;
        // Properties of the file itself: fatal.
        assert!(!SceneIoError::Format("truncated".into()).is_retryable());
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidData,
            ErrorKind::InvalidInput,
            ErrorKind::Unsupported,
        ] {
            let e = SceneIoError::Io(io::Error::new(kind, "x"));
            assert!(!e.is_retryable(), "{kind:?} should be fatal");
        }
        // Transient conditions (and unknown kinds): retryable.
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::ConnectionReset,
            ErrorKind::Other,
        ] {
            let e = SceneIoError::Io(io::Error::new(kind, "x"));
            assert!(e.is_retryable(), "{kind:?} should be retryable");
        }
    }

    #[test]
    fn retry_backoff_doubles_deterministically_and_caps() {
        use std::time::Duration;
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff_for(1), Some(Duration::from_millis(10)));
        assert_eq!(p.backoff_for(2), Some(Duration::from_millis(20)));
        assert_eq!(p.backoff_for(3), Some(Duration::from_millis(35))); // capped
        assert_eq!(p.backoff_for(4), Some(Duration::from_millis(35)));
        assert_eq!(p.backoff_for(5), None); // exhausted
        assert_eq!(p.backoff_for(99), None);
        // Identical inputs replay identical schedules.
        assert_eq!(p.backoff_for(2), p.backoff_for(2));
    }

    #[test]
    fn no_retries_policy_exhausts_after_one_attempt() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_for(1), None);
        // A zero max_attempts (misconfigured) still allows one attempt.
        let degenerate = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(degenerate.backoff_for(1), None);
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow_backoff() {
        use std::time::Duration;
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(2),
        };
        // 2^(attempt-1) would overflow; the cap must still hold.
        assert_eq!(p.backoff_for(64), Some(Duration::from_secs(2)));
        assert_eq!(p.backoff_for(1000), Some(Duration::from_secs(2)));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_scene_file(Path::new("/nonexistent/gcc-no-such-scene")).unwrap_err();
        assert!(matches!(err, SceneIoError::Io(_)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_binary(&b"NOTASCENE_______"[..]).unwrap_err();
        assert!(matches!(err, SceneIoError::Format(_)));
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let scene = small_scene();
        let mut buf = Vec::new();
        write_binary(&scene, &mut buf).unwrap();
        buf.truncate(buf.len() - 13);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SceneIoError::Io(_)));
    }
}
