//! Scene (de)serialization: JSON for interchange, a compact binary float
//! format for large clouds.
//!
//! The binary layout is the accelerator's DRAM image: a small header
//! followed by each Gaussian's 59-float record (see
//! [`gcc_core::Gaussian3D::to_floats`]), little-endian, and nothing after
//! the last record. A file holds the scene and nothing else: a LOD
//! hierarchy is built in memory after the scene loads (`gcc-lod`), never
//! stored with it.
//!
//! Both formats hold finite floats only, and both writers refuse a scene
//! that has another (`check_finite`): JSON has no token for NaN or an
//! infinity, and the binary reader refuses what the JSON one cannot read,
//! so a scene round-trips through either format or through neither.
//!
//! [`decode_scene`] is the one decoder: it runs over the whole file in
//! memory, in one pass, straight into [`gcc_core::Gaussian3D`] records.
//! A JSON document is read by pulling tokens from a [`json::Reader`] and
//! parsing each number once from its source text (no document tree is
//! built); a binary one by slicing records off a byte slice. Either way
//! the cloud ends with `capacity == len`, so [`Scene::approx_bytes`] does
//! not depend on the format a scene was loaded from. A JSON document's
//! record array is decoded in chunks on the threads the caller can spare,
//! on as many as its length is worth; the scene decoded does not depend
//! on how many those are.

use crate::codec;
use crate::json::{self, Reader};
use crate::{OrbitRig, Scene};
use gcc_core::{Gaussian3D, PARAM_FLOATS};
use gcc_math::Vec3;
use gcc_parallel::{available_threads, par_chunks_mut};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Magic bytes of the binary format.
const MAGIC: &[u8; 8] = b"GCC3DGS\0";

/// The longest name, in bytes, the binary format holds: its reader refuses
/// a longer one before reserving for it, so its writer refuses one too.
const MAX_NAME_BYTES: usize = 4096;

/// The header's floats, in the order the binary format stores them.
const HEADER_FIELDS: [&str; 11] = [
    "fov_y_deg",
    "rig.center.x",
    "rig.center.y",
    "rig.center.z",
    "rig.look_at.x",
    "rig.look_at.y",
    "rig.look_at.z",
    "rig.radius",
    "rig.height",
    "rig.arc",
    "rig.phase",
];

/// The least text a record takes: 59 one-digit numbers, 58 commas and the
/// two brackets. A shorter element cannot be one, so [`read_json_records`]
/// never sizes its output from a count the text cannot back with data: at
/// most 236 resident bytes for every 119 of input.
const MIN_RECORD_BYTES: usize = 2 * PARAM_FLOATS + 1;

/// Rough cost of decoding one record on one thread, for the chunked maps'
/// work floor (5 040 records in 5.2 ms): an array of fewer than 100 is
/// decoded by the thread that walked it.
const RECORD_NS: u32 = 1_000;

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

/// The header's floats in [`HEADER_FIELDS`] order.
fn header_floats(scene: &Scene) -> [f32; HEADER_FIELDS.len()] {
    let r = &scene.rig;
    [
        scene.fov_y_deg,
        r.center.x,
        r.center.y,
        r.center.z,
        r.look_at.x,
        r.look_at.y,
        r.look_at.z,
        r.radius,
        r.height,
        r.arc,
        r.phase,
    ]
}

fn non_finite(what: std::fmt::Arguments<'_>, v: f32) -> SceneIoError {
    SceneIoError::Format(format!("non-finite {what}: {v}"))
}

/// Names the first header float that is not finite.
fn check_header(floats: &[f32; HEADER_FIELDS.len()]) -> Result<(), SceneIoError> {
    match floats.iter().position(|v| !v.is_finite()) {
        Some(j) => Err(non_finite(format_args!("{}", HEADER_FIELDS[j]), floats[j])),
        None => Ok(()),
    }
}

/// Names the first float of record `i` that is not finite.
fn check_record(i: usize, floats: &[f32; PARAM_FLOATS]) -> Result<(), SceneIoError> {
    match floats.iter().position(|v| !v.is_finite()) {
        Some(j) => Err(non_finite(
            format_args!("float in gaussian {i} (index {j})"),
            floats[j],
        )),
        None => Ok(()),
    }
}

/// The rule both formats keep, checked by both writers before they write
/// a byte: every float of the header and of every record is finite.
///
/// # Errors
///
/// [`SceneIoError::Format`] naming the first header field, or the first
/// record and float index, that is NaN or infinite.
fn check_finite(scene: &Scene) -> Result<(), SceneIoError> {
    check_header(&header_floats(scene))?;
    for (i, g) in scene.gaussians.iter().enumerate() {
        check_record(i, &g.to_floats())?;
    }
    Ok(())
}

/// Serializes a scene as JSON (pretty when `pretty`).
///
/// Floats are written with Rust's shortest round-trip formatting, so
/// [`decode_scene`] recovers bit-identical values. Each Gaussian is one
/// 59-float array in [`gcc_core::Gaussian3D::to_floats`] order.
///
/// # Errors
///
/// Returns [`SceneIoError::Format`] if the scene contains a non-finite
/// float (JSON has no token for one, and the binary writer refuses the
/// same scenes).
pub fn to_json(scene: &Scene, pretty: bool) -> Result<String, SceneIoError> {
    check_finite(scene)?;
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
    let _ = write!(out, "{ind}]{nl}}}");
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

/// Decodes a JSON array of 59-number records, each number parsed once
/// from its source text, on up to `threads` threads. The result ends with
/// `capacity == len`, which is what `approx_bytes` charges.
///
/// One thread reads record after record into a growing `Vec` (sizing it
/// from a count first was measured and is slower there: EXPERIMENTS.md
/// "PR 22", "What one thread pays"). More walk the array for its record
/// spans first ([`read_json_spans`]); whatever that does not make a whole
/// array of is this loop's to read from the same cursor, so every error
/// and its offset are produced by the one piece of code that words them.
///
/// # Errors
///
/// Names the index (and `what` cloud) of the first record that is not
/// exactly 59 in-range numbers.
fn read_json_records(
    r: &mut Reader<'_>,
    what: &str,
    threads: usize,
) -> Result<Vec<Gaussian3D>, String> {
    r.begin_array()?;
    if threads > 1 {
        if let Some(out) = read_json_spans(r, threads) {
            return Ok(out);
        }
    }
    let mut out = Vec::new();
    while r.next_element()? {
        let floats = r
            .f32_array::<PARAM_FLOATS>()
            .map_err(|e| format!("{what} {}: {e}", out.len()))?;
        out.push(Gaussian3D::from_floats(&floats));
    }
    out.shrink_to_fit();
    Ok(out)
}

/// The array `r` has just entered, decoded span by span on as many of
/// `threads` threads as its records keep busy ([`RECORD_NS`] each: a
/// short array wakes no helper), with `r` left behind it — or `None`,
/// and `r` where it was.
///
/// [`Reader::flat_arrays`] finds where each record starts and how many
/// there are, so the output is allocated once, at its final size, and
/// every chunk of records is decoded — with the `f32_array::<59>` the
/// sequential loop runs, from the offsets it would run it at — straight
/// into its own part of it. That stands only if the walk reached the
/// array's closer and every span decoded.
fn read_json_spans(r: &mut Reader<'_>, threads: usize) -> Option<Vec<Gaussian3D>> {
    let spans = r.flat_arrays(MIN_RECORD_BYTES);
    let close = spans.close?;
    let starts = &spans.starts[..];
    let mut out = vec![Gaussian3D::default(); starts.len()];
    // Publishes nothing: a failed decode's output is dropped, a whole
    // one's is read after `par_chunks_mut` has joined its threads.
    let failed = AtomicBool::new(false);
    par_chunks_mut(&mut out, threads, RECORD_NS, |offset, chunk| {
        for (slot, &start) in chunk.iter_mut().zip(&starts[offset..]) {
            if failed.load(Ordering::Relaxed) {
                return;
            }
            match r.at(start).f32_array::<PARAM_FLOATS>() {
                Ok(floats) => *slot = Gaussian3D::from_floats(&floats),
                Err(_) => return failed.store(true, Ordering::Relaxed),
            }
        }
    });
    if failed.into_inner() {
        return None;
    }
    r.leave_array_at(close);
    Some(out)
}

/// Decodes a JSON scene document on up to `threads` threads, with the
/// error as the decoder words it: one pass over `s`, keys in any order,
/// unknown keys skipped, the first of a repeated scalar key kept.
pub(crate) fn scene_from_json(s: &str, threads: usize) -> Result<Scene, String> {
    let mut r = Reader::new(s);
    let (mut name, mut resolution, mut fov_y_deg, mut rig) = (None, None, None, None);
    let mut gaussians = None;
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
            // Decoding a second copy of the records to throw it away is
            // the cost this decoder exists to avoid.
            "gaussians" => {
                return Err(format!("repeated 'gaussians' at byte {}", r.offset()));
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
        lod: None,
    })
}

/// Writes the binary DRAM-image format.
///
/// # Errors
///
/// Returns [`SceneIoError::Format`], before writing anything, for a scene
/// the reader would refuse: a non-finite float (as [`to_json`]) or a name
/// longer than 4 096 bytes. Propagates writer failures.
pub fn write_binary<W: Write>(scene: &Scene, mut w: W) -> Result<(), SceneIoError> {
    check_finite(scene)?;
    check_name_len(scene.name.len())?;
    w.write_all(MAGIC)?;
    codec::write_str(&mut w, &scene.name)?;
    codec::write_u32(&mut w, scene.resolution.0)?;
    codec::write_u32(&mut w, scene.resolution.1)?;
    for v in header_floats(scene) {
        codec::write_f32(&mut w, v)?;
    }
    codec::write_u64(&mut w, scene.gaussians.len() as u64)?;
    for g in &scene.gaussians {
        for v in g.to_floats() {
            codec::write_f32(&mut w, v)?;
        }
    }
    Ok(())
}

fn check_name_len(len: usize) -> Result<(), SceneIoError> {
    if len > MAX_NAME_BYTES {
        return Err(SceneIoError::Format(format!("name length {len}")));
    }
    Ok(())
}

/// Decodes `count` little-endian 59-float records off the front of `r`.
/// The count is checked against the bytes in hand before anything is
/// reserved, so a hostile header cannot ask for more than its file holds.
///
/// # Errors
///
/// [`SceneIoError::Io`] with `UnexpectedEof` when `r` is shorter than
/// `count` records; [`SceneIoError::Format`] naming the first float that
/// is not finite.
fn read_binary_records(r: &mut &[u8], count: u64) -> Result<Vec<Gaussian3D>, SceneIoError> {
    const RECORD_BYTES: usize = PARAM_FLOATS * 4;
    let bytes = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(RECORD_BYTES))
        .filter(|&b| b <= r.len())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{count} records declared, {} bytes left", r.len()),
            )
        })?;
    let (records, rest) = r.split_at(bytes);
    *r = rest;
    let mut out = Vec::with_capacity(bytes / RECORD_BYTES);
    let mut floats = [0.0f32; PARAM_FLOATS];
    for (i, rec) in records.chunks_exact(RECORD_BYTES).enumerate() {
        for (slot, b) in floats.iter_mut().zip(rec.chunks_exact(4)) {
            *slot = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        check_record(i, &floats)?;
        out.push(Gaussian3D::from_floats(&floats));
    }
    Ok(out)
}

/// Decodes the bytes of a whole binary scene file that follow its magic.
fn decode_binary(mut image: &[u8]) -> Result<Scene, SceneIoError> {
    let r = &mut image;
    // `read_str` would fold the cap and UTF-8 checks into one
    // `InvalidData` I/O error; the name is read by hand so both keep
    // surfacing as the historical `Format` errors.
    let name_len = codec::read_u32(r)? as usize;
    check_name_len(name_len)?;
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| SceneIoError::Format("non-UTF8 name".into()))?;
    let resolution = (codec::read_u32(r)?, codec::read_u32(r)?);
    let mut header = [0.0f32; HEADER_FIELDS.len()];
    for v in &mut header {
        *v = codec::read_f32(r)?;
    }
    check_header(&header)?;
    let count = codec::read_u64(r)?;
    let gaussians = read_binary_records(r, count)?;
    if !r.is_empty() {
        return Err(SceneIoError::Format(format!(
            "{} bytes after the last record",
            r.len()
        )));
    }
    let [fov_y_deg, cx, cy, cz, lx, ly, lz, radius, height, arc, phase] = header;
    Ok(Scene {
        name,
        gaussians,
        resolution,
        fov_y_deg,
        rig: OrbitRig {
            center: Vec3::new(cx, cy, cz),
            look_at: Vec3::new(lx, ly, lz),
            radius,
            height,
            arc,
            phase,
        },
        lod: None,
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
/// bytes say it is: the binary DRAM image after its magic, JSON otherwise
/// (UTF-8 is validated over the full contents). A JSON document's records
/// are decoded on up to `threads` threads — as many as the array keeps
/// busy; a binary file's decode is a copy, on the calling thread. The
/// scene decoded, or the error, is the same at every thread count.
///
/// # Errors
///
/// Returns [`SceneIoError::Format`] for malformed contents in either
/// format — a JSON error names the byte offset where the tokenizer knows
/// it — and [`SceneIoError::Io`] with `UnexpectedEof` for a binary file
/// that ends early.
pub fn decode_scene(bytes: &[u8], threads: usize) -> Result<Scene, SceneIoError> {
    if let Some(image) = bytes.strip_prefix(MAGIC) {
        return decode_binary(image);
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SceneIoError::Format("neither binary magic nor UTF-8 JSON".into()))?;
    scene_from_json(text, threads).map_err(SceneIoError::Format)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SceneConfig, ScenePreset};

    fn small_scene() -> Scene {
        ScenePreset::Lego.build(&SceneConfig::with_scale(0.02))
    }

    fn image_of(scene: &Scene) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(scene, &mut buf).unwrap();
        buf
    }

    #[test]
    fn json_round_trip() {
        let scene = small_scene();
        let s = to_json(&scene, false).unwrap();
        let back = decode_scene(s.as_bytes(), 1).unwrap();
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
        assert!(decode_scene(doc("47").as_bytes(), 1).is_ok());
        let err = decode_scene(doc("1e39").as_bytes(), 1).unwrap_err();
        assert!(matches!(err, SceneIoError::Format(_)), "{err}");
    }

    #[test]
    fn non_finite_scenes_are_refused_by_both_writers_and_the_binary_reader() {
        let clean = small_scene();
        let image = image_of(&clean);
        // Where the header's floats and the first record start: after the
        // magic, the name's length and bytes, and the resolution.
        let fov_at = 8 + 4 + clean.name.len() + 8;
        let records_at = fov_at + 4 * HEADER_FIELDS.len() + 8;
        // `[μ(3) | s(3) | q(4) | lnω(1) | sh(48)]`.
        let ln_opacity = 10;
        // `spoil` makes the scene non-finite; `bad` patched in at `at` does
        // the same to the file.
        let refused = |spoil: fn(&mut Scene), at: usize, bad: f32, named: &str| {
            let mut scene = clean.clone();
            spoil(&mut scene);
            let to_text = to_json(&scene, false).unwrap_err().to_string();
            let mut sink = Vec::new();
            let to_image = write_binary(&scene, &mut sink).unwrap_err().to_string();
            assert!(sink.is_empty(), "{named}: the binary writer wrote first");
            assert!(to_text.contains(named), "{named}: {to_text}");
            assert_eq!(to_image, to_text, "{named}: both writers word it alike");
            let mut patched = image.clone();
            patched[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            match decode_scene(&patched, 1) {
                Err(SceneIoError::Format(m)) => assert!(m.contains(named), "{named}: {m}"),
                other => panic!("{named}: the binary reader gave {other:?}"),
            }
        };
        refused(
            |s| s.gaussians[0].ln_opacity = f32::NAN,
            records_at + 4 * ln_opacity,
            f32::NAN,
            "float in gaussian 0 (index",
        );
        refused(
            |s| s.fov_y_deg = f32::INFINITY,
            fov_at,
            f32::INFINITY,
            "fov_y_deg: inf",
        );
        refused(
            |s| s.rig.radius = f32::NEG_INFINITY,
            fov_at + 4 * 7,
            f32::NEG_INFINITY,
            "rig.radius: -inf",
        );
        // The record's own index is named by both writers and the reader.
        let mut scene = clean.clone();
        scene.gaussians[3].ln_opacity = f32::NAN;
        let want = format!("non-finite float in gaussian 3 (index {ln_opacity}): NaN");
        let err = to_json(&scene, false).unwrap_err().to_string();
        assert!(err.ends_with(&want), "{err}");
        let mut patched = image.clone();
        let at = records_at + 3 * 4 * PARAM_FLOATS + 4 * ln_opacity;
        patched[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = decode_scene(&patched, 1).unwrap_err().to_string();
        assert!(err.ends_with(&want), "{err}");
    }

    #[test]
    fn the_binary_name_cap_holds_on_both_sides() {
        let mut scene = small_scene();
        scene.name = "n".repeat(MAX_NAME_BYTES);
        let back = decode_scene(&image_of(&scene), 1).unwrap();
        assert_eq!(back.name, scene.name);
        scene.name.push('n');
        let mut sink = Vec::new();
        let err = write_binary(&scene, &mut sink).unwrap_err();
        assert!(sink.is_empty());
        assert_eq!(err.to_string(), "invalid scene file: name length 4097");
    }

    #[test]
    fn binary_round_trip() {
        let scene = small_scene();
        let back = decode_scene(&image_of(&scene), 1).unwrap();
        assert_eq!(scene.name, back.name);
        assert_eq!(scene.gaussians, back.gaussians);
        assert_eq!(scene.rig, back.rig);
    }

    #[test]
    fn binary_size_matches_59_float_records() {
        let scene = small_scene();
        let buf = image_of(&scene);
        let payload = scene.gaussians.len() * PARAM_FLOATS * 4;
        // Header: magic 8 + name_len 4 + name + res 8 + fov 4 + rig 40 + count 8.
        let header = 8 + 4 + scene.name.len() + 8 + 4 + 40 + 8;
        assert_eq!(buf.len(), header + payload);
    }

    #[test]
    fn a_byte_after_the_last_record_is_refused() {
        let image = image_of(&small_scene());
        // 0 is the "no hierarchy" flag byte earlier writers put there.
        for extra in [&[0u8][..], &[1], &[7, 7, 7]] {
            let mut bytes = image.clone();
            bytes.extend_from_slice(extra);
            match decode_scene(&bytes, 1).unwrap_err() {
                SceneIoError::Format(m) => {
                    assert_eq!(m, format!("{} bytes after the last record", extra.len()))
                }
                other => panic!("{extra:?}: {other}"),
            }
        }
    }

    #[test]
    fn records_decode_in_chunks_only_when_every_span_is_a_record() {
        let g = |x: f32, r: f32| {
            Gaussian3D::isotropic(Vec3::new(x, 0.0, 0.0), r, 0.8, Vec3::splat(0.5))
        };
        let gaussians = vec![g(0.0, 0.1), g(1.0, 0.2), g(2.0, 0.3)];
        let record = |g: &Gaussian3D| format!("{:?}", g.to_floats()).replace(' ', "");
        let records: Vec<String> = gaussians.iter().map(record).collect();
        let doc = format!("[{}] ", records.join(","));
        let entered = |doc| {
            let mut r = Reader::new(doc);
            r.begin_array().unwrap();
            r
        };
        for threads in [2, 3, 8] {
            let mut r = entered(&doc);
            let chunked = read_json_spans(&mut r, threads);
            assert_eq!(chunked.as_ref(), Some(&gaussians), "{threads}");
            assert_eq!(r.offset(), doc.len() - 1, "left behind the closer");
            r.finish().unwrap();
        }
        // Long enough to clear the work floor, the array is decoded on
        // helper threads too, into what one thread reads.
        let long = format!("[{}]", vec![records.join(","); 1000].join(","));
        let [one, more @ ..] = [1, 2, 3, 8].map(|threads| {
            let mut r = Reader::new(&long);
            let read = read_json_records(&mut r, "g", threads).unwrap();
            r.finish().unwrap();
            read
        });
        assert_eq!(one.len(), 3000);
        assert!(more.iter().all(|read| *read == one));
        // A short array is not: each array is weighed alone.
        let floor = (gcc_parallel::MIN_NS_PER_THREAD / u64::from(RECORD_NS)) as usize;
        assert_eq!(
            gcc_parallel::worthwhile_threads(8, 2 * floor - 1, RECORD_NS),
            1
        );
        assert_eq!(gcc_parallel::worthwhile_threads(8, 4 * floor, RECORD_NS), 4);
        // One span that is no record: nothing of the chunked decode
        // stands, the reader has not moved, and the error is the
        // sequential loop's.
        let bad = doc.replacen("],[", "],[true,", 1);
        let mut r = entered(&bad);
        assert_eq!(r.flat_arrays(MIN_RECORD_BYTES).starts.len(), 3);
        assert_eq!(read_json_spans(&mut r, 2), None);
        assert_eq!(r.offset(), 1);
        for threads in [1, 2] {
            let err = read_json_records(&mut Reader::new(&bad), "g", threads).unwrap_err();
            assert!(err.starts_with("g 1: expected a number at byte"), "{err}");
        }
        // A span too short to be a record ends the walk where it stands.
        let short = format!("[{},[0,1],{}]", records[0], records[1]);
        let mut r = entered(&short);
        let spans = r.flat_arrays(MIN_RECORD_BYTES);
        assert_eq!((spans.starts.len(), spans.close), (1, None));
        assert_eq!(read_json_spans(&mut r, 2), None);
        // And an empty array is an empty cloud, chunked or not.
        for threads in [1, 2] {
            let mut r = Reader::new(" [ ] ");
            assert_eq!(read_json_records(&mut r, "g", threads), Ok(Vec::new()));
            r.finish().unwrap();
        }
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
        // Without the whole magic a file is read as JSON, and refused.
        for bytes in [&b"NOTASCENE_______"[..], b"GCC3DGS\x01________"] {
            let err = decode_scene(bytes, 1).unwrap_err();
            assert!(matches!(err, SceneIoError::Format(_)), "{err}");
        }
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = image_of(&small_scene());
        buf.truncate(buf.len() - 13);
        let err = decode_scene(&buf, 1).unwrap_err();
        assert!(matches!(err, SceneIoError::Io(_)));
    }
}
