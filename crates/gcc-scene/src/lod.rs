//! Coarse-to-fine Gaussian hierarchy attached to a [`Scene`](crate::Scene).
//!
//! A [`SceneLod`] is a stack of mip-style levels: level 0 is the full
//! cloud (stored once, in `Scene::gaussians`, *not* duplicated here);
//! level `ℓ ≥ 1` replaces spatial clusters of level `ℓ-1` with single
//! fatter, opacity/SH-compensated Gaussians. The hierarchy *builder*
//! lives in the `gcc-lod` crate (it needs the parallel stack); this
//! module holds only the data type, its byte accounting, and its
//! JSON/binary codecs so scenes can carry a hierarchy through the io
//! layer and the serve cache without a dependency cycle. The two record
//! decoders every Gaussian array of a scene file goes through
//! (`read_json_records`, `read_binary_records`) live here for the
//! same reason: [`crate::io`] reads the scene's own cloud with them.

use crate::codec;
use crate::json::Reader;
use gcc_core::{Gaussian3D, PARAM_FLOATS};
use gcc_parallel::par_chunks_mut;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// The least text a record takes: 59 one-digit numbers, 58 commas and the
/// two brackets. A shorter element cannot be one, so [`read_json_records`]
/// never sizes its output from a count the text cannot back with data: at
/// most 236 resident bytes for every 119 of input.
const MIN_RECORD_BYTES: usize = 2 * PARAM_FLOATS + 1;

/// Rough cost of decoding one record on one thread, for the chunked maps'
/// work floor (5 040 records in 5.2 ms): an array of fewer than 100 is
/// decoded by the thread that walked it.
const RECORD_NS: u32 = 1_000;

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
pub(crate) fn read_json_records(
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
/// `threads` threads as its records keep busy ([`RECORD_NS`] each: every
/// array of a document is weighed on its own, so a hierarchy's shortest
/// levels wake no helper), with `r` left behind it — or `None`, and `r`
/// where it was.
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

/// Decodes `count` little-endian 59-float records off the front of `r`.
/// The count is checked against the bytes in hand before anything is
/// reserved, so a hostile header cannot ask for more than its file holds.
///
/// # Errors
///
/// `UnexpectedEof` when `r` is shorter than `count` records.
pub(crate) fn read_binary_records(r: &mut &[u8], count: u64) -> io::Result<Vec<Gaussian3D>> {
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
    let mut floats = [0.0f32; PARAM_FLOATS];
    Ok(records
        .chunks_exact(RECORD_BYTES)
        .map(|rec| {
            for (slot, b) in floats.iter_mut().zip(rec.chunks_exact(4)) {
                *slot = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
            Gaussian3D::from_floats(&floats)
        })
        .collect())
}

/// One coarse level of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LodLevel {
    /// Merged Gaussians at this level (coarser ⇒ fewer, fatter).
    pub gaussians: Vec<Gaussian3D>,
    /// Edge length of the merge voxel grid that produced this level, in
    /// world units. Doubles per level.
    pub cell_size: f32,
}

impl LodLevel {
    /// Resident heap size of this level in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.gaussians.capacity() * std::mem::size_of::<Gaussian3D>()
    }

    /// Reads level `li` of a hierarchy's `levels` array.
    fn read_json(r: &mut Reader<'_>, li: usize, threads: usize) -> Result<Self, String> {
        let (mut cell_size, mut gaussians) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "cell_size" if cell_size.is_none() => {
                    let v = r
                        .f32()
                        .map_err(|e| format!("lod level {li}: bad 'cell_size': {e}"));
                    cell_size = Some(v?);
                }
                "gaussians" if gaussians.is_none() => {
                    let what = format!("lod level {li} gaussian");
                    gaussians = Some(read_json_records(r, &what, threads)?);
                }
                "gaussians" => {
                    return Err(format!(
                        "lod level {li}: repeated 'gaussians' at byte {}",
                        r.offset()
                    ));
                }
                _ => r.skip_value()?,
            }
        }
        Ok(Self {
            gaussians: gaussians.ok_or_else(|| format!("lod level {li}: missing 'gaussians'"))?,
            cell_size: cell_size.ok_or_else(|| format!("lod level {li}: missing 'cell_size'"))?,
        })
    }
}

/// A coarse-to-fine Gaussian hierarchy: `levels[0]` is the *first coarse*
/// level (one merge step above the full cloud), `levels.last()` the
/// coarsest. Level indices exposed to callers are therefore 1-based:
/// "level 0" always means the scene's own full-resolution cloud.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SceneLod {
    /// Coarse levels, finest first. Never empty in a built hierarchy.
    pub levels: Vec<LodLevel>,
    /// Seed the builder was run with (determinism receipt).
    pub seed: u64,
}

impl SceneLod {
    /// Number of coarse levels (excludes the implicit full-quality level 0).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The Gaussians at hierarchy level `level`, where level 0 is the
    /// full cloud (`full` must be the scene's own `gaussians`). Levels
    /// beyond the coarsest clamp to the coarsest.
    pub fn level_gaussians<'a>(&'a self, full: &'a [Gaussian3D], level: usize) -> &'a [Gaussian3D] {
        if level == 0 || self.levels.is_empty() {
            full
        } else {
            &self.levels[(level - 1).min(self.levels.len() - 1)].gaussians
        }
    }

    /// Resident heap+inline size of the hierarchy in bytes — charged
    /// against the serve cache's byte budget via `Scene::approx_bytes`.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .levels
                .iter()
                .map(LodLevel::approx_bytes)
                .sum::<usize>()
    }

    /// Appends this hierarchy as a compact JSON object to `out` (the
    /// scene JSON codec embeds it under a `"lod"` key). Floats use
    /// Rust's shortest round-trip formatting, like the scene writer.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first non-finite float (JSON has no
    /// NaN/infinity tokens).
    pub fn write_json(&self, out: &mut String) -> Result<(), String> {
        let _ = write!(out, "{{\"seed\":{},\"levels\":[", self.seed);
        for (li, l) in self.levels.iter().enumerate() {
            if !l.cell_size.is_finite() {
                return Err(format!("non-finite cell_size in lod level {li}"));
            }
            if li > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"cell_size\":{},\"gaussians\":[", l.cell_size);
            for (gi, g) in l.gaussians.iter().enumerate() {
                if gi > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, v) in g.to_floats().iter().enumerate() {
                    if !v.is_finite() {
                        return Err(format!(
                            "non-finite float in lod level {li} gaussian {gi} (index {j})"
                        ));
                    }
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        Ok(())
    }

    /// Reads the object produced by [`Self::write_json`] (spaced or not,
    /// keys in any order, unknown keys skipped) off `r`, in one pass on
    /// the calling thread.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first schema violation. A
    /// repeated `levels` or `gaussians` key is one: a streaming decoder
    /// would pay for both arrays to keep one.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Self, String> {
        Self::read_json_on(r, 1)
    }

    /// [`Self::read_json`] with every level's records decoded on
    /// `threads` threads (see [`read_json_records`]).
    pub(crate) fn read_json_on(r: &mut Reader<'_>, threads: usize) -> Result<Self, String> {
        let (mut seed, mut levels) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "seed" if seed.is_none() => {
                    seed = Some(r.u64().map_err(|e| format!("lod: bad 'seed': {e}"))?);
                }
                "levels" if levels.is_none() => {
                    let mut read = Vec::new();
                    r.begin_array()?;
                    while r.next_element()? {
                        read.push(LodLevel::read_json(r, read.len(), threads)?);
                    }
                    levels = Some(read);
                }
                "levels" => {
                    return Err(format!("lod: repeated 'levels' at byte {}", r.offset()));
                }
                _ => r.skip_value()?,
            }
        }
        Ok(Self {
            levels: levels.ok_or("lod: missing 'levels' array")?,
            seed: seed.ok_or("lod: missing numeric 'seed'")?,
        })
    }

    /// Writes the binary hierarchy section: seed, level count, then per
    /// level its cell size, count, and raw 59-float records.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        crate::codec::write_u64(w, self.seed)?;
        crate::codec::write_u32(w, self.levels.len() as u32)?;
        for l in &self.levels {
            crate::codec::write_f32(w, l.cell_size)?;
            crate::codec::write_u64(w, l.gaussians.len() as u64)?;
            for g in &l.gaussians {
                for f in g.to_floats() {
                    crate::codec::write_f32(w, f)?;
                }
            }
        }
        Ok(())
    }

    /// Reads the section written by [`Self::write_binary`] off the front
    /// of `r`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for an implausible level count and
    /// `UnexpectedEof` for truncation, including a record count the
    /// remaining bytes cannot hold.
    pub fn read_binary(r: &mut &[u8]) -> io::Result<Self> {
        let seed = codec::read_u64(r)?;
        let n_levels = codec::read_u32(r)? as usize;
        if n_levels > 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("lod: implausible level count {n_levels}"),
            ));
        }
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let cell_size = codec::read_f32(r)?;
            let count = codec::read_u64(r)?;
            levels.push(LodLevel {
                gaussians: read_binary_records(r, count)?,
                cell_size,
            });
        }
        Ok(Self { levels, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

    fn sample_lod() -> SceneLod {
        let g = |x: f32, r: f32| {
            Gaussian3D::isotropic(Vec3::new(x, 0.0, 0.0), r, 0.8, Vec3::splat(0.5))
        };
        SceneLod {
            levels: vec![
                LodLevel {
                    gaussians: vec![g(0.0, 0.1), g(1.0, 0.2), g(2.0, 0.3)],
                    cell_size: 0.5,
                },
                LodLevel {
                    gaussians: vec![g(0.5, 0.4)],
                    cell_size: 1.0,
                },
            ],
            seed: 42,
        }
    }

    #[test]
    fn level_gaussians_clamps_and_maps_zero_to_full() {
        let lod = sample_lod();
        let full = vec![Gaussian3D::default(); 7];
        assert_eq!(lod.level_gaussians(&full, 0).len(), 7);
        assert_eq!(lod.level_gaussians(&full, 1).len(), 3);
        assert_eq!(lod.level_gaussians(&full, 2).len(), 1);
        // Beyond the coarsest clamps.
        assert_eq!(lod.level_gaussians(&full, 99).len(), 1);
    }

    #[test]
    fn approx_bytes_counts_all_levels() {
        let lod = sample_lod();
        let per_gaussian = std::mem::size_of::<Gaussian3D>();
        assert!(lod.approx_bytes() >= 4 * per_gaussian);
    }

    #[test]
    fn json_round_trip() {
        let lod = sample_lod();
        let mut doc = String::new();
        lod.write_json(&mut doc).unwrap();
        assert!(!doc.contains(' '), "the writer is compact: {doc}");
        let mut r = Reader::new(&doc);
        let back = SceneLod::read_json(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, lod);
    }

    #[test]
    fn records_decode_in_chunks_only_when_every_span_is_a_record() {
        let level = &sample_lod().levels[0];
        let record = |g: &Gaussian3D| format!("{:?}", g.to_floats()).replace(' ', "");
        let records: Vec<String> = level.gaussians.iter().map(record).collect();
        let doc = format!("[{}] ", records.join(","));
        let entered = |doc| {
            let mut r = Reader::new(doc);
            r.begin_array().unwrap();
            r
        };
        for threads in [2, 3, 8] {
            let mut r = entered(&doc);
            let chunked = read_json_spans(&mut r, threads);
            assert_eq!(chunked.as_ref(), Some(&level.gaussians), "{threads}");
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
        // A hierarchy's short levels are not: each array is weighed alone.
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
    fn non_finite_floats_are_rejected_at_write_time() {
        let mut lod = sample_lod();
        lod.levels[0].gaussians[1].ln_opacity = f32::NAN;
        let mut out = String::new();
        assert!(lod.write_json(&mut out).is_err());
        let mut lod = sample_lod();
        lod.levels[1].cell_size = f32::INFINITY;
        let mut out = String::new();
        assert!(lod.write_json(&mut out).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let lod = sample_lod();
        let mut buf = Vec::new();
        lod.write_binary(&mut buf).unwrap();
        let back = SceneLod::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, lod);
    }

    #[test]
    fn binary_rejects_implausible_level_count() {
        let mut buf = Vec::new();
        crate::codec::write_u64(&mut buf, 0).unwrap();
        crate::codec::write_u32(&mut buf, 10_000).unwrap();
        assert!(SceneLod::read_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_binary_errors_instead_of_panicking() {
        let lod = sample_lod();
        let mut buf = Vec::new();
        lod.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(SceneLod::read_binary(&mut buf.as_slice()).is_err());
    }
}
