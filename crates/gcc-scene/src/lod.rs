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
use std::fmt::Write as _;
use std::io::{self, Write};

/// Decodes a JSON array of 59-number records in one pass, each number
/// parsed once from its source text. The result ends with
/// `capacity == len`, which is what `approx_bytes` charges.
///
/// # Errors
///
/// Names the index (and `what` cloud) of the first record that is not
/// exactly 59 in-range numbers.
pub(crate) fn read_json_records(r: &mut Reader<'_>, what: &str) -> Result<Vec<Gaussian3D>, String> {
    r.begin_array()?;
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
    fn read_json(r: &mut Reader<'_>, li: usize) -> Result<Self, String> {
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
                    gaussians = Some(read_json_records(r, &format!("lod level {li} gaussian"))?);
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
    /// keys in any order, unknown keys skipped) off `r`, in one pass.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first schema violation. A
    /// repeated `levels` or `gaussians` key is one: a streaming decoder
    /// would pay for both arrays to keep one.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Self, String> {
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
                        read.push(LodLevel::read_json(r, read.len())?);
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
