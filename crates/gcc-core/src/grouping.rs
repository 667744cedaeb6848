//! Stage I — Gaussian grouping by depth (paper §3 Stage I, §4.2).
//!
//! At the start of each frame the accelerator computes every Gaussian's
//! view-space depth with the shared MVMs, culls those in front of the
//! near pivot (`z′ < 0.2`), and partitions the rest into depth-ordered
//! groups. Coarse bins holding more than `N = 256` Gaussians are
//! recursively subdivided so that every group fits the on-chip sort unit.
//! Groups are emitted near-to-far; blending then only needs a sort
//! *within* each group to obtain a global front-to-back order.

use crate::{MAX_GROUP_SIZE, NEAR_DEPTH};

/// One depth group: the indices of its member Gaussians and its depth span.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthGroup {
    /// Indices into the scene's Gaussian array (unsorted within the group;
    /// Stage III sorts them).
    pub members: Vec<u32>,
    /// Minimum view depth of the group's bin (inclusive).
    pub depth_min: f32,
    /// Maximum view depth of the group's bin (exclusive).
    pub depth_max: f32,
}

/// The output of Stage I: near-to-far depth groups, each at most
/// [`MAX_GROUP_SIZE`] Gaussians, plus the near-plane culling count.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthGroups {
    /// Groups ordered near → far.
    pub groups: Vec<DepthGroup>,
    /// Gaussians culled by the near-plane pivot.
    pub near_culled: u32,
}

impl DepthGroups {
    /// Total Gaussians across all groups.
    pub fn total_members(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Iterates over groups near → far.
    pub fn iter(&self) -> impl Iterator<Item = &DepthGroup> {
        self.groups.iter()
    }
}

/// Groups Gaussians by precomputed view depths.
///
/// `depths[i]` is the view-space depth of Gaussian `i`. Gaussians with
/// depth `<` [`NEAR_DEPTH`] (or non-finite depth) are culled and counted.
/// The survivors fall into `max(n / 64, 64)` uniform coarse bins over
/// `[NEAR_DEPTH, max depth]` for `n = depths.len()` — the paper's ratio of
/// tens of thousands of bins for millions of Gaussians, about one bin per
/// 64 — and every bin holding more than [`MAX_GROUP_SIZE`] is bisected
/// until its groups fit the sort unit.
pub fn group_by_depth(depths: &[f32]) -> DepthGroups {
    let coarse_bins = (depths.len() / 64).max(64);
    let mut near_culled = 0u32;
    let mut max_depth = NEAR_DEPTH;
    let mut survivors: Vec<(u32, f32)> = Vec::with_capacity(depths.len());
    for (i, &d) in depths.iter().enumerate() {
        if !d.is_finite() || d < NEAR_DEPTH {
            near_culled += 1;
            continue;
        }
        max_depth = max_depth.max(d);
        survivors.push((i as u32, d));
    }

    if survivors.is_empty() {
        return DepthGroups {
            groups: Vec::new(),
            near_culled,
        };
    }

    // Coarse binning: uniform bins over [near, max_depth].
    let span = (max_depth - NEAR_DEPTH).max(1e-6);
    let bin_width = span / coarse_bins as f32;
    let mut bins: Vec<Vec<(u32, f32)>> = vec![Vec::new(); coarse_bins];
    for &(id, d) in &survivors {
        let idx = (((d - NEAR_DEPTH) / bin_width) as usize).min(coarse_bins - 1);
        bins[idx].push((id, d));
    }

    // Recursive subdivision of overfull bins (paper §4.2: bins with
    // N′ > N are split until every subgroup holds ≤ N Gaussians).
    let mut groups = Vec::new();
    for (b, members) in bins.into_iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let lo = NEAR_DEPTH + b as f32 * bin_width;
        let hi = lo + bin_width;
        subdivide(members, lo, hi, &mut groups);
    }

    DepthGroups {
        groups,
        near_culled,
    }
}

/// Splits `members` (all inside `[lo, hi)`) into groups of at most
/// [`MAX_GROUP_SIZE`], bisecting the depth range. When a range stops
/// separating members (identical depths), falls back to chunking the sorted
/// list so termination is guaranteed.
fn subdivide(mut members: Vec<(u32, f32)>, lo: f32, hi: f32, out: &mut Vec<DepthGroup>) {
    if members.len() <= MAX_GROUP_SIZE {
        out.push(DepthGroup {
            members: members.into_iter().map(|(id, _)| id).collect(),
            depth_min: lo,
            depth_max: hi,
        });
        return;
    }
    let mid = 0.5 * (lo + hi);
    let (near_half, far_half): (Vec<_>, Vec<_>) = members.iter().partition(|&&(_, d)| d < mid);
    if near_half.is_empty() || far_half.is_empty() || (hi - lo) < 1e-5 {
        // Degenerate split (e.g. many identical depths): chunk in sorted
        // order, which preserves global ordering because all members share
        // (nearly) one depth.
        members.sort_by(|a, b| a.1.total_cmp(&b.1));
        for chunk in members.chunks(MAX_GROUP_SIZE) {
            out.push(DepthGroup {
                members: chunk.iter().map(|&(id, _)| id).collect(),
                depth_min: lo,
                depth_max: hi,
            });
        }
        return;
    }
    subdivide(near_half, lo, mid, out);
    subdivide(far_half, mid, hi, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depths_linear(n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f32 / n.max(1) as f32)
            .collect()
    }

    #[test]
    fn near_plane_culling_counts() {
        let depths = vec![0.1, 0.19, 0.2, 0.5, -1.0, f32::NAN, 3.0];
        let g = group_by_depth(&depths);
        assert_eq!(g.near_culled, 4);
        assert_eq!(g.total_members(), 3);
    }

    #[test]
    fn every_survivor_appears_exactly_once() {
        let depths = depths_linear(10_000, 0.3, 50.0);
        let g = group_by_depth(&depths);
        let mut seen = vec![false; depths.len()];
        for grp in g.iter() {
            for &id in &grp.members {
                assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
            }
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 10_000);
    }

    #[test]
    fn groups_respect_capacity() {
        // Heavily clustered depths force recursive subdivision down to the
        // chunking fallback.
        let mut depths = vec![1.0f32; 5_000];
        depths.extend(depths_linear(5_000, 0.3, 100.0));
        let g = group_by_depth(&depths);
        for grp in g.iter() {
            assert!(
                grp.members.len() <= MAX_GROUP_SIZE,
                "group of {} exceeds capacity {MAX_GROUP_SIZE}",
                grp.members.len(),
            );
        }
        assert_eq!(g.total_members(), 10_000);
    }

    #[test]
    fn groups_are_ordered_near_to_far() {
        let depths = depths_linear(20_000, 0.25, 80.0);
        let g = group_by_depth(&depths);
        let mut prev_max = f32::NEG_INFINITY;
        for grp in g.iter() {
            assert!(
                grp.depth_min >= prev_max - 1e-4,
                "group [{}, {}) not after previous max {prev_max}",
                grp.depth_min,
                grp.depth_max
            );
            prev_max = grp.depth_max.max(prev_max);
        }
    }

    #[test]
    fn members_fall_inside_their_groups_bin() {
        let depths = depths_linear(3_000, 0.5, 10.0);
        let g = group_by_depth(&depths);
        for grp in g.iter() {
            for &id in &grp.members {
                let d = depths[id as usize];
                assert!(
                    d >= grp.depth_min - 1e-4 && d <= grp.depth_max + 1e-4,
                    "depth {d} outside bin [{}, {})",
                    grp.depth_min,
                    grp.depth_max
                );
            }
        }
    }

    #[test]
    fn identical_depths_still_terminate_and_chunk() {
        // One more than a group holds, all at one depth: bisection cannot
        // separate them, so the bin is chunked in order.
        let depths = vec![2.0f32; MAX_GROUP_SIZE + 1];
        let g = group_by_depth(&depths);
        let sizes: Vec<usize> = g.iter().map(|grp| grp.members.len()).collect();
        assert_eq!(sizes, [MAX_GROUP_SIZE, 1]);
        let members: Vec<u32> = g.iter().flat_map(|grp| grp.members.clone()).collect();
        assert_eq!(members, (0..=MAX_GROUP_SIZE as u32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_empty_groups() {
        let g = group_by_depth(&[]);
        assert!(g.groups.is_empty());
        assert_eq!(g.near_culled, 0);
    }

    #[test]
    fn cross_group_ordering_enables_global_sort() {
        // Sorting within each group must yield a globally sorted sequence.
        let depths = depths_linear(5_000, 0.21, 42.0);
        let g = group_by_depth(&depths);
        let mut prev = f32::NEG_INFINITY;
        for grp in g.iter() {
            let mut ds: Vec<f32> = grp.members.iter().map(|&i| depths[i as usize]).collect();
            ds.sort_by(f32::total_cmp);
            for d in ds {
                assert!(d >= prev - 1e-4, "global order violated: {d} after {prev}");
                prev = d;
            }
        }
    }

    #[test]
    fn coarse_bins_scale_with_the_cloud() {
        // Evenly spread depths from the near pivot put at least one
        // Gaussian in every coarse bin and at most 64-odd in any, so no
        // bin is subdivided and the group count is the bin count: 64 below
        // 4 096 Gaussians, one per 64 from there on.
        for (n, bins) in [
            (100, 64),
            (1_000, 64),
            (4_095, 64),
            (4_096, 64),
            (6_400, 100),
            (64_000, 1_000),
        ] {
            let depths = depths_linear(n, NEAR_DEPTH, 30.0);
            let g = group_by_depth(&depths);
            assert_eq!(g.groups.len(), bins, "{n} Gaussians");
            assert_eq!(g.total_members(), n);
        }
    }
}
