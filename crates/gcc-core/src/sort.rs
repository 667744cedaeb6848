//! The hardware depth-sorting substrate: a 16-element bitonic sorting
//! network plus the merge scheduler that sorts a full depth group through
//! it — "the Sort Unit determines the rendering order using a 16-element
//! bitonic sorting network, following the design in GSCore" (paper §4.1).
//!
//! The functional renderers use `slice::sort_by` for speed; this module is
//! the cycle-faithful model the simulator's sort-throughput constant is
//! derived from, and tests pin the two against each other.

/// Width of the hardware sorting network (GSCore/GCC: 16).
pub const NETWORK_WIDTH: usize = 16;

/// Monotone `u32` sort key of an `f32` depth: ascending key order is
/// exactly ascending [`f32::total_cmp`] order (including `-0.0 < +0.0`,
/// denormals, and infinities).
///
/// The transform is the classic sign-flip trick: negative floats have
/// their bits inverted (reversing their descending bit order), positive
/// floats get the sign bit set (placing them above all negatives). This is
/// what lets the frame pipeline replace comparison sorts over depths with
/// one LSD radix sort over keys.
#[inline]
pub fn depth_key(depth: f32) -> u32 {
    let bits = depth.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// A key-index pair flowing through the sorter (depth + Gaussian ID).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortRecord {
    /// Sort key (view depth).
    pub key: f32,
    /// Payload (Gaussian index).
    pub id: u32,
}

/// Statistics of one sort: how much work the hardware network did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Compare-exchange operations executed.
    pub compare_exchanges: u64,
    /// Passes through the 16-wide network.
    pub network_passes: u64,
    /// Merge steps performed on sorted runs.
    pub merge_steps: u64,
}

impl SortStats {
    /// Cycles for this sort assuming one network pass per cycle and a
    /// 2-element-per-cycle merge datapath — the basis of the simulator's
    /// `sort_throughput` constant.
    pub fn cycles(&self) -> u64 {
        self.network_passes + self.merge_steps
    }
}

/// One pass of a 16-element bitonic sorting network: sorts `chunk`
/// ascending by key, counting compare-exchanges exactly as the wired
/// network executes them (all ⌈log²n·n/4⌉ comparators fire regardless of
/// data).
///
/// # Panics
///
/// Panics if `chunk.len() > NETWORK_WIDTH`.
pub fn bitonic16(chunk: &mut [SortRecord], stats: &mut SortStats) {
    assert!(
        chunk.len() <= NETWORK_WIDTH,
        "network width exceeded: {}",
        chunk.len()
    );
    stats.network_passes += 1;
    // Short chunks are padded with +∞-keyed sentinels — exactly what the
    // hardware feeds unused lanes — which sort to the tail and are
    // discarded. All comparators fire every pass regardless of occupancy.
    let n = NETWORK_WIDTH;
    let mut lanes = [SortRecord {
        key: f32::INFINITY,
        id: u32::MAX,
    }; NETWORK_WIDTH];
    lanes[..chunk.len()].copy_from_slice(chunk);
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    stats.compare_exchanges += 1;
                    let ascending = (i & k) == 0;
                    let out_of_order = if ascending {
                        lanes[i].key > lanes[l].key
                    } else {
                        lanes[i].key < lanes[l].key
                    };
                    if out_of_order {
                        lanes.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    let len = chunk.len();
    chunk.copy_from_slice(&lanes[..len]);
}

/// Sorts an arbitrary-length record list the way the hardware does: cut
/// into 16-element runs, sort each through the bitonic network, then
/// 2-way-merge runs until one remains. Returns the work statistics.
///
/// The network passes run in place and the merge tree ping-pongs between
/// the record buffer and one reused scratch buffer (the hardware's double
/// buffer) — no per-run or per-merge-step allocations. The bottom-up
/// width-doubling sweep visits runs in exactly the order the pairwise
/// merge tree does (runs are contiguous, each round merges neighbors left
/// to right, an odd tail run is carried unmerged), so the statistics are
/// bit-identical to the allocating formulation — tests pin this.
pub fn sort_group(records: &mut Vec<SortRecord>, stats: &mut SortStats) {
    let n = records.len();
    if n <= 1 {
        return;
    }
    // Phase 1: network passes over 16-element runs, in place.
    for chunk in records.chunks_mut(NETWORK_WIDTH) {
        bitonic16(chunk, stats);
    }
    if n <= NETWORK_WIDTH {
        return;
    }
    // Phase 2: binary merge tree, bottom-up over the flat buffer.
    let mut src = std::mem::take(records);
    let mut dst: Vec<SortRecord> = Vec::with_capacity(n);
    let mut width = NETWORK_WIDTH;
    while width < n {
        dst.clear();
        let mut start = 0;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            if mid < end {
                merge_into(&src[start..mid], &src[mid..end], &mut dst, stats);
            } else {
                // Odd tail run: carried to the next round unmerged (no
                // merge work, exactly as the pairwise tree carries it).
                dst.extend_from_slice(&src[start..end]);
            }
            start = end;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    *records = src;
}

fn merge_into(
    a: &[SortRecord],
    b: &[SortRecord],
    out: &mut Vec<SortRecord>,
    stats: &mut SortStats,
) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        stats.merge_steps += 1;
        if a[i].key <= b[j].key {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    stats.merge_steps += (a.len() - i + b.len() - j) as u64;
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Convenience: sorts a `(depth, id)` list and returns the IDs in
/// front-to-back order plus statistics — the Sort Unit's external
/// interface in Stage III.
pub fn sort_by_depth(pairs: &[(f32, u32)]) -> (Vec<u32>, SortStats) {
    let mut records: Vec<SortRecord> = pairs
        .iter()
        .map(|&(key, id)| SortRecord { key, id })
        .collect();
    let mut stats = SortStats::default();
    sort_group(&mut records, &mut stats);
    (records.into_iter().map(|r| r.id).collect(), stats)
}

#[cfg(test)]
// Test data: libm `sin` jitters a depth sweep.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn keys(records: &[SortRecord]) -> Vec<f32> {
        records.iter().map(|r| r.key).collect()
    }

    fn make(keys: &[f32]) -> Vec<SortRecord> {
        keys.iter()
            .enumerate()
            .map(|(i, &key)| SortRecord { key, id: i as u32 })
            .collect()
    }

    #[test]
    fn network_sorts_full_width() {
        let mut v = make(&[
            5.0, 1.0, 9.0, -2.0, 7.5, 0.0, 3.3, 8.1, 2.2, 6.6, 4.4, -1.0, 10.0, 0.5, 9.9, 1.1,
        ]);
        let mut stats = SortStats::default();
        bitonic16(&mut v, &mut stats);
        let k = keys(&v);
        assert!(k.windows(2).all(|w| w[0] <= w[1]), "{k:?}");
        assert_eq!(stats.network_passes, 1);
        // A 16-wide bitonic network has n/2 · log²n / ... = 8 · 10 = 80
        // comparators; all fire each pass.
        assert_eq!(stats.compare_exchanges, 80);
    }

    #[test]
    fn network_handles_partial_chunks() {
        for len in 1..=16usize {
            let src: Vec<f32> = (0..len).map(|i| ((i * 7919) % 97) as f32).collect();
            let mut v = make(&src);
            let mut stats = SortStats::default();
            bitonic16(&mut v, &mut stats);
            let k = keys(&v);
            assert!(k.windows(2).all(|w| w[0] <= w[1]), "len {len}: {k:?}");
            assert_eq!(v.len(), len);
        }
    }

    #[test]
    #[should_panic(expected = "network width exceeded")]
    fn oversized_chunk_panics() {
        let mut v = make(&[0.0; 17]);
        bitonic16(&mut v, &mut SortStats::default());
    }

    #[test]
    fn group_sort_matches_std_sort() {
        let src: Vec<f32> = (0..256)
            .map(|i| (((i * 2654435761u64 as usize) % 1000) as f32) * 0.1)
            .collect();
        let pairs: Vec<(f32, u32)> = src
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let (ids, stats) = sort_by_depth(&pairs);
        let mut expect: Vec<(f32, u32)> = pairs.clone();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Keys in hardware order must equal std-sorted keys.
        let got_keys: Vec<f32> = ids.iter().map(|&id| src[id as usize]).collect();
        let expect_keys: Vec<f32> = expect.iter().map(|&(k, _)| k).collect();
        assert_eq!(got_keys, expect_keys);
        assert!(stats.cycles() > 0);
    }

    #[test]
    fn group_sort_is_stable_enough_for_blending() {
        // Equal depths: any order is valid for blending, but every element
        // must survive exactly once.
        let pairs: Vec<(f32, u32)> = (0..100).map(|i| (1.0, i)).collect();
        let (ids, _) = sort_by_depth(&pairs);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn work_scales_near_linearithmic() {
        let small: Vec<(f32, u32)> = (0..64).map(|i| ((i * 31 % 64) as f32, i)).collect();
        let large: Vec<(f32, u32)> = (0..1024).map(|i| ((i * 31 % 1024) as f32, i)).collect();
        let (_, s_small) = sort_by_depth(&small);
        let (_, s_large) = sort_by_depth(&large);
        let ratio = s_large.cycles() as f64 / s_small.cycles() as f64;
        // 16x the elements with log-factor growth: between 16x and ~40x.
        assert!((16.0..48.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn max_group_sorts_within_simulator_budget() {
        // A full 256-element depth group (the Stage I capacity) must cost
        // on the order of elements/sort_throughput cycles — this anchors
        // the simulator's sort_throughput = 4 elements/cycle constant.
        let pairs: Vec<(f32, u32)> = (0..256).map(|i| (((i * 97) % 256) as f32, i)).collect();
        let (_, stats) = sort_by_depth(&pairs);
        let cycles = stats.cycles() as f64;
        let implied_throughput = 256.0 / cycles;
        assert!(
            implied_throughput > 0.15 && implied_throughput < 4.0,
            "implied throughput {implied_throughput} el/cycle"
        );
    }

    /// The pre-optimization formulation of [`sort_group`]: a `Vec` per
    /// 16-run and per merge step. Kept as the behavioral reference the
    /// buffer-reusing implementation is pinned against.
    fn sort_group_reference(records: &mut Vec<SortRecord>, stats: &mut SortStats) {
        fn merge(a: Vec<SortRecord>, b: Vec<SortRecord>, stats: &mut SortStats) -> Vec<SortRecord> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                stats.merge_steps += 1;
                if a[i].key <= b[j].key {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(b[j]);
                    j += 1;
                }
            }
            stats.merge_steps += (a.len() - i + b.len() - j) as u64;
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            out
        }
        if records.len() <= 1 {
            return;
        }
        let mut runs: Vec<Vec<SortRecord>> = Vec::new();
        for chunk in records.chunks(NETWORK_WIDTH) {
            let mut run = chunk.to_vec();
            bitonic16(&mut run, stats);
            runs.push(run);
        }
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(merge(a, b, stats)),
                    None => next.push(a),
                }
            }
            runs = next;
        }
        *records = runs.pop().unwrap_or_default();
    }

    #[test]
    fn ping_pong_sort_matches_allocating_reference_bit_for_bit() {
        // Lengths straddling run boundaries and odd merge-tree shapes:
        // the output order AND every statistic must match the reference.
        for len in [
            0usize, 1, 2, 15, 16, 17, 31, 32, 33, 48, 100, 256, 257, 1000,
        ] {
            let src: Vec<SortRecord> = (0..len)
                .map(|i| SortRecord {
                    key: (((i * 2654435761usize) % 1997) as f32) * 0.25 - 100.0,
                    id: i as u32,
                })
                .collect();
            let mut fast = src.clone();
            let mut fast_stats = SortStats::default();
            sort_group(&mut fast, &mut fast_stats);
            let mut reference = src;
            let mut ref_stats = SortStats::default();
            sort_group_reference(&mut reference, &mut ref_stats);
            assert_eq!(fast, reference, "order diverged at len {len}");
            assert_eq!(fast_stats, ref_stats, "stats diverged at len {len}");
        }
    }

    #[test]
    fn depth_key_order_matches_total_cmp_on_edge_values() {
        // ±0.0, denormals, near/far extremes, infinities — the exact value
        // classes projected depths and sort keys can hit.
        let values = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0e30,
            -2.5,
            -1.0e-40, // negative denormal
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0e-40, // positive denormal
            0.2,
            1.0,
            1.0e30,
            f32::MAX,
            f32::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    depth_key(a).cmp(&depth_key(b)),
                    a.total_cmp(&b),
                    "key order diverges from total_cmp for {a} vs {b}"
                );
            }
        }
        // -0.0 and +0.0 map to distinct, ordered keys.
        assert!(depth_key(-0.0) < depth_key(0.0));
    }

    #[test]
    fn depth_key_is_monotone_on_sorted_sweep() {
        let mut depths: Vec<f32> = (0..10_000)
            .map(|i| (i as f32 - 5_000.0) * 0.37 + 0.01 * (i as f32).sin())
            .collect();
        depths.sort_by(f32::total_cmp);
        for w in depths.windows(2) {
            assert!(depth_key(w[0]) <= depth_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let (ids, stats) = sort_by_depth(&[]);
        assert!(ids.is_empty());
        assert_eq!(stats.cycles(), 0);
        let (ids1, _) = sort_by_depth(&[(3.0, 42)]);
        assert_eq!(ids1, vec![42]);
    }
}
