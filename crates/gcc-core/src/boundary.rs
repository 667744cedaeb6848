//! Algorithm 1 — runtime Alpha-based Gaussian Boundary Identification
//! (paper §3 "Alpha-based Gaussian Boundary Identification" and §4.4), at
//! the granularity the Alpha Unit runs it.
//!
//! [`BlockTracer`] divides the screen into `n × n` pixel blocks (n = 8 in
//! GCC); an `n × n` PE array evaluates the elliptical alpha condition
//! `E(p)` for a whole block per dispatch, and the traversal expands block
//! by block from the projected center. The software PE array is one
//! [`KernelSet::block_pass`] call: it returns the block's pass pattern as
//! row masks, and everything the traversal needs is read from those bits —
//! whether the block is effective, which of its four boundary lanes and
//! four corner lanes passed (the octant-direction pruning), and, for a
//! masked block in [`MaskMode::Traverse`], whether the footprint reaches it
//! at all. A block is evaluated at most once per trace; the probe that
//! finds the seed block leaves its masks behind for the dispatch that
//! follows. Convexity of the Gaussian footprint makes the traversal exact:
//! with an all-clear mask the blocks it returns are exactly the blocks
//! holding a pixel with `α ≥ 1/255` (tested against an exhaustive scan).
//! The transmittance mask ([`TMask`]) from the Blending Unit pre-marks
//! fully-terminated blocks in the status map `S` so they are never
//! dispatched again (paper §4.5).
//!
//! When the projected center falls outside the image, traversal starts
//! from the block of the nearest in-bounds pixel; if that block fails `E`
//! the tracer probes the image's border blocks for an entry point (by
//! convexity, a footprint whose center is off-screen can only reach the
//! interior through the border).

use crate::bounds::EffectiveTest;
use crate::dispatch::{KernelSet, BLEND_LANES};

/// Block offsets of all eight neighbors, the order a masked block is
/// expanded through in [`MaskMode::Traverse`].
const NEIGHBORS8: [(i32, i32); 8] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

/// How a [`BlockTracer`] treats transmittance-masked blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskMode {
    /// The paper's §4.5 behaviour, kept as the ablation: masked blocks
    /// initialize the status map as visited — they are neither dispatched
    /// nor expanded through. Cheaper, but a footprint that reaches live
    /// blocks only across masked ones loses them (44.6 dB against
    /// [`MaskMode::Traverse`] at Drjohnson@1, 103.0 dB at Lego@0.5).
    SkipAndBlock,
    /// The default of every Gaussian-wise configuration, the GCC hardware
    /// one included: masked blocks are not dispatched to the PE array, but
    /// the traversal still expands through them, so no live block a
    /// footprint reaches is lost.
    Traverse,
}

/// Geometry of the block grid the Alpha Unit operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGrid {
    /// Block edge length in pixels (GCC: 8).
    pub block: u32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl BlockGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics for zero block size or image dimensions.
    pub fn new(block: u32, width: u32, height: u32) -> Self {
        assert!(block > 0 && width > 0 && height > 0, "degenerate grid");
        Self {
            block,
            width,
            height,
        }
    }

    /// Blocks per row.
    pub fn blocks_x(&self) -> u32 {
        self.width.div_ceil(self.block)
    }

    /// Blocks per column.
    pub fn blocks_y(&self) -> u32 {
        self.height.div_ceil(self.block)
    }

    /// Total block count.
    pub fn block_count(&self) -> usize {
        (self.blocks_x() * self.blocks_y()) as usize
    }

    /// Linear index of the block containing pixel `(x, y)`.
    pub fn block_of(&self, x: i32, y: i32) -> usize {
        let bx = (x.clamp(0, self.width as i32 - 1) as u32) / self.block;
        let by = (y.clamp(0, self.height as i32 - 1) as u32) / self.block;
        (by * self.blocks_x() + bx) as usize
    }

    /// Pixel rectangle of block `b`, clipped to the image:
    /// `(x0, y0, x1, y1)` with exclusive upper bounds.
    pub fn block_rect(&self, b: usize) -> (i32, i32, i32, i32) {
        let bx = (b as u32) % self.blocks_x();
        let by = (b as u32) / self.blocks_x();
        let x0 = bx * self.block;
        let y0 = by * self.block;
        (
            x0 as i32,
            y0 as i32,
            (x0 + self.block).min(self.width) as i32,
            (y0 + self.block).min(self.height) as i32,
        )
    }
}

/// Per-block transmittance mask maintained by the Blending Unit: a block is
/// masked once *all* of its pixels have terminated (`T < 1e-4`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TMask {
    bits: Vec<bool>,
}

impl TMask {
    /// All-clear mask for `grid`.
    pub fn new(grid: &BlockGrid) -> Self {
        let mut mask = Self::default();
        mask.reset(grid);
        mask
    }

    /// Re-targets the mask at `grid` with every bit clear, keeping its
    /// capacity.
    pub fn reset(&mut self, grid: &BlockGrid) {
        self.bits.clear();
        self.bits.resize(grid.block_count(), false);
    }

    /// Marks block `b` as fully terminated.
    pub fn set(&mut self, b: usize) {
        self.bits[b] = true;
    }

    /// `true` when block `b` is fully terminated.
    pub fn is_set(&self, b: usize) -> bool {
        self.bits[b]
    }

    /// Number of masked blocks.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }
}

/// Statistics from one block-level trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTraceStats {
    /// Blocks dispatched to the PE array (alpha computed for each lane).
    pub blocks_dispatched: u64,
    /// Dispatched blocks in which at least one pixel passed `E`.
    pub blocks_effective: u64,
    /// Alpha-lane evaluations (in-bounds pixels of dispatched blocks).
    pub pixels_evaluated: u64,
    /// Blocks skipped because their `TMask` bit was set.
    pub blocks_masked: u64,
}

/// Reusable block-level tracer mirroring the Alpha Unit's runtime
/// identifier (status map `S`, search queue `Q`, block dispatch).
#[derive(Debug, Clone)]
pub struct BlockTracer {
    grid: BlockGrid,
    /// `grid.blocks_x()` and `grid.blocks_y()`: the traversal turns block
    /// indices into coordinates several times per block, and each of the
    /// grid's own accessors costs a division.
    bw: i32,
    bh: i32,
    visited: Vec<u32>,
    stamp: u32,
    /// The search queue `Q`. A block enters at most once per trace (the
    /// status map sees to that), so the queue is a list with a read
    /// cursor, never longer than the grid.
    queue: Vec<usize>,
    /// Pass pattern of the block in `evaluated`, as
    /// [`crate::dispatch::BlockPassFn`] lays it out: a full block's worth
    /// of row masks, of which a clipped block uses a prefix.
    masks: Vec<u8>,
    /// The block of the current trace whose pass pattern `masks` holds.
    evaluated: Option<usize>,
}

/// Block offsets of the eight neighbor directions in the order the
/// octant-pruned expansion visits them: `[N, S, W, E, NW, NE, SW, SE]`.
const DIRECTIONS: [(i32, i32); 8] = [
    (0, -1),
    (0, 1),
    (-1, 0),
    (1, 0),
    (-1, -1),
    (1, -1),
    (-1, 1),
    (1, 1),
];

/// What the traversal reads off a block's row masks: whether each of the
/// eight neighbor [`DIRECTIONS`] is reached — the edge directions through
/// any lane of the facing boundary row or column, the diagonals through
/// the corner lane. `None` when no lane of the block passed.
fn pass_pattern(masks: &[u8], cols: usize) -> Option<[bool; 8]> {
    let groups = cols.div_ceil(BLEND_LANES);
    let east_bit = 1u8 << ((cols - 1) % BLEND_LANES);
    // OR of every row's first and last mask byte, and of all bytes.
    let (mut west_col, mut east_col, mut all) = (0u8, 0u8, 0u8);
    for row in masks.chunks_exact(groups) {
        west_col |= row[0];
        east_col |= row[groups - 1];
        all |= row.iter().fold(0, |acc, &m| acc | m);
    }
    if all == 0 {
        return None;
    }
    let (first, last) = (&masks[..groups], &masks[masks.len() - groups..]);
    let any = |row: &[u8]| row.iter().any(|&m| m != 0);
    Some([
        any(first),
        any(last),
        west_col & 1 != 0,
        east_col & east_bit != 0,
        first[0] & 1 != 0,
        first[groups - 1] & east_bit != 0,
        last[0] & 1 != 0,
        last[groups - 1] & east_bit != 0,
    ])
}

impl BlockTracer {
    /// Creates a tracer over `grid`.
    pub fn new(grid: BlockGrid) -> Self {
        let mut tracer = Self {
            grid,
            bw: 0,
            bh: 0,
            visited: Vec::new(),
            stamp: 0,
            queue: Vec::new(),
            masks: Vec::new(),
            evaluated: None,
        };
        tracer.retarget(grid);
        tracer
    }

    /// Points the tracer at another grid, keeping its buffers: what a
    /// renderer does with a tracer it holds across windows and frames.
    pub fn retarget(&mut self, grid: BlockGrid) {
        self.grid = grid;
        (self.bw, self.bh) = (grid.blocks_x() as i32, grid.blocks_y() as i32);
        self.visited.clear();
        self.visited.resize(grid.block_count(), 0);
        self.stamp = 0;
        let block = grid.block as usize;
        self.masks.resize(block * block.div_ceil(BLEND_LANES), 0);
    }

    /// The grid this tracer operates on.
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// Identifies the blocks a Gaussian influences, appending block indices
    /// of *effective* blocks (≥ 1 passing pixel, not masked) to `out`.
    ///
    /// `mask` and `mode` model the T-mask interaction; an all-clear mask
    /// traces without termination masking. `kernels` is the table whose
    /// `block_pass` stands in for the PE array — the caller's, so a render
    /// pinned to one backend traces with that backend.
    pub fn trace(
        &mut self,
        test: &EffectiveTest,
        mask: &TMask,
        mode: MaskMode,
        kernels: &KernelSet,
        out: &mut Vec<usize>,
    ) -> BlockTraceStats {
        out.clear();
        let mut stats = BlockTraceStats::default();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        self.evaluated = None;

        let seed = match self.find_seed_block(test, kernels) {
            Some(b) => b,
            None => return stats,
        };

        self.queue.clear();
        self.push_block(seed);
        let mut head = 0;
        while let Some(&b) = self.queue.get(head) {
            head += 1;
            if mask.is_set(b) {
                stats.blocks_masked += 1;
                // Paper behaviour: neither dispatched nor expanded
                // through. Ablation: expand through without dispatching,
                // when the footprint reaches the block at all.
                if mode == MaskMode::Traverse && self.evaluate(test, b, kernels).is_some() {
                    self.expand(b, NEIGHBORS8);
                }
                continue;
            }
            // Dispatch to the PE array: every in-bounds lane in parallel,
            // and the pass pattern of the boundary lanes drives the
            // octant-direction pruning (paper §4.4: "if all alpha values
            // on the boundary of a direction fall below the threshold,
            // the corresponding region ... is marked as pruned").
            let (_, cols, rows) = self.block_span(b);
            stats.blocks_dispatched += 1;
            stats.pixels_evaluated += (cols * rows) as u64;
            if let Some(reached) = self.evaluate(test, b, kernels) {
                stats.blocks_effective += 1;
                out.push(b);
                // Convexity: the footprint reaches a neighbor block only
                // through the facing boundary lanes (or the corner lane
                // for diagonal neighbors).
                let reached = DIRECTIONS.into_iter().zip(reached);
                self.expand(b, reached.filter_map(|(d, on)| on.then_some(d)));
            }
        }
        stats
    }

    /// The pass pattern of block `b` under `test`: one `block_pass` call
    /// over the block's in-image pixels, unless `b` is the block evaluated
    /// last (the seed probe before the seed's dispatch).
    fn evaluate(
        &mut self,
        test: &EffectiveTest,
        b: usize,
        kernels: &KernelSet,
    ) -> Option<[bool; 8]> {
        let (origin, cols, rows) = self.block_span(b);
        let len = rows * cols.div_ceil(BLEND_LANES);
        if self.evaluated != Some(b) {
            (kernels.block_pass)(test, origin, cols, &mut self.masks[..len]);
            self.evaluated = Some(b);
        }
        pass_pattern(&self.masks[..len], cols)
    }

    /// First pixel, width and height of block `b`, clipped to the image
    /// ([`BlockGrid::block_rect`] through the cached grid width).
    fn block_span(&self, b: usize) -> ((i32, i32), usize, usize) {
        let BlockGrid {
            block,
            width,
            height,
        } = self.grid;
        let (x0, y0) = (
            (b as u32 % self.bw as u32) * block,
            (b as u32 / self.bw as u32) * block,
        );
        (
            (x0 as i32, y0 as i32),
            block.min(width - x0) as usize,
            block.min(height - y0) as usize,
        )
    }

    fn push_block(&mut self, b: usize) {
        if self.visited[b] != self.stamp {
            self.visited[b] = self.stamp;
            self.queue.push(b);
        }
    }

    /// Queues the in-grid neighbors of `b` at block offsets `offsets`, in
    /// that order.
    fn expand(&mut self, b: usize, offsets: impl IntoIterator<Item = (i32, i32)>) {
        let (bw, bh) = (self.bw, self.bh);
        let (bx, by) = (b as i32 % bw, b as i32 / bw);
        for (dx, dy) in offsets {
            let (nx, ny) = (bx + dx, by + dy);
            if nx >= 0 && ny >= 0 && nx < bw && ny < bh {
                self.push_block((ny * bw + nx) as usize);
            }
        }
    }

    /// Seed block: the block containing the clamped center; if the center
    /// block's pixels all fail, probe the image border blocks (off-screen
    /// center case — the paper starts "from the nearest image corner").
    fn find_seed_block(&mut self, test: &EffectiveTest, kernels: &KernelSet) -> Option<usize> {
        let cx = test.mean.x.floor() as i32;
        let cy = test.mean.y.floor() as i32;
        let seed = self.grid.block_of(cx, cy);
        if self.evaluate(test, seed, kernels).is_some() {
            return Some(seed);
        }
        let center_in_bounds = test.mean.x >= 0.0
            && test.mean.y >= 0.0
            && test.mean.x < self.grid.width as f32
            && test.mean.y < self.grid.height as f32;
        if center_in_bounds {
            return None;
        }
        let (bw, bh) = (self.bw, self.bh);
        let top_bottom = (0..bw).flat_map(|bx| [bx, (bh - 1) * bw + bx]);
        let left_right = (0..bh).flat_map(|by| [by * bw, by * bw + bw - 1]);
        top_bottom
            .chain(left_right)
            .map(|b| b as usize)
            .find(|&b| self.evaluate(test, b, kernels).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{self, Backend};
    use crate::test_rng::splitmix;
    use gcc_math::{SymMat2, Vec2};
    use std::collections::VecDeque;

    /// The per-pixel block tracer this module carried before the PE array
    /// became a kernel: 64 scalar `E(p)` calls per dispatched block, the
    /// seed block scanned twice, the corners a third time. Kept as the
    /// reference the mask-driven tracer is pinned against.
    struct ReferenceTracer {
        grid: BlockGrid,
        visited: Vec<bool>,
        queue: VecDeque<usize>,
    }

    impl ReferenceTracer {
        fn new(grid: BlockGrid) -> Self {
            Self {
                grid,
                visited: Vec::new(),
                queue: VecDeque::new(),
            }
        }

        fn trace(
            &mut self,
            test: &EffectiveTest,
            mask: &TMask,
            mode: MaskMode,
            out: &mut Vec<usize>,
        ) -> BlockTraceStats {
            out.clear();
            let mut stats = BlockTraceStats::default();
            self.visited = vec![false; self.grid.block_count()];
            self.queue.clear();
            let Some(seed) = self.find_seed_block(test) else {
                return stats;
            };
            self.push_block(seed);
            while let Some(b) = self.queue.pop_front() {
                if mask.is_set(b) {
                    stats.blocks_masked += 1;
                    if mode == MaskMode::Traverse && self.block_passes_geometry(test, b) {
                        self.push_offsets(b, NEIGHBORS8);
                    }
                    continue;
                }
                let (x0, y0, x1, y1) = self.grid.block_rect(b);
                stats.blocks_dispatched += 1;
                stats.pixels_evaluated += ((x1 - x0) * (y1 - y0)) as u64;
                let mut any = false;
                let (mut north, mut south, mut west, mut east) = (false, false, false, false);
                for y in y0..y1 {
                    for x in x0..x1 {
                        if test.passes(x, y) {
                            any = true;
                            north |= y == y0;
                            south |= y == y1 - 1;
                            west |= x == x0;
                            east |= x == x1 - 1;
                        }
                    }
                }
                if any {
                    stats.blocks_effective += 1;
                    out.push(b);
                    let reached = [
                        north,
                        south,
                        west,
                        east,
                        test.passes(x0, y0),
                        test.passes(x1 - 1, y0),
                        test.passes(x0, y1 - 1),
                        test.passes(x1 - 1, y1 - 1),
                    ];
                    let offsets = DIRECTIONS.into_iter().zip(reached);
                    self.push_offsets(b, offsets.filter_map(|(d, on)| on.then_some(d)));
                }
            }
            stats
        }

        fn block_passes_geometry(&self, test: &EffectiveTest, b: usize) -> bool {
            let (x0, y0, x1, y1) = self.grid.block_rect(b);
            (y0..y1).any(|y| (x0..x1).any(|x| test.passes(x, y)))
        }

        fn push_block(&mut self, b: usize) {
            if !std::mem::replace(&mut self.visited[b], true) {
                self.queue.push_back(b);
            }
        }

        fn push_offsets(&mut self, b: usize, offsets: impl IntoIterator<Item = (i32, i32)>) {
            let (bw, bh) = (self.grid.blocks_x() as i32, self.grid.blocks_y() as i32);
            let (bx, by) = (b as i32 % bw, b as i32 / bw);
            for (dx, dy) in offsets {
                let (nx, ny) = (bx + dx, by + dy);
                if nx >= 0 && ny >= 0 && nx < bw && ny < bh {
                    self.push_block((ny * bw + nx) as usize);
                }
            }
        }

        fn find_seed_block(&self, test: &EffectiveTest) -> Option<usize> {
            let cx = test.mean.x.floor() as i32;
            let cy = test.mean.y.floor() as i32;
            let seed = self.grid.block_of(cx, cy);
            if self.block_passes_geometry(test, seed) {
                return Some(seed);
            }
            let center_in_bounds = test.mean.x >= 0.0
                && test.mean.y >= 0.0
                && test.mean.x < self.grid.width as f32
                && test.mean.y < self.grid.height as f32;
            if center_in_bounds {
                return None;
            }
            let (bw, bh) = (self.grid.blocks_x() as i32, self.grid.blocks_y() as i32);
            for bx in 0..bw {
                for by in [0, bh - 1] {
                    let b = (by * bw + bx) as usize;
                    if self.block_passes_geometry(test, b) {
                        return Some(b);
                    }
                }
            }
            for by in 0..bh {
                for bx in [0, bw - 1] {
                    let b = (by * bw + bx) as usize;
                    if self.block_passes_geometry(test, b) {
                        return Some(b);
                    }
                }
            }
            None
        }
    }

    #[test]
    fn mask_driven_tracer_equals_the_per_pixel_reference() {
        // Seeded Gaussians (a third of them centred off-screen, entering
        // through the border or not at all) × block edges × image sizes
        // that are no multiple of the edge × {no mask, random T-mask} ×
        // both mask modes × every backend: the same blocks in the same
        // order and every counter equal.
        let mut seed = 0xA1F4_0001;
        let mut compared = 0u64;
        let mut through_border = 0u64;
        // One tracer per backend, re-targeted from grid to grid and reused
        // across every trace, as a renderer's scratch holds it.
        let mut tracers: Vec<(Backend, BlockTracer)> = dispatch::available()
            .into_iter()
            .map(|b| (b, BlockTracer::new(BlockGrid::new(72, 200, 120))))
            .collect();
        for block in [4u32, 8, 12, 16] {
            for (w, h) in [(67u32, 45u32), (96, 50), (33, 71)] {
                let grid = BlockGrid::new(block, w, h);
                let mut reference = ReferenceTracer::new(grid);
                for (_, tracer) in &mut tracers {
                    tracer.retarget(grid);
                }
                for case in 0..60 {
                    let mut unit = || (splitmix(&mut seed) % 10_000) as f32 / 10_000.0;
                    let mean = if case % 3 == 0 {
                        // Up to 40 px outside, on any side.
                        let (ox, oy) = (unit() * 80.0 - 40.0, unit() * 80.0 - 40.0);
                        Vec2::new(
                            if ox < 0.0 { ox } else { w as f32 + ox },
                            if oy < 0.0 { oy } else { h as f32 * unit() },
                        )
                    } else {
                        Vec2::new(unit() * w as f32, unit() * h as f32)
                    };
                    let (a, c) = (0.5 + 900.0 * unit() * unit(), 0.5 + 900.0 * unit() * unit());
                    let b = (unit() - 0.5) * 1.8 * (a * c).sqrt();
                    let test = make_test(mean, a, b, c, 0.003 + unit());
                    let mut tmask = TMask::new(&grid);
                    for blk in 0..grid.block_count() {
                        if splitmix(&mut seed).is_multiple_of(4) {
                            tmask.set(blk);
                        }
                    }
                    let center_outside =
                        mean.x < 0.0 || mean.y < 0.0 || mean.x >= w as f32 || mean.y >= h as f32;
                    let clear = TMask::new(&grid);
                    for mask in [&clear, &tmask] {
                        for mode in [MaskMode::SkipAndBlock, MaskMode::Traverse] {
                            let mut want = Vec::new();
                            let want_stats = reference.trace(&test, mask, mode, &mut want);
                            through_border +=
                                u64::from(center_outside && want_stats.blocks_effective > 0);
                            for (backend, tracer) in &mut tracers {
                                let kernels = dispatch::kernel_set(*backend).unwrap();
                                let mut got = vec![usize::MAX; 3];
                                let stats = tracer.trace(&test, mask, mode, kernels, &mut got);
                                let what = format!(
                                    "{backend} edge {block} {w}x{h} case {case} \
                                     masked {} {mode:?}",
                                    mask.count()
                                );
                                assert_eq!(got, want, "{what}");
                                assert_eq!(stats, want_stats, "{what}");
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(compared >= 4 * 3 * 60 * 4);
        assert!(through_border > 50, "only {through_border} border entries");
    }

    #[test]
    fn tracer_uses_the_kernel_table_it_is_handed() {
        // A render pinned to one backend must trace with that backend:
        // the tracer may not resolve a table of its own.
        use std::cell::Cell;
        thread_local!(static CALLS: Cell<u32> = const { Cell::new(0) });
        fn counting(t: &EffectiveTest, origin: (i32, i32), cols: usize, masks: &mut [u8]) {
            CALLS.set(CALLS.get() + 1);
            (dispatch::kernel_set(Backend::Scalar).unwrap().block_pass)(t, origin, cols, masks);
        }
        let table = KernelSet {
            block_pass: counting,
            ..*dispatch::kernel_set(Backend::Scalar).unwrap()
        };
        let grid = BlockGrid::new(8, 64, 64);
        let test = make_test(Vec2::new(30.0, 30.0), 30.0, 10.0, 20.0, 0.7);
        let mut blocks = Vec::new();
        let clear = TMask::new(&grid);
        let stats =
            BlockTracer::new(grid).trace(&test, &clear, MaskMode::Traverse, &table, &mut blocks);
        // One evaluation per dispatched block: the seed probe is reused.
        assert!(stats.blocks_dispatched > 1);
        assert_eq!(u64::from(CALLS.get()), stats.blocks_dispatched);
    }

    fn make_test(mean: Vec2, a: f32, b: f32, c: f32, opacity: f32) -> EffectiveTest {
        let cov = SymMat2::new(a, b, c);
        EffectiveTest::new(mean, cov.inverse().unwrap(), gcc_math::det_ln(opacity))
    }

    fn exhaustive(test: &EffectiveTest, w: i32, h: i32) -> Vec<(i32, i32)> {
        let mut v = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if test.passes(x, y) {
                    v.push((x, y));
                }
            }
        }
        v
    }

    #[test]
    fn offscreen_center_region_is_found_via_border() {
        // Center left of the image, big footprint reaching in.
        let grid = BlockGrid::new(8, 64, 64);
        let test = make_test(Vec2::new(-10.0, 32.0), 200.0, 0.0, 50.0, 0.9);
        let mut want: Vec<usize> = exhaustive(&test, 64, 64)
            .into_iter()
            .map(|(x, y)| grid.block_of(x, y))
            .collect();
        want.sort_unstable();
        want.dedup();
        assert!(!want.is_empty(), "test fixture should reach the screen");
        let mut blocks = Vec::new();
        BlockTracer::new(grid).trace(
            &test,
            &TMask::new(&grid),
            MaskMode::Traverse,
            dispatch::active(),
            &mut blocks,
        );
        blocks.sort_unstable();
        assert_eq!(blocks, want);
    }

    #[test]
    fn faint_gaussian_yields_empty_region() {
        let grid = BlockGrid::new(8, 64, 64);
        let test = make_test(Vec2::new(32.0, 32.0), 9.0, 0.0, 9.0, 0.0039);
        let mut blocks = Vec::new();
        let stats = BlockTracer::new(grid).trace(
            &test,
            &TMask::new(&grid),
            MaskMode::Traverse,
            dispatch::active(),
            &mut blocks,
        );
        assert!(blocks.is_empty());
        assert_eq!(stats.blocks_effective, 0);
        // Only the seed probe ran, and it is no dispatch.
        assert_eq!(stats.blocks_dispatched, 0);
    }

    #[test]
    fn block_grid_geometry() {
        let g = BlockGrid::new(8, 100, 50);
        assert_eq!(g.blocks_x(), 13);
        assert_eq!(g.blocks_y(), 7);
        assert_eq!(g.block_count(), 91);
        // Edge blocks are clipped.
        let (x0, _y0, x1, _y1) = g.block_rect(12);
        assert_eq!(x0, 96);
        assert_eq!(x1, 100);
    }

    #[test]
    fn block_trace_covers_all_effective_pixels() {
        let grid = BlockGrid::new(8, 64, 64);
        let test = make_test(Vec2::new(30.0, 30.0), 30.0, 10.0, 20.0, 0.7);
        let mut tracer = BlockTracer::new(grid);
        let mut blocks = Vec::new();
        tracer.trace(
            &test,
            &TMask::new(&grid),
            MaskMode::SkipAndBlock,
            dispatch::active(),
            &mut blocks,
        );
        // Every effective pixel must live in a reported block.
        let expect = exhaustive(&test, 64, 64);
        assert!(!expect.is_empty());
        for (x, y) in expect {
            let b = grid.block_of(x, y);
            assert!(blocks.contains(&b), "pixel ({x},{y}) in unreported block");
        }
    }

    #[test]
    fn block_trace_dispatch_is_bounded_by_region_shell() {
        let grid = BlockGrid::new(8, 256, 256);
        let test = make_test(Vec2::new(128.0, 128.0), 64.0, 0.0, 64.0, 1.0);
        let mut tracer = BlockTracer::new(grid);
        let mut blocks = Vec::new();
        let stats = tracer.trace(
            &test,
            &TMask::new(&grid),
            MaskMode::SkipAndBlock,
            dispatch::active(),
            &mut blocks,
        );
        assert_eq!(stats.blocks_effective, blocks.len() as u64);
        // Dispatched = effective + boundary shell; shell of a convex region
        // is small relative to its interior at this size.
        assert!(stats.blocks_dispatched <= stats.blocks_effective * 3 + 16);
        assert!(stats.blocks_dispatched < grid.block_count() as u64);
    }

    #[test]
    fn tmask_skip_blocks_dispatch() {
        let grid = BlockGrid::new(8, 64, 64);
        let test = make_test(Vec2::new(32.0, 32.0), 60.0, 0.0, 60.0, 0.9);
        let mut tracer = BlockTracer::new(grid);
        let kernels = dispatch::active();

        let mut unmasked = Vec::new();
        let clear = TMask::new(&grid);
        let s0 = tracer.trace(
            &test,
            &clear,
            MaskMode::SkipAndBlock,
            kernels,
            &mut unmasked,
        );

        // Mask the center block: with SkipAndBlock the whole region is cut
        // off at the seed (an extreme, correctness-relevant case).
        let mut mask = TMask::new(&grid);
        let center_block = grid.block_of(32, 32);
        mask.set(center_block);
        let mut masked_out = Vec::new();
        let s1 = tracer.trace(
            &test,
            &mask,
            MaskMode::SkipAndBlock,
            kernels,
            &mut masked_out,
        );
        assert!(s1.blocks_dispatched < s0.blocks_dispatched);
        assert_eq!(s1.blocks_masked, 1);

        // Traverse mode keeps reachability: all unmasked effective blocks
        // are still found.
        let mut traversed = Vec::new();
        let s2 = tracer.trace(&test, &mask, MaskMode::Traverse, kernels, &mut traversed);
        assert_eq!(s2.blocks_masked, 1);
        assert_eq!(
            traversed.len(),
            unmasked.len() - 1,
            "traverse mode should only lose the masked block"
        );
    }

    #[test]
    fn empty_offscreen_gaussian_dispatches_nothing() {
        let grid = BlockGrid::new(8, 64, 64);
        // Tiny footprint far off-screen.
        let test = make_test(Vec2::new(-100.0, -100.0), 2.0, 0.0, 2.0, 0.9);
        let mut tracer = BlockTracer::new(grid);
        let mut blocks = Vec::new();
        let stats = tracer.trace(
            &test,
            &TMask::new(&grid),
            MaskMode::SkipAndBlock,
            dispatch::active(),
            &mut blocks,
        );
        assert_eq!(stats.blocks_dispatched, 0);
        assert!(blocks.is_empty());
    }
}
