//! Deterministic data-parallel primitives for the frame engine.
//!
//! This crate is the workspace's rayon seam: the build environment has no
//! crates.io access, so instead of `rayon` the engine runs on minimal
//! work-sharing maps whose helpers are process-wide parked threads, woken
//! per map and never spawned per map ([`run`]). The API is shaped so that
//! swapping in rayon later is a local change inside this crate.
//!
//! Two invariants matter to callers and are guaranteed here:
//!
//! * **Order preservation** — [`par_map`] returns results in input order,
//!   whatever order workers finished in, so parallel pipelines produce
//!   output streams identical to their sequential counterparts.
//! * **Determinism** — each item is processed exactly once by a pure call
//!   of the worker closure; merging is the caller's job and stays
//!   bit-for-bit reproducible as long as the caller's merge is performed
//!   in input order (associative counters, disjoint pixel patches).
//!
//! Scheduling (which worker runs which item) is *not* deterministic — only
//! the results are.

// `deny` rather than `forbid`: [`helpers`] holds the one sanctioned
// `unsafe` block (a lifetime erasure behind a join-before-return latch),
// opted in with a module-level `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod helpers;
mod pool;

pub use helpers::run;
pub use pool::{PoolHealth, RestartPolicy, WorkerPool, WorkerStep};

use helpers::lock;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// How many worker threads a parallel stage should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run inline on the calling thread (the reference schedule).
    Sequential,
    /// One worker per available hardware thread.
    #[default]
    Auto,
    /// Exactly this many workers.
    Fixed(NonZeroUsize),
}

impl Parallelism {
    /// Worker-thread count this policy resolves to on the current host.
    pub fn threads(self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Auto => available_threads(),
            Self::Fixed(n) => n.get(),
        }
    }

    /// Convenience constructor; `n = 0` or `1` means sequential.
    pub fn fixed(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) if n.get() > 1 => Self::Fixed(n),
            _ => Self::Sequential,
        }
    }
}

/// Hardware threads available to this process (at least 1), read once per
/// process: the query makes syscalls (and on Linux reads cgroup files),
/// and a [`Loan`] asks on every unit of work.
pub fn available_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Threads of this process inside a live [`Loan`].
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Counts the calling thread busy until the returned [`Loan`] drops.
///
/// This is the process's one lending rule: a thread waiting for work
/// holds no core, so the cores of idle threads are lent to those with
/// some. A unit of work (a served frame, a cold scene load) takes a loan
/// and asks [`Loan::threads`] how many threads it may run on. Every loan
/// in the process counts, whichever service or pool took it, so two
/// services in one process never lend the same core twice.
pub fn lend() -> Loan {
    // Relaxed: the count publishes no other data, it only sizes a loan.
    BUSY.fetch_add(1, Ordering::Relaxed);
    Loan(())
}

/// One thread counted busy in the process-wide ledger ([`lend`]) for as
/// long as it lives, a panic's unwind included.
///
/// A thread holds at most one loan at a time: a second one would count
/// its own thread among the others and lend it one core less.
#[derive(Debug)]
#[must_use = "a dropped loan no longer counts its thread busy"]
pub struct Loan(());

impl Loan {
    /// Threads a unit of work starting now may run on: the holder's core
    /// plus every core no other loan holds, `max(1, host threads − other
    /// live loans)`. Read once per unit, when it starts.
    pub fn threads(&self) -> usize {
        let others = BUSY.load(Ordering::Relaxed).saturating_sub(1);
        available_threads().saturating_sub(others).max(1)
    }
}

impl Drop for Loan {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Least estimated work, in nanoseconds, a thread must receive before a
/// chunked map hands it a share. Below it the map runs on fewer threads,
/// down to inline on the caller: a helper costs a wake of a parked thread
/// (≈ 2 µs round trip, [`run`]) and a start on another core's cold cache.
/// Split two ways on two AVX2 vCPUs, every pre-stage of a frame beat
/// inline from a share of ≈ 12.5 µs of quoted work up (projection,
/// batched SH, footprints, radix histograms; EXPERIMENTS.md "Parked
/// helpers"); 50 µs keeps a 4× margin for the host's slow mode, where the
/// two vCPUs share a core and projection split at this floor (1 500
/// Gaussians) still read 1.2× inline. Under per-map spawning the floor
/// was 0.4 ms. The per-item
/// costs callers quote come from the benchmark's trace (`gcc-render.*_ms`
/// over the survivors of a frame).
pub const MIN_NS_PER_THREAD: u64 = 50_000;

/// How many of `threads` a map over `items` items of roughly `item_ns`
/// nanoseconds each keeps busy for at least [`MIN_NS_PER_THREAD`] (at
/// least 1: the caller). The chunked maps apply it themselves; a driver
/// that hands out coarse units through [`par_map_indexed_with`] (the
/// renderers' tile and window loop) calls it with what it knows of its
/// work, so a thread count lent from outside never wakes a helper the
/// work does not pay for.
pub fn worthwhile_threads(threads: usize, items: usize, item_ns: u32) -> usize {
    let affordable = (items as u64).saturating_mul(u64::from(item_ns)) / MIN_NS_PER_THREAD;
    threads
        .min(usize::try_from(affordable).unwrap_or(usize::MAX))
        .max(1)
}

/// Maps `f` over `0..count` with `threads` workers and returns the results
/// in index order. Items are handed out through an atomic cursor, so
/// uneven item costs still balance across workers. Items are taken to be
/// coarse (a tile, a frame): any two of them are worth a second thread,
/// and each pays an atomic handout. Fine-grained items — a Gaussian, a
/// two-member voxel cell — belong in [`par_map_chunked`], which hands out
/// contiguous chunks and carries the work floor.
///
/// With `threads <= 1` (or fewer than two items) the map runs inline on
/// the calling thread — that path *is* the sequential reference schedule,
/// not an approximation of it.
///
/// # Panics
///
/// Propagates the first panic from `f`, once every worker that started
/// has finished ([`run`]).
pub fn par_map_indexed<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_with(count, threads, || (), |(), i| f(i))
}

/// Maps `f` over a slice with `threads` workers, preserving input order.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), threads, |i| f(&items[i]))
}

/// Like [`par_map_indexed`], but hands every worker its own reusable state
/// built by `init` — the seam that lets batch drivers (e.g. the trajectory
/// runner) thread a scratch allocation through a parallel map instead of
/// reallocating per item.
///
/// With `threads <= 1` (or fewer than two items) a single state is built
/// and the map runs inline — the sequential reference schedule. Otherwise
/// a worker builds its state when it claims its first item, so a helper
/// that finds the items gone builds none. Results must not depend on the
/// state's carried-over contents (states are caller-defined scratch, not
/// accumulators): item-to-worker assignment is nondeterministic.
pub fn par_map_indexed_with<S, R, G, F>(count: usize, threads: usize, init: G, f: F) -> Vec<R>
where
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if threads <= 1 || count < 2 {
        let mut state = init();
        return (0..count).map(|i| f(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut state = None;
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break local;
            }
            local.push((i, f(state.get_or_insert_with(&init), i)));
        }
    };
    let helped = Mutex::new(Vec::new());
    let help = || {
        let mut local = drain();
        lock(&helped).append(&mut local);
    };
    // The caller is worker 0: it drains the cursor beside `workers - 1`
    // helpers instead of sleeping on their join.
    let mut pairs = run(threads.min(count) - 1, &help, drain);
    pairs.append(&mut helped.into_inner().unwrap_or_else(PoisonError::into_inner));
    pairs.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), count);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Chunked order-preserving map: one output element per input element,
/// with contiguous chunks dispatched to workers (amortizing the per-task
/// handout for fine-grained items). `item_ns` is the caller's rough cost of
/// one item; the map uses only as many of `threads` as that work keeps
/// busy (see [`par_filter_map_chunked`]). The result is element-for-element
/// identical to `items.iter().enumerate().map(per_item).collect()`.
pub fn par_map_chunked<T, R, F>(items: &[T], threads: usize, item_ns: u32, per_item: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_filter_map_chunked(items, threads, item_ns, |i, t| Some(per_item(i, t)))
}

/// Chunked order-preserving flat map: splits `items` into contiguous
/// chunks, maps each chunk on a worker with `per_item`, and concatenates
/// the per-chunk outputs in input order. The result is element-for-element
/// identical to `items.iter().filter_map(per_item).collect()`.
///
/// Fine-grained items make a thread's share cheap, so the chunked maps
/// carry a work floor: with `item_ns` the caller's rough cost of one item,
/// a thread joins in only when its share is worth at least a fixed
/// [`MIN_NS_PER_THREAD`] of work, and a map below that floor runs inline
/// whatever `threads` says.
pub fn par_filter_map_chunked<T, R, F>(
    items: &[T],
    threads: usize,
    item_ns: u32,
    per_item: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Option<R> + Sync,
{
    let threads = worthwhile_threads(threads, items.len(), item_ns);
    if threads <= 1 || items.len() < 2 {
        return items
            .iter()
            .enumerate()
            .filter_map(|(i, t)| per_item(i, t))
            .collect();
    }
    // Several chunks per worker so a dense chunk cannot straggle the map.
    let chunk = items.len().div_ceil(threads * 4).max(1);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk)
        .enumerate()
        .map(|(k, c)| (k * chunk, c))
        .collect();
    let mapped = par_map(&chunks, threads, |(base, c)| {
        c.iter()
            .enumerate()
            .filter_map(|(j, t)| per_item(base + j, t))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(mapped.iter().map(Vec::len).sum());
    for mut m in mapped {
        out.append(&mut m);
    }
    out
}

/// Runs `f` over disjoint mutable chunks of `items` on up to `threads`
/// workers (as many as `item_ns`, the caller's rough cost of one item,
/// keeps busy — the work floor of [`par_filter_map_chunked`]). Each call
/// receives the chunk's element offset into `items` plus the chunk itself,
/// so position-dependent kernels (e.g. slicing a parallel read-only buffer
/// by the same offset) stay expressible. Every element belongs to exactly
/// one chunk — so any `f` whose writes depend only on (offset, input
/// values) produces bit-identical buffers for every thread count.
///
/// On one thread (or fewer than two items) `f` runs once, inline, over the
/// whole slice — the sequential reference schedule.
pub fn par_chunks_mut<T, F>(items: &mut [T], threads: usize, item_ns: u32, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let threads = worthwhile_threads(threads, n, item_ns);
    if threads <= 1 || n < 2 {
        f(0, items);
        return;
    }
    // Several chunks per worker, each pulled by whichever worker is free
    // next, so a slow chunk cannot straggle the map.
    let chunk = n.div_ceil(threads * 4).max(1);
    let parts = Mutex::new(items.chunks_mut(chunk).enumerate());
    let drain = || loop {
        let Some((k, part)) = lock(&parts).next() else {
            break;
        };
        f(k * chunk, part);
    };
    // The caller is a worker too: it pulls chunks beside the helpers.
    run(threads.min(n.div_ceil(chunk)) - 1, &drain, drain);
}

/// Radix base of the LSD sort: one byte per pass, four passes per `u32`.
const RADIX_BUCKETS: usize = 256;

/// Number of byte passes over a `u32` key.
const RADIX_PASSES: usize = 4;

/// Rough cost of histogramming one key (four table increments), for the
/// chunked maps' work floor.
const RADIX_HISTOGRAM_NS: u32 = 1;

/// In-place exclusive prefix sum over `counts`; returns the total. This is
/// the histogram → bucket-offset step of counting/radix sort and of CSR
/// bin construction (counts → row starts).
pub fn exclusive_prefix_sum(counts: &mut [u32]) -> u32 {
    let mut running = 0u32;
    for c in counts {
        let n = *c;
        *c = running;
        running += n;
    }
    running
}

/// All four per-byte histograms of `keys`, computed chunk-parallel: each
/// worker histograms a contiguous chunk into a local `[[u32; 256]; 4]` and
/// the partials are summed in chunk order (addition is commutative, so the
/// result is independent of scheduling). Under the chunked maps' work floor
/// (a frame's worth of keys always is) the one chunk is counted inline.
pub fn par_radix_histograms(keys: &[u32], threads: usize) -> [[u32; RADIX_BUCKETS]; RADIX_PASSES] {
    let threads = worthwhile_threads(threads, keys.len(), RADIX_HISTOGRAM_NS);
    let chunk = keys.len().div_ceil(threads).max(1);
    let chunks: Vec<&[u32]> = keys.chunks(chunk).collect();
    let partials = par_map(&chunks, threads, |c| {
        let mut h = [[0u32; RADIX_BUCKETS]; RADIX_PASSES];
        for &k in *c {
            h[0][(k & 0xff) as usize] += 1;
            h[1][((k >> 8) & 0xff) as usize] += 1;
            h[2][((k >> 16) & 0xff) as usize] += 1;
            h[3][((k >> 24) & 0xff) as usize] += 1;
        }
        h
    });
    let mut total = [[0u32; RADIX_BUCKETS]; RADIX_PASSES];
    for h in &partials {
        for (sum, buckets) in total.iter_mut().zip(h.iter()) {
            for (s, &n) in sum.iter_mut().zip(buckets.iter()) {
                *s += n;
            }
        }
    }
    total
}

/// Stable LSD radix sort of `0..keys.len()` by `keys[i]`, ascending, into
/// caller-provided buffers (`order` receives the permutation; `scratch` is
/// the ping-pong buffer). Equal keys keep their input order — exactly the
/// tie behavior of a stable comparison sort — which is what makes the
/// global depth ordering reproduce the per-tile `sort_by` ordering
/// bit-for-bit.
///
/// Histogram construction is chunk-parallel ([`par_radix_histograms`]);
/// byte passes whose keys all share one bucket value are skipped, so
/// near-uniform key bytes (common for depth ranges) cost nothing. The
/// scatter itself is sequential: it is a single streaming pass per
/// non-degenerate byte, and its write order is what guarantees stability.
///
/// # Panics
///
/// Panics when `keys.len()` exceeds `u32::MAX` (keys are indexed by `u32`
/// throughout the frame pipeline).
pub fn radix_sort_indices_into(
    keys: &[u32],
    threads: usize,
    order: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    assert!(
        u32::try_from(keys.len()).is_ok(),
        "key count {} exceeds u32 indexing",
        keys.len()
    );
    order.clear();
    order.extend(0..keys.len() as u32);
    if keys.len() < 2 {
        return;
    }
    scratch.clear();
    scratch.resize(keys.len(), 0);
    let histograms = par_radix_histograms(keys, threads);
    for (pass, mut buckets) in histograms.into_iter().enumerate() {
        // A pass where every key shares one byte value is the identity.
        if buckets.iter().any(|&n| n as usize == keys.len()) {
            continue;
        }
        let shift = 8 * pass as u32;
        exclusive_prefix_sum(&mut buckets);
        for &i in order.iter() {
            let b = ((keys[i as usize] >> shift) & 0xff) as usize;
            scratch[buckets[b] as usize] = i;
            buckets[b] += 1;
        }
        std::mem::swap(order, scratch);
    }
}

/// Convenience wrapper over [`radix_sort_indices_into`] with fresh buffers.
pub fn radix_sort_indices(keys: &[u32], threads: usize) -> Vec<u32> {
    let mut order = Vec::new();
    let mut scratch = Vec::new();
    radix_sort_indices_into(keys, threads, &mut order, &mut scratch);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    /// An item cost that puts any two items above the chunked maps' work
    /// floor, so small test inputs still exercise the threaded paths.
    const HEAVY_NS: u32 = MIN_NS_PER_THREAD as u32;

    fn note_thread(seen: &Mutex<HashSet<ThreadId>>) {
        seen.lock().unwrap().insert(std::thread::current().id());
    }

    /// Makes the first two calls that [`Self::meet`] wait for each other,
    /// so a two-worker map finishes only if both workers take part — which
    /// retraction alone does not promise, a helper may find nothing left.
    struct Rendezvous {
        calls: AtomicUsize,
        barrier: Barrier,
    }

    impl Rendezvous {
        fn new() -> Self {
            Self {
                calls: AtomicUsize::new(0),
                barrier: Barrier::new(2),
            }
        }

        fn meet(&self) {
            if self.calls.fetch_add(1, Ordering::Relaxed) < 2 {
                self.barrier.wait();
            }
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        let me = std::thread::current().id();
        // Two workers, and the first two items meet: both workers take
        // part, and one of them must be the caller.
        let seen = Mutex::new(HashSet::new());
        let both = Rendezvous::new();
        let out = par_map_indexed(64, 2, |i| {
            note_thread(&seen);
            both.meet();
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2, "one helper beside the caller");
        assert!(seen.contains(&me), "the caller ran no item");

        let seen = Mutex::new(HashSet::new());
        let both = Rendezvous::new();
        let mut buf = vec![0u8; 64];
        par_chunks_mut(&mut buf, 2, HEAVY_NS, |_, _| {
            note_thread(&seen);
            both.meet();
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2, "one helper beside the caller");
        assert!(seen.contains(&me), "the caller ran no chunk");
    }

    /// Which worker of a two-worker map a test panics on.
    #[derive(Debug, Clone, Copy)]
    enum Position {
        Caller,
        Helper,
        /// Both: one payload is re-raised, the other dropped.
        Both,
    }

    impl Position {
        /// Panics with `"boom"` when the current thread is this position
        /// of a map called from `caller`.
        fn boom(self, caller: ThreadId) {
            let on_caller = std::thread::current().id() == caller;
            match self {
                Self::Caller if !on_caller => {}
                Self::Helper if on_caller => {}
                _ => panic!("boom"),
            }
        }
    }

    /// `map` must raise `"boom"` on the caller; afterwards the next map
    /// still gets its helper.
    fn assert_booms(what: &str, map: impl FnOnce()) {
        let payload = catch_unwind(AssertUnwindSafe(map)).expect_err(what);
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "{what}");
        let both = Rendezvous::new();
        let out = par_map_indexed(8, 2, |i| {
            both.meet();
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>(), "after {what}");
    }

    #[test]
    fn a_panic_in_any_position_reaches_the_caller_and_spares_the_helpers() {
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        for at in [Position::Caller, Position::Helper, Position::Both] {
            assert_booms(&format!("par_map_indexed_with f on {at:?}"), || {
                let both = Rendezvous::new();
                par_map_indexed_with(
                    8,
                    2,
                    || (),
                    |(), _| {
                        both.meet();
                        at.boom(me);
                    },
                );
            });
            assert_booms(&format!("par_map_indexed_with init on {at:?}"), || {
                // Each worker builds its state on its first item, so
                // both workers get here.
                let both = Rendezvous::new();
                let init = || {
                    both.meet();
                    at.boom(me);
                };
                par_map_indexed_with(8, 2, init, |(), i| i);
            });
            assert_booms(&format!("par_chunks_mut on {at:?}"), || {
                let both = Rendezvous::new();
                par_chunks_mut(&mut items.clone(), 2, HEAVY_NS, |_, _| {
                    both.meet();
                    at.boom(me);
                });
            });
            assert_booms(&format!("par_filter_map_chunked on {at:?}"), || {
                let both = Rendezvous::new();
                par_filter_map_chunked(&items, 2, HEAVY_NS, |_, &x| {
                    both.meet();
                    at.boom(me);
                    Some(x)
                });
            });
        }
    }

    #[test]
    fn nested_maps_finish_and_match_the_sequential_result() {
        // Every outer item runs inner maps on the same helpers: a chunked
        // map and a chunk-mutating one.
        let inner: Vec<u64> = (0..200).collect();
        let item = |i: usize, threads: usize| {
            let mut squares = par_map_chunked(&inner, threads, HEAVY_NS, |_, &x| x * x);
            par_chunks_mut(&mut squares, threads, HEAVY_NS, |_, chunk| {
                for s in chunk {
                    *s += i as u64;
                }
            });
            squares.iter().sum::<u64>()
        };
        let want: Vec<u64> = (0..24).map(|i| item(i, 1)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                par_map_indexed(24, threads, |i| item(i, threads)),
                want,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn eight_threads_map_concurrently_on_the_shared_helpers() {
        let items: Vec<u64> = (0..1000).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (items, want) = (&items, &want);
                scope.spawn(move || {
                    for round in 0..40 {
                        let threads = 2 + (t + round) % 3;
                        let got = par_map_chunked(items, threads, HEAVY_NS, |_, x| x * 3 + 1);
                        assert_eq!(&got, want, "thread {t} round {round}");
                        let mut buf = vec![0u64; items.len()];
                        par_chunks_mut(&mut buf, threads, HEAVY_NS, |off, chunk| {
                            for (j, slot) in chunk.iter_mut().enumerate() {
                                *slot = (off + j) as u64 * 3 + 1;
                            }
                        });
                        assert_eq!(&buf, want, "thread {t} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn chunked_maps_under_the_work_floor_run_inline() {
        let me = HashSet::from([std::thread::current().id()]);
        let items: Vec<u32> = (0..4096).collect();
        // 4096 items of 1 ns are far below one thread's floor...
        let seen = Mutex::new(HashSet::new());
        let out = par_map_chunked(&items, 8, 1, |_, &x| {
            note_thread(&seen);
            x
        });
        assert_eq!(out, items);
        assert_eq!(seen.into_inner().unwrap(), me);
        let seen = Mutex::new(HashSet::new());
        par_chunks_mut(&mut items.clone(), 8, 1, |_, _| note_thread(&seen));
        assert_eq!(seen.into_inner().unwrap(), me);
        // ...and the same items quoted as heavy are shared out (the first
        // two chunks meet, so the helper cannot miss them all).
        let seen = Mutex::new(HashSet::new());
        let both = Rendezvous::new();
        par_chunks_mut(&mut items.clone(), 2, HEAVY_NS, |_, _| {
            note_thread(&seen);
            both.meet();
        });
        assert_eq!(seen.into_inner().unwrap().len(), 2);
        // The floor scales the thread count, it is not all-or-nothing.
        assert_eq!(worthwhile_threads(8, 3, HEAVY_NS), 3);
        assert_eq!(worthwhile_threads(2, 3, HEAVY_NS), 2);
        assert_eq!(worthwhile_threads(8, 0, HEAVY_NS), 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map(&items, threads, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_indexed_handles_edge_sizes() {
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, 4, |i| i), vec![0]);
        assert_eq!(par_map_indexed(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn filter_map_chunked_matches_sequential() {
        let items: Vec<i64> = (0..1234).collect();
        let seq: Vec<i64> = items
            .iter()
            .enumerate()
            .filter_map(|(i, x)| (x % 3 == 0).then_some(x * 2 + i as i64))
            .collect();
        for threads in [1, 2, 7] {
            let par = par_filter_map_chunked(&items, threads, HEAVY_NS, |i, x| {
                (x % 3 == 0).then_some(x * 2 + i as i64)
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn map_chunked_is_length_preserving_and_ordered() {
        let items: Vec<u32> = (0..513).collect();
        let seq: Vec<u64> = items.iter().map(|&x| u64::from(x) + 7).collect();
        for threads in [1, 3, 8] {
            let par = par_map_chunked(&items, threads, HEAVY_NS, |_, &x| u64::from(x) + 7);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallelism_resolves_thread_counts() {
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert_eq!(Parallelism::fixed(0), Parallelism::Sequential);
        assert_eq!(Parallelism::fixed(1), Parallelism::Sequential);
        assert_eq!(Parallelism::fixed(6).threads(), 6);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn per_worker_state_map_matches_stateless_map() {
        let seq: Vec<usize> = (0..311).map(|i| i * 3).collect();
        for threads in [1, 2, 6] {
            // The state is reused scratch; results must not depend on it.
            let par = par_map_indexed_with(311, threads, Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                i * 3
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_matches_sequential_for_every_thread_count() {
        // An offset-dependent write: out[i] = i * 3 + 1, expressible only
        // if the chunk offset handed to the callback is correct.
        for n in [0usize, 1, 2, 3, 63, 64, 65, 1009] {
            let mut seq: Vec<u64> = vec![0; n];
            par_chunks_mut(&mut seq, 1, HEAVY_NS, |off, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (off + j) as u64 * 3 + 1;
                }
            });
            for threads in [2, 3, 8] {
                let mut par: Vec<u64> = vec![0; n];
                par_chunks_mut(&mut par, threads, HEAVY_NS, |off, chunk| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (off + j) as u64 * 3 + 1;
                    }
                });
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn exclusive_prefix_sum_offsets_and_total() {
        let mut counts = [3u32, 0, 5, 1];
        let total = exclusive_prefix_sum(&mut counts);
        assert_eq!(counts, [0, 3, 3, 8]);
        assert_eq!(total, 9);
        assert_eq!(exclusive_prefix_sum(&mut []), 0);
    }

    #[test]
    fn radix_histograms_count_every_byte_lane() {
        // Enough keys that three threads clear the work floor and the
        // partial histograms really are summed.
        let keys: Vec<u32> = (0..3 * MIN_NS_PER_THREAD as u32 + 7)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        for threads in [1, 3, 8] {
            let h = par_radix_histograms(&keys, threads);
            for (pass, buckets) in h.iter().enumerate() {
                let total: u32 = buckets.iter().sum();
                assert_eq!(total as usize, keys.len(), "pass {pass} threads {threads}");
            }
            // Spot-check pass 0 against a direct count.
            let direct = keys.iter().filter(|&&k| k & 0xff == 0x11).count() as u32;
            assert_eq!(h[0][0x11], direct);
        }
    }

    #[test]
    fn radix_sort_matches_stable_sort_by_key() {
        // Adversarial key set: duplicates, extremes, single-byte spreads.
        let keys: Vec<u32> = (0..4097)
            .map(|i| match i % 7 {
                0 => 0,
                1 => u32::MAX,
                2 => (i as u32).wrapping_mul(0x9E3779B9),
                3 => 42,
                4 => (i as u32) << 24,
                5 => i as u32 & 0xff,
                _ => i as u32,
            })
            .collect();
        let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
        expect.sort_by_key(|&i| keys[i as usize]); // std stable sort
        for threads in [1, 2, 5] {
            let got = radix_sort_indices(&keys, threads);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn radix_sort_is_stable_on_equal_keys() {
        let keys = vec![7u32; 100];
        let order = radix_sort_indices(&keys, 4);
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn radix_sort_reuses_buffers_across_calls() {
        let mut order = Vec::new();
        let mut scratch = Vec::new();
        radix_sort_indices_into(&[5, 1, 9, 1], 1, &mut order, &mut scratch);
        assert_eq!(order, vec![1, 3, 0, 2]);
        // Second call on different-length input must fully reset state.
        radix_sort_indices_into(&[2, 1], 1, &mut order, &mut scratch);
        assert_eq!(order, vec![1, 0]);
        radix_sort_indices_into(&[], 1, &mut order, &mut scratch);
        assert!(order.is_empty());
        radix_sort_indices_into(&[3], 1, &mut order, &mut scratch);
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn uneven_work_is_balanced_and_complete() {
        // Items with wildly different costs still all get processed once.
        let out = par_map_indexed(257, 5, |i| {
            if i % 64 == 0 {
                (0..50_000).fold(i as u64, |a, b| a.wrapping_add(b))
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 257);
        assert_eq!(out[1], 1);
        assert_eq!(out[256], (0..50_000).fold(256u64, |a, b| a.wrapping_add(b)));
    }

    /// Serializes the tests that read the process-wide ledger, so one
    /// test's loans never show up in another's counts.
    fn ledger() -> std::sync::MutexGuard<'static, ()> {
        static LEDGER: Mutex<()> = Mutex::new(());
        LEDGER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn a_live_loan_counts_and_a_dropped_one_does_not() {
        let _ledger = ledger();
        let host = available_threads();
        let held = lend();
        assert_eq!(BUSY.load(Ordering::Relaxed), 1);
        assert_eq!(held.threads(), host, "the holder itself is not an other");
        let other = lend();
        assert_eq!(BUSY.load(Ordering::Relaxed), 2);
        assert_eq!(held.threads(), host.saturating_sub(1).max(1));
        drop(other);
        assert_eq!(held.threads(), host);
        drop(held);
        assert_eq!(BUSY.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_loan_held_through_a_panic_gives_its_core_back() {
        let _ledger = ledger();
        let unwound = catch_unwind(|| {
            let _loan = lend();
            panic!("a unit of work dies mid-loan");
        });
        assert!(unwound.is_err());
        assert_eq!(BUSY.load(Ordering::Relaxed), 0);
        assert_eq!(lend().threads(), available_threads());
    }

    #[test]
    fn a_loan_is_never_lent_fewer_than_one_thread() {
        let _ledger = ledger();
        let loans: Vec<Loan> = (0..available_threads() + 2).map(|_| lend()).collect();
        for loan in &loans {
            assert_eq!(loan.threads(), 1);
        }
        drop(loans);
        assert_eq!(BUSY.load(Ordering::Relaxed), 0);
    }
}
