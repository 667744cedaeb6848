//! The service's introspection surface: counters, per-priority latency
//! percentiles, stream counters, and the folded render statistics.

use std::collections::BTreeMap;

use gcc_render::pipeline::{FrameStats, Schedule};

use crate::session::Priority;

/// Per-scene serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SceneCounters {
    /// Frame requests submitted for this scene (streamed frames count
    /// individually; a single frame is a one-frame stream).
    pub requests: u64,
    /// Frames whose scene was resident when they were *issued* into the
    /// scheduler (for a single frame, issue == submit; a streamed
    /// frame is classified when its window slot materializes it, so a
    /// long stream opened cold counts one window of misses and then
    /// hits — `hit_rate` tracks actual cache behavior).
    pub hits: u64,
    /// Frames whose scene was cold at issue time.
    pub misses: u64,
    /// Times this scene was loaded from its source.
    pub loads: u64,
    /// Times this scene was evicted from the cache.
    pub evictions: u64,
    /// Frames rendered for this scene.
    pub frames: u64,
    /// Batches this scene's frames were drained in.
    pub batches: u64,
    /// Load attempts re-tried after a transient (retryable) failure.
    pub retries: u64,
    /// Times this scene was quarantined behind the load circuit breaker
    /// (load exhausted its retries, failed fatally, or panicked).
    pub quarantines: u64,
}

/// Per-schedule serving counters — the breakdown of a heterogeneous
/// workload by [`Schedule`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCounters {
    /// Frame requests submitted selecting this schedule.
    pub requests: u64,
    /// Frames rendered through this schedule.
    pub frames: u64,
    /// Batches drained for this schedule.
    pub batches: u64,
}

/// Per-priority serving counters and latency percentiles — the
/// observable separation of the two latency classes. `Interactive` and
/// `Bulk` keep independent latency windows, so a bulk backlog cannot
/// mask an interactive regression (and vice versa).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PriorityCounters {
    /// Frame requests submitted at this priority.
    pub requests: u64,
    /// Frames rendered at this priority.
    pub frames: u64,
    /// Requests completed (delivered or failed) at this priority.
    pub completed: u64,
    /// Frames queued (issued but not yet drained) at snapshot time.
    pub queued: usize,
    /// High-water mark of [`Self::queued`].
    pub max_queued: usize,
    /// Completed frames that carried a deadline.
    pub with_deadline: u64,
    /// Completed frames delivered after their deadline.
    pub deadline_misses: u64,
    /// Streams turned away at this class's admission watermark
    /// ([`crate::ServeError::Overloaded`] with capacity left for
    /// higher-priority traffic — under pressure Bulk rejects first).
    pub rejected: u64,
    /// Streams shed at a hard overload ceiling (all classes shed there).
    pub shed: u64,
    /// Median latency (issue → delivery) over this priority's window, ms.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency over this priority's window, ms.
    pub latency_p95_ms: f64,
}

/// Stream lifecycle counters. A single frame is a one-frame stream, so
/// it counts here too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Streams opened (single frames included).
    pub opened: u64,
    /// Streams whose every frame was delivered to the client.
    pub completed: u64,
    /// Streams cancelled by the client (explicitly or by dropping the
    /// handle before the end).
    pub cancelled: u64,
    /// Queued frames discarded by cancellations — released queue slots
    /// that never reached a worker.
    pub frames_discarded: u64,
}

/// One adaptive-quality dispatch decision (most recent are retained in
/// [`LodCounters::recent`]): which rung a deadline-carrying frame
/// rendered at, what the cost model predicted, what the frame actually
/// cost, and how much deadline budget it had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LodDecision {
    /// Ladder rung index the dispatcher picked (0 = full quality).
    pub rung: u32,
    /// The rung's measured price at decision time, µs (0 = none yet: a
    /// cold scene's floor frame, or a probe of an unmeasured rung).
    pub predicted_us: u64,
    /// Measured render (+ upscale) cost, µs.
    pub actual_us: u64,
    /// Deadline budget remaining at decision time, µs.
    pub budget_us: u64,
    /// Whether the frame still missed its deadline.
    pub missed: bool,
}

/// Adaptive-quality (LOD ladder) counters: how often the dispatcher
/// degraded, per-rung frame counts, and a trace of recent decisions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LodCounters {
    /// Whether the service was configured with a quality ladder.
    pub enabled: bool,
    /// Frames rendered per ladder rung (index 0 = full quality). Only
    /// deadline-carrying frames are dispatched through the ladder;
    /// deadline-free frames always render at full quality and are not
    /// counted here.
    pub frames_by_rung: Vec<u64>,
    /// Ladder-dispatched frames that rendered below full quality.
    pub degraded_frames: u64,
    /// Scene-level downward rung transitions (pressure events).
    pub degradations: u64,
    /// Scene-level upward rung transitions (headroom recovered).
    pub recoveries: u64,
    /// Most recent dispatch decisions, oldest first (bounded ring).
    pub recent: Vec<LodDecision>,
}

/// How many recent LOD dispatch decisions a stats snapshot retains —
/// the bound on [`LodCounters::recent`], both in a single service's
/// snapshot and after merging snapshots across a fleet.
pub const LOD_TRACE_WINDOW: usize = 256;

impl LodCounters {
    /// Total frames dispatched through the ladder.
    pub fn ladder_frames(&self) -> u64 {
        self.frames_by_rung.iter().sum()
    }

    /// Folds another snapshot's LOD counters into this one: `enabled`
    /// ORs (any backend running the ladder counts), per-rung frames add
    /// element-wise (resizing to the longer ladder), event counters
    /// add, and the decision traces concatenate, keeping the newest
    /// [`LOD_TRACE_WINDOW`] entries.
    pub fn merge_add(&mut self, other: &Self) {
        self.enabled |= other.enabled;
        if self.frames_by_rung.len() < other.frames_by_rung.len() {
            self.frames_by_rung.resize(other.frames_by_rung.len(), 0);
        }
        for (acc, v) in self.frames_by_rung.iter_mut().zip(&other.frames_by_rung) {
            *acc += v;
        }
        self.degraded_frames += other.degraded_frames;
        self.degradations += other.degradations;
        self.recoveries += other.recoveries;
        self.recent.extend(other.recent.iter().copied());
        let excess = self.recent.len().saturating_sub(LOD_TRACE_WINDOW);
        self.recent.drain(..excess);
    }
}

/// Linear-interpolated percentile over *sorted* microsecond samples,
/// returned in milliseconds. Empty input yields 0.
pub fn percentile_us(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted_us.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let us = sorted_us[lo] as f64 * (1.0 - frac) + sorted_us[hi] as f64 * frac;
    us / 1e3
}

/// A point-in-time snapshot of the service's statistics.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Per-scene counters (scene id → counters).
    pub per_scene: BTreeMap<String, SceneCounters>,
    /// Per-schedule counters (only schedules that saw requests appear).
    pub per_schedule: BTreeMap<Schedule, ScheduleCounters>,
    /// Per-priority counters (only priorities that saw requests appear).
    pub per_priority: BTreeMap<Priority, PriorityCounters>,
    /// Stream lifecycle counters.
    pub streams: StreamCounters,
    /// Requests completed (fulfilled or failed): the sum of
    /// [`PriorityCounters::completed`].
    pub completed: u64,
    /// Frames issued but not yet drained into a batch at snapshot time
    /// (frames already in flight on a worker are not counted; frames a
    /// stream has not materialized yet — beyond its window — are not
    /// counted either): the sum of [`PriorityCounters::queued`].
    pub queue_depth: usize,
    /// High-water mark of [`Self::queue_depth`] over the service's life.
    pub max_queue_depth: usize,
    /// Batches drained: the sum of the per-schedule (and of the
    /// per-scene) batch counts.
    pub batches: u64,
    /// Frames rendered (success path only): the sum of every
    /// breakdown's frame counts.
    pub frames: u64,
    /// Median request latency over both priority windows merged, ms
    /// (issue → delivery; see [`PriorityCounters`] for the split).
    pub latency_p50_ms: f64,
    /// 95th-percentile request latency over the same merged window, ms.
    pub latency_p95_ms: f64,
    /// Sum of the per-frame [`FrameStats`] of every rendered frame.
    pub frame_stats: FrameStats,
    /// Bytes resident in the scene cache at snapshot time.
    pub resident_bytes: usize,
    /// Scenes resident at snapshot time.
    pub resident_scenes: usize,
    /// Panicked workers caught and respawned with fresh scratch (the
    /// pool-supervision counter; a healthy run keeps this at 0).
    pub respawns: u64,
    /// Workers lost for good — they panicked past the restart budget and
    /// were not respawned. Non-zero means the pool is running below its
    /// configured width; `respawns > 0 && lost_workers == 0` means every
    /// panic was absorbed and the pool recovered to full width.
    pub lost_workers: u64,
    /// Scenes currently quarantined behind the load circuit breaker.
    pub quarantined_scenes: usize,
    /// Adaptive-quality (LOD ladder) counters.
    pub lod: LodCounters,
}

impl ServeStats {
    /// Total cache hits across scenes.
    pub fn hits(&self) -> u64 {
        self.per_scene.values().map(|c| c.hits).sum()
    }

    /// Total cache misses across scenes.
    pub fn misses(&self) -> u64 {
        self.per_scene.values().map(|c| c.misses).sum()
    }

    /// Total evictions across scenes.
    pub fn evictions(&self) -> u64 {
        self.per_scene.values().map(|c| c.evictions).sum()
    }

    /// Total scene loads across scenes.
    pub fn loads(&self) -> u64 {
        self.per_scene.values().map(|c| c.loads).sum()
    }

    /// Hit fraction of all classified requests (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Mean frames per drained batch (the coalescing factor; 0 before the
    /// first batch).
    pub fn frames_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.frames as f64 / self.batches as f64
        }
    }

    /// Total deadline misses across priorities.
    pub fn deadline_misses(&self) -> u64 {
        self.per_priority.values().map(|c| c.deadline_misses).sum()
    }

    /// Total streams turned away by admission control (watermark
    /// rejections plus hard-ceiling sheds), across priorities.
    pub fn turned_away(&self) -> u64 {
        self.per_priority
            .values()
            .map(|c| c.rejected + c.shed)
            .sum()
    }

    /// Total load retries across scenes.
    pub fn retries(&self) -> u64 {
        self.per_scene.values().map(|c| c.retries).sum()
    }

    /// Total quarantine events across scenes.
    pub fn quarantines(&self) -> u64 {
        self.per_scene.values().map(|c| c.quarantines).sum()
    }

    /// This priority's counters, or zeroed defaults when it saw no
    /// traffic.
    pub fn priority(&self, p: Priority) -> PriorityCounters {
        self.per_priority.get(&p).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let us: Vec<u64> = vec![1000, 2000, 3000, 4000];
        assert!((percentile_us(&us, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile_us(&us, 1.0) - 4.0).abs() < 1e-9);
        assert!((percentile_us(&us, 0.5) - 2.5).abs() < 1e-9);
        assert!((percentile_us(&us, 0.95) - 3.85).abs() < 1e-9);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert!((percentile_us(&[7000], 0.95) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn derived_rates_aggregate_per_scene_counters() {
        let mut stats = ServeStats::default();
        stats.per_scene.insert(
            "a".into(),
            SceneCounters {
                requests: 10,
                hits: 8,
                misses: 2,
                loads: 2,
                evictions: 1,
                frames: 10,
                batches: 4,
                ..SceneCounters::default()
            },
        );
        stats.per_scene.insert(
            "b".into(),
            SceneCounters {
                requests: 2,
                hits: 0,
                misses: 2,
                loads: 2,
                evictions: 2,
                frames: 2,
                batches: 2,
                ..SceneCounters::default()
            },
        );
        stats.frames = 12;
        stats.batches = 6;
        assert_eq!(stats.hits(), 8);
        assert_eq!(stats.misses(), 4);
        assert_eq!(stats.evictions(), 3);
        assert_eq!(stats.loads(), 4);
        assert!((stats.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
        assert!((stats.frames_per_batch() - 2.0).abs() < 1e-12);
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
        assert_eq!(ServeStats::default().frames_per_batch(), 0.0);
    }

    #[test]
    fn lod_counters_aggregate_per_rung_frames() {
        let lod = LodCounters {
            enabled: true,
            frames_by_rung: vec![10, 4, 1, 0],
            degraded_frames: 5,
            degradations: 2,
            recoveries: 2,
            recent: vec![LodDecision {
                rung: 1,
                predicted_us: 4000,
                actual_us: 4400,
                budget_us: 9000,
                missed: false,
            }],
        };
        assert_eq!(lod.ladder_frames(), 15);
        assert_eq!(LodCounters::default().ladder_frames(), 0);
        assert!(!ServeStats::default().lod.enabled);
    }

    #[test]
    fn lod_counters_merge_adds_and_resizes() {
        let decision = |rung: u32| LodDecision {
            rung,
            predicted_us: 1000,
            actual_us: 1100,
            budget_us: 5000,
            missed: false,
        };
        // A ladder-off backend merged with a ladder-on one: enabled ORs,
        // the rung vector takes the longer ladder, counters add.
        let mut acc = LodCounters {
            enabled: false,
            frames_by_rung: vec![3, 1],
            degraded_frames: 1,
            degradations: 1,
            recoveries: 0,
            recent: vec![decision(1)],
        };
        let other = LodCounters {
            enabled: true,
            frames_by_rung: vec![5, 2, 4],
            degraded_frames: 6,
            degradations: 3,
            recoveries: 2,
            recent: vec![decision(2), decision(0)],
        };
        acc.merge_add(&other);
        assert!(acc.enabled);
        assert_eq!(acc.frames_by_rung, vec![8, 3, 4]);
        assert_eq!(acc.degraded_frames, 7);
        assert_eq!(acc.degradations, 4);
        assert_eq!(acc.recoveries, 2);
        assert_eq!(
            acc.recent,
            vec![decision(1), decision(2), decision(0)],
            "traces concatenate oldest-first"
        );
        // The merged trace stays bounded, keeping the newest entries.
        let mut full = LodCounters {
            recent: (0..LOD_TRACE_WINDOW as u32).map(decision).collect(),
            ..LodCounters::default()
        };
        full.merge_add(&LodCounters {
            recent: vec![decision(7777)],
            ..LodCounters::default()
        });
        assert_eq!(full.recent.len(), LOD_TRACE_WINDOW);
        assert_eq!(full.recent.last().unwrap().rung, 7777);
        assert_eq!(full.recent[0].rung, 1, "oldest entry evicted first");
    }

    #[test]
    fn per_priority_accessors_default_to_zero() {
        let mut stats = ServeStats::default();
        assert_eq!(stats.deadline_misses(), 0);
        assert_eq!(
            stats.priority(Priority::Interactive),
            PriorityCounters::default()
        );
        stats.per_priority.insert(
            Priority::Bulk,
            PriorityCounters {
                requests: 5,
                deadline_misses: 2,
                with_deadline: 4,
                ..PriorityCounters::default()
            },
        );
        assert_eq!(stats.deadline_misses(), 2);
        assert_eq!(stats.priority(Priority::Bulk).requests, 5);
        assert_eq!(stats.priority(Priority::Interactive).requests, 0);
    }
}
