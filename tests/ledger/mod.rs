// The `ServeStats` ledger: every published total equals the sum of the
// breakdowns it totals. Shared by the serve integration tests and, through
// `include!`, by `gcc-serve`'s own unit tests — so no `//!` docs here.

/// Asserts the identities between `stats`' totals and its per-priority,
/// per-scene and per-schedule breakdowns.
pub fn assert_ledger(stats: &gcc_serve::ServeStats) {
    let by_priority = |f: fn(&gcc_serve::PriorityCounters) -> u64| -> u64 {
        stats.per_priority.values().map(f).sum()
    };
    let scenes =
        |f: fn(&gcc_serve::SceneCounters) -> u64| -> u64 { stats.per_scene.values().map(f).sum() };
    let schedules = |f: fn(&gcc_serve::ScheduleCounters) -> u64| -> u64 {
        stats.per_schedule.values().map(f).sum()
    };
    assert_eq!(stats.completed, by_priority(|p| p.completed), "completed");
    assert_eq!(
        stats.frames,
        by_priority(|p| p.frames),
        "frames by priority"
    );
    assert_eq!(stats.frames, scenes(|s| s.frames), "frames by scene");
    assert_eq!(stats.frames, schedules(|s| s.frames), "frames by schedule");
    assert_eq!(stats.batches, scenes(|s| s.batches), "batches by scene");
    assert_eq!(
        stats.batches,
        schedules(|s| s.batches),
        "batches by schedule"
    );
    assert_eq!(
        stats.queue_depth as u64,
        by_priority(|p| p.queued as u64),
        "queue depth"
    );
    let requests = by_priority(|p| p.requests);
    assert_eq!(scenes(|s| s.requests), requests, "requests by scene");
    assert_eq!(schedules(|s| s.requests), requests, "requests by schedule");
}
