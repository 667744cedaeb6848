//! The rolling per-scene cost model: measured-only pricing with bounded
//! upward probing.
//!
//! Every completed frame feeds one observation — "scene S at rung R and
//! resolution W×H took M milliseconds" — into an EWMA cell. At dispatch
//! time the scheduler asks for the highest-quality rung whose *measured*
//! cost (with a safety margin) fits the frame's remaining deadline
//! budget. Nothing is extrapolated: the rungs' costs are not ratios of
//! one another (on Lego the `coarse` rung costs more than `half_res`),
//! so an unmeasured rung has no price. Instead, while the chosen rung
//! fits, the model *probes*: it hands out the nearest better rung that
//! has never been measured, one step per frame, and a measured rung that
//! did not fit is tried again only after [`RETRY_INTERVAL`] frames. A
//! cold scene therefore climbs floor → … → best fitting rung in at most
//! one frame per rung, and pays at most one over-budget frame per rung
//! per interval to keep its prices current. A rung whose measured cost is
//! within the budget and only fails the margin would make its deadline,
//! so it is retried sooner, after [`NEAR_RETRY_INTERVAL`] frames: a rung
//! that lost its headroom to a noisy stretch is back within half a
//! second.
//!
//! A cost is only comparable to frames rendered the same way: callers
//! that render the same scene on different thread counts keep one model
//! per thread count.

use crate::ladder::QualityLadder;
use std::collections::HashMap;

/// EWMA smoothing factor: weight of the newest observation when the
/// previous one is one frame old.
const EWMA_ALPHA: f64 = 0.3;

/// How many observed frames of a scene × resolution must pass before a
/// measured rung that did not fit is rendered again. Probing costs at
/// most one over-budget frame per rung per interval (under 1% of frames
/// per hopeless rung) and a rung that became affordable is found within
/// four seconds at 30 Hz.
pub const RETRY_INTERVAL: u64 = 128;

/// The shorter wait before retrying a rung whose measured cost fits the
/// budget itself and only fails the margin: rendering it again is not
/// expected to miss, so the interval does not have to ration misses — it
/// only keeps a rung that lost its headroom to a noisy stretch from
/// being written off for a whole [`RETRY_INTERVAL`]. (A rung that sits
/// just under the budget for good is re-rendered this often too, at its
/// own risk of a miss: at most one frame in 17.)
pub const NEAR_RETRY_INTERVAL: u64 = RETRY_INTERVAL / 8;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SceneKey {
    scene: String,
    width: u32,
    height: u32,
}

impl SceneKey {
    fn new(scene: &str, resolution: (u32, u32)) -> Self {
        Self {
            scene: scene.to_string(),
            width: resolution.0,
            height: resolution.1,
        }
    }
}

/// One measured rung of one scene × resolution.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// EWMA of the measured ms/frame.
    ms: f64,
    /// The scene's frame count when this rung was last observed.
    seen_at: u64,
}

/// Everything measured for one scene × resolution.
#[derive(Debug, Clone, Default)]
struct SceneCosts {
    /// Frames observed at any rung.
    frames: u64,
    /// Indexed by rung; `None` until the rung is first measured.
    rungs: Vec<Option<Cell>>,
}

impl SceneCosts {
    fn cell(&self, rung: usize) -> Option<&Cell> {
        self.rungs.get(rung)?.as_ref()
    }
}

/// Rolling ms/frame estimates keyed by scene × rung × resolution.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    scenes: HashMap<SceneKey, SceneCosts>,
}

impl CostModel {
    /// An empty model (every scene cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (scene, rung, resolution) cells observed.
    pub fn len(&self) -> usize {
        self.scenes
            .values()
            .map(|s| s.rungs.iter().flatten().count())
            .sum()
    }

    /// `true` when no observation has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.scenes.is_empty()
    }

    fn costs(&self, scene: &str, resolution: (u32, u32)) -> Option<&SceneCosts> {
        self.scenes.get(&SceneKey::new(scene, resolution))
    }

    /// Folds one measured frame into the model.
    pub fn observe(&mut self, scene: &str, rung: usize, resolution: (u32, u32), ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let costs = self
            .scenes
            .entry(SceneKey::new(scene, resolution))
            .or_default();
        costs.frames += 1;
        if costs.rungs.len() <= rung {
            costs.rungs.resize(rung + 1, None);
        }
        let seen_at = costs.frames;
        // The old estimate fades by the scene's frames, rendered at this
        // rung or not: a rung retried after a gap is priced by the retry,
        // not by what it cost before the gap.
        let ms = match costs.rungs[rung] {
            Some(cell) => {
                let age = i32::try_from(seen_at - cell.seen_at).unwrap_or(i32::MAX);
                ms + (1.0 - EWMA_ALPHA).powi(age) * (cell.ms - ms)
            }
            None => ms,
        };
        costs.rungs[rung] = Some(Cell { ms, seen_at });
    }

    /// Measured ms/frame for a scene × rung × resolution, or `None` when
    /// that rung has never been observed there.
    pub fn predict(&self, scene: &str, rung: usize, resolution: (u32, u32)) -> Option<f64> {
        Some(self.costs(scene, resolution)?.cell(rung)?.ms)
    }

    /// Picks the rung to render a frame at: the highest-quality rung whose
    /// measured cost, scaled by `margin` (> 1 leaves headroom for
    /// scheduling noise), fits within `budget_ms` — or, while that rung
    /// fits, a probe of the nearest better rung that is unmeasured or
    /// whose non-fitting measurement is at least [`RETRY_INTERVAL`] frames
    /// old ([`NEAR_RETRY_INTERVAL`] when the measured cost is within the
    /// budget and only the margin is not). Falls to the floor rung when
    /// nothing measured fits — and for cold scenes with no observations,
    /// where rendering cheap once is the only miss-proof way to start
    /// pricing the ladder.
    pub fn select_rung(
        &self,
        ladder: &QualityLadder,
        scene: &str,
        resolution: (u32, u32),
        budget_ms: f64,
        margin: f64,
    ) -> usize {
        let Some(costs) = self.costs(scene, resolution) else {
            return ladder.floor();
        };
        let fits = |cell: &Cell| cell.ms * margin <= budget_ms;
        let Some(best) = (0..ladder.len()).find(|&r| costs.cell(r).is_some_and(fits)) else {
            return ladder.floor();
        };
        // Every rung above `best` is unmeasured or does not fit. Walking
        // up, fresh misfits are skipped over; the first rung worth a frame
        // is the probe.
        let due = |cell: &Cell| {
            let wait = if cell.ms <= budget_ms {
                NEAR_RETRY_INTERVAL
            } else {
                RETRY_INTERVAL
            };
            costs.frames - cell.seen_at >= wait
        };
        (0..best)
            .rev()
            .find(|&r| costs.cell(r).is_none_or(due))
            .unwrap_or(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RES: (u32, u32) = (640, 480);
    const BUDGET_MS: f64 = 33.0;
    const MARGIN: f64 = 1.3;

    #[test]
    fn ewma_tracks_observations() {
        let mut m = CostModel::new();
        m.observe("lego", 0, RES, 100.0);
        assert_eq!(m.predict("lego", 0, RES), Some(100.0));
        // Converges toward a shifted load level.
        for _ in 0..50 {
            m.observe("lego", 0, RES, 40.0);
        }
        let v = m.predict("lego", 0, RES).unwrap();
        assert!((v - 40.0).abs() < 1.0, "{v}");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unmeasured_rungs_have_no_price() {
        let mut m = CostModel::new();
        m.observe("lego", 3, RES, 10.0);
        for rung in 0..3 {
            assert_eq!(m.predict("lego", rung, RES), None, "rung {rung}");
        }
        assert_eq!(m.predict("lego", 3, RES), Some(10.0));
    }

    #[test]
    fn prediction_is_scoped_by_scene_and_resolution() {
        let mut m = CostModel::new();
        m.observe("lego", 0, RES, 100.0);
        assert_eq!(m.predict("train", 0, RES), None);
        assert_eq!(m.predict("lego", 0, (320, 240)), None);
    }

    /// Plays `decisions` frames of a closed loop — select, render at the
    /// rung's true cost, observe — and returns the rungs chosen.
    fn closed_loop(m: &mut CostModel, true_ms: [f64; 4], decisions: usize) -> Vec<usize> {
        let ladder = QualityLadder::standard();
        (0..decisions)
            .map(|_| {
                let rung = m.select_rung(&ladder, "lego", RES, BUDGET_MS, MARGIN);
                m.observe("lego", rung, RES, true_ms[rung]);
                rung
            })
            .collect()
    }

    #[test]
    fn closed_loop_climbs_to_the_best_fitting_rung_and_stays() {
        // Lego at 256×256 on two threads: `half_res` fits, `full` does not,
        // and `coarse` costs more than `half_res`.
        let true_ms = [38.0, 14.5, 20.0, 7.0];
        let mut m = CostModel::new();
        let picks = closed_loop(&mut m, true_ms, 64);
        assert_eq!(picks[..4], [3, 2, 1, 0], "one step up per frame");
        let over_budget = picks.iter().filter(|&&r| true_ms[r] > BUDGET_MS).count();
        assert_eq!(over_budget, 1, "the probe of `full` is the only miss");
        assert!(picks[4..].iter().all(|&r| r == 1), "{picks:?}");
    }

    #[test]
    fn closed_loop_that_fits_only_the_floor_probes_once_per_interval() {
        // The same frames on one thread: nothing above the floor fits.
        // `half_res` would make the deadline and only fails the margin;
        // `coarse` and `full` would miss.
        let true_ms = [68.0, 26.0, 36.0, 11.0];
        let mut m = CostModel::new();
        let picks = closed_loop(&mut m, true_ms, 3 * RETRY_INTERVAL as usize);
        assert_eq!(picks[..4], [3, 2, 1, 0]);
        let probes = |rung: usize| -> Vec<usize> {
            (0..picks.len()).filter(|&i| picks[i] == rung).collect()
        };
        // The hopeless rungs: retried as soon as the interval has passed,
        // and never sooner.
        for rung in [0, 2] {
            let at = probes(rung);
            assert_eq!(at.len(), 3, "rung {rung}: {at:?}");
            for pair in at.windows(2) {
                assert!(pair[1] - pair[0] >= RETRY_INTERVAL as usize, "{at:?}");
            }
        }
        // The near miss: retried every time the short interval has passed.
        let near = probes(1);
        assert_eq!(
            near.len(),
            picks.len() / (NEAR_RETRY_INTERVAL as usize + 1) + 1
        );
        for pair in near.windows(2) {
            assert_eq!(pair[1] - pair[0], NEAR_RETRY_INTERVAL as usize + 1);
        }
        let misses = picks.iter().filter(|&&r| true_ms[r] > BUDGET_MS).count();
        assert_eq!(misses, 2 * 3, "one miss per hopeless rung per interval");
    }

    #[test]
    fn a_rung_that_lost_its_headroom_to_a_noisy_stretch_is_back_quickly() {
        let mut m = CostModel::new();
        closed_loop(&mut m, [38.0, 14.5, 20.0, 7.0], 8);
        // Four frames at 30 ms push `half_res` past its margin (not past
        // the budget); `coarse` takes over.
        let noisy = closed_loop(&mut m, [38.0, 30.0, 20.0, 7.0], 12);
        assert_eq!(noisy.last(), Some(&2), "{noisy:?}");
        // The stretch ends. One near retry later `half_res` is priced by
        // what it costs now, and stays.
        let calm = closed_loop(&mut m, [38.0, 14.5, 20.0, 7.0], 40);
        let back = calm.iter().position(|&r| r == 1).expect("retried");
        assert!(back <= NEAR_RETRY_INTERVAL as usize, "{calm:?}");
        assert!(calm[back..].iter().all(|&r| r == 1), "{calm:?}");
    }

    #[test]
    fn a_rung_that_became_affordable_is_found_by_the_retry() {
        let mut m = CostModel::new();
        closed_loop(&mut m, [38.0, 14.5, 20.0, 7.0], 8);
        // Load lifts: `full` now costs 12 ms. Its stale 38 ms price keeps
        // it off the menu until the retry interval has passed.
        let picks = closed_loop(&mut m, [12.0, 14.5, 20.0, 7.0], 4 * RETRY_INTERVAL as usize);
        let first_full = picks.iter().position(|&r| r == 0).expect("retried");
        assert!(first_full < RETRY_INTERVAL as usize);
        assert_eq!(picks.last(), Some(&0), "settles on the rung that now fits");
    }

    #[test]
    fn selection_degrades_under_pressure_and_climbs_back() {
        let mut m = CostModel::new();
        let ladder = QualityLadder::standard();
        for (rung, ms) in [100.0, 40.0, 20.0, 10.0].into_iter().enumerate() {
            m.observe("lego", rung, RES, ms);
        }
        // Plenty of budget: full quality.
        assert_eq!(m.select_rung(&ladder, "lego", RES, 500.0, 1.5), 0);
        // Tight budget: steps down just far enough (rung 1 = 40 ms).
        assert_eq!(m.select_rung(&ladder, "lego", RES, 80.0, 1.5), 1);
        // Severe pressure: floor, even though it cannot make it either.
        assert_eq!(m.select_rung(&ladder, "lego", RES, 5.0, 1.5), 3);
        // Headroom returns: straight back to full quality.
        assert_eq!(m.select_rung(&ladder, "lego", RES, 1000.0, 1.5), 0);
    }

    #[test]
    fn cold_scenes_start_at_the_floor() {
        let m = CostModel::new();
        let ladder = QualityLadder::standard();
        assert_eq!(m.select_rung(&ladder, "unknown", RES, 1e9, 1.5), 3);
        // A measured rung that does not fit is no licence to probe.
        let mut m = CostModel::new();
        m.observe("lego", 3, RES, 50.0);
        assert_eq!(m.select_rung(&ladder, "lego", RES, 33.0, 1.3), 3);
    }

    #[test]
    fn non_finite_and_negative_observations_are_ignored() {
        let mut m = CostModel::new();
        m.observe("lego", 0, RES, f64::NAN);
        m.observe("lego", 0, RES, f64::INFINITY);
        m.observe("lego", 0, RES, -5.0);
        assert!(m.is_empty());
    }
}
