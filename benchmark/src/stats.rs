//! Estimators and process-level gauges shared by every workload.

use std::time::Duration;

/// Linear-interpolated percentile of unsorted samples; `0.0` when empty
/// (a per-layer probe that collected nothing still prints a number).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The median ([`percentile`] at 0.5).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Distance between the first and the third quartile as a share of the
/// median — the run-to-run spread the driver computes, with the quartiles
/// of Python's `statistics.quantiles(values, n=4)` (exclusive method).
/// `0.0` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    let mid = median(values);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values; `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Width of the windows [`window_rate`] counts frames in.
pub const RATE_WINDOW: Duration = Duration::from_secs(5);

/// Events per second of a phase of `length`: the phase is cut into equal
/// windows of about [`RATE_WINDOW`] (at least one), the events `at` (time
/// from the phase start, any order) are counted per window, and the rate
/// is the median window's, so one stalled window does not move it. An
/// event after `length` (a request that was open when the phase ended)
/// belongs to no window.
pub fn window_rate(at: &[Duration], length: Duration) -> f64 {
    let windows = (length.as_secs_f64() / RATE_WINDOW.as_secs_f64())
        .round()
        .max(1.0);
    let width = length.as_secs_f64() / windows;
    let mut counts = vec![0.0f64; windows as usize];
    for t in at.iter().filter(|t| **t <= length) {
        // An event on the closing edge belongs to the last window.
        let w = ((t.as_secs_f64() / width) as usize).min(counts.len() - 1);
        counts[w] += 1.0;
    }
    median(&counts) / width
}

/// `VmHWM` of this process in MiB (peak resident set size).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in seconds
/// (`utime + stime` of `/proc/self/stat`, at the usual 100 ticks/s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_tolerates_empty() {
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartile_spread(&[11.0, 1.0, 4.0, 2.0, 7.0]), 7.5 / 4.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), 5.5 / 5.5);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn window_rate_is_the_median_windows() {
        let at = |ms: &[u64]| -> Vec<Duration> {
            ms.iter().map(|&m| Duration::from_millis(m)).collect()
        };
        // Three 5 s windows holding 10, 2 (a stall) and 12 events.
        let mut events: Vec<u64> = (0..10).map(|k| k * 500).collect();
        events.extend([5000, 9000]);
        events.extend((0..12).map(|k| 10_000 + k * 400));
        let rate = window_rate(&at(&events), Duration::from_secs(15));
        assert_eq!(rate, 10.0 / 5.0);
        // A phase shorter than a window is one window; its closing edge
        // counts, a later event does not.
        assert_eq!(
            window_rate(&at(&[0, 1000, 2000, 2001]), Duration::from_secs(2)),
            1.5
        );
        assert_eq!(window_rate(&[], Duration::from_secs(2)), 0.0);
    }

    #[test]
    fn process_gauges_read_something() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
