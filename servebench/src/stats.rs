//! Sample statistics: percentiles with an explicit tail-sample count,
//! open-loop latency accounting and stage-residual arithmetic.

use std::time::{Duration, Instant};

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A percentile of a latency sample, with the counts that justify it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `pct`% of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> Quantile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    // The epsilon keeps float error (99.9% of 10000 = 9990.000000000002)
    // from pushing the rank one place up.
    let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Quantile { pct, value: sorted[rank - 1], n, beyond: n - rank }
}

/// The percentile named by a metric, or an error when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (the figure would rest on a
/// handful of outliers).
pub fn supported_percentile(sorted: &[f64], pct: f64) -> Result<Quantile, String> {
    if sorted.is_empty() {
        return Err(format!("p{pct}: no samples"));
    }
    let q = percentile(sorted, pct);
    if q.beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{pct} needs at least {MIN_TAIL_SAMPLES} samples beyond it; {} samples leave {}",
            q.n, q.beyond
        ));
    }
    Ok(q)
}

/// The highest of the standard percentiles that still has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it; `None` for samples too small
/// to support even the median.
pub fn highest_supported(sorted: &[f64]) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .map(|p| percentile(sorted, p))
        .find(|q| q.beyond >= MIN_TAIL_SAMPLES)
}

/// Groups `(time, value)` samples into `parts` equal slices of the window
/// `[start, start + len)`; samples after the window join the last slice.
pub fn by_part(
    samples: impl IntoIterator<Item = (Instant, f64)>,
    start: Instant,
    len: Duration,
    parts: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); parts];
    for (t, v) in samples {
        let f = t.saturating_duration_since(start).as_secs_f64() / len.as_secs_f64();
        out[((f * parts as f64) as usize).min(parts - 1)].push(v);
    }
    out
}

/// A percentile computed in each of up to `max_parts` equal slices of the
/// window, summarised by the median over slices: a disturbance confined
/// to one slice does not move the figure. Uses the most slices in which
/// every slice supports `pct` (see [`supported_percentile`]). Returns the
/// median and the per-slice values.
pub fn median_of_parts(
    samples: &[(Instant, f64)],
    start: Instant,
    len: Duration,
    max_parts: usize,
    pct: f64,
) -> Result<(f64, Vec<f64>), String> {
    let mut last_err = String::from("no samples");
    for parts in (1..=max_parts).rev() {
        let slices = by_part(samples.iter().copied(), start, len, parts);
        let qs: Result<Vec<f64>, String> = slices
            .iter()
            .map(|p| supported_percentile(&sorted(p.iter().copied()), pct).map(|q| q.value))
            .collect();
        match qs {
            Ok(values) => return Ok((median(values.iter().copied()), values)),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Ascending copy of a sample.
pub fn sorted(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (lower middle for an even count); 0 for an empty
/// one.
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        0.0
    } else {
        percentile(&s, 50.0).value
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs.into_iter().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Client-observed latency of one open-loop request in milliseconds,
/// counted from when it was *due*, not when it was sent: a generator
/// that stalls charges the stall to every request queued behind it, as
/// a user arriving on schedule would experience it.
pub fn latency_from_due_ms(due: Instant, answered: Instant) -> f64 {
    answered.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// How late the generator sent a request, in milliseconds.
pub fn lateness_ms(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Whatever a wall time leaves unexplained by its named stages. Negative
/// when the stages over-account (clock skew between measurements).
pub fn residual(wall: f64, stages: &[f64]) -> f64 {
    wall - stages.iter().sum::<f64>()
}

/// Stage means plus the mean residual, per update. Because every
/// per-update residual is `wall − Σ stages`, the means satisfy
/// `mean(wall) = Σ mean(stage) + mean(residual)` exactly; the benchmark
/// reports both sides so the identity can be checked from its output.
#[derive(Clone, Debug, PartialEq)]
pub struct StageBreakdown {
    /// Mean of each stage, in input order.
    pub stage_means: Vec<f64>,
    /// Mean residual.
    pub residual_mean: f64,
    /// Mean wall time.
    pub wall_mean: f64,
}

/// Attributes per-update wall times (`rows[i].0`) to stages
/// (`rows[i].1`, the same number of stages on every row).
pub fn breakdown(rows: &[(f64, Vec<f64>)]) -> StageBreakdown {
    let stages = rows.first().map_or(0, |r| r.1.len());
    let stage_means =
        (0..stages).map(|s| mean(rows.iter().map(|(_, st)| st[s]))).collect::<Vec<_>>();
    StageBreakdown {
        stage_means,
        residual_mean: mean(rows.iter().map(|(w, st)| residual(*w, st))),
        wall_mean: mean(rows.iter().map(|(w, _)| *w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0).value, 50.0);
        assert_eq!(percentile(&s, 99.0).value, 99.0);
        assert_eq!(percentile(&s, 99.0).beyond, 1);
        assert_eq!(percentile(&s, 100.0).value, 100.0);
        assert_eq!(percentile(&[7.0], 99.0).value, 7.0);
    }

    #[test]
    fn named_percentile_requires_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond: supported.
        let q = supported_percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((q.value, q.n, q.beyond), (990.0, 1000, 10));
        // 999 samples leave 9: refused, and the message gives the counts.
        let e = supported_percentile(&ramp(999), 99.0).unwrap_err();
        assert!(e.contains("999") && e.contains("leave 9"), "{e}");
        // p90 of 100 updates leaves 10: supported; of 99, refused.
        assert!(supported_percentile(&ramp(100), 90.0).is_ok());
        assert!(supported_percentile(&ramp(99), 90.0).is_err());
    }

    #[test]
    fn highest_supported_percentile_tracks_sample_size() {
        assert_eq!(highest_supported(&ramp(100_000)).unwrap().pct, 99.99);
        assert_eq!(highest_supported(&ramp(10_000)).unwrap().pct, 99.9);
        assert_eq!(highest_supported(&ramp(9_999)).unwrap().pct, 99.0);
        assert_eq!(highest_supported(&ramp(1_000)).unwrap().pct, 99.0);
        assert_eq!(highest_supported(&ramp(999)).unwrap().pct, 90.0);
        assert_eq!(highest_supported(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(highest_supported(&ramp(19)), None);
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let answered = sent + Duration::from_millis(2);
        // The 30 ms the generator stalled is part of the latency.
        assert!((latency_from_due_ms(due, answered) - 32.0).abs() < 1e-6);
        assert!((lateness_ms(due, sent) - 30.0).abs() < 1e-6);
        // Sent early (clock jitter): no negative lateness.
        assert_eq!(lateness_ms(sent, due), 0.0);
    }

    #[test]
    fn stage_residual_closes_the_sum() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
        let rows = vec![(10.0, vec![2.0, 3.0]), (20.0, vec![4.0, 9.0]), (6.0, vec![1.0, 1.0])];
        let b = breakdown(&rows);
        assert_eq!(b.stage_means, vec![7.0 / 3.0, 13.0 / 3.0]);
        assert_eq!(b.wall_mean, 12.0);
        let sum: f64 = b.stage_means.iter().sum::<f64>() + b.residual_mean;
        assert!((sum - b.wall_mean).abs() < 1e-12);
    }

    #[test]
    fn one_disturbed_slice_does_not_move_the_median_of_slices() {
        let start = Instant::now();
        let len = Duration::from_secs(4);
        // 4000 samples, 1000 per second; the third second is 10x slower.
        let samples: Vec<(Instant, f64)> = (0..4000)
            .map(|i| {
                let t = start + Duration::from_millis(i as u64);
                let slow = (2000..3000).contains(&i);
                (t, if slow { 10.0 } else { 1.0 } * (1 + i % 100) as f64)
            })
            .collect();
        let slices = by_part(samples.iter().copied(), start, len, 4);
        assert!(slices.iter().all(|s| s.len() == 1000));
        let (p99, slices) = median_of_parts(&samples, start, len, 4, 99.0).unwrap();
        assert_eq!((p99, slices), (99.0, vec![99.0, 99.0, 990.0, 99.0]));
        // The pooled p99 is pulled up by the slow second.
        assert!(percentile(&sorted(samples.iter().map(|s| s.1)), 99.0).value > 99.0);
        // Too few samples for four slices: fall back to fewer.
        let (_, slices) = median_of_parts(&samples[..3000], start, len, 4, 99.0).unwrap();
        assert_eq!(slices.len(), 2);
        assert!(median_of_parts(&samples[..999], start, len, 4, 99.0).is_err());
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([]), 0.0);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean([]), 0.0);
    }
}
