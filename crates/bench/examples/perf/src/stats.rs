//! Order statistics and timed windows.

/// Linear-interpolation percentile (`p` in `[0, 1]`) of an ascending,
/// non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// rule for the highest percentile a sample may report.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    assert!(ld >= 1, "quartiles of an empty sample");
    if ld == 1 {
        return [d[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// One completed operation of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds since the phase started.
    pub end: f64,
    /// Latency in milliseconds, when the operation is one the workload's
    /// latency metrics describe.
    pub latency_ms: Option<f64>,
    /// Units of work the operation completed (counted by `throughput`).
    pub units: f64,
    /// Whether spans were being recorded when the operation ran.
    pub traced: bool,
}

/// One timed window: the operations that completed inside it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Window length, seconds: from the previous window's last completion
    /// to this window's last completion.
    pub secs: f64,
    /// Units of work completed.
    pub units: f64,
    /// Latency samples, milliseconds, ascending.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// Work units per second.
    pub fn rate(&self) -> f64 {
        self.units / self.secs
    }
}

/// Split a phase of `total` seconds into `count` windows by completion
/// time.  A window ends at its last completion, so sequential operations
/// longer than a clock tick never straddle two windows; windows without
/// a completion are dropped.
pub fn windows(samples: &[Sample], total: f64, count: usize) -> Vec<Window> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.end.total_cmp(&b.end));
    let width = total / count.max(1) as f64;
    let mut out: Vec<Window> = Vec::with_capacity(count);
    let mut last_end = 0.0;
    let mut it = sorted.iter().peekable();
    for k in 0..count {
        let edge = if k + 1 == count { f64::INFINITY } else { (k + 1) as f64 * width };
        let mut w = Window::default();
        let mut end = last_end;
        while let Some(s) = it.next_if(|s| s.end < edge) {
            w.units += s.units;
            w.latencies_ms.extend(s.latency_ms);
            end = s.end;
        }
        if end > last_end {
            w.secs = end - last_end;
            w.latencies_ms.sort_by(f64::total_cmp);
            last_end = end;
            out.push(w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(200, 0.95));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), [1.25, 3.0, 7.0]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn window_median_ignores_one_disturbed_window() {
        // Five 1 s windows of 100 ops each; the third is twice as slow.
        let mut samples = Vec::new();
        for w in 0..5 {
            let (n, lat) = if w == 2 { (50, 20.0) } else { (100, 10.0) };
            for i in 0..n {
                let end = w as f64 + (i + 1) as f64 / n as f64 - 1e-9;
                samples.push(Sample { end, latency_ms: Some(lat), units: 1.0, traced: false });
            }
        }
        let ws = windows(&samples, 5.0, 5);
        assert_eq!(ws.len(), 5);
        let rates: Vec<f64> = ws.iter().map(Window::rate).collect();
        assert!((median(&rates) - 100.0).abs() < 1e-3, "{rates:?}");
        let p50s: Vec<f64> = ws.iter().map(|w| percentile(&w.latencies_ms, 0.5)).collect();
        assert_eq!(median(&p50s), 10.0);
    }

    #[test]
    fn windows_end_at_completions_and_skip_empty_ones() {
        // Sequential 0.4 s operations in 1 s windows: each window spans
        // whole operations, so every rate is exactly 2.5 ops/s.
        let samples: Vec<Sample> = (1..=10)
            .map(|i| Sample {
                end: i as f64 * 0.4,
                latency_ms: Some(400.0),
                units: 1.0,
                traced: false,
            })
            .collect();
        let ws = windows(&samples, 4.0, 4);
        assert!(ws.iter().all(|w| (w.rate() - 2.5).abs() < 1e-9), "{ws:?}");
        let total: f64 = ws.iter().map(|w| w.units).sum();
        assert_eq!(total, 10.0);
        assert_eq!(windows(&samples[..1], 4.0, 4).len(), 1);
    }
}
