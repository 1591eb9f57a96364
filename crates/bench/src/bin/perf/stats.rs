//! Order statistics for the harness: nearest-rank percentiles, the
//! "highest percentile with enough samples beyond it" rule, median + MAD,
//! and the open-loop due-time latency.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it (`p` in
/// `(0, 1]`; `p = 0` returns the minimum).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (samples are finite by construction).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Nearest-rank percentile of an unsorted slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(xs), p)
}

/// The highest candidate percentile that still has at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank; falls back to
/// the median for tiny samples (smoke runs).
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .iter()
        .copied()
        .find(|&p| n - ((p * n as f64).ceil() as usize).min(n) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Median (nearest-rank).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub use nt_bench::stats::mean;

/// Median and median absolute deviation.
pub fn median_mad(xs: &[f64]) -> (f64, f64) {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    (m, median(&dev))
}

/// Interquartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` returns (exclusive method) — the
/// spread the benchmark driver computes over repeated runs.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, linearly interpolated.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let mid = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    (q(3) - q(1)) / mid
}

/// Open-loop latency in ms: completion minus the time the request was
/// *due*, not the time the generator got round to sending it — a stalled
/// generator lengthens the latency of the requests it delayed.
pub fn due_latency_ms(due: Instant, completed: Instant) -> f64 {
    completed.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// How late the generator sent a request, in ms (0 when on time).
pub fn lag_ms(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Seeded arrival offsets of a Poisson process over `span`, conditioned
/// on exactly `n` arrivals (then the arrival times are i.i.d. uniform, so
/// gaps stay exponential-like while every run offers the same count).
pub fn arrival_offsets(n: usize, span: Duration, rng: &mut nt_tensor::Rng) -> Vec<Duration> {
    let mut out: Vec<Duration> = (0..n)
        .map(|_| {
            // Two draws for 48 uniform bits: `Rng::unit`'s 24 alone would
            // quantise a second into 60 ns steps.
            let u = rng.unit() as f64 + rng.unit() as f64 / (1u64 << 24) as f64;
            span.mul_f64(u)
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Nearest rank never interpolates: the answer is always a sample.
        assert_eq!(percentile(&[1.0, 10.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 10.0], 0.51), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(10_000), 0.999);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(5), 0.5, "tiny samples fall back to the median");
    }

    #[test]
    fn median_and_mad() {
        let (m, mad) = median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(m, 3.0);
        assert_eq!(mad, 1.0, "one outlier does not move the MAD");
        assert_eq!(median_mad(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn a_stalled_generator_lengthens_later_requests() {
        // Three requests due 1 ms apart; the generator stalls 5 ms before
        // sending the second and third. Each then completes 1 ms after it
        // was actually sent.
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let due = [t0, t0 + ms(1), t0 + ms(2)];
        let sent = [t0, t0 + ms(6), t0 + ms(6)];
        let done: Vec<Instant> = sent.iter().map(|&s| s + ms(1)).collect();
        let lat: Vec<f64> = due.iter().zip(&done).map(|(&d, &c)| due_latency_ms(d, c)).collect();
        assert!((lat[0] - 1.0).abs() < 1e-9);
        assert!((lat[1] - 6.0).abs() < 1e-9, "the stall counts against the delayed request");
        assert!((lat[2] - 5.0).abs() < 1e-9);
        // Timing from the send instead would have hidden it.
        assert!((due_latency_ms(sent[1], done[1]) - 1.0).abs() < 1e-9);
        assert!((lag_ms(due[1], sent[1]) - 5.0).abs() < 1e-9);
        assert_eq!(lag_ms(due[0], sent[0]), 0.0);
    }

    #[test]
    fn arrival_offsets_are_seeded_sorted_and_exact() {
        let span = Duration::from_secs(1);
        let a = arrival_offsets(2000, span, &mut nt_tensor::Rng::seeded(7));
        let b = arrival_offsets(2000, span, &mut nt_tensor::Rng::seeded(7));
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < span);
        // Poisson-like: gaps are irregular (CV of exponential gaps is 1).
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let m = mean(&gaps);
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / m - 1.0).abs() < 0.15, "gap CV {}", var.sqrt() / m);
        assert_ne!(a, arrival_offsets(2000, span, &mut nt_tensor::Rng::seeded(8)));
    }
}
