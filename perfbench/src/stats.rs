//! Quantile and window helpers.
//!
//! Every percentile is computed from the raw samples of one population,
//! never from histogram bucket bounds, and every rate from fixed-size
//! windows of completions rather than from a whole-run total: a run's
//! figure is then a median over many windows or rounds, which a single
//! stall or an unlucky thread placement cannot move far.

/// Linear-interpolation quantile (Hyndman–Fan type 7, the default of
/// NumPy and R) of an ascending-sorted, non-empty sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` lies outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `samples` ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// A run's figure from its per-round figures: the 10th percentile where
/// lower is better, the 90th where higher is better — the run's quietest
/// tenth of rounds.
///
/// A shared host slows a run by whatever its neighbours do at the time,
/// and only ever slows it. For deterministic single-threaded work a low
/// quantile over many rounds reads the code's cost with the least of
/// that added, so it moves less from run to run than the median does,
/// and it still moves with the code. Where rounds fall into modes by
/// thread placement, as on two threads, the low quantile lands in one
/// mode or the other by chance; there the median is the steadier figure.
pub fn quiet(per_round: &[f64], lower_is_better: bool) -> f64 {
    let q = if lower_is_better { 0.1 } else { 0.9 };
    quantile_sorted(&sorted(per_round), q)
}

/// p50, p90 and p99 of one population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// p50 ≤ p90 ≤ p99 of a non-empty sample.
///
/// # Panics
///
/// Panics if the sample is empty or holds a NaN; the ordering assert
/// guards the emitted numbers against a mixed-up population.
pub fn percentiles(samples: &[f64]) -> Percentiles {
    assert!(
        samples.iter().all(|x| !x.is_nan()),
        "NaN in a latency sample"
    );
    let s = sorted(samples);
    let p = Percentiles {
        p50: quantile_sorted(&s, 0.50),
        p90: quantile_sorted(&s, 0.90),
        p99: quantile_sorted(&s, 0.99),
    };
    assert!(
        p.p50 <= p.p90 && p.p90 <= p.p99,
        "percentiles out of order: {p:?}"
    );
    p
}

/// Completion rates over consecutive windows of `per_window` events.
///
/// `stamps` are completion times in nanoseconds (any order); window `k`
/// spans from the `k·w`-th to the `(k+1)·w`-th completion in time order
/// and its rate is `w` events over that span, in events per second. The
/// trailing partial window is dropped, as is a window of zero length.
pub fn window_rates(stamps: &mut [u64], per_window: usize) -> Vec<f64> {
    assert!(per_window > 0, "empty window");
    stamps.sort_unstable();
    let mut rates = Vec::new();
    let mut start = 0;
    while start + per_window < stamps.len() {
        let span = stamps[start + per_window] - stamps[start];
        if span > 0 {
            rates.push(per_window as f64 * 1e9 / span as f64);
        }
        start += per_window;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert!((quantile_sorted(&s, 0.5) - 5.5).abs() < 1e-12);
        assert!((quantile_sorted(&s, 0.9) - 9.1).abs() < 1e-12);
        assert!((quantile_sorted(&s, 0.25) - 3.25).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentiles_come_from_raw_samples_in_order() {
        // 1..=100 shuffled: p50 = 50.5, p90 = 90.1, p99 = 99.01.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        v.swap(3, 71);
        let p = percentiles(&v);
        assert!((p.p50 - 50.5).abs() < 1e-9);
        assert!((p.p90 - 90.1).abs() < 1e-9);
        assert!((p.p99 - 99.01).abs() < 1e-9);
        // A heavy tail stays in the tail: nine fast samples and one slow
        // one keep the median at the fast value.
        let mut tail = vec![10.0; 9];
        tail.push(1000.0);
        let p = percentiles(&tail);
        assert_eq!(p.p50, 10.0);
        assert!(p.p90 > p.p50 && p.p99 > p.p90);
    }

    #[test]
    fn medians_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_takes_the_best_tenth() {
        let rounds: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(quiet(&rounds, true), 2.0);
        assert_eq!(quiet(&rounds, false), 10.0);
        assert_eq!(quiet(&[4.0], true), 4.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_samples_are_refused() {
        percentiles(&[]);
    }

    #[test]
    fn window_rates_use_fixed_event_counts() {
        // Completions every 1 µs, then every 2 µs: windows of 4 events
        // read 1e6/s and 5e5/s; the partial window is dropped.
        let mut stamps: Vec<u64> = (0..=8).map(|i| i * 1_000).collect();
        stamps.extend((1..=9).map(|i| 8_000 + i * 2_000));
        stamps.reverse();
        let rates = window_rates(&mut stamps, 4);
        assert_eq!(rates.len(), 4);
        assert!((rates[0] - 1e6).abs() < 1e-6);
        assert!((rates[1] - 1e6).abs() < 1e-6);
        assert!((rates[2] - 5e5).abs() < 1e-6);
        assert!((rates[3] - 5e5).abs() < 1e-6);
        assert!(window_rates(&mut [5, 6], 4).is_empty());
    }
}
