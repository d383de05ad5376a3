//! Order statistics used for every reported figure.
//!
//! Percentiles use the nearest-rank rule: the `q`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q·n)`. A reported
//! tail is only trustworthy when enough samples lie strictly beyond it,
//! so [`Tail`] carries that count next to the value.

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples the benchmark wants beyond any reported tail.
pub const MIN_BEYOND_TAIL: usize = 10;

/// 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n` samples.
#[must_use]
pub fn nearest_rank(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    // The epsilon keeps products such as 0.99 × 1000 from rounding up
    // past an exact integer.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Samples needed so that at least `beyond` of them lie past quantile `q`.
#[must_use]
pub fn samples_for_tail(q: f64, beyond: usize) -> usize {
    let mut n = beyond;
    while n - nearest_rank(n, q) < beyond {
        n += 1;
    }
    n
}

/// Nearest-rank percentile of unsorted samples; `None` when empty.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), q);
    Some(Tail {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

/// Median of unsorted samples (mean of the two middle values for an
/// even count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Window summary reported as medians over equal time slices, so a
/// burst of outside load in one slice cannot move the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    /// Median over slices of operations completed per second.
    pub throughput: f64,
    /// Median over slices of the slice's median latency.
    pub p50: f64,
    /// The p99: the median of the p99s of consecutive runs of samples
    /// (in completion order; at most `slices` runs, at least
    /// [`MIN_TAIL_SLICES`]) that each hold enough samples for
    /// [`MIN_BEYOND_TAIL`] beyond their p99; with fewer samples, the
    /// p99 of all of them.
    pub p99: Tail,
    /// Runs the p99 is the median over (1 when pooled).
    pub p99_slices: usize,
}

/// Fewest slices whose p99s are combined into a median.
pub const MIN_TAIL_SLICES: usize = 3;

/// Summarizes `(completion offset in s, latency)` samples of a window
/// `window_s` long cut into `slices` equal slices.
#[must_use]
pub fn sliced(samples: &[(f64, f64)], window_s: f64, slices: usize) -> Option<Sliced> {
    if samples.is_empty() || window_s <= 0.0 || slices == 0 {
        return None;
    }
    let width = window_s / slices as f64;
    let mut cut: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at, latency) in samples {
        let slice = ((at / width).max(0.0) as usize).min(slices - 1);
        cut[slice].push(latency);
    }
    let rates: Vec<f64> = cut.iter().map(|b| b.len() as f64 / width).collect();
    let medians: Vec<f64> = cut.iter().filter_map(|b| median(b)).collect();
    let need = samples_for_tail(0.99, MIN_BEYOND_TAIL);
    let runs = slices.min(samples.len() / need);
    let (p99, p99_slices) = if runs >= MIN_TAIL_SLICES {
        let mut ordered = samples.to_vec();
        ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let size = ordered.len() / runs;
        let tails: Vec<Tail> = (0..runs)
            .filter_map(|r| {
                let end = if r + 1 == runs {
                    ordered.len()
                } else {
                    (r + 1) * size
                };
                let run: Vec<f64> = ordered[r * size..end].iter().map(|s| s.1).collect();
                percentile(&run, 0.99)
            })
            .collect();
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let tail = Tail {
            value: median(&values)?,
            samples: tails.iter().map(|t| t.samples).min()?,
            beyond: tails.iter().map(|t| t.beyond).min()?,
        };
        (tail, runs)
    } else {
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        (percentile(&all, 0.99)?, 1)
    };
    Some(Sliced {
        throughput: median(&rates)?,
        p50: median(&medians)?,
        p99,
        p99_slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_summary_ignores_a_burst_in_one_slice() {
        // 5 slices of 1 s, 2000 samples each at 1.0 ms, except slice 2
        // which completes half as many, all at 9.0 ms.
        let mut samples = Vec::new();
        for slice in 0..5 {
            let n = if slice == 2 { 1000 } else { 2000 };
            for i in 0..n {
                let at = slice as f64 + (i as f64 + 0.5) / n as f64;
                samples.push((at, if slice == 2 { 9.0 } else { 1.0 }));
            }
        }
        let s = sliced(&samples, 5.0, 5).unwrap();
        assert_eq!(s.throughput, 2000.0);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p99_slices, 5);
        assert_eq!(s.p99.value, 1.0);
        assert!(s.p99.beyond >= MIN_BEYOND_TAIL);
    }

    #[test]
    fn sliced_p99_pools_when_slices_are_thin() {
        let samples: Vec<(f64, f64)> = (0..1500)
            .map(|i| (i as f64 / 1500.0, f64::from(i)))
            .collect();
        let s = sliced(&samples, 1.0, 3).unwrap();
        assert_eq!(s.p99_slices, 1);
        let pooled = percentile(&samples.iter().map(|x| x.1).collect::<Vec<_>>(), 0.99).unwrap();
        assert_eq!(s.p99, pooled);
        assert_eq!(s.throughput, 1500.0);
        assert!(sliced(&[], 1.0, 3).is_none());
    }

    #[test]
    fn sliced_p99_uses_as_many_full_slices_as_the_samples_allow() {
        // 3500 samples make 3 runs of at least 1000.
        let samples: Vec<(f64, f64)> = (0..3500)
            .map(|i| (i as f64 / 3500.0, f64::from(i % 100)))
            .collect();
        let s = sliced(&samples, 1.0, 5).unwrap();
        assert_eq!(s.p99_slices, 3);
        assert!(s.p99.beyond >= MIN_BEYOND_TAIL);
        assert!((98.0..=99.0).contains(&s.p99.value), "{:?}", s.p99);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = percentile(&samples, 0.99).unwrap();
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.samples, 1000);
        assert_eq!(tail.beyond, MIN_BEYOND_TAIL);
    }

    #[test]
    fn fewer_samples_leave_fewer_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let tail = percentile(&samples, 0.99).unwrap();
        assert!(tail.beyond < MIN_BEYOND_TAIL, "{tail:?}");
    }

    #[test]
    fn samples_for_tail_is_the_smallest_sufficient_count() {
        let n = samples_for_tail(0.99, MIN_BEYOND_TAIL);
        assert_eq!(n, 1000);
        assert!(n - nearest_rank(n, 0.99) >= MIN_BEYOND_TAIL);
        assert!(n - 1 - nearest_rank(n - 1, 0.99) < MIN_BEYOND_TAIL);
        assert_eq!(samples_for_tail(0.5, 10), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&a, 0.5).unwrap().value, 3.0);
        assert_eq!(percentile(&a, 1.0).unwrap().value, 5.0);
        assert_eq!(percentile(&a, 0.01).unwrap().value, 1.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
