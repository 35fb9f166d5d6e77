//! Sample arithmetic: medians, percentiles, spreads and span self time.

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample: every caller has at least one round.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Inter-quartile distance as a share of the median; 0 for one sample.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(samples, 0.75) - percentile(samples, 0.25)) / m
}

/// One recorded span. `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub case: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children of one parent never overlap here:
/// the harness is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns.min(spans[p].end_ns) - s.start_ns.max(spans[p].start_ns);
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert!((percentile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (0..=8).map(f64::from).collect(); // q1 2, median 4, q3 6
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            case: 0,
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            span("segment", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("router", 20, 50, Some(1)),
            span("traffic", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }
}
