//! Pure summary arithmetic: percentiles and the tail-percentile rule,
//! day-sliced growth, F-scores and layer self times.

/// Candidate tail percentiles, highest first. p99.9 is left out on
/// purpose: a run of a few thousand decisions would flip between p99
/// and p99.9 from seed to seed.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Which of `days` equal slices record `i` of an `n`-record stream
/// falls in.
pub fn day_of(i: usize, n: usize, days: usize) -> usize {
    assert!(i < n && days >= 1);
    i * days / n
}

/// Growth of per-record cost over a session: the median of the last
/// day's samples over the median of the first day's.
pub fn growth_ratio(first_day: &[f64], last_day: &[f64]) -> f64 {
    median(last_day) / median(first_day)
}

/// F1 of the in-premises class and of the outside class from
/// `(truth_in, predicted_in)` pairs. A class with no true or predicted
/// member scores 0.
pub fn f_scores(pairs: impl IntoIterator<Item = (bool, bool)>) -> (f64, f64) {
    let (mut tp, mut fp, mut fneg, mut tn) = (0u64, 0u64, 0u64, 0u64);
    for (truth, pred) in pairs {
        match (truth, pred) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fneg += 1,
            (false, false) => tn += 1,
        }
    }
    let f1 = |tp: u64, fp: u64, fneg: u64| {
        if tp == 0 {
            0.0
        } else {
            2.0 * tp as f64 / (2 * tp + fp + fneg) as f64
        }
    };
    (f1(tp, fp, fneg), f1(tn, fneg, fp))
}

/// Self cost along a call chain measured by replays on the same
/// records: `chain` lists each layer's inclusive cost per record from
/// the outermost layer inwards, and a layer's self cost is its
/// inclusive cost minus that of the layer below it (the innermost
/// layer's self cost is its inclusive cost).
pub fn chain_self(chain: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    chain
        .iter()
        .enumerate()
        .map(|(i, &(name, incl))| {
            let below = chain.get(i + 1).map_or(0.0, |&(_, c)| c);
            (name, incl - below)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_reports_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn growth_ratio_compares_day_medians() {
        let first = [1.0, 2.0, 3.0, 100.0, 0.5];
        let last = [4.0, 5.0, 6.0, 7.0, 0.1];
        assert_eq!(growth_ratio(&first, &last), 5.0 / 2.0);
        assert_eq!(growth_ratio(&[2.0], &[2.0]), 1.0);
        // Days slice a stream into equal parts by position.
        let days: Vec<usize> = (0..12).map(|i| day_of(i, 12, 3)).collect();
        assert_eq!(days, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(day_of(9, 10, 4), 3);
    }

    #[test]
    fn f_scores_per_class() {
        // 3 in (2 caught), 2 out (1 caught).
        let pairs = [(true, true), (true, true), (true, false), (false, false), (false, true)];
        let (f_in, f_out) = f_scores(pairs);
        assert!((f_in - 2.0 * 2.0 / (4.0 + 1.0 + 1.0)).abs() < 1e-12);
        assert!((f_out - 2.0 / (2.0 + 1.0 + 1.0)).abs() < 1e-12);
        assert_eq!(f_scores([(true, true)]).1, 0.0);
    }

    #[test]
    fn chain_self_subtracts_the_layer_below() {
        let chain = [("monitor", 10.0), ("gem", 8.0), ("embed", 5.0), ("matmul", 1.0)];
        let selfs = chain_self(&chain);
        assert_eq!(selfs, vec![("monitor", 2.0), ("gem", 3.0), ("embed", 4.0), ("matmul", 1.0)]);
        let total: f64 = selfs.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 10.0, "self times telescope to the outermost layer");
    }
}
