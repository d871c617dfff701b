//! The statistics behind the report: percentiles with their sample rule,
//! quartile spread, set-up pooling, failure fractions, open-loop timing and
//! span self time.

use std::time::Duration;

/// Nearest-rank percentile `q` (whole percent) of an ascending sample;
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: u32) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `q` in a sample of `n`.
fn rank(n: usize, q: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q as usize * n).div_ceil(100);
    Some(rank.clamp(1, n))
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: u32) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// The highest of p99, p90, p75 and p50 that has at least ten samples
/// beyond it — the highest percentile a sample of `n` supports.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99, 90, 75, 50]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Sorts a sample ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The three quartile cut points by the "exclusive" method — the
/// default of Python's `statistics.quantiles(values, n=4)`. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        *slot =
            (data[(j - 1) as usize] * (4 - delta) as f64 + data[j as usize] * delta as f64) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// The mean over groups of each group's median; `None` if any group is
/// empty or there are none. This is how `setup_s` pools its server starts
/// (one group each): the median drops a start's outlier set-ups, and the
/// mean over starts weighs the host's two speed states by how often they
/// occurred, where a median over all set-ups would jump from one state to
/// the other as their shares cross one half.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians = groups
        .iter()
        .map(|g| percentile(&sorted(g.clone()), 50))
        .collect::<Option<Vec<f64>>>()?;
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// The share of requests that failed: error responses plus requests still
/// unanswered when the run gave up waiting, over requests sent.
pub fn failed_frac(sent: usize, errors: usize, unanswered: usize) -> f64 {
    if sent == 0 {
        return 0.0;
    }
    (errors + unanswered) as f64 / sent as f64
}

/// Open-loop timing of one request, all instants measured from one origin:
/// the latency counts from when the request was *due*, so a stalled
/// generator or server charges its wait to every later request, and the
/// lateness is how long after its due time the generator actually sent it.
pub fn from_due(due: Duration, sent: Duration, received: Duration) -> (Duration, Duration) {
    (received.saturating_sub(due), sent.saturating_sub(due))
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers. Children may overlap each
/// other and stick out of the parent; each instant is subtracted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50), Some(50.0));
        assert_eq!(percentile(&sample, 90), Some(90.0));
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        // 100 samples support p90 but not p99; 99 samples only p75.
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(99), Some(75));
        assert_eq!(supported_percentile(1000), Some(99));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn set_up_pools_start_medians_by_their_mean() {
        // Outliers inside a start are dropped; starts in the slow and the
        // fast state both count.
        let starts = vec![vec![9.0, 1.0, 1.0], vec![3.0, 3.0, 0.5]];
        assert_eq!(mean_of_medians(&starts), Some(2.0));
        // A median over all six set-ups would sit in one state or the other.
        assert_eq!(percentile(&sorted(starts.concat()), 50), Some(1.0));
        assert_eq!(mean_of_medians(&[]), None);
        assert_eq!(mean_of_medians(&[vec![1.0], vec![]]), None);
    }

    #[test]
    fn failed_frac_counts_unanswered_requests() {
        assert_eq!(failed_frac(10, 0, 0), 0.0);
        assert_eq!(failed_frac(10, 1, 0), 0.1);
        // Requests still in flight at the timeout fail like errors do.
        assert_eq!(failed_frac(10, 1, 2), 0.3);
        assert_eq!(failed_frac(4, 0, 4), 1.0);
        assert_eq!(failed_frac(0, 0, 0), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // Sent on time: latency is the service time, lateness zero.
        assert_eq!(from_due(ms(100), ms(100), ms(130)), (ms(30), ms(0)));
        // Sent 50 ms late: the wait is charged to the request.
        assert_eq!(from_due(ms(100), ms(150), ms(180)), (ms(80), ms(50)));
        // Clock skew never produces negative durations.
        assert_eq!(from_due(ms(100), ms(90), ms(95)), (ms(0), ms(0)));
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 40)]), 80);
        // Overlapping children: [10, 50) is covered once, not 60 units.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // Nested child inside another.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Touching intervals merge without double counting.
        assert_eq!(self_time((0, 10), &[(0, 5), (5, 10)]), 0);
    }
}
