//! Order statistics, and the batches the end-to-end metrics are read from.
//!
//! Every timing the benchmark reports is a median taken *inside* one run,
//! so a single slow operation cannot own the number.

/// Median of `values` (mean of the two middle elements for even counts).
/// Panics on an empty slice: every caller times at least one operation.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile (nearest rank, `0 <= q <= 1`) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(max - min) / median`: the relative width of a sample set.
pub fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / median(values)
}

/// One timed operation of a workload's measured section.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Completion time, seconds since the section started.
    pub end_s: f64,
    /// Wall time of the operation itself.
    pub dur_s: f64,
    /// Process CPU seconds (all threads) consumed since the section
    /// started, read when the operation completed.
    pub cpu_s: f64,
    /// Work units the operation completed (Born iterations, distributed
    /// iterations, bias points).
    pub work: f64,
}

/// What one batch of consecutive operations measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Batch {
    /// Median wall time of the batch's operations.
    pub op_p50_s: f64,
    /// Work units per second of wall time.
    pub work_per_s: f64,
    /// Process CPU seconds per work unit.
    pub cpu_s_per_work: f64,
}

/// Cut `ops` (in completion order) into `count` consecutive batches of
/// near-equal size. A batch spans from the previous batch's last completion
/// to its own: with concurrent clients its rate is the service's throughput
/// over that stretch, with one sequential caller plain work over time.
pub fn batches(ops: &[Op], count: usize) -> Vec<Batch> {
    let mut sorted = ops.to_vec();
    sorted.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let n = sorted.len();
    let count = count.min(n).max(1);
    let (mut prev_end, mut prev_cpu) = (0.0, 0.0);
    (0..count)
        .map(|b| {
            let group = &sorted[b * n / count..(b + 1) * n / count];
            let last = group.last().expect("non-empty batch");
            let work: f64 = group.iter().map(|o| o.work).sum();
            let durations: Vec<f64> = group.iter().map(|o| o.dur_s).collect();
            let batch = Batch {
                op_p50_s: median(&durations),
                work_per_s: work / (last.end_s - prev_end),
                cpu_s_per_work: (last.cpu_s - prev_cpu) / work,
            };
            (prev_end, prev_cpu) = (last.end_s, last.cpu_s);
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[2.0, 2.0]), 0.0);
    }

    fn op(end_s: f64, dur_s: f64, work: f64) -> Op {
        Op {
            end_s,
            dur_s,
            // One busy thread: CPU time tracks wall time.
            cpu_s: end_s,
            work,
        }
    }

    #[test]
    fn batches_split_sequential_ops_evenly() {
        // Ten ops of 1 s and 2 work units each: every batch runs at 2/s.
        let ops: Vec<Op> = (1..=10).map(|i| op(f64::from(i), 1.0, 2.0)).collect();
        let want = Batch {
            op_p50_s: 1.0,
            work_per_s: 2.0,
            cpu_s_per_work: 0.5,
        };
        assert_eq!(batches(&ops, 5), vec![want; 5]);
    }

    #[test]
    fn a_slow_stretch_lands_in_one_batch_only() {
        // Ops 5 and 6 take 3 s instead of 1 s (a co-tenant burst): only
        // the third of five batches slows down, the quietest is untouched.
        let mut t = 0.0;
        let ops: Vec<Op> = (0..10)
            .map(|i| {
                let dur = if i == 4 || i == 5 { 3.0 } else { 1.0 };
                t += dur;
                op(t, dur, 1.0)
            })
            .collect();
        let got = batches(&ops, 5);
        assert_eq!(got[0].work_per_s, 1.0);
        assert_eq!(got[2].op_p50_s, 3.0);
        assert!((got[2].work_per_s - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(got[4], got[0]);
    }

    #[test]
    fn batches_order_concurrent_ops_by_completion() {
        // Two clients finishing interleaved; input order is per client.
        let ops = [
            op(1.0, 1.0, 1.0),
            op(3.0, 2.0, 1.0),
            op(2.0, 2.0, 1.0),
            op(4.0, 2.0, 1.0),
        ];
        let got = batches(&ops, 2);
        assert_eq!((got[0].work_per_s, got[1].work_per_s), (1.0, 1.0));
        assert_eq!((got[0].op_p50_s, got[1].op_p50_s), (1.5, 2.0));
        // More batches than ops degrades to one op per batch.
        assert_eq!(batches(&ops[..1], 5).len(), 1);
    }
}
