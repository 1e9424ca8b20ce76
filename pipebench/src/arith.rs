//! The benchmark's own arithmetic: order statistics, span self time,
//! ratios read from solver counters, and the replay digest.

use keddah_netsim::FlowResult;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method,
/// which extrapolates past the data ends for tiny samples). `None` below
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    Some((at(1), at(3)))
}

/// Self time of a span: its duration minus the part of it that its child
/// spans cover. Children may overlap each other or stick out of the
/// parent; only the covered part of `[start, end)` counts, once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// `num / den`, or 0 when the denominator is 0 (a replay that never ran
/// the solver has no dense share).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Solver shape of one replay, from the `netsim` gauges a recording
/// `Obs` handle leaves behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverShape {
    /// Fair-share solves (`netsim/fair_solves`).
    pub solves: u64,
    /// Share of solves that fell back to the dense solver.
    pub dense_ratio: f64,
    /// Flow entries touched per solve.
    pub entries_per_solve: f64,
}

impl SolverShape {
    /// From the `fair_solves`, `fair_dense_solves` and `fair_solved_flows`
    /// gauge values.
    pub fn from_counters(solves: u64, dense_solves: u64, solved_entries: u64) -> SolverShape {
        SolverShape {
            solves,
            dense_ratio: ratio(dense_solves as f64, solves as f64),
            entries_per_solve: ratio(solved_entries as f64, solves as f64),
        }
    }
}

/// FNV-1a offset basis: the digest of no results.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues FNV-1a digest `h` (start from [`FNV_OFFSET`]) over every
/// flow's finish time in nanoseconds, in flow-id order. Two replays with
/// the same digest finished every flow at the same nanosecond; chained
/// calls digest several replays as one sequence.
pub fn digest_extend(mut h: u64, results: &[FlowResult]) -> u64 {
    for r in results {
        for byte in r.finish.as_nanos().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use keddah_des::SimTime;
    use keddah_netsim::{FlowSpec, HostId};

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children count their union.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 50)]), 60);
        // Parts outside the parent are clipped.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        // Fully covered.
        assert_eq!(self_time_ns((0, 10), &[(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn solver_shape_from_counters() {
        let s = SolverShape::from_counters(9_500, 8_100, 19_000_000);
        assert_eq!(s.solves, 9_500);
        assert!((s.dense_ratio - 8_100.0 / 9_500.0).abs() < 1e-12);
        assert!((s.entries_per_solve - 2_000.0).abs() < 1e-9);
        let none = SolverShape::from_counters(0, 0, 0);
        assert_eq!((none.dense_ratio, none.entries_per_solve), (0.0, 0.0));
    }

    fn result(finish_ns: u64) -> FlowResult {
        FlowResult {
            spec: FlowSpec {
                src: HostId(1),
                dst: HostId(2),
                bytes: 10,
                start: SimTime::ZERO,
                tag: 0,
            },
            finish: SimTime::from_nanos(finish_ns),
        }
    }

    fn replay_digest(results: &[FlowResult]) -> u64 {
        digest_extend(FNV_OFFSET, results)
    }

    #[test]
    fn digest_pins_finish_times_and_order() {
        assert_eq!(replay_digest(&[]), FNV_OFFSET);
        let a = replay_digest(&[result(1), result(2)]);
        assert_eq!(a, replay_digest(&[result(1), result(2)]));
        assert_ne!(a, replay_digest(&[result(2), result(1)]));
        assert_ne!(a, replay_digest(&[result(1), result(3)]));
        // One byte of input: FNV-1a of the eight little-endian bytes of 0.
        let mut h = FNV_OFFSET;
        for _ in 0..8 {
            h = h.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(replay_digest(&[result(0)]), h);
        // Chaining two replays digests their concatenation.
        let chained = digest_extend(replay_digest(&[result(1)]), &[result(2)]);
        assert_eq!(chained, a);
    }
}
