//! Shared experiment harness for the table/figure regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! Keddah evaluation (the experiment index lives in `DESIGN.md`). This
//! library holds what they share: the canonical testbed configuration,
//! small formatting helpers, and percentile/series utilities, so every
//! experiment prints comparable output.

use keddah_core::runner::Runner;
use keddah_hadoop::{ClusterSpec, HadoopConfig};

/// The canonical capture testbed used across experiments: 4 racks x 5
/// workers (20 workers + master), 1 Gb/s NICs — the shape of the paper's
/// measurement cluster.
#[must_use]
pub fn testbed() -> ClusterSpec {
    ClusterSpec::racks(4, 5)
}

/// An experiment [`Runner`] on the canonical testbed.
#[must_use]
pub fn runner() -> Runner {
    Runner::new(testbed())
}

/// Worker threads for experiment matrices: `KEDDAH_JOBS` if set,
/// otherwise one per available core. Results never depend on this — the
/// runner's derived seeds make output identical at any width.
#[must_use]
// A bench-binary knob, read with the host's core count at the harness
// edge.
#[allow(clippy::disallowed_methods)]
pub fn jobs_from_env() -> usize {
    std::env::var("KEDDAH_JOBS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// True when `KEDDAH_SMOKE` is set (to anything but `0`): experiments
/// shrink to their minimum input size and repeat count so CI can execute
/// one real matrix cell per figure without the full campaign's runtime.
#[must_use]
// A bench-binary knob, read at the harness edge.
#[allow(clippy::disallowed_methods)]
pub fn smoke() -> bool {
    std::env::var("KEDDAH_SMOKE").is_ok_and(|v| v != "0")
}

/// The default Hadoop configuration every experiment starts from; sweeps
/// override individual fields.
#[must_use]
pub fn default_config() -> HadoopConfig {
    HadoopConfig::default()
}

/// Gibibytes, for input-size sweeps.
#[must_use]
pub fn gib(n: u64) -> u64 {
    n << 30
}

/// Formats bytes as a human-readable decimal quantity.
#[must_use]
pub fn fmt_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.2} KB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

/// The `p`-th percentile of an unsorted sample (`p` in `[0, 1]`).
/// Returns NaN for an empty sample.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let idx = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Mean of a sample; NaN when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints a figure/table header.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Renders an ECDF as fixed-quantile rows — the text form of a CDF
/// figure: for each listed quantile, the sample value at it.
#[must_use]
pub fn cdf_rows(values: &[f64], quantiles: &[f64]) -> Vec<(f64, f64)> {
    quantiles
        .iter()
        .map(|&q| (q, percentile(values, q)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(500.0), "500 B");
        assert_eq!(fmt_bytes(2_500.0), "2.50 KB");
        assert_eq!(fmt_bytes(3_000_000.0), "3.00 MB");
        assert_eq!(fmt_bytes(1.5e9), "1.50 GB");
    }

    #[test]
    fn cdf_rows_are_monotone() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let rows = cdf_rows(&xs, &[0.1, 0.5, 0.9]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1 <= rows[1].1 && rows[1].1 <= rows[2].1);
    }

    #[test]
    fn testbed_is_twenty_workers() {
        assert_eq!(testbed().worker_count(), 20);
        assert_eq!(runner().cluster().worker_count(), 20);
        default_config().validate().unwrap();
    }

    #[test]
    fn jobs_from_env_is_positive() {
        assert!(jobs_from_env() >= 1);
    }

    #[test]
    fn mean_and_gib() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
        assert_eq!(gib(2), 2 << 30);
    }
}
