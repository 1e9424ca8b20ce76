//! Host-speed calibration.
//!
//! On a shared host the same computation can take twice as long from one
//! minute to the next, so a run's medians drift with the host rather
//! than with the code. The benchmark reads a fixed calibration kernel
//! (the *yardstick*) at the start of every pass and after each of its
//! stages (and around the set-ups), and rescales the pass's wall times
//! to nominal host speed:
//!
//! `scaled_s = wall_s * NOMINAL_YARDSTICK_S / median(the pass's readings)`
//!
//! The kernel is the benchmark's own code, so a change to Keddah moves
//! the stage times and never the yardstick. Raw wall times are printed
//! beside the scaled ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::arith::median;

/// The yardstick's typical reading on the 2-core x86-64 VM the benchmark
/// was tuned on: scaled seconds read as wall seconds on that host.
pub const NOMINAL_YARDSTICK_S: f64 = 0.0013;

thread_local! {
    /// The kernel's working buffer, allocated once so that no reading
    /// pays for fresh pages.
    static BUFFER: RefCell<Vec<u64>> = RefCell::new(vec![0; 40_000]);
}

/// One run of the calibration kernel: sort, ordered-map inserts and
/// floating-point accumulation over a fixed pseudo-random sequence,
/// about the mix of work the pipeline does.
fn kernel() -> f64 {
    BUFFER.with_borrow_mut(|v| {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for slot in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        v.sort_unstable();
        let mut m = BTreeMap::new();
        for (i, &k) in v.iter().step_by(8).enumerate() {
            m.insert(k % 4_093, i);
        }
        let mut f = 0.0f64;
        for &k in v.iter() {
            f += ((k >> 11) as f64).sqrt();
        }
        black_box((m.len(), f));
        t.elapsed().as_secs_f64()
    })
}

/// One yardstick reading: the median of nine kernel runs, in seconds.
pub fn yardstick_s() -> f64 {
    median(&(0..9).map(|_| kernel()).collect::<Vec<_>>())
}

/// Factor that rescales wall times measured alongside `readings` to
/// nominal host speed.
pub fn factor(readings: &[f64]) -> f64 {
    NOMINAL_YARDSTICK_S / median(readings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_median_reading() {
        let n = NOMINAL_YARDSTICK_S;
        assert_eq!(factor(&[n, n, n]), 1.0);
        // A host running at half speed doubles the yardstick: halve the
        // wall times. One outlier reading does not move the median.
        assert_eq!(factor(&[2.0 * n, 2.0 * n, 9.0 * n]), 0.5);
    }

    #[test]
    fn yardstick_runs() {
        assert!(yardstick_s() > 0.0);
    }
}
