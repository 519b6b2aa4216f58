//! The write-set-shrinking probe of paper Fig. 6(a).
//!
//! "In one process, it first wrote 24 KB 10,000 times, and then 20 KB
//! 10,000 times, and so on. We measured the transaction success ratios
//! for each 100 iterations." On real Haswell the success ratio recovers
//! only *gradually* after the size drops below the ~19 KB capacity — the
//! learning-predictor behaviour `htm-sim` models.
//!
//! The probe is not a Ruby program (the paper's wasn't either — it was a
//! C test): the harness drives `htm-sim` directly, writing `size_kb` of
//! distinct lines per transaction and recording per-window success
//! ratios. This module only prepares the size schedule; the driving loop
//! lives in the `fig6a` row of `bench::figures` and in the integration
//! tests.

/// Phase schedule: each `(size_kb, iterations)` pair.
#[derive(Debug, Clone)]
pub struct ProbeSchedule {
    pub phases: Vec<(usize, usize)>,
}

/// Build the Fig. 6(a) schedule: the given sizes, `iters` transactions
/// each.
pub fn schedule(sizes_kb: &[usize], iters: usize) -> ProbeSchedule {
    ProbeSchedule { phases: sizes_kb.iter().map(|&s| (s, iters)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_shape() {
        let s = schedule(&[24, 20, 16, 12], 10_000);
        assert_eq!(s.phases.len(), 4);
        assert_eq!(s.phases[0], (24, 10_000));
        assert_eq!(s.phases[3], (12, 10_000));
    }
}
