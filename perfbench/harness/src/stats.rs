//! Order statistics and the serving-side accounting rules the benchmark
//! reports with: the tail percentile rule, due-time latency, and the
//! goodput ladder.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency read by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The percentile that rank represents (0–100).
    pub percentile: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile, capped at `cap_pct`, that has at least
/// [`TAIL_BEYOND`] samples beyond it. `None` when there are too few samples
/// for any such percentile.
pub fn tail(values: &[f64], cap_pct: f64) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let capped_rank = ((cap_pct / 100.0) * n as f64).ceil() as usize;
    let rank = capped_rank.clamp(1, n - TAIL_BEYOND);
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    })
}

/// One open-loop job's timestamps, in seconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTimes {
    /// When the schedule said the job should be sent.
    pub due: f64,
    /// When the generator actually finished writing it.
    pub sent: f64,
    /// When its terminal frame arrived; `None` if it never did.
    pub done: Option<f64>,
}

impl JobTimes {
    /// Latency charged to the job: from its due time, not its send time, so
    /// a generator stall is charged to every job it delayed.
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// How late the generator sent the job (never negative).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// One rung of the offered-rate ladder, measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, jobs per second.
    pub offered: f64,
    /// Jobs completed correctly per second of the rung's span.
    pub achieved: f64,
    /// Tail latency by the percentile rule, ms (`None`: too few samples).
    pub tail_ms: Option<f64>,
    /// Operations that failed on this rung.
    pub failed: u64,
    /// Least-squares slope of latency over due time, seconds per second
    /// (see [`backlog_slope`]).
    pub backlog_slope: f64,
}

/// Steepest backlog slope a passing rung may have. When jobs arrive at
/// rate λ and complete at rate μ < λ, each job waits `λ/μ − 1` seconds
/// longer per second of sending, so 0.1 means the arrivals outpace the
/// completions by 10 %. A short rung can end before such a queue pushes its
/// tail past the limit, but not before the slope shows it.
pub const MAX_BACKLOG_SLOPE: f64 = 0.1;

impl Rung {
    /// Whether latency rises with send time faster than
    /// [`MAX_BACKLOG_SLOPE`].
    pub fn backlog_growing(&self) -> bool {
        self.backlog_slope > MAX_BACKLOG_SLOPE
    }

    /// Whether the rung meets the limit with no failures and no growing
    /// backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.tail_ms.is_some_and(|t| t <= limit_ms) && !self.backlog_growing()
    }
}

/// Failing rungs in a row that end the climb. One short rung can fail
/// below capacity on a burst of arrivals; two in a row rarely do.
pub const STOP_AFTER_FAILURES: usize = 2;

/// Whether the climb is over: its last [`STOP_AFTER_FAILURES`] rungs
/// failed.
pub fn climb_over(rungs: &[Rung], limit_ms: f64) -> bool {
    rungs.len() >= STOP_AFTER_FAILURES
        && rungs[rungs.len() - STOP_AFTER_FAILURES..]
            .iter()
            .all(|r| !r.passes(limit_ms))
}

/// The goodput rung: walking up the ladder (ascending offered rate), the
/// highest passing rung before the climb is over. `None` if none passes.
pub fn goodput_rung(rungs: &[Rung], limit_ms: f64) -> Option<&Rung> {
    let mut best = None;
    for (i, r) in rungs.iter().enumerate() {
        if climb_over(&rungs[..i], limit_ms) {
            break;
        }
        if r.passes(limit_ms) {
            best = Some(r);
        }
    }
    best
}

/// Least-squares slope of latency over due time, from `(due, latency)`
/// pairs in seconds; `0.0` with fewer than two distinct due times. Every
/// job counts, so one slow job moves it little, while a queue that grows
/// through the rung moves it by the share the completions lag behind.
pub fn backlog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Open-loop arrival offsets (seconds from the rung start): a Poisson
/// process at `rate` jobs/s over `span` seconds, conditioned on its
/// expected job count — that many i.i.d. uniform send times, sorted. The
/// arrival pattern is Poisson, but every seed sends the same number of
/// jobs, so seeds differ in burstiness, not in load.
pub fn poisson_offsets(rate: f64, span: f64, seed: u64) -> Vec<f64> {
    let count = (rate * span).round() as u64;
    let mut out: Vec<f64> = (0..count).map(|i| unit_uniform(seed, i) * span).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// A uniform draw in `[0, 1)` from stream `seed`, index `i`.
pub fn unit_uniform(seed: u64, i: u64) -> f64 {
    (saim_machine::derive_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 99.0).expect("enough samples");
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 99.0).expect("enough samples");
        assert_eq!((t.value, t.beyond), (1980.0, 20));
        assert_eq!(t.percentile, 99.0);
        assert!(tail(&v[..10], 99.0).is_none());
        let t = tail(&v[..11], 99.0).expect("one rank qualifies");
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_ignores_input_order() {
        let v = [
            5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0,
        ];
        let t = tail(&v, 99.0).expect("enough samples");
        assert_eq!((t.value, t.beyond, t.samples), (2.0, 10, 12));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // a 50 ms generator stall delays the second send: its latency
        // carries the stall, the send-time latency would hide it
        let stalled = JobTimes {
            due: 1.0,
            sent: 1.05,
            done: Some(1.06),
        };
        assert!((stalled.latency().expect("done") - 0.06).abs() < 1e-12);
        assert!((stalled.lateness() - 0.05).abs() < 1e-12);
        let early = JobTimes {
            due: 2.0,
            sent: 1.999,
            done: None,
        };
        assert_eq!(early.latency(), None);
        assert_eq!(early.lateness(), 0.0);
    }

    fn rung(offered: f64, tail_ms: Option<f64>, failed: u64, backlog_slope: f64) -> Rung {
        Rung {
            offered,
            achieved: offered * 0.99,
            tail_ms,
            failed,
            backlog_slope,
        }
    }

    #[test]
    fn goodput_is_the_highest_passing_rung_before_two_failures_in_a_row() {
        let limit = 100.0;
        // one failing rung does not end the climb; two in a row do, and
        // nothing after them counts
        let ladder = [
            rung(10.0, Some(20.0), 0, 0.0),
            rung(20.0, Some(60.0), 0, 0.01),
            rung(30.0, Some(150.0), 0, 0.02),
            rung(40.0, Some(50.0), 0, 0.0),
            rung(50.0, Some(150.0), 0, 0.0),
            rung(60.0, Some(170.0), 0, 0.0),
            rung(70.0, Some(50.0), 0, 0.0),
        ];
        assert!(!climb_over(&ladder[..3], limit));
        assert!(climb_over(&ladder[..6], limit));
        assert_eq!(goodput_rung(&ladder, limit).map(|r| r.offered), Some(40.0));
        let failures = [
            rung(10.0, Some(20.0), 0, 0.0),
            rung(20.0, Some(20.0), 1, 0.0),
            rung(30.0, Some(20.0), 2, 0.0),
        ];
        assert_eq!(
            goodput_rung(&failures, limit).map(|r| r.offered),
            Some(10.0)
        );
        // a growing queue fails a rung whose tail still meets the limit
        let backlog = [
            rung(10.0, Some(20.0), 0, 0.0),
            rung(20.0, Some(90.0), 0, 0.15),
        ];
        assert!(backlog[1].backlog_growing());
        assert_eq!(goodput_rung(&backlog, limit).map(|r| r.offered), Some(10.0));
        let thin = [rung(10.0, None, 0, 0.0)];
        assert_eq!(goodput_rung(&thin, limit), None);
    }

    #[test]
    fn poisson_offsets_are_seeded_and_sized_by_the_rate() {
        let a = poisson_offsets(50.0, 20.0, 7);
        assert_eq!(a, poisson_offsets(50.0, 20.0, 7));
        assert_ne!(a, poisson_offsets(50.0, 20.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|t| (0.0..20.0).contains(t)));
    }

    #[test]
    fn backlog_slope_reads_how_far_completions_lag() {
        // 40 jobs/s offered, 30 served from a queue: job k is due at k/40
        // and done at k/30, so it waits k/30 − k/40, a slope of 40/30 − 1
        let queued: Vec<(f64, f64)> = (0..40)
            .map(|k| (k as f64 / 40.0, k as f64 / 30.0 - k as f64 / 40.0))
            .collect();
        assert!((backlog_slope(&queued) - 1.0 / 3.0).abs() < 1e-12);
        // a flat latency with one slow job in the middle stays flat
        let mut flat: Vec<(f64, f64)> = (0..41).map(|k| (k as f64 / 40.0, 0.03)).collect();
        flat[20].1 = 0.3;
        assert!(backlog_slope(&flat).abs() < 1e-12);
        assert_eq!(backlog_slope(&[(1.0, 0.5)]), 0.0);
    }
}
