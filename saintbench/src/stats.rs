//! The benchmark's arithmetic: percentiles, planted-truth scoring, the
//! open-loop arrival schedule and SLO accounting. Pure functions, so
//! the rules the metrics rest on are unit-tested apart from any run.

use std::time::Duration;

/// Samples that must lie beyond a reported percentile, so a p90 needs
/// at least 100 samples.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q`-quantile (0 < q < 1) by the nearest-rank rule: the smallest
/// sample with at least `q·n` samples at or below it.
///
/// # Errors
///
/// Refuses a quantile with fewer than [`MIN_BEYOND`] samples beyond it
/// instead of reporting a tail that a handful of samples decide.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    // The tolerance keeps `0.9 · 100` from rounding up to rank 91.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs at least {MIN_BEYOND} samples beyond it, got {n} samples",
            q * 100.0
        ));
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Per-family finding counts: API invocation, API callback and
/// permission (request + revocation) sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Families {
    /// API invocation mismatch sites.
    pub api: u64,
    /// API callback mismatch sites.
    pub apc: u64,
    /// Permission request and revocation mismatch sites.
    pub prm: u64,
}

impl Families {
    fn pairs(self, other: Families) -> [(u64, u64); 3] {
        [
            (self.api, other.api),
            (self.apc, other.apc),
            (self.prm, other.prm),
        ]
    }
}

/// Running planted-truth score over many apps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TruthScore {
    /// Σ min(reported, injected) over apps and families.
    pub matched: u64,
    /// Σ injected.
    pub injected: u64,
    /// Σ reported.
    pub reported: u64,
    /// Apps whose verdict breaks the generator's rules (see
    /// [`verdict_ok`]).
    pub bad_verdicts: u64,
}

impl TruthScore {
    /// Folds one app's report counts against its injected truth.
    pub fn add(&mut self, reported: Families, injected: Families) {
        for (r, i) in reported.pairs(injected) {
            self.matched += r.min(i);
            self.injected += i;
            self.reported += r;
        }
        if !verdict_ok(reported, injected) {
            self.bad_verdicts += 1;
        }
    }

    /// Σ min(reported, injected) / Σ injected; 1 when nothing was
    /// injected (nothing could be missed).
    #[must_use]
    pub fn recall(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.matched as f64 / self.injected as f64
        }
    }

    /// Σ min(reported, injected) / Σ reported; 1 when nothing was
    /// reported (nothing could be wrong).
    #[must_use]
    pub fn precision(&self) -> f64 {
        if self.reported == 0 {
            1.0
        } else {
            self.matched as f64 / self.reported as f64
        }
    }
}

/// Whether one app's verdict is what the generator planted. Every
/// injected site must be found, callback and permission counts must be
/// exact, and API sites may exceed the truth only by the generator's
/// deliberate false-positive traps: `fp = round(0.16 · (real + fp))`,
/// so `fp ≤ (0.16 · real + 0.5) / 0.84`.
#[must_use]
pub fn verdict_ok(reported: Families, injected: Families) -> bool {
    let traps = ((0.16 * injected.api as f64 + 0.5) / 0.84).floor() as u64;
    reported.api >= injected.api
        && reported.api - injected.api <= traps
        && reported.apc == injected.apc
        && reported.prm == injected.prm
}

/// Deterministic 64-bit generator (SplitMix64) for seeded schedules.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Due times (offsets from the start of the timed window) of a Poisson
/// arrival process at `rate` per second over `window`, conditioned on
/// its expected count: `round(rate · window)` arrivals at sorted uniform
/// times, which is the Poisson process given that count. Fixing the
/// count keeps the offered load identical across seeds; the seed moves
/// only where the bursts fall.
#[must_use]
pub fn poisson_schedule(rate: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let n = (rate * window.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..n).map(|_| window.mul_f64(rng.unit())).collect();
    due.sort_unstable();
    due
}

/// What happened to one open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered with a report at `done` (offset from window start).
    Answered {
        /// When the answer arrived.
        done: Duration,
    },
    /// Refused, errored or timed out.
    Failed,
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and how it ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time (never before `due`).
    pub sent: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

/// Open-loop summary: latencies are timed from the due time, so a stall
/// in the generator or the daemon charges every request it delayed.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoop {
    /// Latency of each answered request, due time to answer, in ms.
    pub latencies_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests refused, errored or timed out.
    pub failed: u64,
    /// Answered within the latency limit.
    pub within_limit: u64,
    /// Mean of `sent − due` over all requests, in ms.
    pub lag_ms: f64,
}

/// Summarizes open-loop requests against a latency `limit`. A failed
/// request counts as failed and as a miss of the limit.
#[must_use]
pub fn open_loop(requests: &[Request], limit: Duration) -> OpenLoop {
    let mut out = OpenLoop {
        latencies_ms: Vec::with_capacity(requests.len()),
        attempted: requests.len() as u64,
        failed: 0,
        within_limit: 0,
        lag_ms: 0.0,
    };
    let mut lag = 0.0;
    for r in requests {
        lag += r.sent.saturating_sub(r.due).as_secs_f64() * 1e3;
        match r.outcome {
            Outcome::Answered { done } => {
                let latency = done.saturating_sub(r.due);
                out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                if latency <= limit {
                    out.within_limit += 1;
                }
            }
            Outcome::Failed => out.failed += 1,
        }
    }
    if !requests.is_empty() {
        out.lag_ms = lag / requests.len() as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        assert!(percentile(&[], 0.5).is_err());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Due at 10 ms, sent late at 25 ms, answered at 40 ms: the
        // latency is 30 ms (not 15), and the generator lagged 15 ms.
        let reqs = [Request {
            due: ms(10),
            sent: ms(25),
            outcome: Outcome::Answered { done: ms(40) },
        }];
        let s = open_loop(&reqs, ms(100));
        assert_eq!(s.latencies_ms, vec![30.0]);
        assert!((s.lag_ms - 15.0).abs() < 1e-9);
        assert_eq!(s.within_limit, 1);
    }

    #[test]
    fn failed_uploads_count_as_failures_and_slo_misses() {
        let reqs = [
            Request {
                due: ms(0),
                sent: ms(0),
                outcome: Outcome::Answered { done: ms(5) },
            },
            Request {
                due: ms(0),
                sent: ms(0),
                outcome: Outcome::Failed,
            },
            Request {
                due: ms(0),
                sent: ms(0),
                outcome: Outcome::Answered { done: ms(500) },
            },
        ];
        let s = open_loop(&reqs, ms(100));
        assert_eq!(s.attempted, 3);
        assert_eq!(s.failed, 1);
        assert_eq!(s.within_limit, 1);
        assert_eq!(s.latencies_ms.len(), 2);
    }

    #[test]
    fn recall_and_precision_arithmetic() {
        let mut s = TruthScore::default();
        // Clean app with nothing injected and nothing reported: neutral.
        s.add(Families::default(), Families::default());
        assert_eq!((s.recall(), s.precision()), (1.0, 1.0));
        assert_eq!(s.bad_verdicts, 0);
        // 10 API sites planted, 12 reported (2 traps), 1 APC exact.
        s.add(
            Families {
                api: 12,
                apc: 1,
                prm: 0,
            },
            Families {
                api: 10,
                apc: 1,
                prm: 0,
            },
        );
        assert_eq!((s.matched, s.injected, s.reported), (11, 11, 13));
        assert_eq!(s.recall(), 1.0);
        assert!((s.precision() - 11.0 / 13.0).abs() < 1e-12);
        assert_eq!(s.bad_verdicts, 0);
        // A missed permission site lowers recall and breaks the verdict.
        s.add(
            Families::default(),
            Families {
                api: 0,
                apc: 0,
                prm: 1,
            },
        );
        assert!((s.recall() - 11.0 / 12.0).abs() < 1e-12);
        assert_eq!(s.bad_verdicts, 1);
    }

    #[test]
    fn api_excess_beyond_the_trap_rule_is_a_bad_verdict() {
        let truth = Families {
            api: 10,
            apc: 0,
            prm: 0,
        };
        // round(0.16 · 12) = 2 traps fit; 5 extra sites do not.
        let ok = Families { api: 12, ..truth };
        let bad = Families { api: 15, ..truth };
        assert!(verdict_ok(ok, truth));
        assert!(!verdict_ok(bad, truth));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_holds_its_rate() {
        let window = Duration::from_secs(20);
        let a = poisson_schedule(100.0, window, 7);
        let b = poisson_schedule(100.0, window, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| *d < window));
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = a
            .windows(2)
            .filter(|w| w[1] - w[0] > Duration::from_millis(10))
            .count();
        assert!((600..880).contains(&long), "{long} gaps above the mean");
        assert_ne!(a, poisson_schedule(100.0, Duration::from_secs(20), 8));
    }
}
