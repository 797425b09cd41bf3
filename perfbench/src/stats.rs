//! The benchmark's arithmetic: percentiles, due-time latency and
//! Prometheus text diffs. Kept free of I/O so the unit tests below pin
//! every number the report prints.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Largest share of a phase's CPU time the hypervisor may have taken
/// (`steal`) for a round to count as clean.
pub const CLEAN_STEAL_SHARE: f64 = 0.05;

/// The `q` percentile of the per-round `values` over the clean rounds:
/// those that lost at most [`CLEAN_STEAL_SHARE`] of their CPU time to
/// steal. When fewer than a fifth of the rounds are clean, the fifth
/// that lost the least (ties go to the earlier round) stand in. Stolen
/// time only ever slows a round down, so the rounds it hit are left out.
pub fn clean_quantile(values: &[f64], steal_share: &[f64], q: f64) -> f64 {
    assert_eq!(values.len(), steal_share.len(), "one steal reading per round");
    let mut rounds: Vec<usize> = (0..values.len()).collect();
    rounds.sort_by(|&a, &b| steal_share[a].total_cmp(&steal_share[b]).then(a.cmp(&b)));
    let clean = rounds.iter().filter(|&&r| steal_share[r] <= CLEAN_STEAL_SHARE).count();
    let kept = clean.max(values.len().div_ceil(5));
    let mut kept: Vec<f64> = rounds[..kept].iter().map(|&r| values[r]).collect();
    kept.sort_by(f64::total_cmp);
    percentile(&kept, q)
}

/// Median, p99 and mean of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub mean: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = if sorted.is_empty() {
            f64::NAN
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            p90: percentile(&sorted, 0.9),
            p99: percentile(&sorted, 0.99),
            mean,
        }
    }
}

/// Median of a small sample (the mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Open-loop latency of one request, measured from when it was **due**
/// rather than when it was sent: a stall that delays sending charges
/// its wait to every request it held back (coordinated-omission
/// correction).
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator sent a request (`0` when on time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// One Prometheus text scrape: `series → value`, where a series is the
/// metric name with its label block exactly as exposed
/// (`usi_http_request_seconds_sum{route="/v1/query"}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses the text exposition format; comment lines and lines
    /// without a numeric value are skipped.
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.trim().to_string(), value.trim().parse().ok()?))
            })
            .collect();
        Self { series }
    }

    /// A series' value, `0` when absent (a counter that never moved may
    /// not be exposed yet).
    pub fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// `self − before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// A histogram's `(Δsum, Δcount)` between two scrapes. `labels` is
    /// the label block without braces (`route="/v1/query"`), or `""`.
    pub fn histogram_delta(&self, before: &Scrape, name: &str, labels: &str) -> (f64, f64) {
        let series = |suffix: &str| {
            if labels.is_empty() {
                format!("{name}_{suffix}")
            } else {
                format!("{name}_{suffix}{{{labels}}}")
            }
        };
        (self.delta(before, &series("sum")), self.delta(before, &series("count")))
    }

    /// A histogram's mean observation over the window between two
    /// scrapes (`NaN` when nothing was observed).
    pub fn histogram_mean(&self, before: &Scrape, name: &str, labels: &str) -> f64 {
        let (sum, count) = self.histogram_delta(before, name, labels);
        if count > 0.0 {
            sum / count
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn clean_quantile_leaves_out_stolen_rounds() {
        let values = [10.0, 99.0, 20.0, 98.0, 30.0];
        let share = [0.0, 0.5, 0.05, 0.4, 0.01];
        // clean: rounds 0, 2 and 4 (values 10, 20, 30)
        assert_eq!(clean_quantile(&values, &share, 0.5), 20.0);
        assert_eq!(clean_quantile(&values, &share, 0.25), 10.0);
        assert_eq!(clean_quantile(&values, &share, 0.75), 30.0);
        // no steal at all: every round counts
        assert_eq!(clean_quantile(&[4.0, 3.0, 2.0, 1.0], &[0.0; 4], 1.0), 4.0);
        // every round stolen: the least-stolen fifth (two of ten) stands in
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = [0.9, 0.2, 0.3, 0.1, 0.4, 0.5, 0.6, 0.7, 0.8, 0.1];
        assert_eq!(clean_quantile(&values, &share, 0.0), 4.0);
        assert_eq!(clean_quantile(&values, &share, 1.0), 10.0);
        assert!(clean_quantile(&[], &[], 0.5).is_nan());
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p90, 5.0);
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // a request due at t0, held back 5 ms by a stall, served in 1 ms:
        // the client waited 6 ms, not the 1 ms the socket saw
        let due = Instant::now();
        let sent = due + Duration::from_millis(5);
        let done = sent + Duration::from_millis(1);
        assert_eq!(due_latency(due, done), Duration::from_millis(6));
        assert_eq!(lateness(due, sent), Duration::from_millis(5));
        // sent early (never happens, but must not underflow)
        assert_eq!(lateness(sent, due), Duration::ZERO);
    }

    #[test]
    fn stall_inflates_every_request_it_held_back() {
        // three requests due 1 ms apart; the server stalls 10 ms on the
        // first, so all three complete at t = 10..12 ms
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let due = [t0, t0 + ms(1), t0 + ms(2)];
        let done = [t0 + ms(10), t0 + ms(11), t0 + ms(12)];
        let lat: Vec<f64> =
            due.iter().zip(&done).map(|(&d, &e)| due_latency(d, e).as_secs_f64() * 1e3).collect();
        assert_eq!(lat, vec![10.0, 10.0, 10.0]);
    }

    const BEFORE: &str = "\
# HELP usi_http_request_seconds Wall-clock time
# TYPE usi_http_request_seconds histogram
usi_http_request_seconds_bucket{route=\"/v1/query\",le=\"0.0001\"} 3
usi_http_request_seconds_sum{route=\"/v1/query\"} 0.0004
usi_http_request_seconds_count{route=\"/v1/query\"} 4
usi_reactor_wakeups_total 10
usi_pool_queue_wait_seconds_sum 0.5
usi_pool_queue_wait_seconds_count 100
";

    const AFTER: &str = "\
usi_http_request_seconds_sum{route=\"/v1/query\"} 0.0034
usi_http_request_seconds_count{route=\"/v1/query\"} 104
usi_reactor_wakeups_total 260
usi_pool_queue_wait_seconds_sum 0.5
usi_pool_queue_wait_seconds_count 100
usi_cache_hits_total 7
";

    #[test]
    fn histogram_diff_uses_sum_and_count_deltas() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        let (sum, count) =
            after.histogram_delta(&before, "usi_http_request_seconds", "route=\"/v1/query\"");
        assert!((sum - 0.003).abs() < 1e-12);
        assert_eq!(count, 100.0);
        let mean = after.histogram_mean(&before, "usi_http_request_seconds", "route=\"/v1/query\"");
        assert!((mean - 30e-6).abs() < 1e-12);
        assert_eq!(after.delta(&before, "usi_reactor_wakeups_total"), 250.0);
        // a series that did not move has no mean; one absent before counts from 0
        assert!(after.histogram_mean(&before, "usi_pool_queue_wait_seconds", "").is_nan());
        assert_eq!(after.delta(&before, "usi_cache_hits_total"), 7.0);
    }

    #[test]
    fn scrape_skips_comments_and_junk() {
        let s = Scrape::parse("# TYPE x counter\nx 2\nnot-a-number y\n\n");
        assert_eq!(s.get("x"), 2.0);
        assert_eq!(s.get("not-a-number"), 0.0);
    }
}
