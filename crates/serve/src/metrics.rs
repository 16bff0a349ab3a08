//! Service metrics: per-class outcome counters and fixed-bin latency
//! histograms with p50/p99 estimation.
//!
//! The histogram bins are powers of two in microseconds (bin *i* covers
//! `[2^i, 2^(i+1))` µs, with an underflow bin below 1 µs), so recording
//! is O(1), the memory footprint is fixed, and quantiles are read as the
//! upper edge of the bin where the cumulative count crosses the rank —
//! an upper bound with ≤ 2× resolution error, plenty for service-level
//! p50/p99 reporting.

use crate::reuse::ReuseCounters;
use rcr_qos::QosClass;
use std::time::Duration;

/// Number of power-of-two bins; bin 63 is effectively the overflow bin
/// (2^62 µs ≈ 146k years).
const BINS: usize = 64;

/// A fixed-bin latency histogram (see module docs).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    bins: [u64; BINS],
    count: u64,
    max: Duration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            bins: [0; BINS],
            count: 0,
            max: Duration::ZERO,
        }
    }
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let us = sample.as_micros().min(u128::from(u64::MAX)) as u64;
        // Bin 0: < 2 µs (underflow merged with [1, 2)); bin i: [2^i, 2^(i+1)) µs.
        let bin = if us == 0 {
            0
        } else {
            (us.ilog2() as usize).min(BINS - 1)
        };
        self.bins[bin] += 1;
        self.count += 1;
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded sample, exact.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// The quantile `q ∈ [0, 1]` as the upper edge of the bin holding
    /// that rank (an upper bound; [`LatencyHistogram::max`] caps it).
    /// Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let edge_us = 1u64 << (i + 1).min(63);
                return Duration::from_micros(edge_us).min(self.max);
            }
        }
        self.max
    }

    /// Condenses the histogram for a snapshot.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// A condensed latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (upper-bound estimate from the histogram bins).
    pub p50: Duration,
    /// 99th percentile (upper-bound estimate).
    pub p99: Duration,
    /// Exact maximum.
    pub max: Duration,
}

/// Outcome counters for one service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounters {
    /// Requests admitted: to the lane, or answered at admission from
    /// the reuse cache.
    pub admitted: u64,
    /// Requests refused admission (queue full or shutting down).
    pub rejected: u64,
    /// Requests whose deadline was missed (at enqueue, in queue, or
    /// detected after the solve).
    pub expired: u64,
    /// Requests answered with a solution, in time.
    pub solved: u64,
    /// Requests whose solver returned an error.
    pub failed: u64,
}

impl ClassCounters {
    /// Terminal responses: everything except `admitted`, which counts an
    /// intermediate state.
    pub fn responses(&self) -> u64 {
        self.rejected + self.expired + self.solved + self.failed
    }
}

/// A point-in-time copy of every service metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counters per class, indexed by [`QosClass::priority_rank`] (the
    /// [`QosClass::ALL`] order).
    pub per_class: [ClassCounters; 3],
    /// Enqueue → response latency per class (solved and failed
    /// requests), indexed like [`MetricsSnapshot::per_class`] — what
    /// lets a scenario expectation assert "URLLC p99 stayed flat"
    /// without parsing logs.
    pub per_class_response_latency: [LatencySummary; 3],
    /// Highest depth each class lane ever reached, indexed like
    /// [`MetricsSnapshot::per_class`]. A lane that rejected work must
    /// show its configured capacity here — the reconciliation
    /// invariant the scenario overload tests pin.
    pub lane_depth_high_water: [usize; 3],
    /// Highest total queue depth ever observed.
    pub queue_depth_high_water: usize,
    /// Enqueue → solve-start latency of admitted requests (includes any
    /// wait behind batch siblings; zero for a reuse hit answered at
    /// admission).
    pub queue_latency: LatencySummary,
    /// Per-request solver latency.
    pub solve_latency: LatencySummary,
    /// Enqueue → response latency (solved and failed requests).
    pub response_latency: LatencySummary,
    /// Batches drained from the lanes.
    pub batches: u64,
    /// Solution-reuse cache counters (all zero when reuse is disabled).
    pub reuse: ReuseCounters,
}

impl MetricsSnapshot {
    /// The counters of `class`.
    pub fn class(&self, class: QosClass) -> &ClassCounters {
        &self.per_class[class.priority_rank()]
    }

    /// Enqueue → response latency of `class` (solved and failed
    /// requests of that class only).
    pub fn class_response_latency(&self, class: QosClass) -> &LatencySummary {
        &self.per_class_response_latency[class.priority_rank()]
    }

    /// Highest depth `class`'s lane ever reached.
    pub fn lane_high_water(&self, class: QosClass) -> usize {
        self.lane_depth_high_water[class.priority_rank()]
    }

    /// Sum of terminal responses over all classes.
    pub fn total_responses(&self) -> u64 {
        self.per_class.iter().map(ClassCounters::responses).sum()
    }

    /// Renders the snapshot as a small fixed-layout table (used by the
    /// example and bench output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "class   admitted rejected  expired   solved   failed   p50_us   p99_us  lane_hw\n",
        );
        for class in QosClass::ALL {
            let c = self.class(class);
            let lat = self.class_response_latency(class);
            out.push_str(&format!(
                "{:<7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                class.name(),
                c.admitted,
                c.rejected,
                c.expired,
                c.solved,
                c.failed,
                lat.p50.as_micros(),
                lat.p99.as_micros(),
                self.lane_high_water(class),
            ));
        }
        out.push_str(&format!(
            "queue depth high water: {}\nbatches: {}\n",
            self.queue_depth_high_water, self.batches
        ));
        out.push_str(&format!(
            "reuse: hits={} (at admission {}) misses={} evictions={}\n",
            self.reuse.hits, self.reuse.admission_hits, self.reuse.misses, self.reuse.evictions
        ));
        let lat = |name: &str, s: &LatencySummary| {
            format!(
                "{name}: n={} p50={:?} p99={:?} max={:?}\n",
                s.count, s.p50, s.p99, s.max
            )
        };
        out.push_str(&lat("queue latency   ", &self.queue_latency));
        out.push_str(&lat("solve latency   ", &self.solve_latency));
        out.push_str(&lat("response latency", &self.response_latency));
        out
    }
}

/// The service's live metric state (wrapped in a mutex by the service).
#[derive(Debug, Clone, Default)]
pub(crate) struct Metrics {
    pub per_class: [ClassCounters; 3],
    pub per_class_response: [LatencyHistogram; 3],
    pub queue_latency: LatencyHistogram,
    pub solve_latency: LatencyHistogram,
    pub response_latency: LatencyHistogram,
}

impl Metrics {
    pub fn class_mut(&mut self, class: QosClass) -> &mut ClassCounters {
        &mut self.per_class[class.priority_rank()]
    }

    pub fn class_response_mut(&mut self, class: QosClass) -> &mut LatencyHistogram {
        &mut self.per_class_response[class.priority_rank()]
    }

    pub fn snapshot(
        &self,
        queue_depth_high_water: usize,
        lane_depth_high_water: [usize; 3],
        batches: u64,
        reuse: ReuseCounters,
    ) -> MetricsSnapshot {
        let summaries =
            |h: &[LatencyHistogram; 3]| [h[0].summary(), h[1].summary(), h[2].summary()];
        MetricsSnapshot {
            per_class: self.per_class,
            per_class_response_latency: summaries(&self.per_class_response),
            lane_depth_high_water,
            queue_depth_high_water,
            queue_latency: self.queue_latency.summary(),
            solve_latency: self.solve_latency.summary(),
            response_latency: self.response_latency.summary(),
            batches,
            reuse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::default();
        for us in [1u64, 3, 10, 100, 1_000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), Duration::from_micros(10_000));
        // p50 covers the 3rd sample (10 µs): upper bin edge is 16 µs.
        assert_eq!(h.quantile(0.5), Duration::from_micros(16));
        // p99 = the max sample's bin, capped at the exact max.
        assert_eq!(h.quantile(0.99), Duration::from_micros(10_000));
        // Monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn quantile_upper_bounds_within_2x() {
        let mut h = LatencyHistogram::default();
        let sample = Duration::from_micros(777);
        for _ in 0..100 {
            h.record(sample);
        }
        let p99 = h.quantile(0.99);
        assert!(p99 >= sample);
        assert!(p99 <= sample * 2);
    }

    #[test]
    fn submicrosecond_and_huge_samples_do_not_panic() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.count(), 3);
        assert!(h.quantile(0.01) > Duration::ZERO);
    }

    #[test]
    fn snapshot_totals_and_render() {
        let mut m = Metrics::default();
        m.class_mut(QosClass::Urllc).solved = 3;
        m.class_mut(QosClass::Embb).rejected = 2;
        m.class_mut(QosClass::Mmtc).expired = 1;
        m.class_mut(QosClass::Mmtc).admitted = 5;
        m.class_response_mut(QosClass::Urllc)
            .record(Duration::from_micros(100));
        let snap = m.snapshot(
            7,
            [4, 2, 1],
            9,
            ReuseCounters {
                hits: 4,
                admission_hits: 3,
                misses: 2,
                evictions: 1,
            },
        );
        assert_eq!(snap.total_responses(), 6);
        assert_eq!(snap.queue_depth_high_water, 7);
        assert_eq!(snap.class(QosClass::Urllc).solved, 3);
        assert_eq!(snap.lane_high_water(QosClass::Urllc), 4);
        assert_eq!(snap.lane_high_water(QosClass::Mmtc), 1);
        assert_eq!(snap.class_response_latency(QosClass::Urllc).count, 1);
        assert!(snap.class_response_latency(QosClass::Urllc).p99 >= Duration::from_micros(100));
        assert_eq!(snap.class_response_latency(QosClass::Embb).count, 0);
        let table = snap.render();
        assert!(table.contains("URLLC"));
        assert!(table.contains("high water: 7"));
        assert!(table.contains("batches: 9"));
        assert!(table.contains("lane_hw"));
        assert!(table.contains("reuse: hits=4 (at admission 3) misses=2 evictions=1"));
    }
}
