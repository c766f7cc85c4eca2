//! The in-memory metric store: counters, gauges, histogram summaries, and
//! per-bank ring-buffered time series.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::sink::MetricsSink;
use crate::snapshot::{SeriesData, Snapshot};

/// One time-series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Absolute simulation time (ps).
    pub t_ps: u64,
    /// The sampled value.
    pub value: f64,
}

/// Summary statistics of one histogram metric.
///
/// A full bucketed histogram would cost memory proportional to the value
/// range; the consumers here (rate distributions across banks and cells)
/// only need the moments, so the summary keeps count/sum/min/max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramSummary {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A bounded time series: keeps the most recent `capacity` samples and
/// counts what it had to drop.
#[derive(Debug, Clone, PartialEq)]
struct RingSeries {
    capacity: usize,
    samples: VecDeque<Sample>,
    dropped: u64,
    /// Timestamp high-water mark for monotonicity clamping.
    last_t: u64,
}

impl RingSeries {
    fn new(capacity: usize) -> Self {
        RingSeries { capacity, samples: VecDeque::new(), dropped: 0, last_t: 0 }
    }

    fn push(&mut self, t_ps: u64, value: f64) -> bool {
        // Producers flush on their own cadences, so samples from different
        // code paths (defense wrapper vs. controller tap) can arrive
        // slightly out of order on a shared recorder. Series time must be
        // monotone for plotting and for the schema contract, so late
        // samples are clamped to the high-water mark rather than rejected.
        let clamped = t_ps < self.last_t;
        let t = if clamped { self.last_t } else { t_ps };
        self.last_t = t;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(Sample { t_ps: t, value });
        clamped
    }
}

/// Default ring capacity per (series, bank): enough for one sample per
/// reset window over multi-hour runs while bounding memory at paper-scale
/// sweeps.
pub const DEFAULT_RING_CAPACITY: usize = 4_096;

/// A [`MetricsSink`] that stores everything in memory.
///
/// Counters/gauges/histograms live in `BTreeMap`s keyed by the static
/// metric name; series are keyed by `(name, bank)` and ring-bounded to
/// [`Recorder::ring_capacity`]. Take a [`Snapshot`] to export.
///
/// # Example
///
/// ```
/// use telemetry::{MetricsSink, Recorder};
///
/// let mut r = Recorder::new();
/// r.counter("mc.acts", 10);
/// r.sample("graphene.spillover", 0, 1_000, 2.0);
/// let snap = r.snapshot("example");
/// assert_eq!(snap.counters, vec![("mc.acts".to_owned(), 10)]);
/// assert_eq!(snap.series.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    ring_capacity: usize,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramSummary>,
    series: BTreeMap<(&'static str, u16), RingSeries>,
    /// Samples whose timestamp was clamped forward to stay monotone.
    clamped_samples: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder keeping at most `capacity` samples per (series, bank).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity of 0 cannot hold samples");
        Recorder {
            ring_capacity: capacity,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
            clamped_samples: 0,
        }
    }

    /// The configured per-series ring capacity.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Samples whose timestamps were clamped forward to keep series
    /// monotone.
    pub fn clamped_samples(&self) -> u64 {
        self.clamped_samples
    }

    /// Current value of counter `name`.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exports everything recorded so far, tagged with `source`.
    pub fn snapshot(&self, source: &str) -> Snapshot {
        Snapshot {
            version: crate::snapshot::SCHEMA_VERSION,
            source: source.to_owned(),
            counters: self.counters.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            series: self
                .series
                .iter()
                .map(|((name, bank), ring)| SeriesData {
                    metric: (*name).to_owned(),
                    bank: *bank,
                    dropped: ring.dropped,
                    samples: ring.samples.iter().copied().collect(),
                })
                .collect(),
        }
    }
}

impl MetricsSink for Recorder {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(name)
            .or_insert(HistogramSummary {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            })
            .observe(value);
    }

    fn sample(&mut self, series: &'static str, bank: u16, t_ps: u64, value: f64) {
        let capacity = self.ring_capacity;
        let ring = self.series.entry((series, bank)).or_insert_with(|| RingSeries::new(capacity));
        if ring.push(t_ps, value) {
            self.clamped_samples += 1;
        }
    }
}

/// A cloneable handle letting several producers (per-bank defense wrappers,
/// the controller tap, the sweep's progress samples) record into one
/// [`Recorder`].
///
/// Locking cost is paid only at flush cadence, not per activation: the
/// instrumented wrappers accumulate locally and call the sink every k ACTs.
#[derive(Debug, Clone)]
pub struct SharedSink {
    recorder: Arc<Mutex<Recorder>>,
}

impl Default for SharedSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedSink {
    /// A shared recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_recorder(Recorder::new())
    }

    /// Wraps an explicitly configured recorder.
    pub fn with_recorder(recorder: Recorder) -> Self {
        SharedSink { recorder: Arc::new(Mutex::new(recorder)) }
    }

    /// Snapshots the shared recorder's current contents.
    pub fn snapshot(&self, source: &str) -> Snapshot {
        self.recorder.lock().expect("telemetry recorder poisoned").snapshot(source)
    }

    /// Runs `f` with the locked recorder (bulk recording, inspection).
    pub fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        f(&mut self.recorder.lock().expect("telemetry recorder poisoned"))
    }
}

impl MetricsSink for SharedSink {
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.with(|r| r.counter(name, delta));
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.with(|r| r.gauge(name, value));
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.with(|r| r.observe(name, value));
    }

    fn sample(&mut self, series: &'static str, bank: u16, t_ps: u64, value: f64) {
        self.with(|r| r.sample(series, bank, t_ps, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = Recorder::new();
        r.counter("c", 2);
        r.counter("c", 3);
        r.gauge("g", 1.0);
        r.gauge("g", 2.0);
        assert_eq!(r.counter_value("c"), 5);
        let snap = r.snapshot("t");
        assert_eq!(snap.gauges, vec![("g".to_owned(), 2.0)]);
    }

    #[test]
    fn histogram_summarizes_observations() {
        let mut r = Recorder::new();
        for v in [2.0, 8.0, 5.0] {
            r.observe("h", v);
        }
        let snap = r.snapshot("t");
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 15.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.mean(), 5.0);
    }

    #[test]
    fn ring_drops_oldest_and_counts_them() {
        let mut r = Recorder::with_ring_capacity(2);
        r.sample("s", 0, 1, 1.0);
        r.sample("s", 0, 2, 2.0);
        r.sample("s", 0, 3, 3.0);
        let snap = r.snapshot("t");
        assert_eq!(snap.series[0].dropped, 1);
        assert_eq!(
            snap.series[0].samples,
            vec![Sample { t_ps: 2, value: 2.0 }, Sample { t_ps: 3, value: 3.0 }]
        );
    }

    #[test]
    fn late_samples_are_clamped_monotone() {
        let mut r = Recorder::new();
        r.sample("s", 0, 100, 1.0);
        r.sample("s", 0, 50, 2.0); // late: clamped to 100
        r.sample("s", 0, 120, 3.0);
        assert_eq!(r.clamped_samples(), 1);
        let snap = r.snapshot("t");
        let ts: Vec<u64> = snap.series[0].samples.iter().map(|s| s.t_ps).collect();
        assert_eq!(ts, vec![100, 100, 120]);
    }

    #[test]
    fn banks_get_independent_series() {
        let mut r = Recorder::new();
        r.sample("s", 0, 10, 1.0);
        r.sample("s", 1, 5, 2.0); // earlier time on another bank: no clamp
        assert_eq!(r.clamped_samples(), 0);
        assert_eq!(r.snapshot("t").series.len(), 2);
    }

    #[test]
    fn shared_sink_aggregates_across_clones() {
        let mut a = SharedSink::new();
        let mut b = a.clone();
        a.counter("c", 1);
        b.counter("c", 2);
        a.sample("s", 0, 1, 0.5);
        let snap = b.snapshot("shared");
        assert_eq!(snap.counters, vec![("c".to_owned(), 3)]);
        assert_eq!(snap.series.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ring capacity of 0")]
    fn zero_capacity_rejected() {
        let _ = Recorder::with_ring_capacity(0);
    }
}
