//! # telemetry
//!
//! Low-overhead time-series observability for the Graphene reproduction.
//!
//! The paper's core claims are *trajectories* — spillover bounded by
//! `W/(N_entry+1)`, per-window NRR counts, table occupancy churn — but a
//! simulation that only reports end-of-run totals cannot show them. This
//! crate is the substrate every layer records into:
//!
//! * [`MetricsSink`] — the object-safe sink trait (counters, gauges,
//!   histogram observations, per-bank timestamped samples) that
//!   instrumented components hold as `Box<dyn MetricsSink + Send>`;
//! * [`NoopSink`] — the zero-cost default: [`MetricsSink::enabled`] is
//!   `false`, so producers skip metric computation entirely and the hot
//!   path stays bit-identical to an uninstrumented run;
//! * [`Cadence`] / [`CadenceClock`] — when to flush: every k ACTs
//!   (count domain) or every reset window (time domain);
//! * [`Recorder`] / [`SharedSink`] — the in-memory store with ring-bounded
//!   per-bank series and a cloneable, internally locked handle for
//!   multi-producer runs. Locking is paid at flush cadence, not per ACT;
//! * [`RetrySink`] / [`FlakySink`] — graceful degradation under injected
//!   sink failures: bounded retry with exponential (virtual) backoff over a
//!   deterministically scripted flaky sink — see [`retry`];
//! * [`Snapshot`] — the versioned export: JSONL (schema
//!   [`SCHEMA_VERSION`], round-trippable via
//!   [`Snapshot::parse_jsonl`]) and long-form CSV for plotting.
//!
//! Who records what (see DESIGN.md §6e): `graphene-core` emits spillover,
//! occupancy, evictions, and per-window NRR triggers; `memctrl` taps
//! ACT/REF/victim-refresh rates; `mitigations::instrumented()` wraps any
//! defense so all nine schemes report action rates uniformly; `rh-sim`
//! aggregates per-cell snapshots across a sweep and samples live sweep
//! progress (`sweep.jobs_done`, one sample per finished baseline or cell).
//!
//! # Example
//!
//! ```
//! use telemetry::{MetricsSink, Recorder, Snapshot};
//!
//! let mut rec = Recorder::new();
//! rec.counter("defense.acts", 1_000);
//! rec.sample("graphene.spillover", 0, 45_000, 3.0);
//! let snapshot = rec.snapshot("example");
//! let parsed = Snapshot::parse_jsonl(&snapshot.to_jsonl()).unwrap();
//! assert_eq!(parsed, snapshot);
//! ```

pub mod json;
pub mod recorder;
pub mod retry;
pub mod sink;
pub mod snapshot;

pub use recorder::{HistogramSummary, Recorder, Sample, SharedSink, DEFAULT_RING_CAPACITY};
pub use retry::{
    FailureSpan, FallibleMetricsSink, FlakySink, RetryPolicy, RetrySink, RetryStats, SinkWriteError,
};
pub use sink::{Cadence, CadenceClock, MetricsSink, NoopSink};
pub use snapshot::{SeriesData, Snapshot, SCHEMA_NAME, SCHEMA_VERSION};
