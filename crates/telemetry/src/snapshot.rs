//! Versioned, exportable snapshots of a [`Recorder`](crate::Recorder).
//!
//! # JSONL layout (schema version 1)
//!
//! One JSON document per line:
//!
//! ```text
//! {"schema":"rh-telemetry","version":1,"source":"Graphene@S3"}
//! {"kind":"counter","name":"defense.acts","value":30000}
//! {"kind":"gauge","name":"mc.row_hit_rate","value":0.74}
//! {"kind":"histogram","name":"...","count":3,"sum":4.5,"min":0.5,"max":2.0}
//! {"kind":"series","metric":"graphene.spillover","bank":0,"dropped":0,
//!  "t_ps":[...],"value":[...]}
//! ```
//!
//! The header line carries the schema name and version; [`parse_jsonl`]
//! rejects unknown schemas and *newer* versions (older readers must not
//! silently misread future layouts) but tolerates unknown `kind`s within a
//! known version, so minor additions stay forward-compatible.
//!
//! [`parse_jsonl`]: Snapshot::parse_jsonl

use std::fmt::Write as _;

use crate::json::{self, JsonValue};
use crate::recorder::{HistogramSummary, Sample};

/// The JSONL schema version this crate writes.
pub const SCHEMA_VERSION: u32 = 1;

/// Schema name in the JSONL header line.
pub const SCHEMA_NAME: &str = "rh-telemetry";

/// One exported per-bank time series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Metric name (e.g. `graphene.spillover`).
    pub metric: String,
    /// Flattened bank index.
    pub bank: u16,
    /// Samples the bounded ring discarded before these.
    pub dropped: u64,
    /// Retained samples, time-ordered.
    pub samples: Vec<Sample>,
}

/// An exportable snapshot of everything a recorder accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this crate).
    pub version: u32,
    /// Where the data came from (defense@workload, a report name, ...).
    pub source: String,
    /// Monotone counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last written value), name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-bank time series.
    pub series: Vec<SeriesData>,
}

impl Snapshot {
    /// An empty snapshot tagged with `source`.
    pub fn empty(source: &str) -> Self {
        Snapshot {
            version: SCHEMA_VERSION,
            source: source.to_owned(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            series: Vec::new(),
        }
    }

    /// The series for `metric` on `bank`, if recorded.
    pub fn series_for(&self, metric: &str, bank: u16) -> Option<&SeriesData> {
        self.series.iter().find(|s| s.metric == metric && s.bank == bank)
    }

    /// Names of all distinct series metrics, in first-appearance order.
    pub fn series_metrics(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.series {
            if !names.contains(&s.metric.as_str()) {
                names.push(&s.metric);
            }
        }
        names
    }

    /// Folds `other` into `self` with every metric name prefixed by
    /// `prefix` — how a run matrix aggregates per-cell snapshots into one
    /// sweep-wide document without name collisions.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Snapshot) {
        let tag = |name: &str| format!("{prefix}{name}");
        self.counters.extend(other.counters.iter().map(|(k, v)| (tag(k), *v)));
        self.gauges.extend(other.gauges.iter().map(|(k, v)| (tag(k), *v)));
        self.histograms.extend(other.histograms.iter().map(|(k, v)| (tag(k), *v)));
        self.series.extend(other.series.iter().map(|s| SeriesData {
            metric: tag(&s.metric),
            bank: s.bank,
            dropped: s.dropped,
            samples: s.samples.clone(),
        }));
    }

    /// Renders the JSONL form (see the module docs for the layout).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str(SCHEMA_NAME.into())),
            ("version".into(), JsonValue::U64(u64::from(self.version))),
            ("source".into(), JsonValue::Str(self.source.clone())),
        ]);
        let _ = writeln!(out, "{header}");
        for (name, value) in &self.counters {
            let line = JsonValue::Obj(vec![
                ("kind".into(), JsonValue::Str("counter".into())),
                ("name".into(), JsonValue::Str(name.clone())),
                ("value".into(), JsonValue::U64(*value)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        for (name, value) in &self.gauges {
            let line = JsonValue::Obj(vec![
                ("kind".into(), JsonValue::Str("gauge".into())),
                ("name".into(), JsonValue::Str(name.clone())),
                ("value".into(), JsonValue::F64(*value)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        for (name, h) in &self.histograms {
            let line = JsonValue::Obj(vec![
                ("kind".into(), JsonValue::Str("histogram".into())),
                ("name".into(), JsonValue::Str(name.clone())),
                ("count".into(), JsonValue::U64(h.count)),
                ("sum".into(), JsonValue::F64(h.sum)),
                ("min".into(), JsonValue::F64(h.min)),
                ("max".into(), JsonValue::F64(h.max)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        for s in &self.series {
            let line = JsonValue::Obj(vec![
                ("kind".into(), JsonValue::Str("series".into())),
                ("metric".into(), JsonValue::Str(s.metric.clone())),
                ("bank".into(), JsonValue::U64(u64::from(s.bank))),
                ("dropped".into(), JsonValue::U64(s.dropped)),
                (
                    "t_ps".into(),
                    JsonValue::Arr(s.samples.iter().map(|p| JsonValue::U64(p.t_ps)).collect()),
                ),
                (
                    "value".into(),
                    JsonValue::Arr(s.samples.iter().map(|p| JsonValue::F64(p.value)).collect()),
                ),
            ]);
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Parses a document produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation: missing/foreign header,
    /// a version newer than [`SCHEMA_VERSION`], unparseable lines, or
    /// mismatched series arrays.
    pub fn parse_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("empty snapshot document")?;
        let header = json::parse(header_line).map_err(|e| format!("header: {e}"))?;
        match header.get("schema").and_then(JsonValue::as_str) {
            Some(SCHEMA_NAME) => {}
            Some(other) => return Err(format!("foreign schema {other:?}")),
            None => return Err("header missing \"schema\"".to_owned()),
        }
        let version =
            header.get("version").and_then(JsonValue::as_u64).ok_or("header missing \"version\"")?
                as u32;
        if version > SCHEMA_VERSION {
            return Err(format!(
                "snapshot version {version} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let source = header
            .get("source")
            .and_then(JsonValue::as_str)
            .ok_or("header missing \"source\"")?
            .to_owned();

        let mut snap = Snapshot { version, ..Snapshot::empty(&source) };
        for (i, line) in lines.enumerate() {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
            let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or("");
            let name = |v: &JsonValue| {
                v.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("line {}: missing \"name\"", i + 2))
            };
            let num = |v: &JsonValue, key: &str| {
                v.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("line {}: missing \"{key}\"", i + 2))
            };
            match kind {
                "counter" => {
                    let value = v
                        .get("value")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("line {}: counter needs integer value", i + 2))?;
                    snap.counters.push((name(&v)?, value));
                }
                "gauge" => {
                    let value = num(&v, "value")?;
                    snap.gauges.push((name(&v)?, value));
                }
                "histogram" => {
                    let h = HistogramSummary {
                        count: v
                            .get("count")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("line {}: histogram needs count", i + 2))?,
                        sum: num(&v, "sum")?,
                        min: num(&v, "min")?,
                        max: num(&v, "max")?,
                    };
                    snap.histograms.push((name(&v)?, h));
                }
                "series" => {
                    let metric = v
                        .get("metric")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("line {}: series needs metric", i + 2))?
                        .to_owned();
                    let bank = v
                        .get("bank")
                        .and_then(JsonValue::as_u64)
                        .and_then(|b| u16::try_from(b).ok())
                        .ok_or_else(|| format!("line {}: series needs bank", i + 2))?;
                    let dropped = v.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0);
                    let ts = v
                        .get("t_ps")
                        .and_then(JsonValue::as_arr)
                        .ok_or_else(|| format!("line {}: series needs t_ps", i + 2))?;
                    let vals = v
                        .get("value")
                        .and_then(JsonValue::as_arr)
                        .ok_or_else(|| format!("line {}: series needs value", i + 2))?;
                    if ts.len() != vals.len() {
                        return Err(format!(
                            "line {}: series arrays disagree ({} timestamps, {} values)",
                            i + 2,
                            ts.len(),
                            vals.len()
                        ));
                    }
                    let samples = ts
                        .iter()
                        .zip(vals)
                        .map(|(t, val)| {
                            Ok(Sample {
                                t_ps: t.as_u64().ok_or_else(|| {
                                    format!("line {}: non-integer timestamp", i + 2)
                                })?,
                                value: val
                                    .as_f64()
                                    .ok_or_else(|| format!("line {}: non-numeric sample", i + 2))?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    snap.series.push(SeriesData { metric, bank, dropped, samples });
                }
                // Unknown kinds within a known version are skipped, so v1
                // readers survive additive extensions.
                _ => {}
            }
        }
        Ok(snap)
    }

    /// Renders the time series in long-form CSV
    /// (`metric,bank,t_ps,value`) for direct plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,bank,t_ps,value\n");
        for s in &self.series {
            for p in &s.samples {
                let _ = writeln!(out, "{},{},{},{}", s.metric, s.bank, p.t_ps, p.value);
            }
        }
        out
    }

    /// Writes the JSONL form to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::sink::MetricsSink;

    fn sample_snapshot() -> Snapshot {
        let mut r = Recorder::new();
        r.counter("defense.acts", 30_000);
        r.counter("mc.refreshes", 12);
        r.gauge("mc.row_hit_rate", 0.74);
        r.observe("defense.actions_per_kact", 1.5);
        r.observe("defense.actions_per_kact", 0.5);
        for i in 0..5u64 {
            r.sample("graphene.spillover", 0, i * 1_000, i as f64 * 0.5);
            r.sample("graphene.spillover", 1, i * 1_000, i as f64);
        }
        r.snapshot("Graphene@S3")
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample_snapshot();
        let parsed = Snapshot::parse_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn header_carries_schema_and_source() {
        let text = sample_snapshot().to_jsonl();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"rh-telemetry\""));
        assert!(first.contains("\"Graphene@S3\""));
    }

    #[test]
    fn foreign_schema_rejected() {
        let err = Snapshot::parse_jsonl("{\"schema\":\"other\",\"version\":1,\"source\":\"x\"}\n")
            .unwrap_err();
        assert!(err.contains("foreign schema"));
    }

    #[test]
    fn newer_version_rejected() {
        let err = Snapshot::parse_jsonl(
            "{\"schema\":\"rh-telemetry\",\"version\":99,\"source\":\"x\"}\n",
        )
        .unwrap_err();
        assert!(err.contains("newer"));
    }

    #[test]
    fn unknown_kind_is_skipped() {
        let text = "{\"schema\":\"rh-telemetry\",\"version\":1,\"source\":\"x\"}\n\
                    {\"kind\":\"novel\",\"whatever\":1}\n";
        let snap = Snapshot::parse_jsonl(text).unwrap();
        assert!(snap.counters.is_empty() && snap.series.is_empty());
    }

    #[test]
    fn mismatched_series_arrays_rejected() {
        let text = "{\"schema\":\"rh-telemetry\",\"version\":1,\"source\":\"x\"}\n\
                    {\"kind\":\"series\",\"metric\":\"m\",\"bank\":0,\"dropped\":0,\
                     \"t_ps\":[1,2],\"value\":[1.0]}\n";
        assert!(Snapshot::parse_jsonl(text).unwrap_err().contains("disagree"));
    }

    #[test]
    fn csv_is_long_form() {
        let csv = sample_snapshot().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("metric,bank,t_ps,value"));
        assert!(csv.contains("graphene.spillover,1,1000,1"));
        // 5 samples × 2 banks + header.
        assert_eq!(csv.lines().count(), 11);
    }

    #[test]
    fn merge_prefixed_keeps_cells_apart() {
        let mut sweep = Snapshot::empty("sweep");
        let cell = sample_snapshot();
        sweep.merge_prefixed("Graphene@S3/", &cell);
        sweep.merge_prefixed("PARA@S3/", &cell);
        assert_eq!(sweep.series.len(), 2 * cell.series.len());
        assert!(sweep.series_for("Graphene@S3/graphene.spillover", 0).is_some());
        assert!(sweep.series_for("PARA@S3/graphene.spillover", 1).is_some());
        // Still a valid document.
        let parsed = Snapshot::parse_jsonl(&sweep.to_jsonl()).unwrap();
        assert_eq!(parsed, sweep);
    }

    #[test]
    fn series_helpers_find_metrics() {
        let snap = sample_snapshot();
        assert_eq!(snap.series_metrics(), vec!["graphene.spillover"]);
        assert_eq!(snap.series_for("graphene.spillover", 1).unwrap().samples.len(), 5);
        assert!(snap.series_for("graphene.spillover", 9).is_none());
    }

    #[test]
    fn file_round_trip() {
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join("rh_telemetry_snapshot_roundtrip.jsonl");
        snap.write_jsonl(&path).unwrap();
        let loaded = Snapshot::parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, snap);
    }
}
