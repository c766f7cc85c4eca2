//! Bounded-memory fleet replay: stream an RHT4 trace from disk through the
//! sharded SPSC pipeline in checkpointed segments, with integrity-framed
//! formats and a crash-and-corruption recovery supervisor.
//!
//! The matrix runners materialize workloads in memory; a fleet-scale trace
//! (hundreds of millions of ACTs from thousands of tenants) cannot be. This
//! module drives the [`sharded`] pipeline straight from a
//! [`TraceReader`] — the reader refills one chunk at a time, the router
//! streams stamped batches into bounded per-channel SPSC rings, and worker
//! threads (and the router, whenever a ring is full) run them — so
//! resident memory stays O(chunk + queue depth) regardless of trace length.
//!
//! Execution is **segmented**: [`run_fleet`] streams `segment` accesses,
//! quiesces the pipeline, writes a `fleetckpt.v2` checkpoint (the JSONL
//! idiom of [`faultsim`]'s serial module: a schema-tagged header line, one
//! line per channel shard, and a CRC32C integrity footer), reports
//! progress, and repeats. A killed run resumes from the last checkpoint via
//! [`TraceReader::skip_to`] plus [`SystemController::restore`], and —
//! because the trace is pre-synthesized and every layer's checkpoint is
//! exact — the resumed run is **bit-identical** to an uninterrupted one at
//! every worker count. The `fleet_replay` integration test pins this with a
//! proptest across 1/2/4 workers and arbitrary kill points.
//!
//! ## Integrity and failure model (DESIGN.md §6l)
//!
//! Every failure is a typed [`FleetError`], never a panic or a silent wrong
//! result. The on-disk formats defend themselves: RHT4 traces carry
//! per-chunk CRC32C frames (checked by [`TraceReader`]), and `fleetckpt.v2`
//! carries per-line CRCs, a whole-body CRC, and a **config fingerprint**
//! ([`CkptFingerprint`]: defense spec, mapping policy, DRAM generation,
//! audit flag, geometry) so that restoring under a different configuration
//! is rejected with a diagnostic naming the differing field rather than
//! silently producing plausible-but-wrong statistics.
//!
//! [`run_fleet_supervised`] adds the recovery layer: checkpoints rotate
//! across `keep` generation slots, corrupt files are **quarantined aside**
//! (renamed, never deleted or overwritten in place), a failed segment rolls
//! back to the newest *verified* checkpoint and retries with bounded,
//! deterministic (virtual — recorded, not slept) backoff, and the degraded-
//! mode accounting surfaces as `fleet.retries` / `fleet.rollbacks` /
//! `fleet.corrupt_chunks` / `fleet.quarantined` telemetry counters. All
//! file I/O flows through the [`workloads::vfs`] seam, so the `chaos-fleet`
//! harness injects deterministic torn writes, bit rot, and fsync failures
//! under these exact code paths.
//!
//! [`synth_fleet_trace`] writes the multi-tenant input: thousands of
//! interleaved clients — Zipf/streaming SPEC-like proxies seasoned with
//! throttled row-hammer attackers — merged by arrival time through a k-way
//! heap and recorded incrementally, so synthesis is bounded-memory too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dram_model::geometry::DramGeometry;
use memctrl::{
    CkptError, MappingPolicy, McBuilder, McConfig, McError, SystemController, SystemStats,
};
use telemetry::json::{self, obj, u64_field, JsonValue};
use telemetry::{MetricsSink, SharedSink};
use workloads::crc::{crc32c_combine, Crc32c};
use workloads::vfs::{real_fs, Vfs};
use workloads::{
    Access, ProxyWorkload, RateLimited, SpecPreset, StripedNSided, TraceError, TraceReader,
    TraceWriter, Workload,
};

use crate::scenarios::DefenseSpec;
use crate::sharded;

/// Schema tag of the checkpoint header line.
pub const FLEET_CKPT_SCHEMA: &str = "fleetckpt.v2";

/// Schema tag of the integrity footer line.
pub const FLEET_CKPT_FOOTER_SCHEMA: &str = "fleetckpt.v2#footer";

/// Why a fleet replay failed.
///
/// The variants separate the three things a recovery layer must tell
/// apart: *this artifact is damaged* ([`CkptCorrupt`](Self::CkptCorrupt),
/// a [`TraceStream`](Self::TraceStream) carrying a CRC failure — retry or
/// roll back), *this artifact belongs to a different run*
/// ([`WrongTrace`](Self::WrongTrace),
/// [`ConfigMismatch`](Self::ConfigMismatch) — no retry will ever work), and
/// *the environment failed* (I/O variants — maybe transient).
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// The trace file could not be opened or seeked.
    Trace {
        /// The trace path.
        path: PathBuf,
        /// The underlying failure (typed [`workloads::TraceError`]s arrive
        /// as [`std::io::ErrorKind::InvalidData`] payloads).
        source: std::io::Error,
    },
    /// The trace stream failed mid-segment (truncation, CRC failure, I/O).
    TraceStream {
        /// Records consumed when the stream failed.
        position: u64,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// The routing front end rejected an access.
    Route {
        /// Records consumed when routing failed.
        position: u64,
        /// The controller's error.
        source: McError,
    },
    /// The system refused to snapshot (oracle, tap, uncheckpointable
    /// defense, …).
    Snapshot {
        /// The controller-layer error.
        source: CkptError,
    },
    /// The system rejected a structurally valid checkpoint on restore.
    Restore {
        /// The controller-layer error.
        source: CkptError,
    },
    /// Checkpoint file I/O failed.
    CkptIo {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The checkpoint file is damaged: bad JSON, a failed CRC frame, a
    /// missing footer, or a shard count disagreeing with its header.
    CkptCorrupt {
        /// The checkpoint path.
        path: PathBuf,
        /// What exactly is damaged.
        detail: String,
    },
    /// The checkpoint carries an unknown schema tag.
    CkptSchema {
        /// The checkpoint path.
        path: PathBuf,
        /// The tag found.
        found: String,
    },
    /// The checkpoint belongs to a different trace.
    WrongTrace {
        /// Name stamped in the trace being replayed.
        expected: String,
        /// Name recorded in the checkpoint.
        found: String,
    },
    /// The checkpoint claims more records than the trace holds.
    BeyondTrace {
        /// Records the checkpoint claims were executed.
        claimed: u64,
        /// Records the trace actually holds.
        trace_len: u64,
    },
    /// The checkpoint's config fingerprint disagrees with this run's
    /// configuration on `field`.
    ConfigMismatch {
        /// The differing fingerprint field.
        field: &'static str,
        /// This run's value.
        expected: String,
        /// The checkpoint's value.
        found: String,
    },
    /// The supervisor exhausted its retry budget on one segment.
    RetriesExhausted {
        /// First record of the failing segment.
        segment_start: u64,
        /// Attempts made (including the first).
        attempts: u32,
        /// The last failure.
        last: Box<FleetError>,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Trace { path, source } => write!(f, "trace {}: {source}", path.display()),
            FleetError::TraceStream { position, source } => {
                write!(f, "trace stream failed at record {position}: {source}")
            }
            FleetError::Route { position, source } => {
                write!(f, "routing failed at record {position}: {source}")
            }
            FleetError::Snapshot { source } => write!(f, "checkpoint snapshot: {source}"),
            FleetError::Restore { source } => write!(f, "checkpoint restore: {source}"),
            FleetError::CkptIo { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            FleetError::CkptCorrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            FleetError::CkptSchema { path, found } => write!(
                f,
                "checkpoint {}: schema `{found}` is not `{FLEET_CKPT_SCHEMA}`",
                path.display()
            ),
            FleetError::WrongTrace { expected, found } => {
                write!(f, "checkpoint belongs to trace `{found}`, not `{expected}`")
            }
            FleetError::BeyondTrace { claimed, trace_len } => {
                write!(f, "checkpoint claims {claimed} records done of a {trace_len}-record trace")
            }
            FleetError::ConfigMismatch { field, expected, found } => write!(
                f,
                "checkpoint config mismatch: `{field}` is `{found}` in the checkpoint \
                 but `{expected}` in this run"
            ),
            FleetError::RetriesExhausted { segment_start, attempts, last } => write!(
                f,
                "segment at record {segment_start} failed after {attempts} attempt(s); \
                 last error: {last}"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Trace { source, .. }
            | FleetError::TraceStream { source, .. }
            | FleetError::CkptIo { source, .. } => Some(source),
            FleetError::Route { source, .. } => Some(source),
            FleetError::Snapshot { source } | FleetError::Restore { source } => Some(source),
            FleetError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl FleetError {
    /// True when the failure is *data damage* a CRC frame caught — a trace
    /// chunk or checkpoint whose content no longer matches its checksum.
    /// The supervisor counts these as `fleet.corrupt_chunks`.
    pub fn is_corruption(&self) -> bool {
        match self {
            FleetError::CkptCorrupt { .. } => true,
            FleetError::Trace { source, .. } | FleetError::TraceStream { source, .. } => source
                .get_ref()
                .and_then(|r| r.downcast_ref::<TraceError>())
                .is_some_and(|t| matches!(t, TraceError::Corrupt { .. })),
            FleetError::RetriesExhausted { last, .. } => last.is_corruption(),
            _ => false,
        }
    }
}

fn str_field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// The integer under `key`, narrowed to its field's type: a value too wide
/// for the field is damage, never wrapped into a different configuration.
fn narrow_field<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<T, String> {
    let n = u64_field(v, key)?;
    T::try_from(n).map_err(|_| format!("field `{key}` = {n} is out of range"))
}

/// The configuration identity stamped into every `fleetckpt.v2` header.
///
/// A checkpoint is only as good as the run that wrote it: restoring
/// Graphene-at-2k state into a CoMeT-at-1k system would not fail loudly —
/// it would *run*, producing statistics that belong to neither
/// configuration. The fingerprint pins everything that shapes simulated
/// behavior but is absent from the state itself; restore compares field by
/// field and rejects with [`FleetError::ConfigMismatch`] naming the first
/// difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptFingerprint {
    /// [`DefenseSpec::spec_string`] of the per-bank defense.
    pub defense: String,
    /// [`MappingPolicy::name`] of the routing front end.
    pub policy: String,
    /// DRAM generation name (timings and RFM behavior).
    pub generation: String,
    /// Whether defenses run under the invariant-auditing shim.
    pub audit: bool,
    /// Geometry the trace was routed against.
    pub geometry: DramGeometry,
}

impl CkptFingerprint {
    /// The fingerprint of `cfg`.
    pub fn of(cfg: &FleetConfig) -> Self {
        CkptFingerprint {
            defense: cfg.defense.spec_string(),
            policy: cfg.policy.name().to_owned(),
            generation: cfg.system.generation.name().to_owned(),
            audit: cfg.audit,
            geometry: cfg.system.geometry,
        }
    }

    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("defense", JsonValue::Str(self.defense.clone())),
            ("policy", JsonValue::Str(self.policy.clone())),
            ("generation", JsonValue::Str(self.generation.clone())),
            ("audit", JsonValue::Bool(self.audit)),
            ("channels", JsonValue::U64(u64::from(self.geometry.channels))),
            ("ranks", JsonValue::U64(u64::from(self.geometry.ranks_per_channel))),
            ("banks", JsonValue::U64(u64::from(self.geometry.banks_per_rank))),
            ("rows", JsonValue::U64(u64::from(self.geometry.rows_per_bank))),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let audit = match v.get("audit") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err("missing or non-boolean field `audit`".to_owned()),
        };
        Ok(CkptFingerprint {
            defense: str_field(v, "defense")?.to_owned(),
            policy: str_field(v, "policy")?.to_owned(),
            generation: str_field(v, "generation")?.to_owned(),
            audit,
            geometry: DramGeometry {
                channels: narrow_field(v, "channels")?,
                ranks_per_channel: narrow_field(v, "ranks")?,
                banks_per_rank: narrow_field(v, "banks")?,
                rows_per_bank: narrow_field(v, "rows")?,
            },
        })
    }

    /// Rejects a restore whose run configuration (`expected`) differs from
    /// this checkpointed fingerprint, naming the first differing field.
    ///
    /// # Errors
    ///
    /// [`FleetError::ConfigMismatch`].
    pub fn check_against(&self, expected: &CkptFingerprint) -> Result<(), FleetError> {
        let mismatch = |field, expected: &dyn fmt::Display, found: &dyn fmt::Display| {
            Err(FleetError::ConfigMismatch {
                field,
                expected: expected.to_string(),
                found: found.to_string(),
            })
        };
        if self.defense != expected.defense {
            return mismatch("defense", &expected.defense, &self.defense);
        }
        if self.policy != expected.policy {
            return mismatch("policy", &expected.policy, &self.policy);
        }
        if self.generation != expected.generation {
            return mismatch("generation", &expected.generation, &self.generation);
        }
        if self.audit != expected.audit {
            return mismatch("audit", &expected.audit, &self.audit);
        }
        let g = &self.geometry;
        let e = &expected.geometry;
        if g.channels != e.channels {
            return mismatch("channels", &e.channels, &g.channels);
        }
        if g.ranks_per_channel != e.ranks_per_channel {
            return mismatch("ranks", &e.ranks_per_channel, &g.ranks_per_channel);
        }
        if g.banks_per_rank != e.banks_per_rank {
            return mismatch("banks", &e.banks_per_rank, &g.banks_per_rank);
        }
        if g.rows_per_bank != e.rows_per_bank {
            return mismatch("rows", &e.rows_per_bank, &g.rows_per_bank);
        }
        Ok(())
    }
}

/// A parsed fleet checkpoint: where the run was in the trace, the config
/// identity it ran under, and the full dynamic state of the sharded system
/// at that point.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    /// Name stamped into the trace this checkpoint belongs to.
    pub trace: String,
    /// Trace records fully executed when the checkpoint was taken.
    pub accesses_done: u64,
    /// The config fingerprint of the run that wrote the checkpoint.
    pub config: CkptFingerprint,
    /// The front end's clock when the checkpoint was taken.
    clock: u64,
    /// Accesses the front end had routed.
    routed: u64,
    /// Every channel shard's parsed state, in channel order.
    shards: Vec<JsonValue>,
}

impl FleetCheckpoint {
    /// Replays the checkpointed state into a freshly built system of the
    /// same configuration.
    ///
    /// # Errors
    ///
    /// Propagates any shard-level mismatch; on error the system may be
    /// partially restored and must be discarded.
    pub fn restore_into(&self, system: &mut SystemController) -> Result<(), CkptError> {
        system.restore(self.clock, self.routed, &self.shards)
    }
}

/// The CRC32C of one checkpoint body line. The line and its newline are
/// folded into the running whole-body CRC `body` as well, so the body CRC
/// costs no second pass over the bytes.
fn line_crc(line: &[u8], body: &mut u32) -> u32 {
    let mut d = Crc32c::new();
    d.update(line);
    let crc = d.finish();
    d.update(b"\n");
    *body = crc32c_combine(*body, d.finish(), line.len() as u64 + 1);
    crc
}

/// Writes a `fleetckpt.v2` checkpoint atomically (temp sibling + rename, so
/// a crash mid-write leaves the previous checkpoint intact) through the
/// given filesystem.
///
/// The rendered file is a JSONL document: a header line carrying the trace
/// identity, progress, and `fingerprint`; one line per channel shard; and a
/// footer line with a CRC32C per body line plus one over the whole body, so
/// any later bit rot or truncation is detected at read time.
///
/// The file is rendered into one buffer: the shard lines are rendered
/// straight after the header ([`SystemController::snapshot_into`], one
/// bank's defense tree at a time) and framed where they lie, in one CRC
/// pass; the buffer goes to the filesystem in one write.
///
/// # Errors
///
/// [`FleetError::Snapshot`] when the system refuses to snapshot (oracle,
/// fault plan, command log, telemetry tap, uncheckpointable defense);
/// [`FleetError::CkptIo`] on filesystem failure.
pub fn write_fleet_checkpoint(
    fs: &dyn Vfs,
    path: &Path,
    trace_name: &str,
    accesses_done: u64,
    system: &SystemController,
    fingerprint: &CkptFingerprint,
) -> Result<(), FleetError> {
    let mut text = String::new();
    obj(vec![
        ("schema", JsonValue::Str(FLEET_CKPT_SCHEMA.to_owned())),
        ("trace", JsonValue::Str(trace_name.to_owned())),
        ("accesses_done", JsonValue::U64(accesses_done)),
        ("clock", JsonValue::U64(system.clock())),
        ("routed", JsonValue::U64(system.routed())),
        ("channels", JsonValue::U64(system.shards().len() as u64)),
        ("config", fingerprint.to_json()),
    ])
    .render_into(&mut text);
    let mut line_ends = vec![text.len()];
    text.push('\n');
    line_ends
        .extend(system.snapshot_into(&mut text).map_err(|source| FleetError::Snapshot { source })?);
    let (mut start, mut body) = (0, 0);
    let line_crcs = line_ends
        .iter()
        .map(|&end| {
            let crc = line_crc(&text.as_bytes()[start..end], &mut body);
            start = end + 1;
            JsonValue::U64(u64::from(crc))
        })
        .collect();
    obj(vec![
        ("schema", JsonValue::Str(FLEET_CKPT_FOOTER_SCHEMA.to_owned())),
        ("lines", JsonValue::U64(line_ends.len() as u64)),
        ("crc32c", JsonValue::U64(u64::from(body))),
        ("line_crcs", JsonValue::Arr(line_crcs)),
    ])
    .render_into(&mut text);
    text.push('\n');
    let tmp = path.with_extension("ckpt.tmp");
    let io = |e: std::io::Error| FleetError::CkptIo { path: path.to_path_buf(), source: e };
    {
        let mut f = fs.create(&tmp).map_err(io)?;
        f.write_all(text.as_bytes()).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    fs.rename(&tmp, path).map_err(io)
}

/// Reads and validates a fleet checkpoint file through the given
/// filesystem.
///
/// The file must be `fleetckpt.v2` with an intact integrity footer: the
/// whole-body CRC and every per-line CRC are verified **before** any line
/// is parsed, so bit rot, torn writes, and truncation surface as
/// [`FleetError::CkptCorrupt`] naming the damaged line — never as a
/// half-plausible parse. Any other schema tag, including the retired
/// `fleetckpt.v1`, is [`FleetError::CkptSchema`].
///
/// # Errors
///
/// [`FleetError::CkptIo`] on filesystem failure, [`FleetError::CkptSchema`]
/// for an unknown schema tag, [`FleetError::CkptCorrupt`] for a failed CRC
/// frame or structural damage.
pub fn read_fleet_checkpoint(fs: &dyn Vfs, path: &Path) -> Result<FleetCheckpoint, FleetError> {
    let text = fs
        .read_to_string(path)
        .map_err(|e| FleetError::CkptIo { path: path.to_path_buf(), source: e })?;
    let corrupt = |detail: String| FleetError::CkptCorrupt { path: path.to_path_buf(), detail };
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(corrupt("empty checkpoint file".to_owned()));
    }
    let header_json = json::parse(lines[0]).map_err(|e| corrupt(format!("header: {e}")))?;
    let schema = str_field(&header_json, "schema").map_err(&corrupt)?;
    if schema != FLEET_CKPT_SCHEMA {
        return Err(FleetError::CkptSchema { path: path.to_path_buf(), found: schema.to_owned() });
    }
    // Verify the footer before believing anything else.
    let footer_line = lines.pop().ok_or_else(|| corrupt("missing footer".to_owned()))?;
    let footer = json::parse(footer_line).map_err(|e| corrupt(format!("footer: {e}")))?;
    if str_field(&footer, "schema").map_err(&corrupt)? != FLEET_CKPT_FOOTER_SCHEMA {
        return Err(corrupt("last line is not an integrity footer".to_owned()));
    }
    if u64_field(&footer, "lines").map_err(&corrupt)? != lines.len() as u64 {
        return Err(corrupt(format!(
            "footer promises {} body line(s), found {}",
            u64_field(&footer, "lines").map_err(&corrupt)?,
            lines.len()
        )));
    }
    let line_crcs = footer
        .get("line_crcs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| corrupt("footer lacks a `line_crcs` array".to_owned()))?;
    if line_crcs.len() != lines.len() {
        return Err(corrupt(format!(
            "footer carries {} line crc(s) for {} line(s)",
            line_crcs.len(),
            lines.len()
        )));
    }
    let mut body = 0;
    for (i, (line, stored)) in lines.iter().zip(line_crcs).enumerate() {
        let stored = stored.as_u64().ok_or_else(|| corrupt("non-integer line crc".to_owned()))?;
        let computed = u64::from(line_crc(line.as_bytes(), &mut body));
        if stored != computed {
            return Err(corrupt(format!(
                "line {i}: crc32c mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
    }
    let stored_body = u64_field(&footer, "crc32c").map_err(&corrupt)?;
    let computed_body = u64::from(body);
    if stored_body != computed_body {
        return Err(corrupt(format!(
            "body crc32c mismatch (stored {stored_body:#010x}, computed {computed_body:#010x})"
        )));
    }
    let channels = u64_field(&header_json, "channels").map_err(&corrupt)?;
    let shards = lines[1..]
        .iter()
        .enumerate()
        .map(|(i, line)| json::parse(line).map_err(|e| corrupt(format!("shard line {i}: {e}"))))
        .collect::<Result<Vec<_>, FleetError>>()?;
    if shards.len() as u64 != channels {
        return Err(corrupt(format!(
            "header promises {channels} channel(s), found {} shard line(s)",
            shards.len()
        )));
    }
    let config = header_json
        .get("config")
        .ok_or_else(|| corrupt("header lacks a `config` fingerprint".to_owned()))?;
    let config = CkptFingerprint::from_json(config).map_err(&corrupt)?;
    Ok(FleetCheckpoint {
        trace: str_field(&header_json, "trace").map_err(&corrupt)?.to_owned(),
        accesses_done: u64_field(&header_json, "accesses_done").map_err(&corrupt)?,
        config,
        clock: u64_field(&header_json, "clock").map_err(&corrupt)?,
        routed: u64_field(&header_json, "routed").map_err(&corrupt)?,
        shards,
    })
}

/// Streams exactly `n` accesses from `reader` through the lanes of the
/// sharded pipeline: the router rides the calling thread and runs batches
/// whenever a ring is full, and `threads` workers run the rest. The same
/// streaming core as [`run_system_sharded`](crate::run_system_sharded),
/// minus the workload factory: the reader IS the stream.
///
/// On a mid-segment failure (trace corruption, routing rejection) the
/// rings close, the batches already queued run, and the typed error
/// propagates — the system is left partially advanced and must be rolled
/// back by the caller before retrying.
fn stream_segment(
    system: &mut SystemController,
    reader: &mut TraceReader,
    n: u64,
    threads: usize,
    batch: usize,
) -> Result<(), FleetError> {
    sharded::stream(system, n, threads, batch, |router| {
        let access = reader
            .try_next()
            .map_err(|source| FleetError::TraceStream { position: reader.position(), source })?;
        router
            .route_one(&access)
            .map_err(|source| FleetError::Route { position: reader.position(), source })
    })
}

/// Configuration of one fleet replay.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Controller configuration; its geometry must match the trace header.
    /// Must carry no fault oracle when checkpointing (snapshots refuse it).
    pub system: McConfig,
    /// Address-mapping policy of the routing front end.
    pub policy: MappingPolicy,
    /// Defense instantiated per bank.
    pub defense: DefenseSpec,
    /// Wrap every defense in the invariant-auditing shim.
    pub audit: bool,
    /// Worker threads running the channel shards' batches. The router is
    /// one more thread, and it runs batches too whenever a ring is full.
    pub threads: usize,
    /// Stamped accesses per SPSC batch.
    pub batch: usize,
    /// Accesses per streaming segment; the pipeline quiesces and a
    /// checkpoint is written after each.
    pub segment: u64,
    /// Checkpoint file ([`run_fleet`]) or rotation base path
    /// ([`run_fleet_supervised`], which appends `.g<N>` slot suffixes).
    /// When the file already exists, the run **resumes** from it instead of
    /// starting over.
    pub checkpoint: Option<PathBuf>,
    /// Stop (after checkpointing) once this many trace records have been
    /// executed — the kill switch the resume test and CI smoke use.
    pub stop_after: Option<u64>,
    /// Filesystem all trace and checkpoint I/O flows through; `None` means
    /// the real one. The chaos harness plants faultsim's fallible shim
    /// here.
    pub fs: Option<Arc<dyn Vfs>>,
}

impl FleetConfig {
    /// A paper-geometry replay with the given defense: micro2020 system
    /// (no oracle — checkpoints refuse one), bank-interleaved routing,
    /// 4 workers, 64-access batches, 1M-access segments.
    pub fn micro2020(defense: DefenseSpec) -> Self {
        FleetConfig {
            system: McConfig::micro2020_no_oracle(),
            policy: MappingPolicy::BankInterleaved,
            defense,
            audit: false,
            threads: 4,
            batch: 64,
            segment: 1_000_000,
            checkpoint: None,
            stop_after: None,
            fs: None,
        }
    }

    /// The filesystem this run's I/O flows through.
    fn vfs(&self) -> Arc<dyn Vfs> {
        self.fs.clone().unwrap_or_else(real_fs)
    }

    fn build_system(&self) -> SystemController {
        McBuilder::new(self.system.clone())
            .mapping(self.policy)
            .defenses(&self.defense)
            .audit(self.audit)
            .build_system()
    }
}

/// Progress report delivered to the [`run_fleet`] callback after every
/// segment (post-checkpoint, so a consumer that dies mid-callback loses
/// nothing).
#[derive(Debug, Clone)]
pub struct FleetProgress {
    /// Trace records executed so far (across resumes).
    pub accesses_done: u64,
    /// Total records this run will execute (respects `stop_after`).
    pub goal: u64,
    /// Records stamped into the trace header.
    pub trace_len: u64,
    /// Simulated time (ps) of the routing front end.
    pub clock: u64,
    /// Cumulative per-channel and merged counters.
    pub stats: SystemStats,
}

/// Result of a fleet replay.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Final cumulative statistics.
    pub stats: SystemStats,
    /// Trace records executed when the run ended.
    pub accesses_done: u64,
    /// Records stamped into the trace header.
    pub trace_len: u64,
    /// Set when the run resumed from an existing checkpoint, to the record
    /// count it resumed at.
    pub resumed_from: Option<u64>,
    /// Streaming segments executed by **this** invocation.
    pub segments: u64,
}

/// Streams `trace` through a sharded system in checkpointed segments,
/// invoking `on_segment` after each. See the module docs for the memory
/// and bit-identity contracts.
///
/// # Errors
///
/// Every failure is a typed [`FleetError`]: an unreadable or geometry-
/// mismatched trace, mid-stream corruption (a chunk whose CRC frame fails
/// is [`FleetError::TraceStream`] — never a silent wrong replay), a
/// corrupt, foreign, or config-mismatched checkpoint, and checkpoint write
/// failures. A run that resumes from a checkpoint whose fingerprint
/// disagrees with this configuration fails with
/// [`FleetError::ConfigMismatch`] naming the differing field.
///
/// # Panics
///
/// Panics if `threads`, `batch`, or `segment` is zero.
pub fn run_fleet(
    cfg: &FleetConfig,
    trace: &Path,
    mut on_segment: impl FnMut(&FleetProgress),
) -> Result<FleetReport, FleetError> {
    assert!(cfg.threads > 0, "need at least one worker thread");
    assert!(cfg.batch > 0, "batch of 0 dispatches nothing");
    assert!(cfg.segment > 0, "segment of 0 makes no progress");
    let fs = cfg.vfs();
    let mut reader = TraceReader::open_for_on(fs.clone(), trace, &cfg.system.geometry)
        .map_err(|source| FleetError::Trace { path: trace.to_path_buf(), source })?;
    let trace_len = reader.len();
    let fingerprint = CkptFingerprint::of(cfg);
    let mut system = cfg.build_system();
    let mut done = 0u64;
    let mut resumed_from = None;
    if let Some(path) = &cfg.checkpoint {
        if fs.exists(path) {
            let ckpt = read_fleet_checkpoint(fs.as_ref(), path)?;
            check_checkpoint(&ckpt, &reader.name(), trace_len, &fingerprint)?;
            ckpt.restore_into(&mut system).map_err(|source| FleetError::Restore { source })?;
            reader
                .skip_to(ckpt.accesses_done)
                .map_err(|source| FleetError::Trace { path: trace.to_path_buf(), source })?;
            done = ckpt.accesses_done;
            resumed_from = Some(done);
        }
    }
    let goal = cfg.stop_after.map_or(trace_len, |s| s.min(trace_len)).max(done);
    let mut segments = 0u64;
    while done < goal {
        let n = cfg.segment.min(goal - done);
        stream_segment(&mut system, &mut reader, n, cfg.threads, cfg.batch)?;
        done += n;
        segments += 1;
        if let Some(path) = &cfg.checkpoint {
            write_fleet_checkpoint(fs.as_ref(), path, &reader.name(), done, &system, &fingerprint)?;
        }
        let progress = FleetProgress {
            accesses_done: done,
            goal,
            trace_len,
            clock: system.clock(),
            stats: system.finish(),
        };
        on_segment(&progress);
    }
    Ok(FleetReport {
        stats: system.finish(),
        accesses_done: done,
        trace_len,
        resumed_from,
        segments,
    })
}

/// The identity/bounds/fingerprint gauntlet every checkpoint passes before
/// its state is believed.
fn check_checkpoint(
    ckpt: &FleetCheckpoint,
    trace_name: &str,
    trace_len: u64,
    fingerprint: &CkptFingerprint,
) -> Result<(), FleetError> {
    if ckpt.trace != trace_name {
        return Err(FleetError::WrongTrace {
            expected: trace_name.to_owned(),
            found: ckpt.trace.clone(),
        });
    }
    if ckpt.accesses_done > trace_len {
        return Err(FleetError::BeyondTrace { claimed: ckpt.accesses_done, trace_len });
    }
    ckpt.config.check_against(fingerprint)
}

/// Rotating checkpoint storage: `keep` generation slots (`<base>.g0` ..
/// `<base>.g{keep-1}`), written round-robin so the newest verified
/// generation always survives the next write, with corrupt slots
/// **quarantined aside** (renamed to `<slot>.quarantined`) rather than
/// deleted — the evidence is preserved and a re-run cannot trip over it.
#[derive(Debug)]
pub struct CheckpointStore {
    fs: Arc<dyn Vfs>,
    base: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// A store of `keep` slots rooted at `base`. `keep >= 2` is required:
    /// a single slot would be overwritten in place, so a torn write could
    /// destroy the only good generation.
    ///
    /// # Panics
    ///
    /// Panics if `keep < 2`.
    pub fn new(fs: Arc<dyn Vfs>, base: PathBuf, keep: usize) -> Self {
        assert!(keep >= 2, "rotation needs at least two generations to be crash-safe");
        CheckpointStore { fs, base, keep }
    }

    /// The slot paths, in slot order.
    pub fn slots(&self) -> Vec<PathBuf> {
        (0..self.keep).map(|i| self.slot(i)).collect()
    }

    fn slot(&self, i: usize) -> PathBuf {
        let mut s = self.base.as_os_str().to_owned();
        s.push(format!(".g{i}"));
        PathBuf::from(s)
    }

    fn quarantine_path(slot: &Path) -> PathBuf {
        let mut s = slot.as_os_str().to_owned();
        s.push(".quarantined");
        PathBuf::from(s)
    }

    /// Moves a damaged slot aside, returning where it went. Quarantining
    /// never deletes: the corrupt bytes stay on disk for post-mortems.
    fn quarantine(&self, slot: &Path) -> PathBuf {
        let dest = Self::quarantine_path(slot);
        let _ = self.fs.remove_file(&dest); // clobber an older quarantine
        let _ = self.fs.rename(slot, &dest);
        dest
    }

    /// Reads every slot, quarantines the corrupt ones, and returns the
    /// newest valid checkpoint (highest `accesses_done`) with its slot
    /// path, plus the list of newly quarantined files.
    pub fn latest(&self) -> (Option<(PathBuf, FleetCheckpoint)>, Vec<PathBuf>) {
        let mut best: Option<(PathBuf, FleetCheckpoint)> = None;
        let mut quarantined = Vec::new();
        for slot in self.slots() {
            if !self.fs.exists(&slot) {
                continue;
            }
            match read_fleet_checkpoint(self.fs.as_ref(), &slot) {
                Ok(ckpt) => {
                    if best.as_ref().is_none_or(|(_, b)| ckpt.accesses_done > b.accesses_done) {
                        best = Some((slot, ckpt));
                    }
                }
                Err(_) => quarantined.push(self.quarantine(&slot)),
            }
        }
        (best, quarantined)
    }

    /// The slot the next checkpoint should be written to: the one holding
    /// the *least* recent data (or nothing), so the newest generation is
    /// never the one being overwritten.
    pub fn next_slot(&self) -> PathBuf {
        let mut choice: Option<(PathBuf, Option<u64>)> = None;
        for slot in self.slots() {
            let age = if self.fs.exists(&slot) {
                read_fleet_checkpoint(self.fs.as_ref(), &slot).ok().map(|c| c.accesses_done)
            } else {
                None
            };
            let older = match (&choice, &age) {
                (None, _) => true,
                (Some((_, None)), _) => false, // already found an empty slot
                (Some(_), None) => true,       // empty beats any data
                (Some((_, Some(b))), Some(a)) => a < b,
            };
            if older {
                choice = Some((slot, age));
            }
        }
        choice.expect("keep >= 2 slots").0
    }
}

/// Configuration of a supervised fleet run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The underlying replay configuration. `fleet.checkpoint` is the
    /// rotation **base path** (slots are `<base>.g<N>`) and must be set.
    pub fleet: FleetConfig,
    /// Checkpoint generations to rotate across (minimum 2).
    pub keep: usize,
    /// Retry budget per segment (and per checkpoint write); exceeding it is
    /// [`FleetError::RetriesExhausted`].
    pub max_retries: u32,
    /// Base of the deterministic exponential backoff. Backoff is
    /// **virtual**: recorded in the report and telemetry, never slept, so
    /// supervised runs stay exactly reproducible and fast.
    pub backoff_ns: u64,
    /// Read back and CRC-verify every checkpoint immediately after writing
    /// it (catches torn writes at write time instead of at the next
    /// resume).
    pub verify_writes: bool,
}

impl SupervisorConfig {
    /// Defaults: 2 generations, 3 retries, 1 ms base backoff, write
    /// verification on.
    pub fn new(fleet: FleetConfig) -> Self {
        SupervisorConfig {
            fleet,
            keep: 2,
            max_retries: 3,
            backoff_ns: 1_000_000,
            verify_writes: true,
        }
    }
}

/// Result of a supervised fleet run: the replay report plus the degraded-
/// mode accounting.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// The underlying replay's report.
    pub report: FleetReport,
    /// Segment attempts and checkpoint rewrites beyond the first.
    pub retries: u64,
    /// Times the run was rolled back to an earlier verified checkpoint
    /// (including a resume that had to discard a corrupt newest
    /// generation).
    pub rollbacks: u64,
    /// Failures whose root cause was a CRC-detected corruption (trace
    /// chunk or checkpoint frame).
    pub corrupt_chunks: u64,
    /// Files moved aside as corrupt, in quarantine order.
    pub quarantined: Vec<PathBuf>,
    /// Total virtual backoff accumulated (never slept).
    pub backoff_ns: u64,
}

/// [`run_fleet`] wrapped in the recovery supervisor: rotating verified
/// checkpoints, quarantine-aside for corrupt files, bounded deterministic
/// retry with virtual backoff, and rollback to the newest verified
/// generation on segment failure. Degraded-mode accounting is reported and
/// (when `sink` is given) emitted as `fleet.retries` / `fleet.rollbacks` /
/// `fleet.corrupt_chunks` / `fleet.quarantined` counters.
///
/// The contract the chaos harness asserts: under any injected I/O fault
/// schedule, a supervised run either completes with statistics
/// **bit-identical** to a fault-free run, or fails with a typed
/// [`FleetError`] — it never completes with silently wrong numbers.
///
/// # Errors
///
/// [`FleetError::RetriesExhausted`] once a segment (or checkpoint write)
/// fails more than `max_retries` times; otherwise the same identity and
/// configuration errors as [`run_fleet`].
///
/// # Panics
///
/// Panics if `fleet.checkpoint` is `None`, `keep < 2`, or any of the
/// zero-value [`run_fleet`] panics apply.
pub fn run_fleet_supervised(
    cfg: &SupervisorConfig,
    trace: &Path,
    mut sink: Option<SharedSink>,
    mut on_segment: impl FnMut(&FleetProgress),
) -> Result<SupervisorReport, FleetError> {
    let fleet = &cfg.fleet;
    assert!(fleet.threads > 0, "need at least one worker thread");
    assert!(fleet.batch > 0, "batch of 0 dispatches nothing");
    assert!(fleet.segment > 0, "segment of 0 makes no progress");
    let base =
        fleet.checkpoint.clone().expect("supervised runs need a checkpoint base path for rotation");
    let fs = fleet.vfs();
    let store = CheckpointStore::new(fs.clone(), base, cfg.keep);
    let fingerprint = CkptFingerprint::of(fleet);
    let mut reader = TraceReader::open_for_on(fs.clone(), trace, &fleet.system.geometry)
        .map_err(|source| FleetError::Trace { path: trace.to_path_buf(), source })?;
    let trace_len = reader.len();
    let trace_name = reader.name();

    let mut retries = 0u64;
    let mut rollbacks = 0u64;
    let mut corrupt_chunks = 0u64;
    let mut backoff_ns = 0u64;
    let mut quarantined: Vec<PathBuf> = Vec::new();
    let bump = |sink: &mut Option<SharedSink>, name: &'static str| {
        if let Some(s) = sink.as_mut() {
            s.counter(name, 1);
        }
    };

    // Restores the newest verified generation (quarantining damaged slots)
    // into a freshly built system; returns the record count to resume from.
    let restore_latest = |reader: &mut TraceReader,
                          quarantined: &mut Vec<PathBuf>|
     -> Result<(SystemController, u64), FleetError> {
        let (best, newly_quarantined) = store.latest();
        quarantined.extend(newly_quarantined);
        let mut system = fleet.build_system();
        let done = match best {
            Some((_, ckpt)) => {
                check_checkpoint(&ckpt, &trace_name, trace_len, &fingerprint)?;
                ckpt.restore_into(&mut system).map_err(|source| FleetError::Restore { source })?;
                ckpt.accesses_done
            }
            None => 0,
        };
        reader
            .skip_to(done)
            .map_err(|source| FleetError::Trace { path: trace.to_path_buf(), source })?;
        Ok((system, done))
    };

    let had_quarantine_at_start;
    let (mut system, mut done) = {
        let before = quarantined.len();
        let r = restore_latest(&mut reader, &mut quarantined)?;
        had_quarantine_at_start = quarantined.len() > before;
        r
    };
    if had_quarantine_at_start {
        // A damaged newest generation was discarded: whatever state it held
        // is gone and the run falls back to an older (or empty) one.
        rollbacks += 1;
        bump(&mut sink, "fleet.rollbacks");
        for _ in 0..quarantined.len() {
            bump(&mut sink, "fleet.quarantined");
        }
    }
    let resumed_from = (done > 0).then_some(done);

    let goal = fleet.stop_after.map_or(trace_len, |s| s.min(trace_len)).max(done);
    let mut segments = 0u64;
    while done < goal {
        let mut n = fleet.segment.min(goal - done);
        // --- run the segment, rolling back and retrying on failure ---
        let mut attempt = 0u32;
        loop {
            match stream_segment(&mut system, &mut reader, n, fleet.threads, fleet.batch) {
                Ok(()) => break,
                Err(e) => {
                    if e.is_corruption() {
                        corrupt_chunks += 1;
                        bump(&mut sink, "fleet.corrupt_chunks");
                    }
                    attempt += 1;
                    if attempt > cfg.max_retries {
                        return Err(FleetError::RetriesExhausted {
                            segment_start: done,
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    retries += 1;
                    bump(&mut sink, "fleet.retries");
                    backoff_ns += cfg.backoff_ns << (attempt - 1);
                    let before = quarantined.len();
                    let (sys, restored) = restore_latest(&mut reader, &mut quarantined)?;
                    for _ in before..quarantined.len() {
                        bump(&mut sink, "fleet.quarantined");
                    }
                    system = sys;
                    done = restored;
                    rollbacks += 1;
                    bump(&mut sink, "fleet.rollbacks");
                    n = fleet.segment.min(goal - done);
                }
            }
        }
        done += n;
        segments += 1;
        // --- persist, verify, and quarantine-retry the checkpoint ---
        let mut write_attempt = 0u32;
        loop {
            let slot = store.next_slot();
            let outcome = write_fleet_checkpoint(
                fs.as_ref(),
                &slot,
                &trace_name,
                done,
                &system,
                &fingerprint,
            )
            .and_then(|()| {
                if !cfg.verify_writes {
                    return Ok(());
                }
                let back = read_fleet_checkpoint(fs.as_ref(), &slot)?;
                if back.accesses_done == done {
                    Ok(())
                } else {
                    Err(FleetError::CkptCorrupt {
                        path: slot.clone(),
                        detail: format!(
                            "read-back claims {} records done, just wrote {done}",
                            back.accesses_done
                        ),
                    })
                }
            });
            match outcome {
                Ok(()) => break,
                Err(e) => {
                    if e.is_corruption() {
                        corrupt_chunks += 1;
                        bump(&mut sink, "fleet.corrupt_chunks");
                        if fs.exists(&slot) {
                            quarantined.push(store.quarantine(&slot));
                            bump(&mut sink, "fleet.quarantined");
                        }
                    }
                    write_attempt += 1;
                    if write_attempt > cfg.max_retries {
                        return Err(FleetError::RetriesExhausted {
                            segment_start: done,
                            attempts: write_attempt,
                            last: Box::new(e),
                        });
                    }
                    retries += 1;
                    bump(&mut sink, "fleet.retries");
                    backoff_ns += cfg.backoff_ns << (write_attempt - 1);
                }
            }
        }
        let progress = FleetProgress {
            accesses_done: done,
            goal,
            trace_len,
            clock: system.clock(),
            stats: system.finish(),
        };
        on_segment(&progress);
    }
    Ok(SupervisorReport {
        report: FleetReport {
            stats: system.finish(),
            accesses_done: done,
            trace_len,
            resumed_from,
            segments,
        },
        retries,
        rollbacks,
        corrupt_chunks,
        quarantined,
        backoff_ns,
    })
}

/// splitmix64: derives decorrelated per-client seeds from one fleet seed
/// without pulling a PRNG dependency into this crate.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the fleet's client population: every 16th client is a throttled
/// 4-sided row-hammer attacker, the rest are SPEC-like proxies cycling
/// through every preset (the streaming presets — libquantum, lbm, RADIX —
/// give the mix its sequential-walk tenants, the rest its Zipf tenants).
fn fleet_clients(
    geometry: &DramGeometry,
    clients: u16,
    seed: u64,
) -> Vec<Box<dyn Workload + Send>> {
    let banks = geometry.total_banks() as u16;
    let rows = geometry.rows_per_bank;
    let presets = SpecPreset::all();
    (0..clients)
        .map(|i| {
            let client_seed = splitmix64(seed ^ (u64::from(i) << 1));
            if i % 16 == 0 {
                // Spread attackers' victims over the row space; throttle to
                // one ACT per ~50 ns so no single tenant saturates the bus.
                let victim = 8 + (client_seed as u32 % rows.saturating_sub(16).max(1));
                let attack = StripedNSided::new(victim, 4, banks, rows);
                Box::new(RateLimited::new(attack, 50_000 + (client_seed % 8) * 10_000))
                    as Box<dyn Workload + Send>
            } else {
                let preset = presets[usize::from(i) % presets.len()];
                Box::new(ProxyWorkload::from_preset(preset, banks, rows, client_seed))
            }
        })
        .collect()
}

/// Synthesizes a multi-tenant RHT4 trace: `clients` independent tenant
/// streams merged by arrival time (a k-way heap merge, each stream keeping
/// its own clock) and recorded incrementally — memory stays O(clients +
/// chunk) no matter how many records are written. Each record's `stream` id
/// is its client index, so per-tenant latency attribution survives replay.
///
/// # Errors
///
/// Propagates trace-writer I/O errors.
///
/// # Panics
///
/// Panics if `clients` is zero.
pub fn synth_fleet_trace(
    path: &Path,
    name: &str,
    geometry: &DramGeometry,
    clients: u16,
    accesses: u64,
    seed: u64,
) -> std::io::Result<()> {
    assert!(clients > 0, "need at least one client");
    let mut streams = fleet_clients(geometry, clients, seed);
    let mut writer = TraceWriter::create(path, name, *geometry)?;
    // Heap of (next arrival, client); ties break on the lower client index,
    // so synthesis is deterministic.
    let mut heap: BinaryHeap<Reverse<(u64, u16)>> = BinaryHeap::with_capacity(streams.len());
    let mut pending: Vec<Access> = Vec::with_capacity(streams.len());
    for (i, s) in streams.iter_mut().enumerate() {
        let a = s.next_access();
        heap.push(Reverse((a.gap, i as u16)));
        pending.push(a);
    }
    let mut last_emitted = 0u64;
    for _ in 0..accesses {
        let Reverse((at, idx)) = heap.pop().expect("heap holds one entry per client");
        let access = pending[usize::from(idx)];
        let next = streams[usize::from(idx)].next_access();
        pending[usize::from(idx)] = next;
        heap.push(Reverse((at.saturating_add(next.gap), idx)));
        writer.push(&Access { gap: at.saturating_sub(last_emitted), stream: idx, ..access })?;
        last_emitted = at;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("graphene_repro_fleet");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed),
            name
        ))
    }

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::micro2020(DefenseSpec::Graphene { t_rh: 2_000, k: 2 });
        cfg.system.geometry = DramGeometry {
            channels: 4,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 4_096,
        };
        cfg.threads = 2;
        cfg.batch = 32;
        cfg.segment = 5_000;
        cfg
    }

    fn small_trace(cfg: &FleetConfig, accesses: u64) -> PathBuf {
        let path = tmp("fleet.rht4");
        synth_fleet_trace(&path, "fleet-test", &cfg.system.geometry, 48, accesses, 7).unwrap();
        path
    }

    /// A defense whose 50th activation panics, as a failed audit
    /// certificate would.
    struct PanicsOnAct50(u32);

    impl mitigations::RowHammerDefense for PanicsOnAct50 {
        fn name(&self) -> String {
            "PanicsOnAct50".to_owned()
        }

        fn on_activation(
            &mut self,
            _row: dram_model::RowId,
            _now: dram_model::Picoseconds,
        ) -> Vec<mitigations::RefreshAction> {
            self.0 += 1;
            assert!(self.0 < 50, "defense panics on its 50th ACT");
            Vec::new()
        }

        fn table_bits(&self) -> mitigations::TableBits {
            mitigations::TableBits::default()
        }

        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    #[test]
    fn a_panicking_batch_stops_the_pipeline_and_re_raises_its_panic() {
        // Regression: the panicking batch ended its consumer, the router
        // spun forever on the channel's full ring, and the run never
        // returned. Each run goes on a helper thread so a hang fails the
        // test instead of the whole suite.
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 200_000);
        for workers in [1, 2] {
            let (done, result) = std::sync::mpsc::channel();
            let (cfg, trace) = (cfg.clone(), trace.clone());
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| {
                    let mut system = McBuilder::new(cfg.system.clone())
                        .mapping(cfg.policy)
                        .defenses_with(|_| Box::new(PanicsOnAct50(0)))
                        .build_system();
                    let mut reader =
                        TraceReader::open_for_on(real_fs(), &trace, &cfg.system.geometry).unwrap();
                    stream_segment(&mut system, &mut reader, 200_000, workers, 32)
                });
                let payload = run.expect_err("the defense's panic must reach the caller");
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned());
                done.send(message).unwrap();
            });
            let message = result
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{workers} worker(s): the pipeline hung or panicked"));
            assert_eq!(message.as_deref(), Some("defense panics on its 50th ACT"), "{workers}");
        }
        fs::remove_file(&trace).ok();
    }

    #[test]
    fn synthesized_fleet_mixes_tenants_and_replays_fully() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 12_000);
        let mut segments_seen = 0;
        let report = run_fleet(&cfg, &trace, |p| {
            segments_seen += 1;
            assert!(p.accesses_done <= p.goal);
        })
        .unwrap();
        assert_eq!(report.accesses_done, 12_000);
        assert_eq!(report.segments, 3);
        assert_eq!(segments_seen, 3);
        assert_eq!(report.stats.merged.accesses, 12_000);
        // The interleave reaches every channel and carries many tenants.
        assert!(report.stats.per_channel.iter().all(|s| s.accesses > 0));
        assert!(report.stats.merged.per_stream.iter().filter(|&&(n, _)| n > 0).count() > 16);
        fs::remove_file(&trace).ok();
    }

    #[test]
    fn kill_and_resume_is_bit_identical_to_uninterrupted() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 20_000);
        let uninterrupted = run_fleet(&cfg, &trace, |_| {}).unwrap();

        let ckpt = tmp("fleet.ckpt");
        let mut killed = cfg.clone();
        killed.checkpoint = Some(ckpt.clone());
        killed.stop_after = Some(7_500); // mid-segment kill: a short final segment
        let first = run_fleet(&killed, &trace, |_| {}).unwrap();
        assert_eq!(first.accesses_done, 7_500);
        assert!(first.resumed_from.is_none());

        let mut resumed = killed.clone();
        resumed.stop_after = None;
        let second = run_fleet(&resumed, &trace, |_| {}).unwrap();
        assert_eq!(second.resumed_from, Some(first.accesses_done));
        assert_eq!(second.accesses_done, 20_000);
        assert_eq!(second.stats, uninterrupted.stats, "resume must be bit-identical");
        fs::remove_file(&trace).ok();
        fs::remove_file(&ckpt).ok();
    }

    /// The `fleetckpt.v2` bytes of a small fleet under every scheme it can
    /// checkpoint, pinned by length and CRC32C: any drift in the format
    /// fails here.
    #[test]
    fn golden_checkpoint_bytes_are_pinned() {
        let golden = [
            (DefenseSpec::Graphene { t_rh: 2_000, k: 2 }, true, (392_163, 0x889f_59dc)),
            (DefenseSpec::Graphene { t_rh: 2_000, k: 2 }, false, (296_826, 0x848c_2a34)),
            (DefenseSpec::Comet { t_rh: 2_000 }, false, (77_900, 0x611d_426a)),
            (DefenseSpec::BlockHammer { t_rh: 2_000 }, false, (274_367, 0xc209_1c68)),
            (DefenseSpec::Abacus { t_rh: 2_000, k: 2 }, false, (281_896, 0x755e_90ca)),
            (DefenseSpec::None, false, (8_021, 0xdd5a_acb0)),
        ];
        let trace = small_trace(&small_cfg(), 12_000);
        for (defense, audit, pin) in golden {
            let ckpt = tmp("golden.ckpt");
            let mut cfg = small_cfg();
            cfg.defense = defense;
            cfg.audit = audit;
            cfg.checkpoint = Some(ckpt.clone());
            cfg.stop_after = Some(7_500);
            run_fleet(&cfg, &trace, |_| {}).unwrap();
            let bytes = fs::read(&ckpt).unwrap();
            let found = (bytes.len(), workloads::crc32c(&bytes));
            assert_eq!(found, pin, "{} audit {audit}", defense.spec_string());
            fs::remove_file(&ckpt).ok();
        }
        fs::remove_file(&trace).ok();
    }

    /// A fingerprint whose geometry does not fit its field is damage, not a
    /// smaller configuration: 260 channels must not read back as 4.
    #[test]
    fn fingerprint_geometry_past_its_field_width_is_refused() {
        let text = CkptFingerprint::of(&small_cfg()).to_json().to_string();
        for (field, from, to) in [
            ("channels", "\"channels\":4,", "\"channels\":260,"),
            ("rows", "\"rows\":4096}", "\"rows\":4294967296}"),
        ] {
            assert!(text.contains(from), "{text}");
            let v = json::parse(&text.replace(from, to)).unwrap();
            let err = CkptFingerprint::from_json(&v).unwrap_err();
            assert!(err.contains(&format!("`{field}`")), "{err}");
        }
    }

    #[test]
    fn checkpoint_for_a_different_trace_is_refused() {
        let cfg = small_cfg();
        let trace_a = small_trace(&cfg, 6_000);
        let ckpt = tmp("fleet.ckpt");
        let mut with_ckpt = cfg.clone();
        with_ckpt.checkpoint = Some(ckpt.clone());
        run_fleet(&with_ckpt, &trace_a, |_| {}).unwrap();

        let trace_b = tmp("other.rht4");
        synth_fleet_trace(&trace_b, "other-fleet", &cfg.system.geometry, 8, 1_000, 9).unwrap();
        let err = run_fleet(&with_ckpt, &trace_b, |_| {}).unwrap_err();
        assert!(matches!(err, FleetError::WrongTrace { .. }), "{err:?}");
        assert!(err.to_string().contains("belongs to trace"), "{err}");
        for p in [trace_a, trace_b, ckpt] {
            fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn resume_under_a_different_config_names_the_differing_field() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 6_000);
        let ckpt = tmp("fleet.ckpt");
        let mut with_ckpt = cfg.clone();
        with_ckpt.checkpoint = Some(ckpt.clone());
        run_fleet(&with_ckpt, &trace, |_| {}).unwrap();

        // Same geometry, different defense threshold: the state would
        // restore structurally, so only the fingerprint stands between this
        // and silently wrong statistics.
        let mut different = with_ckpt.clone();
        different.defense = DefenseSpec::Graphene { t_rh: 1_000, k: 2 };
        let err = run_fleet(&different, &trace, |_| {}).unwrap_err();
        match &err {
            FleetError::ConfigMismatch { field, expected, found } => {
                assert_eq!(*field, "defense");
                assert!(expected.contains("1000"), "{expected}");
                assert!(found.contains("2000"), "{found}");
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("`defense`"), "{err}");

        // And a different audit flag is caught the same way.
        let mut audited = with_ckpt.clone();
        audited.audit = true;
        let err = run_fleet(&audited, &trace, |_| {}).unwrap_err();
        assert!(matches!(err, FleetError::ConfigMismatch { field: "audit", .. }), "{err:?}");
        fs::remove_file(&trace).ok();
        fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error_not_a_crash() {
        let fs_ = real_fs();
        let path = tmp("bad.ckpt");
        fs::write(&path, "{\"schema\":\"somethingelse.v9\",\"channels\":0}\n").unwrap();
        let err = read_fleet_checkpoint(fs_.as_ref(), &path).unwrap_err();
        assert!(matches!(err, FleetError::CkptSchema { .. }), "{err:?}");
        assert!(err.to_string().contains("fleetckpt.v2"), "{err}");
        // A header of the retired, fingerprint-less `fleetckpt.v1` schema is
        // refused by its tag, not restored without a config check.
        fs::write(
            &path,
            "{\"schema\":\"fleetckpt.v1\",\"trace\":\"t\",\"accesses_done\":0,\"clock\":0,\
             \"routed\":0,\"channels\":0}\n",
        )
        .unwrap();
        let err = read_fleet_checkpoint(fs_.as_ref(), &path).unwrap_err();
        assert!(matches!(&err, FleetError::CkptSchema { found, .. } if found == "fleetckpt.v1"));
        fs::write(&path, "").unwrap();
        let err = read_fleet_checkpoint(fs_.as_ref(), &path).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_rot_in_a_checkpoint_is_detected_by_its_crc_frames() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 6_000);
        let ckpt = tmp("rot.ckpt");
        let mut with_ckpt = cfg.clone();
        with_ckpt.checkpoint = Some(ckpt.clone());
        run_fleet(&with_ckpt, &trace, |_| {}).unwrap();

        let clean = fs::read(&ckpt).unwrap();
        let fs_ = real_fs();
        assert!(read_fleet_checkpoint(fs_.as_ref(), &ckpt).is_ok());
        // Flip one bit in a handful of positions across the body: each must
        // surface as CkptCorrupt (or a parse-level corruption), never as a
        // silently different checkpoint.
        for target in [10usize, clean.len() / 4, clean.len() / 2, clean.len() * 3 / 4] {
            let mut rotted = clean.clone();
            rotted[target] ^= 0x08;
            fs::write(&ckpt, &rotted).unwrap();
            let err = read_fleet_checkpoint(fs_.as_ref(), &ckpt).unwrap_err();
            assert!(
                matches!(err, FleetError::CkptCorrupt { .. } | FleetError::CkptSchema { .. }),
                "byte {target}: {err:?}"
            );
        }
        // Truncation (a torn write that lost the tail) is caught too.
        fs::write(&ckpt, &clean[..clean.len() - 40]).unwrap();
        let err = read_fleet_checkpoint(fs_.as_ref(), &ckpt).unwrap_err();
        assert!(matches!(err, FleetError::CkptCorrupt { .. }), "{err:?}");
        fs::remove_file(&trace).ok();
        fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn checkpoint_refuses_oracle_armed_systems() {
        let mut cfg = small_cfg();
        cfg.system = McConfig::micro2020(); // carries the ground-truth oracle
        cfg.system.geometry.rows_per_bank = 4_096;
        cfg.checkpoint = Some(tmp("refused.ckpt"));
        let trace = small_trace(&cfg, 6_000);
        let err = run_fleet(&cfg, &trace, |_| {}).unwrap_err();
        assert!(matches!(err, FleetError::Snapshot { .. }), "{err:?}");
        assert!(err.to_string().contains("fault oracle"), "{err}");
        fs::remove_file(&trace).ok();
    }

    #[test]
    fn supervised_run_matches_plain_run_when_nothing_fails() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 12_000);
        let plain = run_fleet(&cfg, &trace, |_| {}).unwrap();
        let mut fleet = cfg.clone();
        fleet.checkpoint = Some(tmp("sup.ckpt"));
        let sup_cfg = SupervisorConfig::new(fleet.clone());
        let sup = run_fleet_supervised(&sup_cfg, &trace, None, |_| {}).unwrap();
        assert_eq!(sup.report.stats, plain.stats);
        assert_eq!(sup.retries, 0);
        assert_eq!(sup.rollbacks, 0);
        assert_eq!(sup.corrupt_chunks, 0);
        assert!(sup.quarantined.is_empty());
        // Rotation left at most `keep` generation slots.
        let store = CheckpointStore::new(real_fs(), fleet.checkpoint.clone().unwrap(), 2);
        let existing = store.slots().iter().filter(|s| s.exists()).count();
        assert!((1..=2).contains(&existing), "found {existing} slots");
        for s in store.slots() {
            fs::remove_file(&s).ok();
        }
        fs::remove_file(&trace).ok();
    }

    #[test]
    fn supervisor_quarantines_a_corrupt_newest_generation_and_rolls_back() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 15_000);
        let reference = run_fleet(&cfg, &trace, |_| {}).unwrap();

        let base = tmp("roll.ckpt");
        let mut fleet = cfg.clone();
        fleet.checkpoint = Some(base.clone());
        fleet.stop_after = Some(10_000);
        let sup_cfg = SupervisorConfig::new(fleet.clone());
        run_fleet_supervised(&sup_cfg, &trace, None, |_| {}).unwrap();

        // Corrupt the newest generation on disk (bit rot in place).
        let store = CheckpointStore::new(real_fs(), base.clone(), 2);
        let (best, _) = store.latest();
        let (newest, ckpt) = best.expect("a checkpoint was written");
        assert_eq!(ckpt.accesses_done, 10_000);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();

        // Resume to completion: the supervisor must quarantine the damaged
        // generation, fall back to the older one, and still converge on the
        // fault-free statistics.
        let mut resumed = sup_cfg.clone();
        resumed.fleet.stop_after = None;
        let sink = SharedSink::new();
        let sup = run_fleet_supervised(&resumed, &trace, Some(sink.clone()), |_| {}).unwrap();
        assert_eq!(sup.rollbacks, 1, "discarding the newest generation is a rollback");
        assert_eq!(sup.quarantined.len(), 1);
        assert!(sup.quarantined[0].to_string_lossy().contains("quarantined"));
        assert!(sup.quarantined[0].exists(), "quarantine preserves the evidence");
        assert!(sup.report.resumed_from.unwrap() < 10_000, "resumed from an older generation");
        assert_eq!(sup.report.stats, reference.stats, "recovery is bit-identical");
        assert_eq!(sink.with(|r| r.counter_value("fleet.rollbacks")), 1);
        assert_eq!(sink.with(|r| r.counter_value("fleet.quarantined")), 1);
        for s in store.slots() {
            fs::remove_file(&s).ok();
        }
        fs::remove_file(&sup.quarantined[0]).ok();
        fs::remove_file(&trace).ok();
    }

    #[test]
    fn checkpoint_store_rotates_without_overwriting_the_newest() {
        let cfg = small_cfg();
        let trace = small_trace(&cfg, 15_000);
        let base = tmp("rot.ckpt");
        let mut fleet = cfg.clone();
        fleet.checkpoint = Some(base.clone());
        let sup_cfg = SupervisorConfig { keep: 3, ..SupervisorConfig::new(fleet) };
        run_fleet_supervised(&sup_cfg, &trace, None, |_| {}).unwrap();
        let store = CheckpointStore::new(real_fs(), base, 3);
        // 3 segments were checkpointed across 3 slots; the newest holds the
        // final count and next_slot would not clobber it.
        let (best, quarantined) = store.latest();
        assert!(quarantined.is_empty());
        let (newest_path, newest) = best.unwrap();
        assert_eq!(newest.accesses_done, 15_000);
        assert_ne!(store.next_slot(), newest_path);
        for s in store.slots() {
            fs::remove_file(&s).ok();
        }
        fs::remove_file(&trace).ok();
    }
}
