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
//! quiesces the pipeline, writes a `fleetckpt.v2` checkpoint (JSONL: a
//! schema-tagged header line, one line per channel shard, and a CRC32C
//! integrity footer, every line read back with [`telemetry::json`]'s typed
//! reads), reports progress, and repeats. A killed run resumes from the
//! last checkpoint via [`TraceReader::skip_to`] plus
//! [`SystemController::restore`], and — because the trace is
//! pre-synthesized and every layer's checkpoint is exact — the resumed run
//! is **bit-identical** to an uninterrupted one at every worker count. The
//! `fleet_replay` integration test pins this with a proptest across 1/2/4
//! workers and arbitrary kill points.
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
//! [`run_fleet_supervised`] adds the recovery layer on the same replay
//! core: checkpoints rotate across two generation slots, corrupt files are
//! **quarantined aside** (renamed, never deleted or overwritten in place),
//! a failed segment rolls back to the newest *verified* checkpoint and
//! retries up to three times, and the degraded-mode accounting (retries,
//! rollbacks, corrupt chunks, quarantined files) comes back in the
//! [`SupervisorReport`]. All file I/O flows through the [`workloads::vfs`]
//! seam, so the `chaos-fleet` harness injects deterministic torn writes,
//! bit rot, and fsync failures under these exact code paths.
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
use dram_model::Generation;
use graphene_core::ConfigError;
use memctrl::{
    CkptError, MappingPolicy, McBuilder, McConfig, McError, SystemController, SystemStats,
};
use telemetry::json::{self, obj, JsonValue};
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
    /// The defense's parameters do not derive for this run's geometry (a
    /// threshold too low for Graphene's counter table, say): refused
    /// before the system is built.
    DefenseConfig {
        /// The defense that failed to derive.
        spec: DefenseSpec,
        /// Why its derivation refused.
        source: ConfigError,
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
            FleetError::DefenseConfig { spec, source } => {
                write!(f, "defense {}: {source}", spec.spec_string())
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
            FleetError::DefenseConfig { source, .. } => Some(source),
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
    /// The supervisor counts these in [`SupervisorReport::corrupt_chunks`].
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
        let JsonValue::Bool(audit) = *v.field("audit")? else {
            return Err("field `audit`: not a boolean".to_owned());
        };
        Ok(CkptFingerprint {
            defense: v.text("defense")?.to_owned(),
            policy: v.text("policy")?.to_owned(),
            generation: v.text("generation")?.to_owned(),
            audit,
            geometry: DramGeometry {
                channels: v.int("channels")?,
                ranks_per_channel: v.int("ranks")?,
                banks_per_rank: v.int("banks")?,
                rows_per_bank: v.int("rows")?,
            },
        })
    }

    /// Every field in header order, named as in the header, with its value
    /// as a mismatch reports it.
    fn fields(&self) -> [(&'static str, String); 8] {
        let g = &self.geometry;
        [
            ("defense", self.defense.clone()),
            ("policy", self.policy.clone()),
            ("generation", self.generation.clone()),
            ("audit", self.audit.to_string()),
            ("channels", g.channels.to_string()),
            ("ranks", g.ranks_per_channel.to_string()),
            ("banks", g.banks_per_rank.to_string()),
            ("rows", g.rows_per_bank.to_string()),
        ]
    }

    /// Rejects a restore whose run configuration (`expected`) differs from
    /// this checkpointed fingerprint, naming the first differing field.
    ///
    /// # Errors
    ///
    /// [`FleetError::ConfigMismatch`].
    pub fn check_against(&self, expected: &CkptFingerprint) -> Result<(), FleetError> {
        match self.fields().into_iter().zip(expected.fields()).find(|((_, f), (_, e))| f != e) {
            Some(((field, found), (_, expected))) => {
                Err(FleetError::ConfigMismatch { field, expected, found })
            }
            None => Ok(()),
        }
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
/// The file is rendered into one buffer: the shard lines are written
/// straight after the header ([`SystemController::snapshot_into`], every
/// defense through its `write_state`, with no JSON tree) and framed where
/// they lie, in one CRC pass; the buffer goes to the filesystem in one
/// write.
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
    let header = json::parse(lines[0]).map_err(|e| corrupt(format!("header: {e}")))?;
    let schema = header.text("schema").map_err(&corrupt)?;
    if schema != FLEET_CKPT_SCHEMA {
        return Err(FleetError::CkptSchema { path: path.to_path_buf(), found: schema.to_owned() });
    }
    // Verify the footer before believing anything else.
    let footer_line = lines.pop().ok_or_else(|| corrupt("missing footer".to_owned()))?;
    let footer = json::parse(footer_line).map_err(|e| corrupt(format!("footer: {e}")))?;
    if footer.text("schema").map_err(&corrupt)? != FLEET_CKPT_FOOTER_SCHEMA {
        return Err(corrupt("last line is not an integrity footer".to_owned()));
    }
    let promised: u64 = footer.int("lines").map_err(&corrupt)?;
    if promised != lines.len() as u64 {
        return Err(corrupt(format!(
            "footer promises {promised} body line(s), found {}",
            lines.len()
        )));
    }
    let line_crcs: Vec<u32> = footer.ints("line_crcs").map_err(&corrupt)?;
    if line_crcs.len() != lines.len() {
        return Err(corrupt(format!(
            "footer carries {} line crc(s) for {} line(s)",
            line_crcs.len(),
            lines.len()
        )));
    }
    let mut body = 0;
    for (i, (line, &stored)) in lines.iter().zip(&line_crcs).enumerate() {
        let computed = line_crc(line.as_bytes(), &mut body);
        if stored != computed {
            return Err(corrupt(format!(
                "line {i}: crc32c mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
    }
    let stored_body: u32 = footer.int("crc32c").map_err(&corrupt)?;
    if stored_body != body {
        return Err(corrupt(format!(
            "body crc32c mismatch (stored {stored_body:#010x}, computed {body:#010x})"
        )));
    }
    let channels: u64 = header.int("channels").map_err(&corrupt)?;
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
    let config = header.field("config").and_then(CkptFingerprint::from_json).map_err(&corrupt)?;
    Ok(FleetCheckpoint {
        trace: header.text("trace").map_err(&corrupt)?.to_owned(),
        accesses_done: header.int("accesses_done").map_err(&corrupt)?,
        config,
        clock: header.int("clock").map_err(&corrupt)?,
        routed: header.int("routed").map_err(&corrupt)?,
        shards,
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
    Replay::open(cfg, trace)?.run(None, &mut on_segment)
}

/// Checkpoint generations the supervisor rotates across. Two is the
/// fewest that is crash-safe: the write always goes to the slot that does
/// not hold the newest generation, so a torn write never destroys it.
const GENERATIONS: usize = 2;

/// Attempts beyond the first that the supervisor grants one segment, and
/// one checkpoint write, before [`FleetError::RetriesExhausted`].
const MAX_RETRIES: u32 = 3;

/// The replay core both drivers run: the trace reader, the system it
/// feeds, and the trace records executed so far.
struct Replay<'a> {
    cfg: &'a FleetConfig,
    trace: &'a Path,
    fs: Arc<dyn Vfs>,
    reader: TraceReader,
    fingerprint: CkptFingerprint,
    system: SystemController,
    done: u64,
}

impl<'a> Replay<'a> {
    /// Opens `trace` for `cfg`, with a freshly built system at record 0.
    fn open(cfg: &'a FleetConfig, trace: &'a Path) -> Result<Self, FleetError> {
        assert!(cfg.threads > 0, "need at least one worker thread");
        assert!(cfg.batch > 0, "batch of 0 dispatches nothing");
        assert!(cfg.segment > 0, "segment of 0 makes no progress");
        let fs = cfg.vfs();
        let reader = TraceReader::open_for_on(fs.clone(), trace, &cfg.system.geometry)
            .map_err(|source| FleetError::Trace { path: trace.to_path_buf(), source })?;
        // `build_system` builds every defense through the spec's
        // `DefenseFactory`, for DDR4-2400, one channel's banks per
        // controller and the geometry's bank size.
        let geometry = &cfg.system.geometry;
        cfg.defense
            .derive_for(Generation::Ddr4_2400, geometry.banks_per_channel(), geometry.rows_per_bank)
            .map_err(|source| FleetError::DefenseConfig { spec: cfg.defense, source })?;
        let (fingerprint, system) = (CkptFingerprint::of(cfg), cfg.build_system());
        Ok(Replay { cfg, trace, fs, reader, fingerprint, system, done: 0 })
    }

    /// Restores `ckpt` (or the trace's start) into the freshly built system
    /// and moves the reader to match. A checkpoint's trace identity, bounds
    /// and config fingerprint are checked before its state is believed.
    fn resume(&mut self, ckpt: Option<&FleetCheckpoint>) -> Result<(), FleetError> {
        self.done = 0;
        if let Some(ckpt) = ckpt {
            let (expected, trace_len) = (self.reader.name(), self.reader.len());
            if ckpt.trace != expected {
                return Err(FleetError::WrongTrace { expected, found: ckpt.trace.clone() });
            }
            if ckpt.accesses_done > trace_len {
                return Err(FleetError::BeyondTrace { claimed: ckpt.accesses_done, trace_len });
            }
            ckpt.config.check_against(&self.fingerprint)?;
            ckpt.restore_into(&mut self.system).map_err(|source| FleetError::Restore { source })?;
            self.done = ckpt.accesses_done;
        }
        self.reader
            .skip_to(self.done)
            .map_err(|source| FleetError::Trace { path: self.trace.to_path_buf(), source })
    }

    /// Streams the next `n` records through the lanes of the sharded
    /// pipeline: the router rides the calling thread and runs batches
    /// whenever a ring is full, and `threads` workers run the rest. The same
    /// streaming core as [`run_system_sharded`](crate::run_system_sharded),
    /// minus the workload factory: the reader IS the stream.
    ///
    /// On a mid-segment failure (trace corruption, routing rejection) the
    /// rings close, the batches already queued run, and the typed error
    /// propagates: the system is left partially advanced and must be rolled
    /// back before a retry.
    fn segment(&mut self, n: u64) -> Result<(), FleetError> {
        let reader = &mut self.reader;
        sharded::stream(&mut self.system, n, self.cfg.threads, self.cfg.batch, |router| {
            let access = reader.try_next().map_err(|source| FleetError::TraceStream {
                position: reader.position(),
                source,
            })?;
            router
                .route_one(&access)
                .map_err(|source| FleetError::Route { position: reader.position(), source })
        })?;
        self.done += n;
        Ok(())
    }

    /// Writes the run's current point as a checkpoint at `path`.
    fn checkpoint(&self, path: &Path) -> Result<(), FleetError> {
        let (fs, name) = (self.fs.as_ref(), self.reader.name());
        write_fleet_checkpoint(fs, path, &name, self.done, &self.system, &self.fingerprint)
    }

    /// Runs to the goal: resume, then segment after segment, each followed
    /// by a checkpoint and a progress report. Without `recovery` the
    /// checkpoint is the one file `cfg.checkpoint` (if any) and every
    /// failure ends the run; with it, checkpoints rotate through the
    /// supervisor's slots and a failed segment rolls back to the newest
    /// verified generation and retries.
    fn run(
        mut self,
        mut recovery: Option<&mut Recovery>,
        on_segment: &mut dyn FnMut(&FleetProgress),
    ) -> Result<FleetReport, FleetError> {
        let ckpt = match recovery.as_deref_mut() {
            Some(rec) => rec.latest(),
            None => match &self.cfg.checkpoint {
                Some(path) if self.fs.exists(path) => {
                    Some(read_fleet_checkpoint(self.fs.as_ref(), path)?)
                }
                _ => None,
            },
        };
        self.resume(ckpt.as_ref())?;
        if let Some(rec) = recovery.as_deref_mut().filter(|r| !r.quarantined.is_empty()) {
            // A damaged newest generation was discarded: whatever state it
            // held is gone and the run falls back to an older (or empty) one.
            rec.rollbacks += 1;
        }
        let resumed_from = ckpt.map(|c| c.accesses_done);
        let trace_len = self.reader.len();
        let goal = self.cfg.stop_after.map_or(trace_len, |s| s.min(trace_len)).max(self.done);
        let (mut segments, mut attempt) = (0, 0);
        while self.done < goal {
            if let Err(e) = self.segment(self.cfg.segment.min(goal - self.done)) {
                let Some(rec) = recovery.as_deref_mut() else { return Err(e) };
                attempt += 1;
                rec.retry(e, attempt, self.done)?;
                self.system = self.cfg.build_system();
                let ckpt = rec.latest();
                self.resume(ckpt.as_ref())?;
                rec.rollbacks += 1;
                continue;
            }
            attempt = 0;
            segments += 1;
            match recovery.as_deref_mut() {
                Some(rec) => self.persist(rec)?,
                None => {
                    if let Some(path) = &self.cfg.checkpoint {
                        self.checkpoint(path)?;
                    }
                }
            }
            on_segment(&FleetProgress {
                accesses_done: self.done,
                goal,
                trace_len,
                clock: self.system.clock(),
                stats: self.system.finish(),
            });
        }
        Ok(FleetReport {
            stats: self.system.finish(),
            accesses_done: self.done,
            trace_len,
            resumed_from,
            segments,
        })
    }

    /// Writes the checkpoint to the supervisor's least recent slot and, with
    /// `verify_writes` on, reads it back. A failed write is retried within
    /// the budget; a corrupt one is quarantined first.
    fn persist(&self, rec: &mut Recovery) -> Result<(), FleetError> {
        let mut attempt = 0;
        loop {
            let slot = rec.store.next_slot();
            let Err(e) = self.checkpoint(&slot).and_then(|()| rec.verify(&slot, self.done)) else {
                return Ok(());
            };
            if e.is_corruption() && self.fs.exists(&slot) {
                let moved = rec.store.quarantine(&slot);
                rec.quarantined.push(moved);
            }
            attempt += 1;
            rec.retry(e, attempt, self.done)?;
        }
    }
}

/// Rotating checkpoint storage: two generation slots (`<base>.g0` and
/// `<base>.g1`), written round-robin so the newest verified generation
/// always survives the next write, with corrupt slots **quarantined
/// aside** (renamed to `<slot>.quarantined`) rather than deleted — the
/// evidence is preserved and a re-run cannot trip over it.
#[derive(Debug)]
pub struct CheckpointStore {
    fs: Arc<dyn Vfs>,
    base: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `base`.
    pub fn new(fs: Arc<dyn Vfs>, base: PathBuf) -> Self {
        CheckpointStore { fs, base }
    }

    /// The slot paths, in slot order.
    pub fn slots(&self) -> Vec<PathBuf> {
        (0..GENERATIONS).map(|i| self.slot(i)).collect()
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
    /// never the one being overwritten. Every slot is re-read rather than
    /// remembered: with write verification off, a newest generation torn
    /// without a trace reads as empty and is overwritten next, while the
    /// intact older one survives.
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
        choice.expect("a store has two slots").0
    }
}

/// Configuration of a supervised fleet run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The underlying replay configuration. `fleet.checkpoint` is the
    /// rotation **base path** (slots are `<base>.g<N>`) and must be set.
    pub fleet: FleetConfig,
    /// Read back and CRC-verify every checkpoint immediately after writing
    /// it (catches torn writes at write time instead of at the next
    /// resume).
    pub verify_writes: bool,
}

impl SupervisorConfig {
    /// A supervised run of `fleet` with write verification on.
    pub fn new(fleet: FleetConfig) -> Self {
        SupervisorConfig { fleet, verify_writes: true }
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
}

/// The supervisor's half of a replay: the rotating checkpoint store and
/// the degraded-mode accounting that [`SupervisorReport`] returns.
struct Recovery {
    store: CheckpointStore,
    verify_writes: bool,
    retries: u64,
    rollbacks: u64,
    corrupt_chunks: u64,
    quarantined: Vec<PathBuf>,
}

impl Recovery {
    /// The newest verified generation, once every damaged slot is
    /// quarantined.
    fn latest(&mut self) -> Option<FleetCheckpoint> {
        let (best, damaged) = self.store.latest();
        self.quarantined.extend(damaged);
        best.map(|(_, ckpt)| ckpt)
    }

    /// With `verify_writes` on, reads `slot` back and checks that it holds
    /// the `done` records just written.
    fn verify(&self, slot: &Path, done: u64) -> Result<(), FleetError> {
        if !self.verify_writes {
            return Ok(());
        }
        let back = read_fleet_checkpoint(self.store.fs.as_ref(), slot)?;
        if back.accesses_done == done {
            return Ok(());
        }
        Err(FleetError::CkptCorrupt {
            path: slot.to_path_buf(),
            detail: format!(
                "read-back claims {} records done, just wrote {done}",
                back.accesses_done
            ),
        })
    }

    /// Accounts failure `e` of attempt `attempt` (counting from 1): a retry
    /// or, past [`MAX_RETRIES`], [`FleetError::RetriesExhausted`] at
    /// `segment_start`.
    fn retry(&mut self, e: FleetError, attempt: u32, segment_start: u64) -> Result<(), FleetError> {
        if e.is_corruption() {
            self.corrupt_chunks += 1;
        }
        if attempt > MAX_RETRIES {
            let last = Box::new(e);
            return Err(FleetError::RetriesExhausted { segment_start, attempts: attempt, last });
        }
        self.retries += 1;
        Ok(())
    }
}

/// [`run_fleet`] wrapped in the recovery supervisor: rotating verified
/// checkpoints, quarantine-aside for corrupt files, bounded deterministic
/// retry, and rollback to the newest verified generation on segment
/// failure. The [`SupervisorReport`] carries the degraded-mode accounting.
///
/// The contract the chaos harness asserts: under any injected I/O fault
/// schedule, a supervised run either completes with statistics
/// **bit-identical** to a fault-free run, or fails with a typed
/// [`FleetError`] — it never completes with silently wrong numbers.
///
/// # Errors
///
/// [`FleetError::RetriesExhausted`] once a segment (or checkpoint write)
/// fails more than three times; otherwise the same identity and
/// configuration errors as [`run_fleet`].
///
/// # Panics
///
/// Panics if `fleet.checkpoint` is `None`, or if any of the zero-value
/// [`run_fleet`] panics apply.
pub fn run_fleet_supervised(
    cfg: &SupervisorConfig,
    trace: &Path,
    mut on_segment: impl FnMut(&FleetProgress),
) -> Result<SupervisorReport, FleetError> {
    let Some(base) = cfg.fleet.checkpoint.clone() else {
        panic!("supervised runs need a checkpoint base path for rotation");
    };
    let mut rec = Recovery {
        store: CheckpointStore::new(cfg.fleet.vfs(), base),
        verify_writes: cfg.verify_writes,
        retries: 0,
        rollbacks: 0,
        corrupt_chunks: 0,
        quarantined: Vec::new(),
    };
    let report = Replay::open(&cfg.fleet, trace)?.run(Some(&mut rec), &mut on_segment)?;
    Ok(SupervisorReport {
        report,
        retries: rec.retries,
        rollbacks: rec.rollbacks,
        corrupt_chunks: rec.corrupt_chunks,
        quarantined: rec.quarantined,
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
    use memctrl::DefenseFactory;
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
            let (mut cfg, trace) = (cfg.clone(), trace.clone());
            cfg.threads = workers;
            cfg.segment = 200_000;
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut replay = Replay::open(&cfg, &trace).unwrap();
                    replay.system = McBuilder::new(cfg.system.clone())
                        .mapping(cfg.policy)
                        .defenses_with(|_| Box::new(PanicsOnAct50(0)))
                        .build_system();
                    replay.run(None, &mut |_| {})
                }));
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
            (DefenseSpec::Comet { t_rh: 2_000 }, true, (112_559, 0x9ae8_9510)),
            (DefenseSpec::Abacus { t_rh: 2_000, k: 2 }, true, (377_234, 0xb994_be0d)),
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

    /// A decorator shaped like the benchmark's activation tap: it forwards
    /// the tree hooks, `snapshot_state` and `restore_state`, but not
    /// `write_state`, so its checkpoint goes through the trait's default.
    struct TreeHooksOnly(Box<dyn mitigations::RowHammerDefense + Send>);

    impl mitigations::RowHammerDefense for TreeHooksOnly {
        fn name(&self) -> String {
            self.0.name()
        }

        fn on_activation(
            &mut self,
            row: dram_model::RowId,
            now: dram_model::Picoseconds,
        ) -> Vec<mitigations::RefreshAction> {
            self.0.on_activation(row, now)
        }

        fn table_bits(&self) -> mitigations::TableBits {
            self.0.table_bits()
        }

        fn reset(&mut self) {
            self.0.reset();
        }

        fn snapshot_state(&self) -> Result<JsonValue, String> {
            self.0.snapshot_state()
        }

        fn restore_state(&mut self, state: &JsonValue) -> Result<(), String> {
            self.0.restore_state(state)
        }
    }

    /// The default `write_state` renders the parse of the direct writer's
    /// text: every defense of the audited Graphene fleet wrapped in
    /// [`TreeHooksOnly`] writes the bare fleet's checkpoint bytes.
    #[test]
    fn a_defense_forwarding_only_the_tree_hooks_writes_the_same_bytes() {
        let mut cfg = small_cfg();
        cfg.audit = true;
        cfg.stop_after = Some(7_500);
        let trace = small_trace(&cfg, 12_000);
        let (spec, rows) = (cfg.defense, cfg.system.geometry.rows_per_bank);
        let mut written = Vec::new();
        for wrapped in [false, true] {
            let ckpt = tmp("tree-hooks.ckpt");
            let mut run = cfg.clone();
            run.checkpoint = Some(ckpt.clone());
            let mut replay = Replay::open(&run, &trace).unwrap();
            if wrapped {
                replay.system = McBuilder::new(run.system.clone())
                    .mapping(run.policy)
                    .defenses_with(|bank| {
                        Box::new(TreeHooksOnly(spec.build_defense(bank, rows, true)))
                    })
                    .build_system();
            }
            replay.run(None, &mut |_| {}).unwrap();
            written.push(fs::read(&ckpt).unwrap());
            fs::remove_file(&ckpt).ok();
        }
        assert_eq!(written[0].len(), 392_163, "the audited Graphene golden pin's length");
        assert!(written[0] == written[1], "the default write_state moved a byte");
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

    /// A threshold the derivation refuses is a typed error from both
    /// drivers, raised before the system is built, not a panic in the
    /// defense factory: Graphene's table, and the CoMeT, ABACuS and
    /// BlockHammer configurations derived from the same threshold.
    #[test]
    fn an_underivable_defense_is_a_typed_error() {
        let mut cfg = small_cfg();
        let trace = small_trace(&cfg, 1_000);
        cfg.defense = DefenseSpec::Graphene { t_rh: 50, k: 2 };
        let err = run_fleet(&cfg, &trace, |_| {}).unwrap_err();
        assert!(
            matches!(
                err,
                FleetError::DefenseConfig {
                    source: ConfigError::TooManyEntries { n_entry: 84_900 },
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("N_entry = 84900"), "{err}");
        for spec in ["comet@2", "abacus@2,k=2", "blockhammer@2"] {
            cfg.defense = DefenseSpec::parse(spec).unwrap();
            let err = run_fleet(&cfg, &trace, |_| {}).unwrap_err();
            assert!(
                matches!(
                    err,
                    FleetError::DefenseConfig { source: ConfigError::ThresholdTooLow { .. }, .. }
                ),
                "{spec}: {err:?}"
            );
        }
        cfg.defense = DefenseSpec::HardenedGraphene { t_rh: 2, k: 2 };
        cfg.checkpoint = Some(tmp("underivable.ckpt"));
        let err = run_fleet_supervised(&SupervisorConfig::new(cfg), &trace, |_| {}).unwrap_err();
        assert!(
            matches!(
                err,
                FleetError::DefenseConfig { source: ConfigError::ThresholdTooLow { .. }, .. }
            ),
            "{err:?}"
        );
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
        let sup = run_fleet_supervised(&sup_cfg, &trace, |_| {}).unwrap();
        assert_eq!(sup.report.stats, plain.stats);
        assert_eq!(sup.retries, 0);
        assert_eq!(sup.rollbacks, 0);
        assert_eq!(sup.corrupt_chunks, 0);
        assert!(sup.quarantined.is_empty());
        // Rotation left at most two generation slots.
        let store = CheckpointStore::new(real_fs(), fleet.checkpoint.clone().unwrap());
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
        run_fleet_supervised(&sup_cfg, &trace, |_| {}).unwrap();

        // Corrupt the newest generation on disk (bit rot in place).
        let store = CheckpointStore::new(real_fs(), base.clone());
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
        let sup = run_fleet_supervised(&resumed, &trace, |_| {}).unwrap();
        assert_eq!(sup.rollbacks, 1, "discarding the newest generation is a rollback");
        assert_eq!(sup.quarantined.len(), 1);
        assert!(sup.quarantined[0].to_string_lossy().contains("quarantined"));
        assert!(sup.quarantined[0].exists(), "quarantine preserves the evidence");
        assert!(sup.report.resumed_from.unwrap() < 10_000, "resumed from an older generation");
        assert_eq!(sup.report.stats, reference.stats, "recovery is bit-identical");
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
        run_fleet_supervised(&SupervisorConfig::new(fleet), &trace, |_| {}).unwrap();
        let store = CheckpointStore::new(real_fs(), base);
        // 3 segments were checkpointed across the 2 slots; the newest holds
        // the final count and next_slot would not clobber it.
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
