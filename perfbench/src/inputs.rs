//! Seeded inputs and reference digests.
//!
//! Each workload owns a *fleet input* — an RHT4 trace plus the
//! [`FleetConfig`] that replays it — and `gen_matrix` additionally owns a
//! [`GenerationMatrixConfig`]. For the fleet workloads the trace is the
//! workload itself; for `gen_matrix` it is the matrix's representative cell
//! (S3 on one DDR4 bank at the harshest DDR4 preset) written as a trace, so
//! the traced ladder can time the trace layers on the same access stream.
//!
//! [`prepare`] synthesizes the inputs once per seed into the work directory
//! and computes reference digests by an independent sequential path: the
//! fleet trace run through `SystemController::try_run_batched` one segment
//! at a time (no streaming pipeline, no checkpoints), and every matrix group
//! re-run cell by cell from the public building blocks (no worker pool).
//! Timed runs must reproduce those digests exactly.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use dram_model::fault::DisturbanceModel;
use dram_model::geometry::DramGeometry;
use dram_model::Generation;
use memctrl::{McBuilder, McConfig, RunStats, SystemController, SystemStats};
use rh_sim::{
    generation_lineup, synth_fleet_trace, DefenseSpec, FleetConfig, GenSpec, GenerationCell,
    GenerationMatrixConfig, WorkloadSpec,
};
use workloads::{TraceReader, TraceWriter};

use crate::{fnv64, fnv64_file, work_dir, Fnv64, Profile, FNV64_OFFSET};

/// Rows per bank of the representative single-bank cell.
const CELL_ROWS: u32 = 65_536;
/// The representative cell's threshold: the harshest DDR4 preset.
const CELL_T_RH: u64 = 1_560;

/// A trace and the configuration that replays it.
#[derive(Debug, Clone)]
pub struct FleetInput {
    /// The RHT4 trace.
    pub trace: PathBuf,
    /// Replay configuration; `checkpoint` is unset here and chosen per run.
    pub cfg: FleetConfig,
    /// Records in the trace.
    pub records: u64,
    /// Tenants interleaved in the trace (1 for the representative cell).
    pub clients: u16,
}

impl FleetInput {
    /// Segments one replay writes a checkpoint after.
    pub fn segments(&self) -> u64 {
        self.records.div_ceil(self.cfg.segment)
    }

    /// Opens the trace with the header, CRC and geometry checks `run_fleet`
    /// applies.
    ///
    /// # Errors
    ///
    /// Names the trace and the failed check.
    pub fn open(&self) -> Result<TraceReader, String> {
        TraceReader::open_for(&self.trace, &self.cfg.system.geometry)
            .map_err(|e| format!("open {}: {e}", self.trace.display()))
    }

    /// Builds the sharded system exactly as `run_fleet` does.
    pub fn build_system(&self, factory: &dyn memctrl::DefenseFactory) -> SystemController {
        McBuilder::new(self.cfg.system.clone())
            .mapping(self.cfg.policy)
            .defenses(factory)
            .audit(self.cfg.audit)
            .build_system()
    }

    /// The `(T_RH, k)` of the Graphene defense this input runs.
    pub fn graphene(&self) -> (u64, u32) {
        match self.cfg.defense {
            DefenseSpec::Graphene { t_rh, k } => (t_rh, k),
            ref other => unreachable!("benchmark fleets run Graphene, not {}", other.name()),
        }
    }
}

/// Everything a run needs: inputs, configs and reference digests.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub profile: Profile,
    /// Input seed.
    pub seed: u64,
    /// Shrunk inputs.
    pub smoke: bool,
    /// The trace replayed by the fleet layers.
    pub fleet: FleetInput,
    /// The matrix (gen_matrix only).
    pub matrix: Option<GenerationMatrixConfig>,
    /// Content hash of the inputs (trace bytes and matrix config).
    pub input_hash: u64,
    /// Reference digest of the fleet input after each segment.
    pub segment_digests: Vec<u64>,
    /// Reference digest of every matrix cell, in matrix order.
    pub cell_digests: Vec<u64>,
    /// Whether the references agree with the digests pinned in
    /// `perfbench/reference/digests.txt` (`None`: no pin for this seed).
    pub pinned: Option<bool>,
}

fn fleet_input(profile: Profile, smoke: bool, trace: PathBuf) -> FleetInput {
    let (clients, records, mut cfg): (u16, u64, FleetConfig) = match profile {
        Profile::FleetTenants | Profile::FleetHammer => {
            let hammer = profile == Profile::FleetHammer;
            let t_rh = if hammer { 1_000 } else { 50_000 };
            let mut cfg = FleetConfig::micro2020(DefenseSpec::Graphene { t_rh, k: 2 });
            cfg.audit = hammer;
            let clients = if hammer { 16 } else { 2_048 };
            let records = if smoke { 20_000 } else { 1_000_000 };
            (clients, records, cfg)
        }
        Profile::GenMatrix => {
            let mut cfg = FleetConfig::micro2020(DefenseSpec::Graphene { t_rh: CELL_T_RH, k: 2 });
            cfg.system = McConfig::single_bank(CELL_ROWS, None);
            cfg.audit = true;
            (1, if smoke { 10_000 } else { 200_000 }, cfg)
        }
    };
    // The router rides the calling thread, so one pool worker keeps the
    // run at two threads.
    cfg.threads = 1;
    // Two checkpointed segments per replay, so every replay also writes a
    // mid-trace checkpoint a resumed run would restore from.
    cfg.segment = records / 2;
    FleetInput { trace, cfg, records, clients }
}

fn matrix_config(seed: u64, smoke: bool) -> GenerationMatrixConfig {
    let mut cfg = if smoke {
        let mut c = GenerationMatrixConfig::smoke();
        c.accesses = 2_000;
        c
    } else {
        let mut c = GenerationMatrixConfig::full();
        // A tenth of the sweep's 400K per cell keeps a repetition near a
        // second while simulation, not per-cell allocation, dominates it.
        c.accesses = 40_000;
        c
    };
    cfg.seed = seed;
    cfg
}

fn key(profile: Profile, seed: u64, smoke: bool) -> String {
    format!("{}-{seed}{}", profile.name(), if smoke { "-smoke" } else { "" })
}

/// Inputs as configured, before synthesis or reference computation.
pub fn configured(profile: Profile, seed: u64, smoke: bool) -> Inputs {
    let k = key(profile, seed, smoke);
    Inputs {
        profile,
        seed,
        smoke,
        fleet: fleet_input(profile, smoke, work_dir().join(format!("{k}.rht4"))),
        matrix: (profile == Profile::GenMatrix).then(|| matrix_config(seed, smoke)),
        input_hash: 0,
        segment_digests: Vec::new(),
        cell_digests: Vec::new(),
        pinned: None,
    }
}

fn meta_path(inputs: &Inputs) -> PathBuf {
    work_dir().join(format!("{}.meta", key(inputs.profile, inputs.seed, inputs.smoke)))
}

/// Version of the digest scheme; prepared inputs from another scheme are
/// recomputed rather than trusted.
const DIGEST_SCHEME: &str = "2";

/// Digest of the statistics a fleet replay must reproduce: the simulated
/// counters of every channel and of the merged totals, per-stream
/// attribution included. Fields are named one by one, so a counter added
/// to `RunStats` leaves the digest alone until it is listed here.
pub fn stats_digest(stats: &SystemStats) -> u64 {
    let mut s = Fnv64::default();
    for r in stats.per_channel.iter().chain([&stats.merged]) {
        let _ = write!(
            s,
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            r.accesses,
            r.activations,
            r.row_hits,
            r.refreshes,
            r.defense_refresh_commands,
            r.victim_rows_refreshed,
            r.defense_busy,
            r.completion,
            r.total_latency,
            r.bit_flips,
            r.throttled_acts,
            r.throttle_delay,
            r.stray_stream_accesses,
            r.stray_stream_latency,
            r.rfm_commands,
            r.forced_rfms,
        );
        for (accesses, latency) in &r.per_stream {
            let _ = write!(s, "|{accesses}:{latency}");
        }
        let _ = s.write_str(";");
    }
    s.0
}

/// The matrix-cell fields a timed run must reproduce: bit flips, refresh,
/// RFM and throttle counts, and the oracle's worst disturbance.
pub fn cell_digest(cell: &GenerationCell) -> u64 {
    fnv64(
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            cell.spec,
            cell.workload,
            cell.t_rh,
            cell.bit_flips,
            cell.baseline_bit_flips,
            cell.max_disturbance,
            cell.defense_refresh_commands,
            cell.rfm_commands,
            cell.forced_rfms,
            cell.throttled_acts,
        )
        .as_bytes(),
    )
}

/// Content hash of the trace and the matrix configuration.
fn input_hash(inputs: &Inputs) -> std::io::Result<u64> {
    let mut h = fnv64_file(FNV64_OFFSET, &inputs.fleet.trace)?;
    if let Some(m) = &inputs.matrix {
        h ^= fnv64(format!("{m:?}").as_bytes()).rotate_left(1);
    }
    Ok(h)
}

/// The (generation, threshold, workload) groups of `cfg`, in the order
/// `run_generation_matrix` reports them.
pub fn matrix_groups(cfg: &GenerationMatrixConfig) -> Vec<(Generation, u64, WorkloadSpec)> {
    cfg.generations
        .iter()
        .flat_map(|&g| {
            cfg.thresholds_for(g)
                .iter()
                .flat_map(move |&t| cfg.workloads.iter().map(move |w| (g, t, w.clone())))
        })
        .collect()
}

/// The controller configuration of a matrix group's cells, as the matrix
/// derives it: one bank (or the system-scale bank count) on the
/// generation's timing, with the fault oracle armed at the group's `T_RH`.
pub fn cell_config(
    cfg: &GenerationMatrixConfig,
    generation: Generation,
    t_rh: u64,
    workload: &WorkloadSpec,
) -> McConfig {
    let model = DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() };
    let mut mc = McConfig::single_bank_for_generation(generation, cfg.rows_per_bank, Some(model));
    if workload.is_system_scale() {
        mc.geometry.banks_per_rank = cfg.system_banks;
    }
    mc
}

/// Runs one matrix group cell by cell through the public building blocks —
/// `generation_lineup`, `McBuilder` and `MemoryController::run` — and
/// returns the lineup's cells in matrix order. The end-of-run invariant
/// audit of the matrix runner is not repeated here.
pub fn run_group(
    cfg: &GenerationMatrixConfig,
    generation: Generation,
    t_rh: u64,
    workload: &WorkloadSpec,
) -> Vec<GenerationCell> {
    let mc_cfg = cell_config(cfg, generation, t_rh, workload);
    let banks = mc_cfg.geometry.total_banks();
    let run = |spec: &GenSpec| -> (RunStats, u64) {
        let mut mc = McBuilder::new(mc_cfg.clone()).defenses(spec).audit(true).build();
        let mut w = workload.build(banks as u16, mc_cfg.geometry.rows_per_bank, cfg.seed);
        let stats = mc.run(w.as_mut(), cfg.accesses);
        let worst = (0..banks as usize)
            .map(|b| mc.oracle(b).expect("matrix cells arm the fault oracle").max_disturbance())
            .fold(0.0_f64, f64::max);
        (stats, worst.ceil() as u64)
    };
    let lineup = generation_lineup(generation, t_rh);
    let (baseline, baseline_worst) = run(&lineup[0]);
    lineup
        .iter()
        .map(|spec| {
            let (stats, worst) = if matches!(spec.defense, DefenseSpec::None) {
                (baseline.clone(), baseline_worst)
            } else {
                run(spec)
            };
            GenerationCell {
                generation: generation.name().to_owned(),
                t_rh,
                workload: workload.name(),
                defense: spec.defense.name(),
                spec: spec.spec_string(),
                rfm_mode: spec.issues_rfm(),
                bit_flips: stats.bit_flips,
                baseline_bit_flips: baseline.bit_flips,
                max_disturbance: worst,
                protected: stats.bit_flips == 0 && worst < t_rh,
                rfm_commands: stats.rfm_commands,
                forced_rfms: stats.forced_rfms,
                defense_refresh_commands: stats.defense_refresh_commands,
                slowdown: stats.slowdown_vs(&baseline),
                throttled_acts: stats.throttled_acts,
                energy_overhead: 0.0,
            }
        })
        .collect()
}

/// Reads `n` records of `reader` into memory.
///
/// # Errors
///
/// Propagates decode failures.
pub fn read_records(reader: &mut TraceReader, n: u64) -> std::io::Result<Vec<workloads::Access>> {
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(reader.try_next()?);
    }
    Ok(out)
}

/// Reference per-segment digests: the trace replayed sequentially through
/// `try_run_batched`, one segment per call.
fn reference_segments(f: &FleetInput) -> Result<Vec<u64>, String> {
    let mut reader = f.open()?;
    let mut system = f.build_system(&f.cfg.defense);
    let mut digests = Vec::new();
    let mut done = 0;
    while done < f.records {
        let n = f.cfg.segment.min(f.records - done);
        let chunk = read_records(&mut reader, n).map_err(|e| format!("decode: {e}"))?;
        system.try_run_batched(&chunk).map_err(|e| format!("reference replay: {e}"))?;
        digests.push(stats_digest(&system.finish()));
        done += n;
    }
    Ok(digests)
}

fn synthesize(inputs: &Inputs) -> Result<(), String> {
    let f = &inputs.fleet;
    let geometry: DramGeometry = f.cfg.system.geometry;
    let name = format!("perfbench-{}", key(inputs.profile, inputs.seed, inputs.smoke));
    let io = |e: std::io::Error| format!("synthesize {}: {e}", f.trace.display());
    match inputs.profile {
        Profile::FleetTenants | Profile::FleetHammer => {
            synth_fleet_trace(&f.trace, &name, &geometry, f.clients, f.records, inputs.seed)
                .map_err(io)
        }
        Profile::GenMatrix => {
            let mut w = WorkloadSpec::S3.build(1, geometry.rows_per_bank, inputs.seed);
            let mut writer = TraceWriter::create(&f.trace, &name, geometry).map_err(io)?;
            writer.record(w.as_mut(), f.records).map_err(io)?;
            writer.finish().map_err(io)
        }
    }
}

fn combined(inputs: &Inputs) -> u64 {
    let mut s = String::new();
    for d in inputs.segment_digests.iter().chain(&inputs.cell_digests) {
        let _ = write!(s, "{d:016x}");
    }
    fnv64(s.as_bytes())
}

/// Looks up the pinned digest of `(workload, seed)`.
fn pinned_digest(inputs: &Inputs) -> Option<u64> {
    if inputs.smoke {
        return None;
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/digests.txt");
    let text = fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == inputs.profile.name() && s.parse() == Ok(inputs.seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Synthesizes the inputs and computes their reference digests, writing
/// both to the work directory. Run in a child process, so the measuring
/// process's peak memory reflects the workload alone.
///
/// # Errors
///
/// Describes the first synthesis or reference failure.
pub fn prepare(profile: Profile, seed: u64, smoke: bool) -> Result<(), String> {
    let mut inputs = configured(profile, seed, smoke);
    fs::create_dir_all(work_dir()).map_err(|e| format!("create work dir: {e}"))?;
    synthesize(&inputs)?;
    inputs.input_hash = input_hash(&inputs).map_err(|e| format!("hash inputs: {e}"))?;
    inputs.segment_digests = reference_segments(&inputs.fleet)?;
    if let Some(m) = &inputs.matrix {
        inputs.cell_digests = matrix_groups(m)
            .iter()
            .flat_map(|(g, t, w)| run_group(m, *g, *t, w))
            .map(|c| cell_digest(&c))
            .collect();
    }
    let digest = combined(&inputs);
    eprintln!("perfbench: reference digest {} {seed} {digest:016x}", profile.name());
    let hex = |ds: &[u64]| ds.iter().map(|d| format!("{d:016x}")).collect::<Vec<_>>().join(" ");
    let meta = format!(
        "scheme {DIGEST_SCHEME}\ninput_hash {:016x}\nsegments {}\ncells {}\n",
        inputs.input_hash,
        hex(&inputs.segment_digests),
        hex(&inputs.cell_digests),
    );
    let path = meta_path(&inputs);
    let tmp = path.with_extension("meta.tmp");
    fs::write(&tmp, meta).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Loads prepared inputs, or `None` when they are missing, stale, or their
/// trace no longer hashes to the recorded content hash.
pub fn load(profile: Profile, seed: u64, smoke: bool) -> Option<Inputs> {
    let mut inputs = configured(profile, seed, smoke);
    let text = fs::read_to_string(meta_path(&inputs)).ok()?;
    let field = |name: &str| {
        text.lines().find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
    };
    let digests = |line: &str| -> Option<Vec<u64>> {
        line.split_whitespace().map(|d| u64::from_str_radix(d, 16).ok()).collect()
    };
    if field("scheme")? != DIGEST_SCHEME {
        return None;
    }
    inputs.input_hash = u64::from_str_radix(field("input_hash")?, 16).ok()?;
    inputs.segment_digests = digests(field("segments").unwrap_or(""))?;
    inputs.cell_digests = digests(field("cells").unwrap_or(""))?;
    inputs.pinned = pinned_digest(&inputs).map(|p| p == combined(&inputs));
    let f = &inputs.fleet;
    let complete = inputs.segment_digests.len() as u64 == f.segments()
        && f.open().ok()?.len() == f.records
        && (inputs.matrix.is_none() || !inputs.cell_digests.is_empty());
    (complete && input_hash(&inputs).ok()? == inputs.input_hash).then_some(inputs)
}

/// Prepared inputs, preparing them in a child process first when needed.
///
/// # Errors
///
/// When the child fails or its output does not load.
pub fn ensure(profile: Profile, seed: u64, smoke: bool) -> Result<Inputs, String> {
    if let Some(inputs) = load(profile, seed, smoke) {
        return Ok(inputs);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--prepare", "--workload", profile.name(), "--seed", &seed.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn input preparation: {e}"))?;
    if !status.success() {
        return Err(format!("input preparation failed ({status})"));
    }
    load(profile, seed, smoke).ok_or_else(|| "prepared inputs do not load".to_owned())
}

/// The policy name and fingerprint fields of a fleet input, for provenance.
pub fn describe(f: &FleetInput) -> String {
    let fp = rh_sim::CkptFingerprint::of(&f.cfg);
    let g = fp.geometry;
    format!(
        "{{\"defense\": \"{}\", \"policy\": \"{}\", \"generation\": \"{}\", \"audit\": {}, \
         \"geometry\": \"{}x{}x{}x{}\", \"records\": {}, \"clients\": {}, \"segment\": {}, \
         \"threads\": {}, \"batch\": {}}}",
        fp.defense,
        fp.policy,
        fp.generation,
        fp.audit,
        g.channels,
        g.ranks_per_channel,
        g.banks_per_rank,
        g.rows_per_bank,
        f.records,
        f.clients,
        f.cfg.segment,
        f.cfg.threads,
        f.cfg.batch,
    )
}
