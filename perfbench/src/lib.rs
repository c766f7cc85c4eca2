//! The repository benchmark: three seeded workloads timed end to end, plus
//! a traced ladder that replays each workload's own inputs up the stack one
//! public entry point at a time.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_tenants --seed 1 --seconds 10 --trace 0 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` they
//! are the per-layer ladder ([`PER_LAYER`]). The line before it is a
//! `provenance` record: source revision, host cores, seed, build profile
//! and the workload configuration.
//!
//! Workloads ([`Profile`]):
//!
//! * `fleet_tenants` — a 2048-tenant synthesized trace replayed with
//!   `run_fleet` on the paper's 4-channel × 16-bank DDR4 system, Graphene at
//!   `T_RH` = 50K, no audit, a checkpoint after every segment.
//! * `fleet_hammer` — the same pipeline on a 16-tenant trace (one striped
//!   attacker), Graphene at `T_RH` = 1K, audited.
//! * `gen_matrix` — `run_generation_matrix` over the full lineup × four
//!   generations × each `T_RH` ladder × {S3, same-row-16banks}, audited,
//!   with the fault oracle on.
//!
//! Inputs come from `--seed` alone. Fleet traces are synthesized once per
//! seed into `perfbench/work/` (ignored by git) and reused; their content
//! hash is recorded, so synthesis never counts as set-up. Seed
//! [`HELD_OUT_SEED`] is reserved for checking later performance claims and
//! is never used while tuning.
//!
//! Every timed run is checked against a reference digest computed by an
//! independent sequential path ([`inputs`]); full-size digests for the seeds
//! in `perfbench/reference/digests.txt` are also pinned across commits.

pub mod inputs;
pub mod ladder;
pub mod measure;
pub mod tap;

use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed reserved for confirming later claims on inputs no change was tuned
/// on.
pub const HELD_OUT_SEED: u64 = 7_919;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("accesses_per_s", "accesses/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.decode_ns", "ns"),
    ("workloads.trace_bytes_per_access", "B/access"),
    ("memctrl.route_ns", "ns"),
    ("memctrl.system_ns", "ns"),
    ("memctrl.row_hit_ratio", "ratio"),
    ("memctrl.defense_refreshes_per_macc", "1/Macc"),
    ("sim.pipeline_ns", "ns"),
    ("memctrl.snapshot_ms", "ms"),
    ("sim.ckpt_write_ms", "ms"),
    ("sim.ckpt_bytes", "B"),
    ("sim.ckpt_restore_ms", "ms"),
    ("sim.fleet_ns", "ns"),
    ("sim.segment_ms_p50", "ms"),
    ("sim.segment_ms_p90", "ms"),
    ("mitigations.defense_ns", "ns"),
    ("mitigations.audit_ns", "ns"),
    ("core.table_ns", "ns"),
    ("core.n_entry", "count"),
    ("core.triggers_per_mact", "1/MACT"),
    ("sim.residual_ns", "ns"),
    ("sim.negative_rungs", "count"),
    ("sim.trace_overhead_pct", "%"),
    ("sim.group_ms_p50", "ms"),
    ("sim.group_ms_max", "ms"),
    ("sim.pool_efficiency", "ratio"),
    ("memctrl.cell_ns", "ns"),
    ("dram.oracle_ns", "ns"),
    ("mitigations.para_ns", "ns"),
    ("mitigations.graphene_ns", "ns"),
    ("mitigations.comet_ns", "ns"),
    ("mitigations.abacus_ns", "ns"),
    ("mitigations.blockhammer_ns", "ns"),
    ("mitigations.rfm_ns", "ns"),
    ("telemetry.noop_ns", "ns"),
    ("telemetry.recorded_ns", "ns"),
    ("memctrl.rfm_commands", "count"),
    ("memctrl.forced_rfms", "count"),
    ("memctrl.throttled_acts", "count"),
    ("dram.bit_flips", "count"),
];

/// One of the three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Many-tenant fleet replay at `T_RH` = 50K.
    FleetTenants,
    /// Few-tenant fleet replay with an attacker at `T_RH` = 1K, audited.
    FleetHammer,
    /// The audited cross-generation defense matrix.
    GenMatrix,
}

impl Profile {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Profile; 3] = [Profile::FleetTenants, Profile::FleetHammer, Profile::GenMatrix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Profile::FleetTenants => "fleet_tenants",
            Profile::FleetHammer => "fleet_hammer",
            Profile::GenMatrix => "gen_matrix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Profile> {
        Profile::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub profile: Profile,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the per-layer ladder instead of the end-to-end measurement.
    pub trace: bool,
    /// Shrink every input for a quick end-to-end check.
    pub smoke: bool,
    /// Synthesize the inputs and compute their reference digests (printing
    /// the pinnable digest), then exit; runs prepare this way on demand.
    pub prepare: bool,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut prepare = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
            match a.as_str() {
                "--workload" => workload = Some(value("--workload")?),
                "--seed" => seed = Some(value("--seed")?),
                "--seconds" => seconds = Some(value("--seconds")?),
                "--trace" => trace = Some(value("--trace")?),
                "--smoke" => smoke = true,
                "--prepare" => prepare = true,
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let profile = Profile::parse(&workload).ok_or_else(|| {
            format!("unknown workload `{workload}` (fleet_tenants, fleet_hammer, gen_matrix)")
        })?;
        let seed = seed.ok_or("--seed is required")?;
        let seed = seed.parse().map_err(|_| format!("--seed wants an integer, got `{seed}`"))?;
        let seconds = match seconds {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .ok_or_else(|| format!("--seconds wants a positive number, got `{s}`"))?,
            None => 10.0,
        };
        let trace = match trace.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace wants 0 or 1, got `{other}`")),
        };
        Ok(Options { profile, seed, seconds, trace, smoke, prepare })
    }
}

/// Benchmark scratch space: inputs, reference digests and checkpoints.
/// Lives inside the benchmark's own directory and is ignored by git.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Initial state of [`fnv64_extend`].
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, for digests and content hashes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, so large inputs hash in
/// fixed-size pieces: `fnv64_extend(fnv64(a), b) == fnv64(a ++ b)`.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a as a formatting sink: `write!` into it hashes the text without
/// building it, so digests of large statistics allocate nothing.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV64_OFFSET)
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv64_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// Continues `h` over the contents of the file at `path`, read through a
/// fixed buffer on the stack. The measuring process hashes its inputs, and
/// a large buffer freed there would steer the allocator's later choices for
/// the workload it measures: one freed 800 KB read moved gen_matrix's
/// `setup_s` by 2.5× and its `peak_rss_mb` by 8 MiB.
///
/// # Errors
///
/// When the file cannot be opened or read.
pub fn fnv64_file(mut h: u64, path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = [0u8; 64 * 1024];
    loop {
        match file.read(&mut buf)? {
            0 => return Ok(h),
            n => h = fnv64_extend(h, &buf[..n]),
        }
    }
}

/// Median of `xs` (the mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Threads the host lets this process run at once (`nproc`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Content hash of the simulator's sources (`crates/**/*.rs` and manifests),
/// so a result identifies the code that produced it even where the checkout
/// is not a git repository.
pub fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    files.iter().fold(FNV64_OFFSET, |h, f| {
        let h = fnv64_extend(h, f.strip_prefix(&root).unwrap_or(f).to_string_lossy().as_bytes());
        fnv64_file(h, f).unwrap_or(h)
    })
}

/// The git revision of the checkout, or `"none"` when the checkout is not
/// itself a git repository.
pub fn git_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "--short=12", "HEAD"])
        .current_dir(&root)
        .stderr(std::process::Stdio::null())
        .output();
    let text = match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        _ => return "none".to_owned(),
    };
    let mut lines = text.lines();
    let (Some(top), Some(rev)) = (lines.next(), lines.next()) else { return "none".to_owned() };
    let same = |p: &Path| std::fs::canonicalize(p).ok();
    if same(Path::new(top)).is_some() && same(Path::new(top)) == same(&root) {
        rev.to_owned()
    } else {
        "none".to_owned()
    }
}

/// The provenance record printed before every result: code identity, host,
/// seed, build profile, and the workload configuration (the fleet's
/// checkpoint fingerprint fields, the matrix's axes).
pub fn provenance(opts: &Options, inputs: &inputs::Inputs, threads: usize) -> String {
    let matrix = inputs.matrix.as_ref().map_or_else(
        || "null".to_owned(),
        |m| {
            format!(
                "{{\"generations\": {}, \"preset_tail\": {}, \"workloads\": {}, \
                 \"accesses\": {}, \"rows_per_bank\": {}, \"system_banks\": {}}}",
                m.generations.len(),
                m.preset_tail.min(64),
                m.workloads.len(),
                m.accesses,
                m.rows_per_bank,
                m.system_banks
            )
        },
    );
    format!(
        "{{\"revision\": \"{}\", \"source_hash\": \"{:016x}\", \"host_cores\": {}, \
         \"threads\": {threads}, \"seed\": {}, \"held_out_seed\": {}, \"build\": \"{}\", \
         \"workload\": \"{}\", \"trace\": {}, \"smoke\": {}, \"input_hash\": \"{:016x}\", \
         \"fleet\": {}, \"matrix\": {matrix}}}",
        git_revision(),
        source_hash(),
        host_cores(),
        opts.seed,
        opts.seed == HELD_OUT_SEED,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        opts.profile.name(),
        opts.trace,
        opts.smoke,
        inputs.input_hash,
        inputs::describe(&inputs.fleet),
    )
}

/// The outcome of one run: the verdict plus named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted (fleet segments or matrix cells).
    pub attempted: u64,
    /// Units that failed: a typed error, a panic, or a digest mismatch.
    pub failed: u64,
    /// Checks outside the unit count that failed (ladder cross-checks).
    pub problems: Vec<String>,
    /// `(name, value)` in print order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts `n` attempted units of which `bad` failed.
    pub fn units(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Notes a failed cross-check.
    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Renders the result line, printing metrics in `catalog` order with
    /// their units.
    ///
    /// # Errors
    ///
    /// Names a catalog metric the run did not produce, or a non-finite one.
    pub fn render(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn fnv_hashes_in_pieces() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(fnv64_extend(fnv64(&data[..100]), &data[100..]), fnv64(&data));
    }

    #[test]
    fn options_parse_the_full_form() {
        let args: Vec<String> = "--workload gen_matrix --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.profile, Profile::GenMatrix);
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (3, 10.0, true, false));
        assert!(Options::parse(&args[..2]).is_err(), "seed is required");
    }

    #[test]
    fn render_refuses_a_missing_metric() {
        let mut o = Outcome::default();
        o.units(4, 0);
        o.put("setup_s", 0.5);
        assert!(o.render(END_TO_END).is_err());
        o.put("accesses_per_s", 1e6);
        o.put("peak_rss_mb", 12.0);
        let line = o.render(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
