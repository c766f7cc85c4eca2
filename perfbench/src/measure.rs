//! The untraced end-to-end measurement: set-up time, throughput of the
//! workload's public entry point, and peak memory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use memctrl::McBuilder;
use rh_sim::{generation_lineup, run_fleet, run_generation_matrix, FleetConfig, GenerationCell};

use crate::inputs::{cell_config, cell_digest, matrix_groups, stats_digest, FleetInput, Inputs};
use crate::{median, peak_rss_mib, secs, Outcome, Profile};

/// Set-ups timed per run at least; the median is reported.
const SETUP_REPS: usize = 25;
/// Timed repetitions never fall below this, however long each takes.
const MIN_REPS: usize = 3;

/// Threads one run of the workload occupies: the fleet router plus its
/// pool workers, or the matrix pool.
pub fn threads_used(inputs: &Inputs) -> usize {
    match &inputs.matrix {
        None => inputs.fleet.cfg.threads + 1,
        Some(m) => crate::host_cores().min(matrix_groups(m).len()).max(1),
    }
}

/// Simulated accesses one repetition of the timed call completes. For the
/// matrix every executed run counts, the per-group baseline included.
pub fn accesses_per_rep(inputs: &Inputs) -> u64 {
    match &inputs.matrix {
        None => inputs.fleet.records,
        Some(m) => {
            let runs: u64 = matrix_groups(m)
                .iter()
                .map(|(g, t, _)| generation_lineup(*g, *t).len() as u64)
                .sum();
            runs * m.accesses
        }
    }
}

/// Path of a run's checkpoint file.
pub fn checkpoint_path(inputs: &Inputs, tag: &str) -> PathBuf {
    crate::work_dir().join(format!("{}-{}-{tag}.ckpt", inputs.profile.name(), std::process::id()))
}

/// One fleet set-up: open the trace (header, CRC and geometry checks) and
/// build the sharded system with its per-bank defenses.
fn fleet_setup(f: &FleetInput) -> Result<f64, String> {
    let start = Instant::now();
    let reader = f.open()?;
    let system = f.build_system(&f.cfg.defense);
    let elapsed = secs(start);
    drop((reader, system));
    Ok(elapsed)
}

/// One matrix set-up: build every cell's controller — defenses, audit
/// shells and fault oracles — as the matrix does before its first access.
fn matrix_setup(m: &rh_sim::GenerationMatrixConfig) -> f64 {
    let start = Instant::now();
    for (g, t_rh, w) in matrix_groups(m) {
        let cfg = cell_config(m, g, t_rh, &w);
        for spec in generation_lineup(g, t_rh) {
            std::hint::black_box(McBuilder::new(cfg.clone()).defenses(&spec).audit(true).build());
        }
    }
    secs(start)
}

/// One set-up of the workload, in seconds.
///
/// # Errors
///
/// When the trace cannot be opened.
pub fn setup_once(inputs: &Inputs) -> Result<f64, String> {
    match &inputs.matrix {
        None => fleet_setup(&inputs.fleet),
        Some(m) => Ok(matrix_setup(m)),
    }
}

/// Result of one repetition of a timed call.
pub struct Rep {
    /// Wall seconds of the call.
    pub seconds: f64,
    /// Units attempted.
    pub units: u64,
    /// Units whose digest differed or that never completed.
    pub failed: u64,
    /// Wall time of each fleet segment, measured from the segment callback.
    pub segment_seconds: Vec<f64>,
}

/// One checkpointed fleet replay, each segment checked against its
/// reference digest and its wall time recorded.
pub fn fleet_rep(inputs: &Inputs, cfg: &FleetConfig) -> Rep {
    let f = &inputs.fleet;
    let expected = &inputs.segment_digests;
    if let Some(p) = &cfg.checkpoint {
        let _ = std::fs::remove_file(p);
    }
    let mut seen = Vec::with_capacity(expected.len());
    let mut marks = Vec::with_capacity(expected.len());
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_fleet(cfg, &f.trace, |p| {
            marks.push(secs(start));
            seen.push(p.stats.clone());
        })
    }));
    let seconds = secs(start);
    match &result {
        Ok(Err(e)) => eprintln!("perfbench: fleet replay failed: {e}"),
        Err(_) => eprintln!("perfbench: fleet replay panicked"),
        Ok(Ok(_)) => {}
    }
    let good = seen.iter().zip(expected).filter(|(s, d)| stats_digest(s) == **d).count() as u64;
    let units = expected.len() as u64;
    let mut segment_seconds = Vec::with_capacity(marks.len());
    let mut last = 0.0;
    for m in marks {
        segment_seconds.push(m - last);
        last = m;
    }
    Rep { seconds, units, failed: units - good, segment_seconds }
}

/// Compares matrix cells with the reference, counting failed cells.
pub fn check_cells(inputs: &Inputs, cells: &[GenerationCell]) -> u64 {
    let expected = &inputs.cell_digests;
    let good = cells.iter().zip(expected).filter(|(c, d)| cell_digest(c) == **d).count();
    (expected.len() - good) as u64
}

/// One `run_generation_matrix` call, every cell checked.
pub fn matrix_rep(inputs: &Inputs) -> Rep {
    let m = inputs.matrix.as_ref().expect("matrix workload");
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_generation_matrix(m)));
    let seconds = secs(start);
    let units = inputs.cell_digests.len() as u64;
    let failed = match result {
        Ok(cells) => check_cells(inputs, &cells),
        Err(_) => {
            eprintln!("perfbench: generation matrix panicked");
            units
        }
    };
    Rep { seconds, units, failed, segment_seconds: Vec::new() }
}

/// One repetition of the workload's timed call.
pub fn timed_rep(inputs: &Inputs, ckpt: &Path) -> Rep {
    match inputs.profile {
        Profile::GenMatrix => matrix_rep(inputs),
        Profile::FleetTenants | Profile::FleetHammer => {
            let mut cfg = inputs.fleet.cfg.clone();
            cfg.checkpoint = Some(ckpt.to_path_buf());
            fleet_rep(inputs, &cfg)
        }
    }
}

/// The end-to-end run: repetitions of the timed call for `seconds`, each
/// preceded by one timed set-up, so set-up samples span the whole run the
/// way the throughput samples do; then peak memory.
pub fn run(inputs: &Inputs, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let ckpt = checkpoint_path(inputs, "timed");
    let per_rep = accesses_per_rep(inputs) as f64;
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.len() < MIN_REPS || secs(start) < seconds {
        match setup_once(inputs) {
            Ok(s) => setups.push(s),
            Err(e) => {
                out.problem(format!("set-up failed: {e}"));
                return out;
            }
        }
        let rep = timed_rep(inputs, &ckpt);
        out.units(rep.units, rep.failed);
        rates.push(per_rep / rep.seconds);
    }
    let _ = std::fs::remove_file(&ckpt);
    while setups.len() < SETUP_REPS {
        match setup_once(inputs) {
            Ok(s) => setups.push(s),
            Err(e) => out.problem(format!("set-up failed: {e}")),
        }
    }
    eprintln!(
        "perfbench: {} reps in {:.2} s, accesses/s median {:.0} (min {:.0}, max {:.0})",
        rates.len(),
        secs(start),
        median(&rates),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
    );
    out.put("accesses_per_s", median(&rates));
    out.put("setup_s", median(&setups));
    match peak_rss_mib() {
        Ok(mib) => out.put("peak_rss_mb", mib),
        Err(e) => out.problem(e),
    }
    out
}
