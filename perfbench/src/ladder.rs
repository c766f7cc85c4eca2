//! The traced run: the workload's own inputs pushed up the stack one public
//! entry point at a time, so each layer's cost is a subtraction.
//!
//! Every rung is timed from outside the program, around calls into
//! `workloads`, `memctrl`, `mitigations`, `core`, `dram` and `sim`. Rungs
//! on the trace (decode, route, system, pipeline, checkpoints, fleet) use
//! the workload's fleet input; rungs below the controller replay the exact
//! per-bank activation streams the controller delivered, captured by
//! [`TapFactory`]. `gen_matrix` adds its own rungs: every matrix group run
//! alone and the pool efficiency that follows.
//!
//! The ladder closes: the self times of the rungs beneath `sim.fleet_ns`
//! are summed and the remainder reported as `sim.residual_ns`. A rung whose
//! subtraction goes negative — a layer that overlaps another on the second
//! thread — is flagged and counted in `sim.negative_rungs`, never clamped.
//!
//! The only instrumentation the ladder puts inside the program is the tap
//! that captures the activation streams (one log push per delivered event)
//! and one clock read per fleet segment. `sim.trace_overhead_pct` prices the
//! tap: the system layer run under [`TapFactory`] against the same call
//! without it. The segment marks cost two clock reads per replay and are
//! not priced.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use dram_model::fault::DisturbanceModel;
use dram_model::Generation;
use graphene_core::GrapheneConfig;
use memctrl::{DefenseFactory, McBuilder};
use mitigations::{instrumented, RowHammerDefense};
use rh_sim::{
    generation_lineup, read_fleet_checkpoint, run_fleet, write_fleet_checkpoint, CkptFingerprint,
    DefenseSpec, GenSpec,
};
use telemetry::{Cadence, NoopSink, SharedSink};
use workloads::vfs::real_fs;
use workloads::{Access, Trace};

use crate::inputs::{matrix_groups, read_records, run_group, stats_digest, FleetInput, Inputs};
use crate::measure::{check_cells, checkpoint_path, fleet_rep, matrix_rep, threads_used, Rep};
use crate::tap::{Streams, TapFactory};
use crate::{median, quantile, secs, Outcome};

/// Threshold and generation of the per-tracker rungs.
const TRACKER_T_RH: u64 = 1_000;
const TRACKER_GENERATION: Generation = Generation::Ddr5_4800;
/// Events the per-tracker rungs replay: a prefix of the captured log, since
/// the sketch-based trackers cost microseconds per activation at 1K.
const TRACKER_EVENTS: usize = 200_000;

/// Median of `reps` timings of `f` (seconds).
fn timed(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        samples.push(f()?);
    }
    Ok(median(&samples))
}

/// Repeats a timed call for at least `seconds` and `reps` times.
fn repeated(seconds: f64, reps: usize, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < reps || secs(start) < seconds {
        out.push(rep());
    }
    out
}

/// The trace rungs' measurements, in seconds per whole trace unless noted.
struct TraceRungs {
    decode: f64,
    route: f64,
    system: f64,
    pipeline: f64,
    fleet: f64,
    ckpt_write: f64,
    /// Activations per access, from the captured streams.
    acts_per_access: f64,
    /// Merged statistics of the whole trace.
    stats: memctrl::RunStats,
}

/// Times decode, routing, the single-threaded system, the pipeline, and
/// the checkpoint layers on the fleet input. Returns the measurements, the
/// decoded trace, and the captured per-bank activation streams.
fn trace_rungs(
    inputs: &Inputs,
    reps: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(TraceRungs, Vec<Access>, Streams), String> {
    let f = &inputs.fleet;
    let n = f.records as f64;
    let final_digest = *inputs.segment_digests.last().ok_or("no reference digests")?;
    let decode = timed(reps, || {
        let mut reader = f.open()?;
        let start = Instant::now();
        let mut fold = 0u64;
        for _ in 0..f.records {
            let a = reader.try_next().map_err(|e| format!("decode: {e}"))?;
            fold ^= u64::from(a.row.0) ^ a.gap;
        }
        let s = secs(start);
        black_box(fold);
        Ok(s)
    })?;
    let decoded = read_records(&mut f.open()?, f.records).map_err(|e| format!("decode: {e}"))?;
    out.put("workloads.decode_ns", decode * 1e9 / n);
    let bytes = fs::metadata(&f.trace).map_err(|e| format!("stat trace: {e}"))?.len();
    out.put("workloads.trace_bytes_per_access", bytes as f64 / n);

    let route = timed(reps, || {
        let mut system = f.build_system(&f.cfg.defense);
        let (mut router, _) = system.split_streaming();
        let start = Instant::now();
        for a in &decoded {
            black_box(router.route_one(a).map_err(|e| format!("route: {e}"))?);
        }
        Ok(secs(start))
    })?;
    out.put("memctrl.route_ns", route * 1e9 / n);

    // The system layer plain and under the tap, interleaved so drift hits
    // both alike, for a tenth of the budget so short calls (the matrix's
    // cell) still resolve the tap's cost. Both must reproduce the reference
    // digest; the last tapped run's log is the per-bank streams the rungs
    // below replay.
    let (mut untapped, mut tapped) = (Vec::new(), Vec::new());
    let (mut last, mut streams) = (None, None);
    let start = Instant::now();
    let mut round = 0;
    while round < reps || secs(start) < seconds / 10.0 {
        round += 1;
        for tap in [round % 2 == 0, round % 2 == 1] {
            let tap_factory = TapFactory::new(&f.cfg.defense);
            let factory: &dyn DefenseFactory = if tap { &tap_factory } else { &f.cfg.defense };
            let mut system = f.build_system(factory);
            let start = Instant::now();
            system.try_run_batched(&decoded).map_err(|e| format!("system: {e}"))?;
            let s = secs(start);
            if tap {
                tapped.push(s);
                if stats_digest(&system.finish()) != final_digest {
                    out.problem("tapped system run differs from the reference digest".into());
                }
                drop(system);
                streams = Some(tap_factory.streams());
            } else {
                untapped.push(s);
                last = Some(system);
            }
        }
    }
    let system = median(&untapped);
    let mut final_system = last.ok_or("no system repetition ran")?;
    let stats = final_system.finish();
    if stats_digest(&stats) != final_digest {
        out.problem("single-threaded system run differs from the reference digest".into());
    }
    out.put("memctrl.system_ns", system * 1e9 / n);
    out.put("sim.trace_overhead_pct", (median(&tapped) / system - 1.0) * 100.0);
    let m = &stats.merged;
    out.put("memctrl.row_hit_ratio", m.row_hits as f64 / m.accesses.max(1) as f64);
    out.put(
        "memctrl.defense_refreshes_per_macc",
        m.defense_refresh_commands as f64 * 1e6 / m.accesses.max(1) as f64,
    );

    let streams = streams.ok_or("no tapped repetition ran")?;
    let acts = streams.acts();
    if acts != m.activations {
        out.problem(format!("captured {acts} activations, the system counted {}", m.activations));
    }

    let mut plain = f.cfg.clone();
    plain.checkpoint = None;
    let pipeline = timed(reps, || {
        let start = Instant::now();
        let report = run_fleet(&plain, &f.trace, |_| {}).map_err(|e| format!("pipeline: {e}"))?;
        let s = secs(start);
        if stats_digest(&report.stats) != final_digest {
            return Err("pipeline run differs from the reference digest".into());
        }
        Ok(s)
    })?;
    out.put("sim.pipeline_ns", pipeline * 1e9 / n);

    // Checkpointed replays with per-segment marks.
    let ckpt = checkpoint_path(inputs, "ladder");
    let mut cfg = f.cfg.clone();
    cfg.checkpoint = Some(ckpt.clone());
    // The matrix spends its budget on its own calls instead (`matrix_rungs`).
    let budget = if inputs.matrix.is_none() { seconds / 2.0 } else { 0.0 };
    let replays = repeated(budget, reps, || fleet_rep(inputs, &cfg));
    for r in &replays {
        out.units(r.units, r.failed);
    }
    let segments: Vec<f64> = replays.iter().flat_map(|r| r.segment_seconds.clone()).collect();
    let fleet = median(&replays.iter().map(|r| r.seconds).collect::<Vec<_>>());
    out.put("sim.fleet_ns", fleet * 1e9 / n);
    out.put("sim.segment_ms_p50", quantile(&segments, 0.5) * 1e3);
    out.put("sim.segment_ms_p90", quantile(&segments, 0.9) * 1e3);

    let snapshot = timed(reps, || {
        let start = Instant::now();
        black_box(final_system.snapshot().map_err(|e| format!("snapshot: {e}"))?);
        Ok(secs(start))
    })?;
    out.put("memctrl.snapshot_ms", snapshot * 1e3);
    let fs_real = real_fs();
    let fingerprint = CkptFingerprint::of(&f.cfg);
    let name = f.open()?.name();
    let snap_path = checkpoint_path(inputs, "snapshot");
    let ckpt_write = timed(reps, || {
        let start = Instant::now();
        write_fleet_checkpoint(
            fs_real.as_ref(),
            &snap_path,
            &name,
            f.records,
            &final_system,
            &fingerprint,
        )
        .map_err(|e| format!("checkpoint write: {e}"))?;
        Ok(secs(start))
    })?;
    out.put("sim.ckpt_write_ms", ckpt_write * 1e3);
    let ckpt_bytes = fs::metadata(&snap_path).map_err(|e| format!("stat checkpoint: {e}"))?.len();
    out.put("sim.ckpt_bytes", ckpt_bytes as f64);
    let mut restored = None;
    let restore = timed(reps, || {
        let mut fresh = f.build_system(&f.cfg.defense);
        let start = Instant::now();
        let ck = read_fleet_checkpoint(fs_real.as_ref(), &snap_path)
            .map_err(|e| format!("checkpoint read: {e}"))?;
        ck.restore_into(&mut fresh).map_err(|e| format!("checkpoint restore: {e}"))?;
        let s = secs(start);
        restored = Some(fresh);
        Ok(s)
    })?;
    out.put("sim.ckpt_restore_ms", restore * 1e3);
    if let Some(mut r) = restored {
        if stats_digest(&r.finish()) != final_digest {
            out.problem("restored system differs from the checkpointed one".into());
        }
    }
    let _ = fs::remove_file(&snap_path);
    let _ = fs::remove_file(&ckpt);

    let rungs = TraceRungs {
        decode,
        route,
        system,
        pipeline,
        fleet,
        ckpt_write,
        acts_per_access: acts as f64 / n,
        stats: stats.merged,
    };
    Ok((rungs, decoded, streams))
}

/// Each fleet segment resumed alone from the checkpoint before it: the
/// fleet's unit of work run in isolation (`sim.group_ms_*`). Returns the
/// per-segment seconds.
fn segments_alone(inputs: &Inputs, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let f = &inputs.fleet;
    let ckpt = checkpoint_path(inputs, "boundary");
    let _ = fs::remove_file(&ckpt);
    let mut cfg = f.cfg.clone();
    cfg.checkpoint = Some(ckpt.clone());
    let mut boundaries = Vec::new();
    let mut copy_err = None;
    run_fleet(&cfg, &f.trace, |_| {
        let dst = checkpoint_path(inputs, &format!("boundary{}", boundaries.len()));
        if let Err(e) = fs::copy(&ckpt, &dst) {
            copy_err = Some(format!("copy checkpoint: {e}"));
        }
        boundaries.push(dst);
    })
    .map_err(|e| format!("boundary run: {e}"))?;
    if let Some(e) = copy_err {
        return Err(e);
    }
    let alone = checkpoint_path(inputs, "alone");
    let mut times = Vec::new();
    for (i, expected) in inputs.segment_digests.iter().enumerate() {
        let _ = fs::remove_file(&alone);
        if i > 0 {
            fs::copy(&boundaries[i - 1], &alone).map_err(|e| format!("copy checkpoint: {e}"))?;
        }
        cfg.checkpoint = Some(alone.clone());
        cfg.stop_after = Some((i as u64 + 1) * f.cfg.segment);
        let start = Instant::now();
        let report = run_fleet(&cfg, &f.trace, |_| {}).map_err(|e| format!("segment {i}: {e}"))?;
        times.push(secs(start));
        out.units(1, u64::from(stats_digest(&report.stats) != *expected));
    }
    for p in boundaries.iter().chain([&alone, &ckpt]) {
        let _ = fs::remove_file(p);
    }
    Ok(times)
}

/// ns per activation of every defense-layer variant on the captured
/// streams, timed interleaved; cross-checks that the variants that must
/// agree issue identical action counts. Returns (defense, audit, table) ns.
fn stream_rungs(
    f: &FleetInput,
    streams: &Streams,
    reps: usize,
    system_refreshes: u64,
    out: &mut Outcome,
) -> Result<(f64, f64, f64), String> {
    let acts = streams.acts().max(1) as f64;
    let rows = f.cfg.system.geometry.rows_per_bank;
    let (t_rh, k) = f.graphene();
    let params = GrapheneConfig::builder()
        .row_hammer_threshold(t_rh)
        .reset_window_divisor(k)
        .rows_per_bank(rows)
        .timing(f.cfg.system.generation.timing())
        .build()
        .and_then(|c| c.derive())
        .map_err(|e| format!("derive Graphene parameters: {e}"))?;
    let spec = &f.cfg.defense;
    let lineup = generation_lineup(TRACKER_GENERATION, TRACKER_T_RH);
    let tracker = |name: &str| {
        let spec = lineup
            .iter()
            .find(|s| s.defense.name().starts_with(name))
            .unwrap_or_else(|| unreachable!("the generation lineup carries {name}"));
        spec.defense
    };
    let graphene_1k = DefenseSpec::Graphene { t_rh: TRACKER_T_RH, k: 2 };
    let bare_1k = move |b: usize| graphene_1k.build_for(TRACKER_GENERATION, b, rows);
    let sink = SharedSink::new();
    type Build<'a> = Box<dyn Fn(usize) -> Box<dyn RowHammerDefense + Send> + 'a>;
    let trackers = [
        ("mitigations.para_ns", tracker("PARA")),
        ("mitigations.comet_ns", tracker("CoMeT")),
        ("mitigations.abacus_ns", tracker("ABACuS")),
        ("mitigations.blockhammer_ns", tracker("BlockHammer")),
    ];
    // (name, events replayed, per-bank constructor)
    let all = usize::MAX;
    let mut variants: Vec<(&'static str, usize, Build)> = vec![
        ("defense", all, Box::new(|b| spec.build_defense(b, rows, false))),
        ("audit", all, Box::new(|b| spec.build_defense(b, rows, true))),
        ("mitigations.graphene_ns", TRACKER_EVENTS, Box::new(bare_1k)),
        (
            "rfm",
            TRACKER_EVENTS,
            Box::new(|b| {
                GenSpec::new(TRACKER_GENERATION, graphene_1k).build_defense(b, rows, false)
            }),
        ),
        (
            "noop",
            TRACKER_EVENTS,
            Box::new(|b| {
                instrumented(
                    bare_1k(b),
                    Box::new(NoopSink),
                    b as u16,
                    rows,
                    Cadence::EveryActs(1_000),
                )
            }),
        ),
        (
            "recorded",
            TRACKER_EVENTS,
            Box::new(|b| {
                instrumented(
                    bare_1k(b),
                    Box::new(sink.clone()),
                    b as u16,
                    rows,
                    Cadence::EveryActs(1_000),
                )
            }),
        ),
    ];
    for (name, spec) in trackers {
        variants.push((
            name,
            TRACKER_EVENTS,
            Box::new(move |b| spec.build_for(TRACKER_GENERATION, b, rows)),
        ));
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); variants.len() + 1];
    let mut actions = vec![0u64; variants.len() + 1];
    for _ in 0..reps {
        for (i, (_, limit, build)) in variants.iter().enumerate() {
            let (s, a, n) = streams.replay_defenses(*limit, build);
            samples[i].push(s * 1e9 / n.max(1) as f64);
            actions[i] = a;
        }
        let (s, triggers) = streams.replay_tables(&params);
        samples[variants.len()].push(s * 1e9 / acts);
        actions[variants.len()] = triggers;
    }
    let ns: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let at = |name: &str| variants.iter().position(|(n, ..)| *n == name).expect("known variant");
    let (defense, audit, table) = (ns[at("defense")], ns[at("audit")], ns[variants.len()]);
    let graphene = ns[at("mitigations.graphene_ns")];
    out.put("mitigations.defense_ns", defense);
    out.put("mitigations.audit_ns", audit);
    out.put("core.table_ns", table);
    out.put("core.n_entry", params.n_entry as f64);
    out.put("core.triggers_per_mact", actions[variants.len()] as f64 * 1e6 / acts);
    out.put("mitigations.rfm_ns", ns[at("rfm")] - graphene);
    out.put("telemetry.noop_ns", ns[at("noop")] - graphene);
    out.put("telemetry.recorded_ns", ns[at("recorded")] - graphene);
    for (name, ..) in &variants {
        if name.starts_with("mitigations.") {
            out.put(name, ns[at(name)]);
        }
    }
    // Invariants of the replay: the bare defense reproduces the system's
    // refresh count, the table triggers exactly when Graphene does, and
    // the observation-only wrappers change nothing.
    let expect = |out: &mut Outcome, what: &str, got: u64, want: u64| {
        if got != want {
            out.problem(format!("{what}: {got} actions, expected {want}"));
        }
    };
    let wrapper = if f.cfg.audit { "audit" } else { "defense" };
    expect(out, "replayed defense", actions[at(wrapper)], system_refreshes);
    expect(out, "counter table", actions[variants.len()], actions[at("defense")]);
    for v in ["rfm", "noop", "recorded"] {
        expect(out, v, actions[at(v)], actions[at("mitigations.graphene_ns")]);
    }
    Ok((defense, audit, table))
}

/// `McBuilder::build` + `MemoryController::try_run` over the decoded
/// trace as one flat cell, oracle off and on; the oracle must not change
/// any counter of a protected run. Returns (off, on) seconds.
fn cell_rungs(
    f: &FleetInput,
    decoded: Vec<Access>,
    reps: usize,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let (t_rh, _) = f.graphene();
    let trace = Trace::from_accesses("cell", decoded);
    let run = |oracle: bool| -> Result<(f64, memctrl::RunStats), String> {
        let mut cfg = f.cfg.system.clone();
        cfg.fault_model = oracle.then(|| DisturbanceModel { t_rh, ..DisturbanceModel::ddr4_50k() });
        let mut replay = trace.replay();
        let start = Instant::now();
        let mut mc = McBuilder::new(cfg).defenses(&f.cfg.defense).audit(f.cfg.audit).build();
        let stats = mc.try_run(&mut replay, f.records).map_err(|e| format!("cell: {e}"))?;
        Ok((secs(start), stats))
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let (mut off_stats, mut on_stats) = (None, None);
    for i in 0..reps {
        for oracle in [i % 2 == 0, i % 2 == 1] {
            let (s, stats) = run(oracle)?;
            if oracle {
                on.push(s);
                on_stats = Some(stats);
            } else {
                off.push(s);
                off_stats = Some(stats);
            }
        }
    }
    if off_stats != on_stats {
        out.problem("arming the fault oracle changed a protected run's statistics".into());
    }
    Ok((median(&off), median(&on)))
}

/// The gen_matrix rungs: repeated matrix calls, then every group run alone,
/// plus the matrix's count totals. Returns (matrix seconds, per-group
/// seconds).
fn matrix_rungs(
    inputs: &Inputs,
    reps: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(f64, Vec<f64>), String> {
    let m = inputs.matrix.as_ref().ok_or("not a matrix workload")?;
    let calls = repeated(seconds / 2.0, reps, || matrix_rep(inputs));
    for r in &calls {
        out.units(r.units, r.failed);
    }
    let wall = median(&calls.iter().map(|r| r.seconds).collect::<Vec<_>>());
    let mut cells = Vec::new();
    let mut groups = Vec::new();
    for (g, t_rh, w) in matrix_groups(m) {
        let start = Instant::now();
        cells.extend(run_group(m, g, t_rh, &w));
        groups.push(secs(start));
    }
    if check_cells(inputs, &cells) != 0 {
        out.problem("groups run alone differ from the reference cells".into());
    }
    let total = |f: fn(&rh_sim::GenerationCell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    out.put("memctrl.rfm_commands", total(|c| c.rfm_commands));
    out.put("memctrl.forced_rfms", total(|c| c.forced_rfms));
    out.put("memctrl.throttled_acts", total(|c| c.throttled_acts));
    out.put("dram.bit_flips", total(|c| c.bit_flips));
    Ok((wall, groups))
}

/// Runs the whole ladder.
///
/// # Errors
///
/// When a layer fails outright (a typed error from the program); digest
/// and invariant mismatches are reported as problems in the outcome.
pub fn run(inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reps = if inputs.smoke { 2 } else { 5 };
    let f = &inputs.fleet;
    let n = f.records as f64;
    let (t, decoded, streams) = trace_rungs(inputs, reps, seconds, &mut out)?;
    let refreshes = t.stats.defense_refresh_commands;
    let (defense, audit, table) = stream_rungs(f, &streams, reps, refreshes, &mut out)?;
    drop(streams);
    let (cell_off, cell_on) = cell_rungs(f, decoded, reps, &mut out)?;
    out.put("memctrl.cell_ns", cell_off * 1e9 / n);
    out.put("dram.oracle_ns", (cell_on - cell_off) * 1e9 / n);

    let threads = threads_used(inputs) as f64;
    let (wall, units) = match inputs.matrix {
        None => {
            let m = &t.stats;
            out.put("memctrl.rfm_commands", m.rfm_commands as f64);
            out.put("memctrl.forced_rfms", m.forced_rfms as f64);
            out.put("memctrl.throttled_acts", m.throttled_acts as f64);
            out.put("dram.bit_flips", m.bit_flips as f64);
            (t.fleet, segments_alone(inputs, &mut out)?)
        }
        Some(_) => matrix_rungs(inputs, reps, seconds, &mut out)?,
    };
    let ms: Vec<f64> = units.iter().map(|s| s * 1e3).collect();
    out.put("sim.group_ms_p50", median(&ms));
    out.put("sim.group_ms_max", ms.iter().copied().fold(0.0, f64::max));
    out.put("sim.pool_efficiency", units.iter().sum::<f64>() / (wall * threads));

    // Ladder closure, ns per access: each rung's self time, then what no
    // rung explains.
    let per = |s: f64| s * 1e9 / n;
    let apa = t.acts_per_access;
    let wrapper = if f.cfg.audit { audit } else { defense };
    let mut rungs = vec![
        ("workloads.decode", per(t.decode)),
        ("memctrl.route", per(t.route)),
        ("memctrl.controller", per(t.system) - per(t.route) - wrapper * apa),
    ];
    if f.cfg.audit {
        rungs.push(("mitigations.audit", (audit - defense) * apa));
    }
    rungs.extend([
        ("mitigations.defense", (defense - table) * apa),
        ("core.table", table * apa),
        ("sim.pipeline", per(t.pipeline) - per(t.decode) - per(t.system)),
        ("sim.checkpoint", per(t.ckpt_write) * f.segments() as f64),
    ]);
    let fleet = per(t.fleet);
    let residual = fleet - rungs.iter().map(|&(_, v)| v).sum::<f64>();
    let negative = rungs.iter().filter(|&&(_, v)| v < 0.0).count();
    eprintln!("perfbench: ladder of {} (ns per access; self times)", inputs.profile.name());
    for (name, v) in rungs.iter().chain([&("sim.residual", residual), &("sim.fleet", fleet)]) {
        let flag = if *v < 0.0 { "  NEGATIVE: overlapped or below noise" } else { "" };
        eprintln!("  {name:<22} {v:>10.2} {:>7.1}%{flag}", v / fleet * 100.0);
    }
    out.put("sim.residual_ns", residual);
    out.put("sim.negative_rungs", negative as f64);
    Ok(out)
}
