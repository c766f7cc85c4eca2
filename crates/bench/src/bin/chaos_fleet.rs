//! Chaos harness for the crash-and-corruption-safe fleet service.
//!
//! Runs the supervised fleet replay (`rh_sim::run_fleet_supervised`) under
//! deterministic injected I/O faults — torn checkpoint writes, trace bit
//! rot (transient and persistent), fsync failures, reader stalls, and a
//! config-fingerprint mismatch — and asserts **in-process** the contract
//! DESIGN.md §6l promises: every injected corruption is either
//!
//! * **recovered** — the run completes and its final statistics are
//!   bit-identical to the fault-free run's, or
//! * **surfaced typed** — the run fails with a precise `FleetError`,
//!
//! and never a third thing: a run that completes with silently wrong
//! numbers. The per-scenario claims print as a table; any violated claim
//! fails the process, so CI can gate on the exit code alone.
//!
//! Faults are injected through `faultsim::ChaosFs`, a fallible-filesystem
//! shim planted under the *unmodified* trace reader and checkpoint writer
//! via the `workloads::vfs` seam, keyed by deterministic op index — every
//! scenario reproduces bit-identically from its plan.
//!
//! Usage:
//!   chaos-fleet [--audit] [--trh N] [--threads N]

use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

use dram_model::geometry::DramGeometry;
use faultsim::{ChaosFs, IoFaultKind, IoFaultPlan};
use memctrl::SystemStats;
use rh_bench::{audit_mode, banner};
use rh_sim::{
    run_fleet, run_fleet_supervised, synth_fleet_trace, DefenseSpec, FleetConfig, FleetError,
    SupervisorConfig,
};
use workloads::{real_fs, Vfs};

const TRACE_LEN: u64 = 24_000;
const SEGMENT: u64 = 6_000;

/// One row of the claim table.
struct Claim {
    scenario: &'static str,
    injected: String,
    outcome: &'static str, // "recovered" | "surfaced"
    detail: String,
    failures: Vec<String>,
}

struct Harness {
    dir: PathBuf,
    trh: u64,
    audit: bool,
    threads: usize,
    reference: Option<SystemStats>,
    trace: PathBuf,
    claims: Vec<Claim>,
}

impl Harness {
    fn matches_reference(&self, stats: &SystemStats) -> bool {
        self.reference.as_ref() == Some(stats)
    }

    fn config(&self) -> FleetConfig {
        let mut cfg = FleetConfig::micro2020(DefenseSpec::Graphene { t_rh: self.trh, k: 2 });
        cfg.system.geometry = DramGeometry {
            channels: 4,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 4_096,
        };
        cfg.audit = self.audit;
        cfg.threads = self.threads;
        cfg.batch = 32;
        cfg.segment = SEGMENT;
        cfg
    }

    fn claim(&mut self, scenario: &'static str, injected: String, outcome: &'static str) -> usize {
        self.claims.push(Claim {
            scenario,
            injected,
            outcome,
            detail: String::new(),
            failures: Vec::new(),
        });
        self.claims.len() - 1
    }

    fn check(&mut self, idx: usize, ok: bool, what: &str) {
        if !ok {
            self.claims[idx].failures.push(what.to_owned());
        }
    }
}

const USAGE: &str = "usage: chaos-fleet [--audit] [--trh N] [--threads N]";

/// The value of `--{flag}`: an integer of at least 1, or exit 2 with the
/// usage message.
fn positive(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse::<u64>) {
        Some(Ok(n)) if n > 0 => n,
        _ => {
            let got = value.map_or("nothing".to_owned(), |v| format!("`{v}`"));
            eprintln!("--{flag} wants an integer of at least 1, got {got}\n{USAGE}");
            exit(2);
        }
    }
}

/// Removes the harness's scratch directory and exits 1 with `msg`: the
/// set-up failed before any scenario ran.
fn abort(dir: &Path, msg: String) -> ! {
    std::fs::remove_dir_all(dir).ok();
    eprintln!("{msg}");
    exit(1);
}

fn main() {
    let mut audit = audit_mode();
    let mut trh = 2_000u64;
    let mut threads = 2usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--audit" => audit = true,
            "--trh" => trh = positive("trh", it.next()),
            "--threads" => threads = positive("threads", it.next()) as usize,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                exit(2);
            }
        }
    }
    banner("chaos-fleet");
    let dir = std::env::temp_dir().join(format!("graphene_chaos_fleet_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let trace = dir.join("chaos.rht4");
    let mut probe = Harness {
        trace: trace.clone(),
        dir: dir.clone(),
        trh,
        audit,
        threads,
        reference: None,
        claims: Vec::new(),
    };
    println!("synthesizing {TRACE_LEN}-record fleet trace (audit: {audit}, t_rh: {trh})");
    synth_fleet_trace(&trace, "chaos-fleet", &probe.config().system.geometry, 48, TRACE_LEN, 7)
        .unwrap_or_else(|e| abort(&dir, format!("trace synthesis failed: {e}")));
    println!("computing fault-free reference digest");
    let reference = run_fleet(&probe.config(), &trace, |_| {})
        .unwrap_or_else(|e| abort(&dir, format!("fault-free reference run failed: {e}")));
    probe.reference = Some(reference.stats);
    let mut h = probe;

    torn_checkpoint_crash_then_resume(&mut h);
    torn_checkpoint_caught_by_write_verification(&mut h);
    transient_trace_bit_rot(&mut h);
    persistent_trace_bit_rot(&mut h);
    fsync_failure_on_checkpoint(&mut h);
    config_fingerprint_mismatch(&mut h);
    reader_stall(&mut h);

    // ---- claim table ----
    println!("\nclaim table (chaos-fleet.v1)");
    println!("{:<28} {:<38} {:<10} detail", "scenario", "injected", "outcome");
    let mut failed = 0usize;
    for c in &h.claims {
        println!("{:<28} {:<38} {:<10} {}", c.scenario, c.injected, c.outcome, c.detail);
        for f in &c.failures {
            failed += 1;
            println!("  FAIL: {f}");
        }
    }
    std::fs::remove_dir_all(&h.dir).ok();
    if failed > 0 {
        eprintln!("\n{failed} claim(s) violated");
        exit(1);
    }
    println!(
        "\nall {} scenarios held: every injected corruption was recovered \
         (digest bit-identical) or surfaced typed — none silently wrong",
        h.claims.len()
    );
}

/// (a) of the acceptance criteria: a checkpoint write torn by a crash is
/// quarantined at the next start, the run rolls back to the previous
/// generation, and the resumed digest is bit-identical to fault-free.
fn torn_checkpoint_crash_then_resume(h: &mut Harness) {
    let idx = h.claim(
        "torn-ckpt-crash-resume",
        "torn write, 2nd ckpt, crash before verify".to_owned(),
        "recovered",
    );
    let base = h.dir.join("s1.ckpt");
    // Phase 1: the second checkpoint write (write op 1 on ckpt paths) tears
    // at byte 180; verification is off, simulating a process that crashed
    // before it could read the file back.
    let plan = IoFaultPlan::single(1, IoFaultKind::TornWrite { at_byte: 180 });
    let chaos = ChaosFs::filtered(real_fs(), &plan, "s1.ckpt");
    let mut fleet = h.config();
    fleet.fs = Some(chaos.clone() as Arc<dyn Vfs>);
    fleet.checkpoint = Some(base.clone());
    fleet.stop_after = Some(2 * SEGMENT);
    let mut sup_cfg = SupervisorConfig::new(fleet);
    sup_cfg.verify_writes = false;
    let phase1 = run_fleet_supervised(&sup_cfg, &h.trace.clone(), |_| {});
    h.check(idx, phase1.is_ok(), "phase 1 (crashing writer) should run to its stop point");
    h.check(idx, chaos.injected().len() == 1, "the torn write should have fired");

    // Phase 2: a fresh supervised start on the real filesystem.
    let mut fleet = h.config();
    fleet.checkpoint = Some(base);
    let sup_cfg = SupervisorConfig::new(fleet);
    match run_fleet_supervised(&sup_cfg, &h.trace.clone(), |_| {}) {
        Ok(sup) => {
            h.check(idx, sup.quarantined.len() == 1, "torn generation should be quarantined");
            h.check(
                idx,
                sup.quarantined.first().is_some_and(|p| p.exists()),
                "quarantine should preserve the corrupt file",
            );
            h.check(idx, sup.rollbacks >= 1, "discarding the torn generation is a rollback");
            h.check(
                idx,
                sup.report.resumed_from == Some(SEGMENT),
                "resume should fall back to the previous generation",
            );
            h.check(
                idx,
                h.matches_reference(&sup.report.stats),
                "recovered digest must be bit-identical to fault-free",
            );
            h.claims[idx].detail = format!(
                "rolled back to {} of {}, {} quarantined, digest ok",
                sup.report.resumed_from.unwrap_or(0),
                2 * SEGMENT,
                sup.quarantined.len()
            );
        }
        Err(e) => h.check(idx, false, &format!("phase 2 should recover, got: {e}")),
    }
}

/// The same torn write caught immediately by read-back verification: the
/// supervisor quarantines the slot and rewrites, in one run.
fn torn_checkpoint_caught_by_write_verification(h: &mut Harness) {
    let idx =
        h.claim("torn-ckpt-verified", "torn write, 1st ckpt, verify on".to_owned(), "recovered");
    let plan = IoFaultPlan::single(0, IoFaultKind::TornWrite { at_byte: 100 });
    let chaos = ChaosFs::filtered(real_fs(), &plan, "s2.ckpt");
    let mut fleet = h.config();
    fleet.fs = Some(chaos.clone() as Arc<dyn Vfs>);
    fleet.checkpoint = Some(h.dir.join("s2.ckpt"));
    let sup_cfg = SupervisorConfig::new(fleet);
    match run_fleet_supervised(&sup_cfg, &h.trace.clone(), |_| {}) {
        Ok(sup) => {
            h.check(idx, chaos.injected().len() == 1, "the torn write should have fired");
            h.check(idx, sup.retries >= 1, "the torn checkpoint should force a rewrite");
            h.check(idx, sup.corrupt_chunks >= 1, "the read-back should count the corruption");
            h.check(idx, sup.quarantined.len() == 1, "the torn slot should be quarantined");
            h.check(idx, h.matches_reference(&sup.report.stats), "digest must match fault-free");
            h.claims[idx].detail = format!(
                "caught at write time: {} retry(ies), {} quarantined, digest ok",
                sup.retries,
                sup.quarantined.len()
            );
        }
        Err(e) => h.check(idx, false, &format!("verified writes should recover, got: {e}")),
    }
}

/// Transient bit rot on the trace read path (the bytes on disk are fine):
/// the chunk CRC rejects the read, the supervisor rolls back and retries,
/// and the retry reads clean.
fn transient_trace_bit_rot(h: &mut Harness) {
    let idx = h.claim(
        "trace-bit-rot-transient",
        "read-path bit flip, trace read op 7".to_owned(),
        "recovered",
    );
    let plan = IoFaultPlan::single(7, IoFaultKind::BitRot { byte: 5_000, bit: 3 });
    let chaos = ChaosFs::filtered(real_fs(), &plan, "chaos.rht4");
    let mut fleet = h.config();
    fleet.fs = Some(chaos.clone() as Arc<dyn Vfs>);
    fleet.checkpoint = Some(h.dir.join("s3.ckpt"));
    let sup_cfg = SupervisorConfig::new(fleet);
    match run_fleet_supervised(&sup_cfg, &h.trace.clone(), |_| {}) {
        Ok(sup) => {
            h.check(idx, chaos.injected().len() == 1, "the bit rot should have fired");
            h.check(idx, sup.retries >= 1, "the rejected read should force a retry");
            h.check(idx, sup.rollbacks >= 1, "the retry should roll back first");
            h.check(idx, h.matches_reference(&sup.report.stats), "digest must match fault-free");
            h.claims[idx].detail = format!(
                "{} corrupt frame(s) rejected, {} retry(ies), digest ok",
                sup.corrupt_chunks, sup.retries
            );
        }
        Err(e) => h.check(idx, false, &format!("transient rot should recover, got: {e}")),
    }
}

/// (b) of the acceptance criteria: persistent on-disk bit rot in the trace
/// is detected by the chunk CRC on every attempt and surfaced as a typed
/// error after the retry budget — never replayed into wrong statistics.
fn persistent_trace_bit_rot(h: &mut Harness) {
    let idx = h.claim(
        "trace-bit-rot-persistent",
        "on-disk bit flip at trace midpoint".to_owned(),
        "surfaced",
    );
    let rotted = h.dir.join("rotted.rht4");
    let mut bytes = std::fs::read(&h.trace).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&rotted, &bytes).unwrap();
    let mut fleet = h.config();
    fleet.checkpoint = Some(h.dir.join("s4.ckpt"));
    let sup_cfg = SupervisorConfig::new(fleet);
    match run_fleet_supervised(&sup_cfg, &rotted, |_| {}) {
        Ok(sup) => h.check(
            idx,
            false,
            &format!(
                "persistent rot must not complete (stats {} reference)",
                if h.matches_reference(&sup.report.stats) { "==" } else { "!=" }
            ),
        ),
        Err(e) => {
            h.check(
                idx,
                matches!(e, FleetError::RetriesExhausted { .. }),
                &format!("expected RetriesExhausted, got: {e:?}"),
            );
            h.check(idx, e.is_corruption(), "the root cause should classify as corruption");
            h.claims[idx].detail =
                format!("typed after bounded retries: {}", first_line(&e.to_string()));
        }
    }
}

/// An injected fsync failure on the checkpoint file: a plain I/O error, not
/// corruption — the supervisor retries the write and completes.
fn fsync_failure_on_checkpoint(h: &mut Harness) {
    let idx = h.claim("fsync-fail-ckpt", "fsync failure, 1st ckpt sync".to_owned(), "recovered");
    let plan = IoFaultPlan::single(0, IoFaultKind::FsyncFail);
    let chaos = ChaosFs::filtered(real_fs(), &plan, "s5.ckpt");
    let mut fleet = h.config();
    fleet.fs = Some(chaos.clone() as Arc<dyn Vfs>);
    fleet.checkpoint = Some(h.dir.join("s5.ckpt"));
    let sup_cfg = SupervisorConfig::new(fleet);
    match run_fleet_supervised(&sup_cfg, &h.trace.clone(), |_| {}) {
        Ok(sup) => {
            h.check(idx, chaos.injected().len() == 1, "the fsync failure should have fired");
            h.check(idx, sup.retries >= 1, "the failed write should be retried");
            h.check(idx, sup.corrupt_chunks == 0, "an fsync failure is not corruption");
            h.check(idx, h.matches_reference(&sup.report.stats), "digest must match fault-free");
            h.claims[idx].detail = format!("write retried {} time(s), digest ok", sup.retries);
        }
        Err(e) => h.check(idx, false, &format!("fsync failure should recover, got: {e}")),
    }
}

/// (c) of the acceptance criteria: resuming under a different defense
/// configuration is rejected with a diagnostic naming the differing field.
fn config_fingerprint_mismatch(h: &mut Harness) {
    let idx = h.claim(
        "config-mismatch",
        format!("resume with t_rh {} ckpt under {}", h.trh / 2, h.trh),
        "surfaced",
    );
    let base = h.dir.join("s6.ckpt");
    let mut fleet = h.config();
    fleet.checkpoint = Some(base.clone());
    fleet.stop_after = Some(2 * SEGMENT);
    run_fleet_supervised(&SupervisorConfig::new(fleet), &h.trace.clone(), |_| {}).unwrap();

    let mut fleet = h.config();
    fleet.defense = DefenseSpec::Graphene { t_rh: h.trh / 2, k: 2 };
    fleet.checkpoint = Some(base);
    match run_fleet_supervised(&SupervisorConfig::new(fleet), &h.trace.clone(), |_| {}) {
        Ok(_) => h.check(idx, false, "a config-mismatched resume must not run"),
        Err(e) => {
            h.check(
                idx,
                matches!(e, FleetError::ConfigMismatch { field: "defense", .. }),
                &format!("expected ConfigMismatch on `defense`, got: {e:?}"),
            );
            h.claims[idx].detail = format!("rejected: {}", first_line(&e.to_string()));
        }
    }
}

/// A reader stall delays but never damages: the run completes clean with
/// the fault-free digest and zero retries.
fn reader_stall(h: &mut Harness) {
    let idx = h.claim("reader-stall", "5 ms stall, trace read op 5".to_owned(), "recovered");
    let plan = IoFaultPlan::single(5, IoFaultKind::ReaderStall { millis: 5 });
    let chaos = ChaosFs::filtered(real_fs(), &plan, "chaos.rht4");
    let mut fleet = h.config();
    fleet.fs = Some(chaos.clone() as Arc<dyn Vfs>);
    fleet.checkpoint = Some(h.dir.join("s7.ckpt"));
    let sup_cfg = SupervisorConfig::new(fleet);
    match run_fleet_supervised(&sup_cfg, &h.trace.clone(), |_| {}) {
        Ok(sup) => {
            h.check(idx, chaos.injected().len() == 1, "the stall should have fired");
            h.check(idx, sup.retries == 0, "a stall is a delay, not a failure");
            h.check(idx, h.matches_reference(&sup.report.stats), "digest must match fault-free");
            h.claims[idx].detail = "delayed but clean, digest ok".to_owned();
        }
        Err(e) => h.check(idx, false, &format!("a stall should not fail the run, got: {e}")),
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}
