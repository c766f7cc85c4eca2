//! Fleet replay driver: synthesize a multi-tenant RHT4 trace, then stream
//! it from disk through the channel-sharded controller at bounded memory,
//! checkpointing between segments and emitting live telemetry.
//!
//! Two subcommands:
//!
//! * `synth` — write a trace of thousands of interleaved Zipf/streaming/
//!   attacker tenants (see `rh_sim::synth_fleet_trace`). Memory stays
//!   O(clients + chunk) however many records are written.
//! * `run` — stream a trace through the sharded SPSC pipeline in
//!   checkpointed segments. If the checkpoint file already exists the run
//!   **resumes** from it; the resumed run is bit-identical to an
//!   uninterrupted one (pinned by the `fleet_replay` proptest and the
//!   fleet-smoke CI job). One `fleettelem.v1` JSONL line is emitted per
//!   segment with cumulative and delta counters plus the simulated-seconds
//!   clock; the final `final ...` line is a stable digest two runs can be
//!   diffed on.
//!
//! Usage:
//!   fleet-replay synth --out PATH [--clients N] [--accesses N] [--seed N] [--small]
//!   fleet-replay run --trace PATH [--checkpoint PATH] [--segment N]
//!                    [--stop-after N] [--threads N] [--trh N] [--audit] [--small]

use std::path::PathBuf;
use std::process::exit;

use dram_model::geometry::DramGeometry;
use rh_bench::{audit_mode, banner};
use rh_sim::{run_fleet, synth_fleet_trace, DefenseSpec, FleetConfig, FleetProgress};

const PS_PER_SECOND: u64 = 1_000_000_000_000;

fn usage() -> ! {
    eprintln!(
        "usage:\n  fleet-replay synth --out PATH [--clients N] [--accesses N] [--seed N] [--small]\n  \
         fleet-replay run --trace PATH [--checkpoint PATH] [--segment N] [--stop-after N]\n                   \
         [--threads N] [--trh N] [--audit] [--small]"
    );
    exit(2);
}

/// Tiny flag parser: `--key value` pairs plus boolean switches.
struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Self {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("unexpected argument `{a}`");
                usage();
            };
            if switches.contains(&key) {
                flags.push((key.to_owned(), None));
            } else {
                let Some(v) = it.next() else {
                    eprintln!("flag --{key} needs a value");
                    usage();
                };
                flags.push((key.to_owned(), Some(v.clone())));
            }
        }
        Args { flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn num(&self, key: &str, default: u64) -> u64 {
        self.get(key).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} wants an integer, got `{v}`");
                usage();
            })
        })
    }

    fn path(&self, key: &str) -> PathBuf {
        PathBuf::from(self.get(key).unwrap_or_else(|| {
            eprintln!("--{key} is required");
            usage();
        }))
    }
}

fn geometry(small: bool) -> DramGeometry {
    if small {
        DramGeometry { channels: 4, ranks_per_channel: 1, banks_per_rank: 4, rows_per_bank: 4_096 }
    } else {
        FleetConfig::micro2020(DefenseSpec::None).system.geometry
    }
}

fn synth(args: &Args) {
    let out = args.path("out");
    let small = args.has("small");
    let clients = args.num("clients", if small { 64 } else { 2_048 });
    let clients = u16::try_from(clients).unwrap_or_else(|_| {
        eprintln!("--clients must fit u16 (stream ids are u16)");
        usage();
    });
    let accesses = args.num("accesses", if small { 60_000 } else { 100_000_000 });
    let seed = args.num("seed", 42);
    let geometry = geometry(small);
    banner("fleet-replay synth");
    println!(
        "writing {accesses} records from {clients} tenants over {}ch x {}rk x {}bk x {} rows -> {}",
        geometry.channels,
        geometry.ranks_per_channel,
        geometry.banks_per_rank,
        geometry.rows_per_bank,
        out.display()
    );
    synth_fleet_trace(&out, "fleet", &geometry, clients, accesses, seed).unwrap_or_else(|e| {
        eprintln!("synthesis failed: {e}");
        exit(1);
    });
    println!("done: {} bytes", std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0));
}

/// One `fleettelem.v1` JSONL line per segment: simulated-second clock plus
/// cumulative and since-last-segment counters.
fn emit_telemetry(p: &FleetProgress, prev: &mut (u64, u64)) {
    let m = &p.stats.merged;
    let (last_acts, last_victims) = *prev;
    println!(
        "{{\"schema\":\"fleettelem.v1\",\"sim_s\":{},\"sim_ps\":{},\"accesses_done\":{},\
         \"goal\":{},\"activations\":{},\"d_activations\":{},\"victim_rows\":{},\
         \"d_victim_rows\":{},\"refreshes\":{},\"bit_flips\":{}}}",
        p.clock / PS_PER_SECOND,
        p.clock,
        p.accesses_done,
        p.goal,
        m.activations,
        m.activations - last_acts,
        m.victim_rows_refreshed,
        m.victim_rows_refreshed - last_victims,
        m.refreshes,
        m.bit_flips,
    );
    *prev = (m.activations, m.victim_rows_refreshed);
}

fn run(args: &Args) {
    let trace = args.path("trace");
    let small = args.has("small");
    let mut cfg =
        FleetConfig::micro2020(DefenseSpec::Graphene { t_rh: args.num("trh", 50_000), k: 2 });
    cfg.system.geometry = geometry(small);
    cfg.audit = args.has("audit") || audit_mode();
    cfg.threads = args.num(
        "threads",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4) as u64,
    ) as usize;
    cfg.segment = args.num("segment", if small { 10_000 } else { 1_000_000 });
    cfg.checkpoint = args.get("checkpoint").map(PathBuf::from);
    cfg.stop_after = args.get("stop-after").map(|_| args.num("stop-after", 0));
    banner("fleet-replay run");
    println!(
        "trace {}, segment {}, {} thread(s), audit: {}, checkpoint: {}",
        trace.display(),
        cfg.segment,
        cfg.threads,
        cfg.audit,
        cfg.checkpoint.as_deref().map_or("none".into(), |p| p.display().to_string()),
    );
    let mut prev = (0, 0);
    let report = run_fleet(&cfg, &trace, |p| emit_telemetry(p, &mut prev)).unwrap_or_else(|e| {
        eprintln!("fleet replay failed: {e}");
        exit(1);
    });
    if let Some(from) = report.resumed_from {
        println!("resumed from checkpoint at {from} accesses");
    }
    let m = &report.stats.merged;
    // Stable digest line: two runs over the same trace (interrupted or not)
    // must print identical `final` lines. CI diffs on this.
    println!(
        "final accesses={} activations={} row_hits={} refreshes={} defense_refreshes={} \
         victim_rows={} completion={} latency={} flips={}",
        m.accesses,
        m.activations,
        m.row_hits,
        m.refreshes,
        m.defense_refresh_commands,
        m.victim_rows_refreshed,
        m.completion,
        m.total_latency,
        m.bit_flips,
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else { usage() };
    let rest = &raw[1..];
    match cmd.as_str() {
        "synth" => synth(&Args::parse(rest, &["small"])),
        "run" => run(&Args::parse(rest, &["small", "audit"])),
        _ => usage(),
    }
}
