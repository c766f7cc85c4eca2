//! Full-system smoke run: the paper's 4-channel geometry driven by the
//! system-scale attack set through the channel-sharded controller, across
//! every address-mapping policy.
//!
//! This is the CI gate for the sharded path: every (policy × workload ×
//! defense) cell must serve the whole trace, and one cell is re-run
//! sequentially to assert the sharded stats are bit-identical. Pass
//! `--audit` (or set `RH_AUDIT`) to wrap every defense in the invariant
//! audit layer and cross-check the fault oracles per shard.
//!
//! Usage: `cargo run --release -p rh-bench --bin system-smoke [--fast] [--audit]`

use memctrl::MappingPolicy;
use rh_bench::{audit_mode, banner, fast_mode, propagate_audit_mode};
use rh_sim::{run_system, run_system_sharded, DefenseSpec, SimConfig, WorkloadSpec};

fn main() {
    let fast = fast_mode();
    propagate_audit_mode();
    banner("system_smoke: 4-channel sharded matrix");

    let accesses: u64 = if fast { 20_000 } else { 200_000 };
    let mut sim = SimConfig::micro2020(accesses);
    sim.audit = audit_mode();
    let geometry = sim.system.geometry;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(geometry.channels as usize);
    println!(
        "{}ch x {}rk x {}bk, {} accesses/cell, {} thread(s), audit: {}",
        geometry.channels,
        geometry.ranks_per_channel,
        geometry.banks_per_rank,
        accesses,
        threads,
        sim.audit
    );

    let defenses = [DefenseSpec::Graphene { t_rh: 50_000, k: 2 }, DefenseSpec::Para { p: 0.00145 }];
    let workloads = WorkloadSpec::system_set(geometry.total_banks() as u16);
    let policies =
        [MappingPolicy::RowInterleaved, MappingPolicy::BankInterleaved, MappingPolicy::ChannelXor];

    // Cells run back to back: each already spreads its channels over the
    // host's cores.
    for policy in policies {
        println!("--- {} ---", policy.name());
        let cells = workloads.iter().flat_map(|w| defenses.iter().map(move |d| (w, d)));
        for (workload, defense) in cells {
            let r = run_system_sharded(&sim, policy, defense, workload, threads, 256);
            assert_eq!(
                r.stats.merged.accesses, accesses,
                "{}/{} dropped accesses",
                r.defense, r.workload
            );
            let active = r.stats.per_channel.iter().filter(|s| s.accesses > 0).count();
            // Bank-interleaved routing must spread a full-bank stripe over
            // every channel. Row-dependent policies legitimately focus some
            // shapes (same-row-all-banks touches two row values, so
            // row-interleaving lands it on two channels) — but a system
            // workload must never collapse onto a single shard.
            if policy == MappingPolicy::BankInterleaved {
                assert_eq!(
                    active,
                    r.stats.per_channel.len(),
                    "{}/{} left a channel idle under {}",
                    r.defense,
                    r.workload,
                    policy.name()
                );
            }
            assert!(
                active >= 2,
                "{}/{} collapsed onto one channel under {}",
                r.defense,
                r.workload,
                policy.name()
            );
            println!(
                "{:>22} | {:>12} | ACTs {:>8} | channels {}/{} | victim refreshes {:>6} | flips {}",
                r.workload,
                r.defense,
                r.stats.merged.activations,
                active,
                r.stats.per_channel.len(),
                r.stats.merged.victim_rows_refreshed,
                r.stats.merged.bit_flips
            );
        }
    }

    // One cell both ways: the sharded execution must reproduce the
    // sequential front end bit for bit.
    let seq = run_system(&sim, MappingPolicy::BankInterleaved, &defenses[0], &workloads[0]);
    let par = run_system_sharded(
        &sim,
        MappingPolicy::BankInterleaved,
        &defenses[0],
        &workloads[0],
        threads,
        256,
    );
    assert_eq!(seq.stats, par.stats, "sharded execution diverged from sequential");
    println!("sequential/sharded cross-check: bit-identical over {accesses} accesses");
}
