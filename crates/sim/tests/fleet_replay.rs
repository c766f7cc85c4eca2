//! Checkpoint/resume bit-identity of the streaming fleet runner.
//!
//! The contract under test: killing a fleet replay at an arbitrary point
//! and resuming it from its last `fleetckpt.v2` checkpoint produces final
//! [`SystemStats`] **bit-identical** to an uninterrupted run of the same
//! trace — at every worker count, segment size, and kill point. The trace
//! is pre-synthesized (no runtime randomness to replay), every layer's
//! checkpoint captures exact dynamic state, and segment boundaries quiesce
//! the SPSC pipeline, so identity holds by construction; this proptest is
//! what keeps refactors honest about it.
//!
//! Runs audited: every shard's defense is wrapped in the invariant shim, so
//! the checkpoint also has to carry the audit's shadow accounting across
//! the kill — an audited resume that lost it would panic mid-continuation.
//!
//! The defense dimension spans the tracker arena: Graphene (exact CAM),
//! CoMeT (sketch + recent-aggressor table), ABACuS (one table shared by a
//! shard's banks — the restore has to rebuild shared-core state coherently
//! across its per-bank facades), and BlockHammer (counting-Bloom filters
//! plus the throttle feedback path, whose pending hold-until deadlines ride
//! the controller checkpoint).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dram_model::geometry::DramGeometry;
use memctrl::SystemStats;
use proptest::prelude::*;
use rh_sim::{run_fleet, synth_fleet_trace, DefenseSpec, FleetConfig};

const TRACE_LEN: u64 = 24_000;

fn tmp(name: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("graphene_repro_fleet_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{}-{}", std::process::id(), UNIQ.fetch_add(1, Ordering::Relaxed), name))
}

/// The arena lineup under checkpoint test, indexed by the proptest's
/// defense dimension.
const DEFENSES: [DefenseSpec; 4] = [
    DefenseSpec::Graphene { t_rh: 2_000, k: 2 },
    DefenseSpec::Comet { t_rh: 2_000 },
    DefenseSpec::Abacus { t_rh: 2_000, k: 2 },
    DefenseSpec::BlockHammer { t_rh: 2_000 },
];

fn config(didx: usize) -> FleetConfig {
    let mut cfg = FleetConfig::micro2020(DEFENSES[didx]);
    cfg.system.geometry =
        DramGeometry { channels: 4, ranks_per_channel: 1, banks_per_rank: 4, rows_per_bank: 4_096 };
    cfg.audit = true;
    cfg.batch = 64;
    cfg
}

/// The shared fleet trace, synthesized once for the common geometry.
fn trace() -> &'static PathBuf {
    static TRACE: OnceLock<PathBuf> = OnceLock::new();
    TRACE.get_or_init(|| {
        let path = tmp("shared.rht4");
        synth_fleet_trace(&path, "fleet-prop", &config(0).system.geometry, 64, TRACE_LEN, 11)
            .unwrap();
        path
    })
}

/// The uninterrupted reference run of the shared trace under defense
/// `didx`, computed once per defense.
fn reference(didx: usize) -> &'static SystemStats {
    static REFERENCES: [OnceLock<SystemStats>; 4] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new(), OnceLock::new()];
    REFERENCES[didx].get_or_init(|| {
        let mut cfg = config(didx);
        cfg.threads = 1;
        cfg.segment = TRACE_LEN;
        let report = run_fleet(&cfg, trace(), |_| {}).unwrap();
        assert_eq!(report.accesses_done, TRACE_LEN);
        report.stats
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn kill_resume_is_bit_identical_across_workers(
        segment in 1_500u64..7_000,
        kill in 500u64..23_500,
        widx in 0usize..3,
        didx in 0usize..4,
    ) {
        let trace = trace();
        let reference = reference(didx);
        let threads = [1usize, 2, 4][widx];
        let ckpt = tmp("case.ckpt");
        let mut cfg = config(didx);
        cfg.threads = threads;
        cfg.segment = segment;
        cfg.checkpoint = Some(ckpt.clone());

        // Phase 1: run until the kill point (rounded up to a segment
        // boundary by the runner) and die there.
        let mut killed = cfg.clone();
        killed.stop_after = Some(kill);
        let first = run_fleet(&killed, trace, |_| {}).unwrap();
        prop_assert!(first.accesses_done >= kill.min(TRACE_LEN));

        // Phase 2: a fresh invocation resumes from the checkpoint file.
        let second = run_fleet(&cfg, trace, |_| {}).unwrap();
        if first.accesses_done < TRACE_LEN {
            prop_assert_eq!(second.resumed_from, Some(first.accesses_done));
        }
        prop_assert_eq!(second.accesses_done, TRACE_LEN);
        prop_assert_eq!(&second.stats, reference);
        std::fs::remove_file(&ckpt).ok();
    }
}
