//! Property-based tests of the bank timing model and controller accounting.

use dram_model::timing::DramTiming;
use dram_model::RowId;
use memctrl::{BankState, McBuilder, McConfig, PagePolicy};
use proptest::prelude::*;
use workloads::{Access, Workload};

/// Replays a recorded access list.
struct Replay {
    accesses: Vec<Access>,
    i: usize,
}

impl Workload for Replay {
    fn name(&self) -> String {
        "replay".into()
    }
    fn next_access(&mut self) -> Access {
        let a = self.accesses[self.i % self.accesses.len()];
        self.i += 1;
        a
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Service never starts before arrival or bank readiness, finish is
    /// after start, and consecutive ACTs respect tRC — for every policy.
    #[test]
    fn bank_timing_invariants(
        rows in prop::collection::vec(0u32..64, 1..300),
        gaps in prop::collection::vec(0u64..200_000, 1..300),
        policy_idx in 0usize..3,
    ) {
        let policy = [PagePolicy::Open, PagePolicy::Closed, PagePolicy::minimalist_open()][policy_idx];
        let timing = DramTiming::ddr4_2400();
        let mut bank = BankState::new(timing, policy);
        let mut arrival = 0u64;
        let mut last_act_start: Option<u64> = None;
        for (r, g) in rows.iter().zip(gaps.iter()) {
            arrival += g;
            let before_ready = bank.ready_at();
            let o = bank.serve(RowId(*r), arrival);
            prop_assert!(o.start >= arrival);
            prop_assert!(o.start >= before_ready);
            prop_assert!(o.finish > o.start);
            if o.activated {
                // The ACT slot is start (+tRP if a row was open); we can
                // conservatively check start-to-start spacing of activating
                // accesses is at least tRC − tRP.
                if let Some(last) = last_act_start {
                    prop_assert!(
                        o.start + timing.t_rp >= last + timing.t_rc,
                        "ACT spacing violated: {last} -> {}",
                        o.start
                    );
                }
                last_act_start = Some(o.start);
            }
        }
    }

    /// A row hit is never slower than a conflict at the same arrival time.
    #[test]
    fn hits_never_slower_than_conflicts(row in 0u32..64) {
        let timing = DramTiming::ddr4_2400();
        let mut hit_bank = BankState::new(timing, PagePolicy::Open);
        let mut conflict_bank = BankState::new(timing, PagePolicy::Open);
        hit_bank.serve(RowId(row), 0);
        conflict_bank.serve(RowId(row), 0);
        let t = 1_000_000;
        let hit = hit_bank.serve(RowId(row), t);
        let conflict = conflict_bank.serve(RowId(row ^ 1), t);
        prop_assert!(hit.finish <= conflict.finish);
    }

    /// Controller accounting: activations + row hits == accesses, and the
    /// completion time is at least the sum implied by the ACT count and tRC
    /// divided across banks.
    #[test]
    fn controller_accounting(seed in any::<u64>(), n in 1_000u64..5_000) {
        let mut mc = McBuilder::new(McConfig::single_bank(4_096, None)).build();
        let mut rng_rows: Vec<Access> = Vec::new();
        let mut x = seed;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_rows.push(Access {
                bank: 0,
                row: RowId((x >> 33) as u32 % 4_096),
                gap: (x >> 20) % 100_000,
                stream: (x % 4) as u16,
            });
        }
        let stats = mc.run(&mut Replay { accesses: rng_rows, i: 0 }, n);
        prop_assert_eq!(stats.accesses, n);
        prop_assert_eq!(stats.activations + stats.row_hits, n);
        prop_assert!(stats.completion > 0);
        prop_assert!(stats.total_latency >= n * 13_300);
    }
}

#[test]
fn command_log_is_protocol_clean_under_random_traffic() {
    // Self-audit: run mixed traffic with every command logged, then replay
    // the log through the protocol checker — zero violations allowed.
    use memctrl::{CommandLog, ProtocolChecker};
    let timing = DramTiming::ddr4_2400();
    let mut mc = McBuilder::new(McConfig::single_bank(65_536, None))
        .defenses_with(|b| Box::new(mitigations::Para::new(0.02, b as u64)) as _)
        .command_log(CommandLog::unbounded())
        .build();
    let mut w = workloads::Synthetic::s2(10, 65_536, 5);
    mc.run(&mut w, 30_000);
    let log = mc.command_log().expect("log attached");
    assert!(log.len() > 5_000, "log too small: {}", log.len());
    let violations = ProtocolChecker::new(timing).check(log);
    assert!(violations.is_empty(), "protocol violations: {violations:?}");
}

#[test]
fn refresh_blackout_delays_service() {
    let timing = DramTiming::ddr4_2400();
    let mut bank = BankState::new(timing, PagePolicy::Open);
    let end = bank.block_for_refresh(0);
    let o = bank.serve(RowId(3), end - 100);
    assert_eq!(o.start, end);
}

#[test]
fn defense_busy_time_matches_victim_rows() {
    // Charge accounting: defense_busy == Σ (rows × tRC + tRP) per command.
    use mitigations::Para;
    use workloads::Synthetic;
    let timing = DramTiming::ddr4_2400();
    let mut mc = McBuilder::new(McConfig::single_bank(65_536, None))
        .defenses_with(|b| Box::new(Para::new(0.05, b as u64)) as _)
        .build();
    let stats = mc.run(&mut Synthetic::s1(10, 65_536, 3), 20_000);
    let expected =
        stats.victim_rows_refreshed * timing.t_rc + stats.defense_refresh_commands * timing.t_rp;
    assert_eq!(stats.defense_busy, expected);
}
