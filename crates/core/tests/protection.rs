//! End-to-end protection tests: Graphene against the ground-truth fault
//! oracle, plus equivalence with the generic spillover summary.

use dram_model::fault::{DisturbanceModel, MuModel};
use dram_model::{DramTiming, FaultOracle, RowId};
use freq_elems::{FrequencyEstimator, SpilloverSummary};
use graphene_core::{CheckedGraphene, Graphene, GrapheneConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives `acts` activations chosen by `pick` through Graphene + the fault
/// oracle at maximum ACT rate, applying NRRs and the auto-refresh rotation,
/// and asserts the oracle stays clean.
fn assert_protected(
    config: &GrapheneConfig,
    model: DisturbanceModel,
    acts: u64,
    mut pick: impl FnMut(u64) -> RowId,
) {
    let timing = DramTiming::ddr4_2400();
    let mut graphene = Graphene::from_config(config).unwrap();
    let mut oracle = FaultOracle::new(model, config.rows_per_bank);
    let mut next_auto_refresh = timing.t_refi;
    let mut auto = dram_model::RefreshEngine::new(&timing, config.rows_per_bank);

    for i in 0..acts {
        let now = i * timing.t_rc;
        while now >= next_auto_refresh {
            oracle.refresh_burst(auto.next_burst());
            next_auto_refresh += timing.t_refi;
        }
        let row = pick(i);
        let flips = oracle.activate(row, now);
        assert!(flips.is_empty(), "bit flip at act {i} on {:?} (defense failed)", flips[0].row);
        if let Some(nrr) = graphene.on_activation(row, now) {
            oracle.refresh_rows(nrr.aggressor.victims(nrr.radius, config.rows_per_bank));
        }
    }
    assert!(oracle.is_clean());
}

/// Use a reduced threshold so tests run fast while keeping the derived
/// parameters non-trivial.
fn small_config(t_rh: u64) -> (GrapheneConfig, DisturbanceModel) {
    let cfg =
        GrapheneConfig::builder().row_hammer_threshold(t_rh).rows_per_bank(4096).build().unwrap();
    (cfg, DisturbanceModel { t_rh, mu: MuModel::Adjacent })
}

#[test]
fn single_sided_hammer_never_flips() {
    let (cfg, model) = small_config(2000);
    assert_protected(&cfg, model, 150_000, |_| RowId(500));
}

#[test]
fn double_sided_hammer_never_flips() {
    let (cfg, model) = small_config(2000);
    assert_protected(&cfg, model, 150_000, |i| if i % 2 == 0 { RowId(500) } else { RowId(502) });
}

#[test]
fn many_aggressor_rotation_never_flips() {
    // S1-style: N aggressor rows in rotation — the pattern that defeats
    // locality-based trackers.
    let (cfg, model) = small_config(2000);
    assert_protected(&cfg, model, 200_000, |i| RowId(((i % 20) * 50) as u32 + 100));
}

#[test]
fn hammer_with_noise_never_flips() {
    // S4-style: one aggressor interleaved with random traffic.
    let (cfg, model) = small_config(2000);
    let mut rng = StdRng::seed_from_u64(99);
    assert_protected(&cfg, model, 200_000, move |i| {
        if i % 3 == 0 {
            RowId(700)
        } else {
            RowId(rng.gen_range(0..4096))
        }
    });
}

#[test]
fn adaptive_adversary_targeting_spillover_never_flips() {
    // An adversary that floods distinct rows (to pump the spillover count and
    // force evictions) before concentrating on one victim pair.
    let (cfg, model) = small_config(2000);
    let mut rng = StdRng::seed_from_u64(3);
    assert_protected(&cfg, model, 200_000, move |i| {
        let phase = (i / 5_000) % 2;
        if phase == 0 {
            RowId(rng.gen_range(0..4096)) // flood
        } else if i % 2 == 0 {
            RowId(1000)
        } else {
            RowId(1002)
        }
    });
}

#[test]
fn nonadjacent_inverse_square_never_flips() {
    let t_rh = 2000;
    let cfg = GrapheneConfig::builder()
        .row_hammer_threshold(t_rh)
        .rows_per_bank(4096)
        .mu(MuModel::InverseSquare { radius: 3 })
        .build()
        .unwrap();
    let model = DisturbanceModel { t_rh, mu: MuModel::InverseSquare { radius: 3 } };
    // Hammer rows ±2 around a victim so non-adjacent disturbance matters.
    assert_protected(&cfg, model, 150_000, |i| match i % 4 {
        0 => RowId(500),
        1 => RowId(502),
        2 => RowId(498),
        _ => RowId(504),
    });
}

#[test]
fn nonadjacent_uniform_radius2_never_flips() {
    let t_rh = 2000;
    let cfg = GrapheneConfig::builder()
        .row_hammer_threshold(t_rh)
        .rows_per_bank(4096)
        .mu(MuModel::Uniform { radius: 2 })
        .build()
        .unwrap();
    let model = DisturbanceModel { t_rh, mu: MuModel::Uniform { radius: 2 } };
    assert_protected(&cfg, model, 150_000, |i| if i % 2 == 0 { RowId(500) } else { RowId(504) });
}

#[test]
fn k5_reset_window_never_flips() {
    // §IV-C suggests larger k for area savings; protection must still hold.
    let t_rh = 2000;
    let cfg = GrapheneConfig::builder()
        .row_hammer_threshold(t_rh)
        .rows_per_bank(4096)
        .reset_window_divisor(5)
        .build()
        .unwrap();
    let model = DisturbanceModel { t_rh, mu: MuModel::Adjacent };
    assert_protected(&cfg, model, 150_000, |i| if i % 2 == 0 { RowId(321) } else { RowId(323) });
}

#[test]
fn hardware_table_matches_generic_spillover_summary() {
    // The CAM table with the overflow-bit optimization must be observationally
    // equivalent to the plain spillover summary for every estimate.
    let cfg = GrapheneConfig::builder().row_hammer_threshold(50_000).build().unwrap();
    let params = cfg.derive().unwrap();
    let mut hw = graphene_core::CounterTable::new(params.n_entry, params.tracking_threshold);
    let mut sw = SpilloverSummary::new(params.n_entry);
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..200_000 {
        let row: u32 =
            if rng.gen_bool(0.6) { rng.gen_range(0..16) * 7 } else { rng.gen_range(0..65_536) };
        hw.process_activation(RowId(row));
        sw.observe(row);
    }
    assert_eq!(hw.spillover(), sw.spillover());
    for (row, est, _) in hw.iter() {
        assert_eq!(est, sw.estimate(&row.0), "estimate mismatch for {row}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized streams through the self-verifying wrapper: every paper
    /// invariant holds on every step, across window resets.
    #[test]
    fn invariants_hold_on_random_streams(
        seed in any::<u64>(),
        hot_rows in 1u32..12,
        hot_bias in 0.0f64..1.0,
    ) {
        let cfg = GrapheneConfig::builder()
            .row_hammer_threshold(4000)
            .rows_per_bank(4096)
            .build()
            .unwrap();
        let mut g = CheckedGraphene::from_config(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let window = g.inner().params().reset_window;
        let step = window / 8_000;
        for i in 0..20_000u64 {
            let row = if rng.gen_bool(hot_bias) {
                RowId(rng.gen_range(0..hot_rows) * 3)
            } else {
                RowId(rng.gen_range(0..4096))
            };
            g.on_activation(row, i * step);
        }
    }

    /// Protection holds for random adversaries at full ACT rate.
    #[test]
    fn protection_holds_on_random_adversaries(seed in any::<u64>()) {
        let (cfg, model) = small_config(1500);
        let mut rng = StdRng::seed_from_u64(seed);
        let pivot: u32 = rng.gen_range(2..4094);
        assert_protected(&cfg, model, 60_000, move |_| {
            // Adversary concentrates on a small neighbourhood around pivot.
            RowId(pivot + rng.gen_range(0..3) * 2 - 2)
        });
    }
}
