//! Invariants of the sweep runner across the scenario catalog.

use rh_sim::{run_matrix, run_pair, DefenseSpec, SimConfig, WorkloadSpec};

#[test]
fn reports_are_ordered_workload_major() {
    let cfg = SimConfig::attack_bank(5_000, 4_000);
    let defenses = [DefenseSpec::None, DefenseSpec::Twice { t_rh: 5_000 }];
    let workloads = [WorkloadSpec::S3, WorkloadSpec::S4, WorkloadSpec::S1 { n: 10 }];
    let reports = run_matrix(&cfg, &defenses, &workloads);
    assert_eq!(reports.len(), 6);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.workload, workloads[i / 2].name());
        assert_eq!(r.defense, defenses[i % 2].name());
    }
}

#[test]
fn matrix_matches_individual_pairs() {
    // The shared-baseline matrix must produce the same numbers as running
    // each pair separately (everything is deterministic by seed).
    let cfg = SimConfig::attack_bank(5_000, 6_000);
    let defense = DefenseSpec::Graphene { t_rh: 5_000, k: 2 };
    let workload = WorkloadSpec::S1 { n: 10 };
    let from_matrix = &run_matrix(&cfg, &[defense], std::slice::from_ref(&workload))[0];
    let from_pair = run_pair(&cfg, &defense, &workload);
    assert_eq!(from_matrix.stats, from_pair.stats);
    assert_eq!(from_matrix.slowdown, from_pair.slowdown);
}

#[test]
fn energy_overhead_is_nonnegative_and_flipless_for_counter_schemes() {
    let cfg = SimConfig::attack_bank(4_000, 20_000);
    let defenses = [
        DefenseSpec::Graphene { t_rh: 4_000, k: 2 },
        DefenseSpec::Twice { t_rh: 4_000 },
        DefenseSpec::Cbt { t_rh: 4_000 },
        DefenseSpec::Ideal { t_rh: 4_000 },
    ];
    let workloads = WorkloadSpec::adversarial_set();
    for r in run_matrix(&cfg, &defenses, &workloads) {
        assert!(r.energy_overhead >= 0.0);
        assert_eq!(r.stats.bit_flips, 0, "{} flipped under {}", r.defense, r.workload);
        assert!(r.stats.accesses == 20_000);
    }
}

#[test]
fn defense_names_are_distinct_in_lineup() {
    let names: Vec<String> = DefenseSpec::paper_lineup(50_000).iter().map(|d| d.name()).collect();
    let set: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(set.len(), names.len(), "duplicate names {names:?}");
}

#[test]
fn attack_and_system_configs_differ_in_geometry() {
    let cfg = SimConfig::micro2020(1_000);
    assert_eq!(cfg.attack.geometry.total_banks(), 1);
    assert_eq!(cfg.system.geometry.total_banks(), 64);
    assert!(WorkloadSpec::S3.is_adversarial());
    assert!(!WorkloadSpec::MixBlend.is_adversarial());
}
