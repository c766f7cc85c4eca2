//! Telemetry must be observation-only: instrumented sweeps produce the same
//! reports as uninstrumented ones, and recording sweeps actually contain the
//! trajectory series the report tooling consumes.

use rh_sim::{try_run_matrix, DefenseSpec, SimConfig, TelemetrySpec, WorkloadSpec};

fn defenses() -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::Graphene { t_rh: 5_000, k: 2 },
        DefenseSpec::Para { p: 0.001 },
        DefenseSpec::Twice { t_rh: 5_000 },
    ]
}

fn workloads() -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }]
}

#[test]
fn noop_instrumented_matrix_is_bit_identical() {
    let plain = SimConfig::attack_bank(5_000, 8_000);
    let noop = SimConfig { telemetry: Some(TelemetrySpec::noop()), ..plain.clone() };
    let baseline = try_run_matrix(&plain, &defenses(), &workloads()).unwrap().reports;
    let instrumented = try_run_matrix(&noop, &defenses(), &workloads()).unwrap();
    assert_eq!(instrumented.reports, baseline, "NoopSink wiring must not perturb any run");
    assert!(instrumented.cells.is_empty(), "noop spec records nothing");
    assert!(instrumented.sweep.series.is_empty(), "noop spec skips sweep progress too");
}

#[test]
fn recording_matrix_leaves_stats_unchanged() {
    let plain = SimConfig::attack_bank(5_000, 8_000);
    let recording = SimConfig { telemetry: Some(TelemetrySpec::every_acts(500)), ..plain.clone() };
    let baseline = try_run_matrix(&plain, &defenses(), &workloads()).unwrap().reports;
    let recorded = try_run_matrix(&recording, &defenses(), &workloads()).unwrap();
    assert_eq!(recorded.reports, baseline, "recording must not perturb timing or counters");
}

#[test]
fn recording_matrix_captures_per_defense_series() {
    let cfg = SimConfig {
        telemetry: Some(TelemetrySpec::every_acts(500)),
        ..SimConfig::attack_bank(5_000, 8_000)
    };
    let defenses = defenses();
    let m = try_run_matrix(&cfg, &defenses, &workloads()).unwrap();
    assert_eq!(m.cells.len(), m.reports.len(), "every cell snapshotted");

    // Graphene's scheme-specific trajectory is present per bank.
    let graphene = m.cells.iter().find(|c| c.defense == "Graphene" && c.workload == "S3").unwrap();
    for metric in ["graphene.spillover", "graphene.occupancy", "graphene.window_nrrs"] {
        let s = graphene.snapshot.series_for(metric, 0).unwrap_or_else(|| {
            panic!("missing {metric}: have {:?}", graphene.snapshot.series_metrics())
        });
        assert!(!s.samples.is_empty());
    }

    // All three defenses report the uniform wrapper metrics.
    for cell in m.cells.iter().filter(|c| c.workload == "S3") {
        let acts = cell.snapshot.series_for("defense.acts", 0).expect("uniform acts series");
        assert!(acts.samples.last().unwrap().value > 0.0, "{}", cell.defense);
        assert!(cell.snapshot.series_for("mc.acts", 0).is_some(), "controller tap series");
    }

    // Sweep progress reached the full job count: 2 baselines + 6 cells.
    let progress = m.sweep.series_for("sweep.jobs_done", 0).expect("sweep progress series");
    assert_eq!(progress.samples.last().unwrap().value, 8.0);

    // The merged snapshot survives a JSONL round trip with prefixed names.
    let merged = m.merged_snapshot("test-sweep");
    let text = merged.to_jsonl();
    let parsed = telemetry::Snapshot::parse_jsonl(&text).unwrap();
    assert_eq!(parsed, merged);
    assert!(parsed.series_for("S3/Graphene/graphene.spillover", 0).is_some());
}

#[test]
fn arena_trackers_report_their_scheme_series() {
    let cfg = SimConfig {
        telemetry: Some(TelemetrySpec::every_acts(500)),
        ..SimConfig::attack_bank(5_000, 12_000)
    };
    let defenses = vec![
        DefenseSpec::Comet { t_rh: 5_000 },
        DefenseSpec::Abacus { t_rh: 5_000, k: 2 },
        DefenseSpec::BlockHammer { t_rh: 5_000 },
    ];
    let m = try_run_matrix(&cfg, &defenses, &[WorkloadSpec::S3]).unwrap();

    // Tracker-specific trajectories: CMS occupancy, shared-table spillover,
    // and throttle accounting — plus the uniform wrapper series everywhere.
    let expect = [
        ("CoMeT", "comet.cms_occupancy"),
        ("ABACuS", "abacus.spillover"),
        ("BlockHammer", "blockhammer.throttled"),
    ];
    for (defense, metric) in expect {
        let cell = m.cells.iter().find(|c| c.defense == defense).unwrap();
        let s = cell.snapshot.series_for(metric, 0).unwrap_or_else(|| {
            panic!("missing {metric}: have {:?}", cell.snapshot.series_metrics())
        });
        assert!(!s.samples.is_empty(), "{metric} recorded no samples");
        let acts = cell.snapshot.series_for("defense.acts", 0).expect("uniform acts series");
        assert!(acts.samples.last().unwrap().value > 0.0, "{defense}");
    }

    // S3 hammers one row flat out, so BlockHammer's throttle series must
    // actually move.
    let bh = m.cells.iter().find(|c| c.defense == "BlockHammer").unwrap();
    let throttled = bh.snapshot.series_for("blockhammer.throttled", 0).unwrap();
    assert!(throttled.samples.last().unwrap().value > 0.0, "hot row never throttled");
}
