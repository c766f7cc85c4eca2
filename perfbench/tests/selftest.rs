//! Self-tests of the benchmark: seeded inputs are reproducible, every
//! workload runs end to end in smoke mode, and the metric catalog printed
//! matches `BENCHMARK.json` name for name and unit for unit.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.
//! Each test uses its own seeds so parallel tests never share input files.

use std::path::Path;

use perfbench::inputs::{configured, load, prepare};
use perfbench::{ladder, measure, Profile, END_TO_END, PER_LAYER};
use telemetry::json::{self, JsonValue};

fn prepared(profile: Profile, seed: u64) -> perfbench::inputs::Inputs {
    prepare(profile, seed, true).expect("smoke inputs prepare");
    load(profile, seed, true).expect("prepared inputs load")
}

#[test]
fn same_seed_gives_same_input_hash_and_digests() {
    for profile in Profile::ALL {
        let seed = 9_001;
        let first = prepared(profile, seed);
        std::fs::remove_file(&first.fleet.trace).expect("remove trace");
        let again = prepared(profile, seed);
        assert_eq!(first.input_hash, again.input_hash, "{}", profile.name());
        assert_eq!(first.segment_digests, again.segment_digests, "{}", profile.name());
        assert_eq!(first.cell_digests, again.cell_digests, "{}", profile.name());
        let other = prepared(profile, seed + 1);
        assert_ne!(first.input_hash, other.input_hash, "{}: the seed must matter", profile.name());
    }
}

#[test]
fn smoke_runs_every_workload_end_to_end_and_traced() {
    for (i, profile) in Profile::ALL.into_iter().enumerate() {
        let inputs = prepared(profile, 9_100 + i as u64);
        let e2e = measure::run(&inputs, 0.01);
        assert!(e2e.attempted > 0 && e2e.failed == 0, "{}: {e2e:?}", profile.name());
        assert!(e2e.problems.is_empty(), "{}: {:?}", profile.name(), e2e.problems);
        let line = e2e.render(END_TO_END).expect("every end-to-end metric measured");
        assert!(line.starts_with("{\"correct\": true"), "{line}");

        let traced = ladder::run(&inputs, 0.01).expect("ladder runs");
        assert!(traced.problems.is_empty(), "{}: {:?}", profile.name(), traced.problems);
        assert!(traced.failed == 0 && traced.attempted > 0, "{}", profile.name());
        let line = traced.render(PER_LAYER).expect("every per-layer metric measured");
        for (name, unit) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing");
        }
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect("string field");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    };
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name").to_owned())
        .collect();
    let ours: Vec<String> = Profile::ALL.iter().map(|p| p.name().to_owned()).collect();
    assert_eq!(workloads, ours);
    assert!(configured(Profile::GenMatrix, 1, false).matrix.is_some());
}
