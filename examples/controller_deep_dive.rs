//! Controller deep dive: RHT4 trace record and replay.
//!
//! ```sh
//! cargo run --release --example controller_deep_dive
//! ```
//!
//! Records an S4 attack workload to an RHT4 trace file, streams it back
//! through a Graphene-protected controller, and asserts that the replayed
//! run's victim refreshes and activations equal the live run's.

use graphene_repro::memctrl::McBuilder;
use graphene_repro::rh_sim::{run_pair, DefenseSpec, SimConfig, WorkloadSpec};
use graphene_repro::workloads::{TraceReader, TraceWriter};

fn main() {
    println!("Trace record/replay determinism");
    let cfg = SimConfig::attack_bank(5_000, 100_000);
    let graphene = DefenseSpec::Graphene { t_rh: 5_000, k: 2 };
    let live = run_pair(&cfg, &graphene, &WorkloadSpec::S4);
    let mut source = WorkloadSpec::S4.build(1, 65_536, cfg.seed);
    let geometry = cfg.attack.geometry;
    let path = std::env::temp_dir().join("controller_deep_dive.rht4");
    let mut writer = TraceWriter::create(&path, "s4", geometry).expect("create trace");
    writer.record(source.as_mut(), 100_000).expect("record trace");
    writer.finish().expect("write trace");
    let bytes = std::fs::metadata(&path).expect("trace on disk").len();
    println!("  recorded 100K accesses -> {bytes} bytes of RHT4 on disk");
    let mut mc = McBuilder::new(cfg.attack.clone()).defenses(&graphene).build();
    let mut replay = TraceReader::open_for(&path, &geometry).expect("open trace");
    let replayed = mc.run(&mut replay, 100_000);
    std::fs::remove_file(&path).ok();
    println!(
        "  live run:   {} victim refreshes, {} flips",
        live.stats.victim_rows_refreshed, live.stats.bit_flips
    );
    println!(
        "  replay run: {} victim refreshes, {} flips",
        replayed.victim_rows_refreshed, replayed.bit_flips
    );
    assert_eq!(replayed.victim_rows_refreshed, live.stats.victim_rows_refreshed);
    assert_eq!(replayed.activations, live.stats.activations);
    println!("  identical — traces make every experiment exactly reproducible.");
}
