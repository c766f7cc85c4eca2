//! Controller deep dive: address mapping, request scheduling, trace replay.
//!
//! ```sh
//! cargo run --release --example controller_deep_dive
//! ```
//!
//! The parts of the memory-controller substrate the other examples use
//! implicitly, exercised head-on:
//!
//! 1. decode a flat physical address stream with the two mapping schemes
//!    and watch bank-conflict behaviour diverge;
//! 2. run the same trace under FCFS and the PAR-BS-like batched scheduler
//!    and compare row-hit rates and completion time;
//! 3. record a workload to an RHT4 trace file, stream it back, and confirm
//!    the defense outcome is bit-for-bit identical.

use graphene_repro::dram_model::DramGeometry;
use graphene_repro::memctrl::{AddressMapper, MappingScheme, McBuilder, McConfig, SchedulerConfig};
use graphene_repro::rh_analysis::TablePrinter;
use graphene_repro::rh_sim::{run_pair, DefenseSpec, SimConfig, WorkloadSpec};
use graphene_repro::workloads::{TraceReader, TraceWriter, Workload};

fn main() {
    // 1. Address mapping.
    println!("1. Address mapping: row-stride accesses under the two schemes");
    let mut table = TablePrinter::new(vec!["scheme", "distinct banks over 16 row-stride steps"]);
    for scheme in [MappingScheme::ChannelInterleaved, MappingScheme::BankXor] {
        let m = AddressMapper::new(DramGeometry::micro2020(), 1024, scheme);
        let row_stride = m.capacity() / 65_536; // one full row per step
        let banks: std::collections::HashSet<_> =
            (0..16u64).map(|i| m.decode(i * row_stride).coord).collect();
        table.row(vec![format!("{scheme:?}"), banks.len().to_string()]);
    }
    table.print();
    println!("Bank-XOR spreads row-strided streams that would otherwise camp on one bank.\n");

    // 2. Scheduling.
    println!("2. Scheduling: two interleaved row streams on one bank");
    let make_trace = || {
        struct PingPong(u64);
        impl Workload for PingPong {
            fn name(&self) -> String {
                "pingpong".into()
            }
            fn next_access(&mut self) -> graphene_repro::workloads::Access {
                self.0 += 1;
                graphene_repro::workloads::Access {
                    bank: 0,
                    row: graphene_repro::dram_model::RowId((self.0 % 2 * 512) as u32),
                    gap: 0,
                    stream: 0,
                }
            }
        }
        PingPong(0)
    };
    let mut table =
        TablePrinter::new(vec!["scheduler", "row-hit rate", "completion (us)", "reorders allowed"]);
    for (name, cfg) in
        [("FCFS", SchedulerConfig::fcfs()), ("PAR-BS-like", SchedulerConfig::par_bs_like())]
    {
        let mut mc = McBuilder::new(McConfig::single_bank(65_536, None)).build();
        let stats = mc.run_queued(&mut make_trace(), 50_000, cfg);
        table.row(vec![
            name.into(),
            format!("{:.1}%", stats.row_hit_rate() * 100.0),
            format!("{:.0}", stats.completion as f64 / 1e6),
            cfg.batch_size.to_string(),
        ]);
    }
    table.print();
    println!("Batching serves row hits together: more hits, earlier completion.\n");

    // 3. Trace record/replay.
    println!("3. Trace record/replay determinism");
    let cfg = SimConfig::attack_bank(5_000, 100_000);
    let live = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, &WorkloadSpec::S4);
    let mut source = WorkloadSpec::S4.build(1, 65_536, cfg.seed);
    let geometry = cfg.attack.geometry;
    let path = std::env::temp_dir().join("controller_deep_dive.rht4");
    let mut writer = TraceWriter::create(&path, "s4", geometry).expect("create trace");
    writer.record(source.as_mut(), 100_000).expect("record trace");
    writer.finish().expect("write trace");
    let bytes = std::fs::metadata(&path).expect("trace on disk").len();
    println!("  recorded 100K accesses -> {bytes} bytes of RHT4 on disk");
    let graphene = DefenseSpec::Graphene { t_rh: 5_000, k: 2 };
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
