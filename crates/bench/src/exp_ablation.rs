//! Ablation: why Misra-Gries (DESIGN.md §6).
//!
//! 1. **Tracker choice** — at equal entry budget, compare how each streaming
//!    summary performs as an aggressor tracker on an adversarial stream:
//!    does it (a) still hold every heavy row (no false negatives), and
//!    (b) how many spurious rows sit above the trigger threshold (false
//!    positives → wasted victim refreshes)?
//! 2. **Overflow-bit optimization** — table bits with and without it.
//! 3. **Reset-window divisor** — covered quantitatively by `exp-fig6`.

use std::collections::HashMap;

use freq_elems::{
    CountMinSketch, FrequencyEstimator, LossyCounting, MisraGries, SpaceSaving, SpilloverSummary,
};
use graphene_core::GrapheneConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rh_analysis::report::thousands;
use rh_analysis::TablePrinter;

/// Runs the ablation suite.
pub fn run(fast: bool) {
    tracker_choice(fast);
    overflow_bit();
    refresh_rate_baseline(fast);
}

/// One row of the tracker-choice table.
#[derive(Debug)]
struct TrackerChoice {
    /// The tracker and its sizing.
    tracker: &'static str,
    /// Heavy rows (true count ≥ T) whose estimate reaches T.
    tracked: usize,
    /// Heavy rows in the stream.
    heavy: usize,
    /// Heavy rows whose estimate stays below T (false negatives).
    missed: usize,
    /// Reported heavy hitters whose true count is below T.
    spurious: usize,
    /// Mean estimate minus true count over the heavy rows.
    bias: i64,
}

/// Races five streaming summaries as aggressor trackers on one
/// adversarial stream, prints the table and returns its rows.
fn tracker_choice(fast: bool) -> Vec<TrackerChoice> {
    crate::banner("Ablation — tracker choice at equal entry budget (81 entries)");
    let entries = 81;
    // Graphene's trigger threshold at k = 2; scaled down in fast mode so the
    // shortened stream keeps the same heavy-rows-just-above-T geometry.
    let t: u64 = if fast { 2_454 } else { 8_333 };
    let acts: u64 = if fast { 200_000 } else { 679_202 }; // one reset window

    // Adversarial stream calibrated so the hot rows land just above T:
    // 25 aggressors sharing 1/3 of the stream (≈9K ACTs each over a full
    // window) against 2/3 random noise. Under-estimating trackers, whose
    // error bound W/(m+1) ≈ 8.3K rivals T itself, must lose some of them;
    // over-estimating trackers cannot.
    let mut rng = StdRng::seed_from_u64(11);
    let stream: Vec<u32> = (0..acts)
        .map(|i| {
            if i % 3 == 0 {
                ((i / 3 % 25) * 1_000) as u32 // hot rows: 1/3 of the stream
            } else {
                rng.gen_range(0..65_536)
            }
        })
        .collect();
    let mut actual: HashMap<u32, u64> = HashMap::new();
    for &x in &stream {
        *actual.entry(x).or_insert(0) += 1;
    }
    let heavy: Vec<u32> = actual.iter().filter(|&(_, &c)| c >= t).map(|(&k, _)| k).collect();

    let eval = |tracker: &'static str, est: &mut dyn FrequencyEstimator<u32>| {
        for &x in &stream {
            est.observe(x);
        }
        let hh = est.heavy_hitters(t);
        let tracked = heavy.iter().filter(|&&h| est.estimate(&h) >= t).count();
        TrackerChoice {
            tracker,
            tracked,
            heavy: heavy.len(),
            missed: heavy.len() - tracked,
            spurious: hh.iter().filter(|(k, _)| actual.get(k).copied().unwrap_or(0) < t).count(),
            bias: heavy.iter().map(|h| est.estimate(h) as i64 - actual[h] as i64).sum::<i64>()
                / heavy.len().max(1) as i64,
        }
    };
    let rows = vec![
        eval("spillover Misra-Gries (Graphene)", &mut SpilloverSummary::new(entries)),
        eval("classic Misra-Gries (decrement)", &mut MisraGries::new(entries)),
        eval("Space-Saving", &mut SpaceSaving::new(entries)),
        eval("Lossy Counting (eps=1/81)", &mut LossyCounting::new(1.0 / entries as f64)),
        // CMS with a bit budget comparable to 81 × 31 bits ≈ 2.5 Kbit: 4×32
        // counters of 20 bits ≈ 2.6 Kbit.
        eval("Count-Min 4x32 + 16 candidates", &mut CountMinSketch::new(4, 32, 16)),
    ];

    let mut table = TablePrinter::new(vec![
        "tracker",
        "heavy rows tracked",
        "missed (false neg)",
        "spurious above T",
        "est. bias",
    ]);
    for r in &rows {
        table.row(vec![
            r.tracker.into(),
            format!("{}/{}", r.tracked, r.heavy),
            r.missed.to_string(),
            r.spurious.to_string(),
            format!("{:+}", r.bias),
        ]);
    }
    table.print();
    println!(
        "Over-estimating trackers (spillover/Space-Saving/CMS) can never miss a heavy \
         row — the property the protection proof needs; under-estimating ones \
         (classic MG, Lossy Counting) can. CMS pays with spurious rows (extra refreshes)."
    );
    rows
}

fn refresh_rate_baseline(fast: bool) {
    crate::banner("Baseline — refresh-rate scaling (the §II-B BIOS mitigation) vs Graphene");
    use dram_model::fault::{DisturbanceModel, MuModel};
    use dram_model::{DramTiming, RowId};
    use mitigations::{RefreshRateScaling, RowHammerDefense};

    let t_rh = 5_000u64;
    let acts: u64 = if fast { 150_000 } else { 600_000 };
    let timing = DramTiming::ddr4_2400();

    // Drive a single-row hammer through each mitigation with the fault
    // oracle armed; count flips and the extra refresh energy.
    let mut table = TablePrinter::new(vec![
        "mitigation",
        "bit flips",
        "extra rows refreshed/tREFW-equiv",
        "refresh-energy overhead",
    ]);
    let energy = rh_analysis::EnergyModel::micro2020();
    let span = acts * timing.t_rc;

    for factor in [1u32, 2, 4, 8] {
        let mut defense = RefreshRateScaling::new(factor, 65_536, 8);
        let mut oracle =
            dram_model::FaultOracle::new(DisturbanceModel { t_rh, mu: MuModel::Adjacent }, 65_536);
        let mut auto = dram_model::RefreshEngine::new(&timing, 65_536);
        let acts_per_tick = (timing.t_refi - timing.t_rfc) / timing.t_rc;
        for i in 0..acts {
            let now = i * timing.t_rc;
            oracle.refresh_rows(auto.catch_up(now));
            oracle.activate(RowId(9_000), now);
            if i % acts_per_tick == acts_per_tick - 1 {
                for a in defense.on_refresh_tick(now) {
                    oracle.refresh_rows(a.rows(65_536));
                }
            }
        }
        let overhead = energy.refresh_energy_overhead(defense.extra_rows_issued(), span, 1);
        table.row(vec![
            defense.name(),
            oracle.flips().len().to_string(),
            defense.extra_rows_issued().to_string(),
            crate::exp_ablation::pct_str(overhead),
        ]);
    }

    // Graphene on the identical attack.
    let cfg = GrapheneConfig::builder().row_hammer_threshold(t_rh).build().expect("valid");
    let mut graphene = graphene_core::Graphene::from_config(&cfg).expect("derivable");
    let mut oracle =
        dram_model::FaultOracle::new(DisturbanceModel { t_rh, mu: MuModel::Adjacent }, 65_536);
    let mut auto = dram_model::RefreshEngine::new(&timing, 65_536);
    let mut victim_rows = 0u64;
    for i in 0..acts {
        let now = i * timing.t_rc;
        oracle.refresh_rows(auto.catch_up(now));
        oracle.activate(RowId(9_000), now);
        if let Some(nrr) = graphene.on_activation(RowId(9_000), now) {
            let victims = nrr.aggressor.victims(nrr.radius, 65_536);
            victim_rows += victims.len() as u64;
            oracle.refresh_rows(victims);
        }
    }
    let overhead = energy.refresh_energy_overhead(victim_rows, span, 1);
    table.row(vec![
        "Graphene".into(),
        oracle.flips().len().to_string(),
        victim_rows.to_string(),
        crate::exp_ablation::pct_str(overhead),
    ]);
    table.print();
    println!(
        "The paper's §II-B point: rate scaling cannot be raised high enough — a \
         saturating hammer reaches T_RH in {} us, far inside even tREFW/8, while the \
         energy bill grows ~100% per doubling. Graphene: zero flips at well under 1%.",
        t_rh * timing.t_rc / 1_000_000
    );
}

/// Formats a fraction as a percentage (shared by the sections above).
pub(crate) fn pct_str(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

fn overflow_bit() {
    crate::banner("Ablation — overflow-bit count-width optimization (Section IV-B)");
    let with = GrapheneConfig::micro2020().derive().expect("derivable");
    let without = {
        let mut cfg = GrapheneConfig::micro2020();
        cfg.overflow_bit_optimization = false;
        cfg.derive().expect("derivable")
    };
    let mut table =
        TablePrinter::new(vec!["variant", "count bits/entry", "entry bits", "table bits/bank"]);
    table.row(vec![
        "without (count to W)".into(),
        without.count_bits.to_string(),
        without.entry_bits().to_string(),
        thousands(without.table_bits_per_bank()),
    ]);
    table.row(vec![
        "with overflow bit (count to T)".into(),
        with.count_bits.to_string(),
        with.entry_bits().to_string(),
        thousands(with.table_bits_per_bank()),
    ]);
    table.print();
    println!("Paper: 21 -> 14(+1) bits, saving 6 bits/entry; the saving grows as T shrinks.");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fast-mode table, row by row: (tracker, tracked, heavy, missed,
    /// spurious, bias). The Count-Min row is the one consumer of the
    /// sketch's heavy-hitter candidate set.
    #[test]
    fn fast_tracker_choice_table_is_pinned() {
        let rows: Vec<_> = tracker_choice(true)
            .into_iter()
            .map(|r| (r.tracker, r.tracked, r.heavy, r.missed, r.spurious, r.bias))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("spillover Misra-Gries (Graphene)", 25, 25, 0, 0, 0),
                ("classic Misra-Gries (decrement)", 0, 25, 25, 0, -2338),
                ("Space-Saving", 25, 25, 0, 0, 0),
                ("Lossy Counting (eps=1/81)", 25, 25, 0, 7, -5),
                ("Count-Min 4x32 + 16 candidates", 25, 25, 0, 13, 4477),
            ]
        );
    }
}
