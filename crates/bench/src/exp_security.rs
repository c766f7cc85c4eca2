//! Section V-A / Figure 7: security analysis of the probabilistic schemes.
//!
//! Three parts:
//!
//! 1. **PARA** — reproduce the minimal refresh probability ladder
//!    (p = 0.00145 at 50K … 0.05034 at 1.56K) from the failure recurrence.
//! 2. **PRoHIT / MRLoc semi-analytic** — run each scheme under its Figure 7
//!    attack pattern, measure the per-victim refresh rates its tables
//!    actually deliver, and feed the starved victim's rate back into the
//!    recurrence to get the per-tREFW bit-flip probability (the paper finds
//!    0.25 % for PRoHIT at PARA-0.00145's refresh budget — i.e. near-certain
//!    failure within a year).
//! 3. **Ground truth** — at a reduced Row Hammer threshold, run the attack
//!    patterns against the fault oracle and count actual bit flips:
//!    Graphene stays clean where the history-table schemes flip.

use dram_model::fault::{DisturbanceModel, MuModel};
use dram_model::{DramTiming, FaultOracle};
use mitigations::{Mrloc, MrlocConfig, Prohit, ProhitConfig, RefreshAction, RowHammerDefense};
use rh_analysis::security::{
    minimal_para_probability, paper_para_ladder, para_window_failure, victim_failure_probability,
    yearly_failure,
};
use rh_analysis::TablePrinter;
use workloads::{MrlocAttack, ProhitAttack, Workload};

/// Runs all three parts.
pub fn run(fast: bool) {
    para_ladder(fast);
    prohit_analysis(fast);
    mrloc_analysis(fast);
    ground_truth(fast);
}

fn para_ladder(fast: bool) {
    crate::banner("Section V-A — PARA: minimal p for near-complete protection");
    let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
    let mut table =
        TablePrinter::new(vec!["T_RH", "paper p", "computed p", "yearly failure at paper p"]);
    let ladder: &[(u64, f64)] =
        if fast { &paper_para_ladder()[..2] } else { &paper_para_ladder()[..] };
    for &(t_rh, paper_p) in ladder {
        let p = minimal_para_probability(t_rh, w, 64, 0.01);
        let yearly = yearly_failure(para_window_failure(paper_p, t_rh, w), 64);
        table.row(vec![
            t_rh.to_string(),
            format!("{paper_p}"),
            format!("{p:.5}"),
            format!("{yearly:.4}"),
        ]);
    }
    table.print();
    println!("Target: < 1% chance of a successful attack per year over 64 banks.");
}

/// Drives `defense` with `workload` at full ACT rate for `acts` ACTs with a
/// refresh tick every ~tREFI, returning per-victim refresh counts.
fn measure_victim_refresh_rates(
    defense: &mut dyn RowHammerDefense,
    workload: &mut dyn Workload,
    acts: u64,
) -> std::collections::HashMap<u32, u64> {
    let t = DramTiming::ddr4_2400();
    let acts_per_tick = (t.t_refi - t.t_rfc) / t.t_rc;
    let mut refreshes: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut record = |action: &RefreshAction| {
        for row in action.rows(1 << 20) {
            *refreshes.entry(row.0).or_insert(0) += 1;
        }
    };
    for i in 0..acts {
        let a = workload.next_access();
        for action in defense.on_activation(a.row, i * t.t_rc) {
            record(&action);
        }
        if i % acts_per_tick == acts_per_tick - 1 {
            for action in defense.on_refresh_tick(i * t.t_rc) {
                record(&action);
            }
        }
    }
    refreshes
}

fn prohit_analysis(fast: bool) {
    crate::banner("Figure 7(a) — PRoHIT under the frequency-skew pattern");
    let acts: u64 = if fast { 400_000 } else { 4_000_000 };
    let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
    let center = 1000u32;

    // Calibrate the insertion probability so PRoHIT's total refresh count is
    // closest to PARA-0.00145's budget over the same ACTs, as §V-A does.
    let para_budget = (0.00145 * acts as f64) as u64;
    let mut best = (f64::MAX, 0.01, std::collections::HashMap::new());
    for q in [0.3, 0.1, 0.03, 0.01, 0.003, 0.001] {
        let mut prohit =
            Prohit::new(ProhitConfig { insert_probability: q, ..ProhitConfig::micro2020() }, 1);
        let mut attack = ProhitAttack::new(center);
        let rates = measure_victim_refresh_rates(&mut prohit, &mut attack, acts);
        let total: u64 = rates.values().sum();
        let err = (total as f64 - para_budget as f64).abs();
        if err < best.0 {
            best = (err, q, rates);
        }
    }
    let (_, q, rates) = best;
    let total: u64 = rates.values().sum();
    println!(
        "Calibrated insert probability q = {q} (total refreshes {total}, PARA budget {para_budget})."
    );

    let mut table = TablePrinter::new(vec![
        "victim",
        "disturb share",
        "refreshes",
        "per-ACT rate",
        "P(bit flip per tREFW)",
    ]);
    // Victim rows of the pattern with their disturbing-ACT shares per cycle
    // of 9: x±1 see 5+2=7? — shares derived from adjacency with the cycle.
    let victims: [(i64, f64); 6] = [(-5, 1.0), (-3, 3.0), (-1, 5.0), (1, 5.0), (3, 3.0), (5, 1.0)];
    for (offset, share) in victims {
        let row = (center as i64 + offset) as u32;
        let refreshed = rates.get(&row).copied().unwrap_or(0);
        let r = refreshed as f64 / acts as f64;
        // Per-disturbing-ACT refresh probability and window rescaling: the
        // victim is disturbed by share/9 of the stream.
        let per_disturb = (r * 9.0 / share).min(1.0);
        let w_eff = (w as f64 * share / 9.0) as u64;
        let fail = victim_failure_probability(per_disturb, 50_000, w_eff, 1);
        table.row(vec![
            format!("x{offset:+}"),
            format!("{share}/9"),
            refreshed.to_string(),
            format!("{r:.2e}"),
            format!("{fail:.3e}"),
        ]);
    }
    table.print();
    println!(
        "Paper: the starved victims (x±5) give PRoHIT a ~0.25% bit-flip chance per tREFW \
         at this budget — near-certain failure within a year. PARA at the same budget: {:.2e}.",
        para_window_failure(0.00145, 50_000, w)
    );
}

fn mrloc_analysis(fast: bool) {
    crate::banner("Figure 7(b) — MRLoc under the 8-aggressor rotation");
    let acts: u64 = if fast { 400_000 } else { 4_000_000 };
    let w = DramTiming::ddr4_2400().max_acts_per_refresh_window();
    let p = 0.00145;

    let mut table = TablePrinter::new(vec![
        "aggressors",
        "distinct victims",
        "mean victim rate",
        "vs PARA per-victim",
        "P(flip/tREFW, worst victim)",
    ]);
    for n_aggr in [7u64, 8] {
        let mut mrloc =
            Mrloc::new(MrlocConfig { base_probability: p, ..MrlocConfig::micro2020() }, 5);
        let mut attack = MrlocAttack::new(1000, 100);
        let mut seven = workloads::Synthetic::s1(7, 65_536, 123);
        let (rates, victim_rows): (_, Vec<u32>) = if n_aggr == 8 {
            let victims =
                attack.aggressors().iter().flat_map(|a| [a.0.saturating_sub(1), a.0 + 1]).collect();
            (measure_victim_refresh_rates(&mut mrloc, &mut attack, acts), victims)
        } else {
            let victims =
                seven.aggressors().iter().flat_map(|a| [a.0.saturating_sub(1), a.0 + 1]).collect();
            (measure_victim_refresh_rates(&mut mrloc, &mut seven, acts), victims)
        };
        let total: u64 = victim_rows.iter().map(|r| rates.get(r).copied().unwrap_or(0)).sum();
        let mean_rate = total as f64 / victim_rows.len() as f64 / acts as f64;
        let worst_rate = victim_rows
            .iter()
            .map(|r| rates.get(r).copied().unwrap_or(0) as f64 / acts as f64)
            .fold(f64::MAX, f64::min);
        // Each victim is disturbed by 1/n_aggr of the stream, so PARA's
        // per-global-ACT refresh rate for a victim is (p/2)/n_aggr.
        let para_rate = p / 2.0 / n_aggr as f64;
        let per_disturb = (worst_rate * n_aggr as f64).min(1.0);
        let w_eff = w / n_aggr;
        let fail = victim_failure_probability(per_disturb, 50_000, w_eff, 1);
        table.row(vec![
            n_aggr.to_string(),
            (2 * n_aggr).to_string(),
            format!("{mean_rate:.2e}"),
            format!("{:.2}x", mean_rate / para_rate),
            format!("{fail:.3e}"),
        ]);
    }
    table.print();
    println!(
        "Paper: 16 distinct victims overflow the 15-entry queue, so MRLoc degrades to \
         PARA's protection exactly; with 7 aggressors the queue fits and locality boosts rates."
    );
}

/// Builds a fresh defense for one ground-truth case.
type DefenseMaker = Box<dyn FnMut() -> Box<dyn RowHammerDefense>>;

fn ground_truth(fast: bool) {
    crate::banner("Ground truth — attack patterns vs the fault oracle (reduced T_RH = 1,000)");
    let t_rh = 1_000u64;
    let acts: u64 = if fast { 500_000 } else { 2_000_000 };
    let t = DramTiming::ddr4_2400();

    let run_defense = |mk: &mut dyn FnMut() -> Box<dyn RowHammerDefense>| -> (u64, u64) {
        let mut defense = mk();
        let mut oracle = FaultOracle::new(DisturbanceModel { t_rh, mu: MuModel::Adjacent }, 65_536);
        let mut auto = dram_model::RefreshEngine::new(&t, 65_536);
        let mut attack = ProhitAttack::new(1000);
        let mut refreshes = 0u64;
        for i in 0..acts {
            let now = i * t.t_rc;
            oracle.refresh_rows(auto.catch_up(now));
            let a = attack.next_access();
            oracle.activate(a.row, now);
            let mut actions = defense.on_activation(a.row, now);
            if i % 165 == 164 {
                actions.extend(defense.on_refresh_tick(now));
            }
            for action in actions {
                refreshes += action.row_count(65_536);
                oracle.refresh_rows(action.rows(65_536));
            }
        }
        (oracle.flips().len() as u64, refreshes)
    };

    let mut table = TablePrinter::new(vec!["defense", "bit flips", "victim refreshes"]);
    let cases: Vec<(&str, DefenseMaker)> = vec![
        (
            "PRoHIT (q=0.003)",
            Box::new(|| {
                Box::new(Prohit::new(
                    ProhitConfig { insert_probability: 0.003, ..ProhitConfig::micro2020() },
                    9,
                ))
            }),
        ),
        (
            "Graphene",
            Box::new(move || {
                let cfg = graphene_core::GrapheneConfig::builder()
                    .row_hammer_threshold(t_rh)
                    .build()
                    .expect("valid");
                Box::new(mitigations::GrapheneDefense::from_config(&cfg).expect("derivable"))
            }),
        ),
    ];
    for (name, mut mk) in cases {
        let (flips, refreshes) = run_defense(&mut mk);
        table.row(vec![name.into(), flips.to_string(), refreshes.to_string()]);
    }
    table.print();
    println!("Graphene must show zero flips; PRoHIT's starved victims flip.");
}
