//! Figure 6: worst-case additional refreshes and table size versus the
//! reset-window divisor `k`.
//!
//! For each `k`, Graphene's table shrinks (`N_entry ≈ (2W/T_RH)·(k+1)/k`)
//! while the worst-case number of NRR triggers grows (`k·⌊W_k/T_k⌋` per
//! tREFW, each refreshing two rows). The paper conservatively picks `k = 2`,
//! where the worst-case refresh-energy increase is the famous 0.34 %.

use graphene_core::{GrapheneConfig, GrapheneParams};

use crate::energy::EnergyModel;

/// One point of the Figure 6 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure6Point {
    /// Reset-window divisor.
    pub k: u32,
    /// Table entries per bank.
    pub n_entry: usize,
    /// Table bits per bank.
    pub table_bits: u64,
    /// Worst-case victim-row refreshes per tREFW per bank.
    pub worst_case_victim_rows: u64,
    /// Worst-case additional refreshes relative to the rows auto-refreshed
    /// per tREFW (65,536 for the paper's bank).
    pub relative_additional_refreshes: f64,
    /// Worst-case refresh-energy increase (fraction).
    pub energy_overhead: f64,
}

/// Computes the Figure 6 sweep for `k = 1..=k_max` at the given threshold.
///
/// # Panics
///
/// Panics if any `k` yields an underivable configuration.
pub fn figure6_sweep(t_rh: u64, k_max: u32, rows_per_bank: u32) -> Vec<Figure6Point> {
    let energy = EnergyModel::micro2020();
    (1..=k_max)
        .map(|k| {
            let params: GrapheneParams = GrapheneConfig::builder()
                .row_hammer_threshold(t_rh)
                .reset_window_divisor(k)
                .rows_per_bank(rows_per_bank)
                .build()
                .expect("valid configuration")
                .derive()
                .expect("derivable");
            let victim_rows = params.worst_case_victim_rows_per_refw();
            Figure6Point {
                k,
                n_entry: params.n_entry,
                table_bits: params.table_bits_per_bank(),
                worst_case_victim_rows: victim_rows,
                relative_additional_refreshes: victim_rows as f64 / f64::from(rows_per_bank),
                energy_overhead: energy.refresh_energy_overhead(victim_rows, energy.t_refw, 1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k2_reproduces_0_34_percent() {
        let sweep = figure6_sweep(50_000, 10, 65_536);
        let k2 = sweep[1];
        assert_eq!(k2.k, 2);
        assert_eq!(k2.n_entry, 81);
        assert_eq!(k2.worst_case_victim_rows, 324);
        assert!((k2.energy_overhead - 0.0034).abs() < 0.0002, "{}", k2.energy_overhead);
    }

    #[test]
    fn table_shrinks_and_refreshes_grow_with_k() {
        let sweep = figure6_sweep(50_000, 10, 65_536);
        assert!(sweep.windows(2).all(|w| w[1].n_entry <= w[0].n_entry));
        assert!(sweep[9].worst_case_victim_rows > sweep[0].worst_case_victim_rows);
    }

    #[test]
    fn table_size_saturates_quickly() {
        // §IV-C: "the table size quickly saturates as k increases".
        let sweep = figure6_sweep(50_000, 10, 65_536);
        let early_gain = sweep[0].n_entry - sweep[1].n_entry;
        let late_gain = sweep[8].n_entry - sweep[9].n_entry;
        assert!(early_gain >= 5 * late_gain.max(1) || late_gain == 0);
    }
}
