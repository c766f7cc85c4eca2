//! The defense and workload catalogs used by the experiment harness.

use std::fmt;

use dram_model::Generation;
use graphene_core::GrapheneConfig;
use memctrl::DefenseFactory;
use mitigations::{
    AbacusConfig, AbacusDefense, AuditConfig, AuditedDefense, BlockHammerConfig,
    BlockHammerDefense, Cbt, CbtConfig, CometConfig, CometDefense, Cra, CraConfig, GrapheneDefense,
    HardenedGraphene, IdealCounters, Mrloc, MrlocConfig, NoDefense, Para, Prohit, ProhitConfig,
    RfmIssuer, RowHammerDefense, ShadowCert, Twice, TwiceConfig,
};
use workloads::{
    Interleaved, MrlocAttack, ProhitAttack, ProxyWorkload, SameRowAllBanks, SpecPreset,
    StripedNSided, Synthetic, Workload,
};

/// A malformed defense or generation spec string, broken down into the
/// field that failed, the offending token, and what the parser expected —
/// the typed replacement for the old stringly parse failures, so CLI
/// front-ends can point at the exact token instead of grepping a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// Which part of the spec failed: `"defense"`, `"generation"`,
    /// `"args"`, `"t_rh"`, `"k"`, or `"p"`.
    pub field: &'static str,
    /// The token (or whole spec) that did not parse.
    pub token: String,
    /// What the parser expected in its place.
    pub expected: String,
}

impl SpecParseError {
    fn new(field: &'static str, token: impl Into<String>, expected: impl Into<String>) -> Self {
        SpecParseError { field, token: token.into(), expected: expected.into() }
    }
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.field {
            "defense" => write!(f, "unknown defense `{}` (expected {})", self.token, self.expected),
            "generation" => {
                write!(f, "unknown DRAM generation `{}` (expected {})", self.token, self.expected)
            }
            field => write!(f, "bad {field} `{}`: expected {}", self.token, self.expected),
        }
    }
}

impl std::error::Error for SpecParseError {}

/// A named, buildable defense configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DefenseSpec {
    /// No protection (the baseline).
    None,
    /// Graphene at the given threshold and reset-window divisor.
    Graphene {
        /// Row Hammer threshold.
        t_rh: u64,
        /// Reset-window divisor `k`.
        k: u32,
    },
    /// Graphene hardened with scrub-on-access parity and conservative reset
    /// — the graceful-degradation variant the resilience matrix compares
    /// against plain Graphene under tracker-SRAM fault injection.
    HardenedGraphene {
        /// Row Hammer threshold.
        t_rh: u64,
        /// Reset-window divisor `k`.
        k: u32,
    },
    /// PARA with refresh probability `p`.
    Para {
        /// Per-ACT refresh probability.
        p: f64,
    },
    /// PRoHIT with the paper's 7-entry configuration.
    Prohit,
    /// MRLoc with the paper's 15-entry queue and base probability `p`.
    Mrloc {
        /// Base (PARA-equivalent) probability.
        p: f64,
    },
    /// CBT with the Figure 9 counter scaling for the threshold.
    Cbt {
        /// Row Hammer threshold.
        t_rh: u64,
    },
    /// CRA with a 128-entry counter cache at the given threshold.
    Cra {
        /// Row Hammer threshold.
        t_rh: u64,
    },
    /// TWiCe at the given threshold.
    Twice {
        /// Row Hammer threshold.
        t_rh: u64,
    },
    /// Ideal per-row counters at the given threshold.
    Ideal {
        /// Row Hammer threshold.
        t_rh: u64,
    },
    /// CoMeT: count-min sketch + exact recent-aggressor table, with a
    /// bounded-FN certificate instead of the exact shadow cert.
    Comet {
        /// Row Hammer threshold.
        t_rh: u64,
    },
    /// ABACuS: one shared all-bank counter table. Built through the
    /// all-bank factory path (one table per controller/shard); the strictly
    /// per-bank path falls back to private single-bank tables.
    Abacus {
        /// Row Hammer threshold.
        t_rh: u64,
        /// Reset-window divisor `k`.
        k: u32,
    },
    /// BlockHammer: dual counting-Bloom blacklist that throttles blacklisted
    /// activations through the [`mitigations::ThrottleDecision`] feedback
    /// path instead of refreshing victims.
    BlockHammer {
        /// Row Hammer threshold.
        t_rh: u64,
    },
}

impl DefenseSpec {
    /// Scheme name for reports.
    pub fn name(&self) -> String {
        match *self {
            DefenseSpec::None => "None".into(),
            DefenseSpec::Graphene { .. } => "Graphene".into(),
            DefenseSpec::HardenedGraphene { .. } => "HardenedGraphene".into(),
            DefenseSpec::Para { p } => format!("PARA-{p}"),
            DefenseSpec::Prohit => "PRoHIT".into(),
            DefenseSpec::Mrloc { .. } => "MRLoc".into(),
            DefenseSpec::Cbt { t_rh } => {
                format!("CBT-{}", CbtConfig::scaled_for_threshold(t_rh).num_counters)
            }
            DefenseSpec::Cra { .. } => "CRA-128".into(),
            DefenseSpec::Twice { .. } => "TWiCe".into(),
            DefenseSpec::Ideal { .. } => "Ideal".into(),
            DefenseSpec::Comet { .. } => "CoMeT".into(),
            DefenseSpec::Abacus { .. } => "ABACuS".into(),
            DefenseSpec::BlockHammer { .. } => "BlockHammer".into(),
        }
    }

    /// Whether this defense identifies aggressor rows, so its neighbor
    /// refreshes can be re-spelled as directed RFM commands on a generation
    /// that defines them. The probabilistic samplers (PARA, PRoHIT, MRLoc)
    /// refresh individual victim rows without an aggressor-count crossing,
    /// so they keep their row-granular spelling even on DDR5/LPDDR5.
    pub fn rfm_capable(&self) -> bool {
        !matches!(
            self,
            DefenseSpec::None
                | DefenseSpec::Para { .. }
                | DefenseSpec::Prohit
                | DefenseSpec::Mrloc { .. }
        )
    }

    /// Canonical machine-readable spec string, parseable by
    /// [`DefenseSpec::parse`] — the CLI/CSV notation of the arena report
    /// (e.g. `graphene@50000,k=2`, `abacus@50000,k=2`, `para@0.00145`).
    pub fn spec_string(&self) -> String {
        match *self {
            DefenseSpec::None => "none".into(),
            DefenseSpec::Graphene { t_rh, k } => format!("graphene@{t_rh},k={k}"),
            DefenseSpec::HardenedGraphene { t_rh, k } => format!("hardened-graphene@{t_rh},k={k}"),
            DefenseSpec::Para { p } => format!("para@{p}"),
            DefenseSpec::Prohit => "prohit".into(),
            DefenseSpec::Mrloc { p } => format!("mrloc@{p}"),
            DefenseSpec::Cbt { t_rh } => format!("cbt@{t_rh}"),
            DefenseSpec::Cra { t_rh } => format!("cra@{t_rh}"),
            DefenseSpec::Twice { t_rh } => format!("twice@{t_rh}"),
            DefenseSpec::Ideal { t_rh } => format!("ideal@{t_rh}"),
            DefenseSpec::Comet { t_rh } => format!("comet@{t_rh}"),
            DefenseSpec::Abacus { t_rh, k } => format!("abacus@{t_rh},k={k}"),
            DefenseSpec::BlockHammer { t_rh } => format!("blockhammer@{t_rh}"),
        }
    }

    /// Parses the notation of [`DefenseSpec::spec_string`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecParseError`] naming the field that failed, the
    /// offending token, and what was expected there.
    pub fn parse(s: &str) -> Result<Self, SpecParseError> {
        let (head, args) = match s.split_once('@') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let no_args = |spec: DefenseSpec| match args {
            None => Ok(spec),
            Some(a) => {
                Err(SpecParseError::new("args", a, format!("no `@` arguments after `{head}`")))
            }
        };
        let t_rh_arg = || -> Result<u64, SpecParseError> {
            let a =
                args.ok_or_else(|| SpecParseError::new("args", s, format!("`{head}@<t_rh>`")))?;
            a.parse::<u64>().map_err(|_| SpecParseError::new("t_rh", a, "an unsigned integer"))
        };
        let t_rh_k_args = || -> Result<(u64, u32), SpecParseError> {
            let a = args
                .ok_or_else(|| SpecParseError::new("args", s, format!("`{head}@<t_rh>,k=<k>`")))?;
            let (t, k) = a
                .split_once(",k=")
                .ok_or_else(|| SpecParseError::new("args", a, "`@<t_rh>,k=<k>`"))?;
            Ok((
                t.parse::<u64>()
                    .map_err(|_| SpecParseError::new("t_rh", t, "an unsigned integer"))?,
                k.parse::<u32>().map_err(|_| SpecParseError::new("k", k, "an unsigned integer"))?,
            ))
        };
        let p_arg = || -> Result<f64, SpecParseError> {
            let a = args.ok_or_else(|| SpecParseError::new("args", s, format!("`{head}@<p>`")))?;
            a.parse::<f64>().map_err(|_| SpecParseError::new("p", a, "a probability"))
        };
        match head {
            "none" => no_args(DefenseSpec::None),
            "prohit" => no_args(DefenseSpec::Prohit),
            "graphene" => t_rh_k_args().map(|(t_rh, k)| DefenseSpec::Graphene { t_rh, k }),
            "hardened-graphene" => {
                t_rh_k_args().map(|(t_rh, k)| DefenseSpec::HardenedGraphene { t_rh, k })
            }
            "abacus" => t_rh_k_args().map(|(t_rh, k)| DefenseSpec::Abacus { t_rh, k }),
            "para" => p_arg().map(|p| DefenseSpec::Para { p }),
            "mrloc" => p_arg().map(|p| DefenseSpec::Mrloc { p }),
            "cbt" => t_rh_arg().map(|t_rh| DefenseSpec::Cbt { t_rh }),
            "cra" => t_rh_arg().map(|t_rh| DefenseSpec::Cra { t_rh }),
            "twice" => t_rh_arg().map(|t_rh| DefenseSpec::Twice { t_rh }),
            "ideal" => t_rh_arg().map(|t_rh| DefenseSpec::Ideal { t_rh }),
            "comet" => t_rh_arg().map(|t_rh| DefenseSpec::Comet { t_rh }),
            "blockhammer" => t_rh_arg().map(|t_rh| DefenseSpec::BlockHammer { t_rh }),
            other => Err(SpecParseError::new(
                "defense",
                other,
                "one of the lineup heads (none, graphene, hardened-graphene, para, prohit, \
                 mrloc, cbt, cra, twice, ideal, comet, abacus, blockhammer)",
            )),
        }
    }

    /// Builds one per-bank instance for the paper's DDR4-2400 device;
    /// `bank` seeds RNG-based schemes.
    ///
    /// # Panics
    ///
    /// Panics if the spec's parameters are underivable for the given bank
    /// size (e.g. a threshold too low for Graphene).
    pub fn build(&self, bank: usize, rows_per_bank: u32) -> Box<dyn RowHammerDefense + Send> {
        self.build_for(Generation::Ddr4_2400, bank, rows_per_bank)
    }

    /// Builds one per-bank instance with every derived parameter — reset
    /// windows, table sizes, spill budgets — recomputed from the
    /// generation's timing. `build_for(Generation::Ddr4_2400, ..)` is
    /// bit-identical to the legacy [`DefenseSpec::build`] path.
    ///
    /// # Panics
    ///
    /// Panics like [`DefenseSpec::build`] on underivable parameters.
    pub fn build_for(
        &self,
        generation: Generation,
        bank: usize,
        rows_per_bank: u32,
    ) -> Box<dyn RowHammerDefense + Send> {
        let timing = generation.timing();
        match *self {
            DefenseSpec::None => Box::new(NoDefense::new()),
            DefenseSpec::Graphene { t_rh, k } => {
                let cfg = GrapheneConfig::builder()
                    .row_hammer_threshold(t_rh)
                    .reset_window_divisor(k)
                    .rows_per_bank(rows_per_bank)
                    .timing(timing)
                    .build()
                    .expect("valid Graphene config");
                Box::new(GrapheneDefense::from_config(&cfg).expect("derivable"))
            }
            DefenseSpec::HardenedGraphene { t_rh, k } => {
                let cfg = GrapheneConfig::builder()
                    .row_hammer_threshold(t_rh)
                    .reset_window_divisor(k)
                    .rows_per_bank(rows_per_bank)
                    .timing(timing)
                    .build()
                    .expect("valid Graphene config");
                Box::new(HardenedGraphene::from_config(&cfg).expect("derivable"))
            }
            DefenseSpec::Para { p } => Box::new(Para::new(p, bank as u64 + 1)),
            DefenseSpec::Prohit => {
                Box::new(Prohit::new(ProhitConfig::micro2020(), bank as u64 + 1))
            }
            DefenseSpec::Mrloc { p } => Box::new(Mrloc::new(
                MrlocConfig { base_probability: p, ..MrlocConfig::micro2020() },
                bank as u64 + 1,
            )),
            DefenseSpec::Cbt { t_rh } => {
                let cfg = CbtConfig {
                    rows_per_bank,
                    reset_window: timing.t_refw,
                    ..CbtConfig::scaled_for_threshold(t_rh)
                };
                Box::new(Cbt::new(cfg))
            }
            DefenseSpec::Cra { t_rh } => Box::new(Cra::new(CraConfig {
                row_hammer_threshold: t_rh,
                rows_per_bank,
                ..CraConfig::with_timing(&timing)
            })),
            DefenseSpec::Twice { t_rh } => Box::new(Twice::new(TwiceConfig::with_threshold(t_rh))),
            DefenseSpec::Ideal { t_rh } => {
                Box::new(IdealCounters::new(t_rh, rows_per_bank, timing.t_refw))
            }
            DefenseSpec::Comet { t_rh } => Box::new(CometDefense::new(
                CometConfig::for_threshold_with_timing(t_rh, rows_per_bank, timing)
                    .expect("valid CoMeT config"),
            )),
            DefenseSpec::Abacus { t_rh, k } => {
                // Per-bank fallback: a private single-bank table. The shared
                // all-bank table is built through `build_all_bank` below.
                Box::new(AbacusDefense::single(
                    AbacusConfig::for_geometry_with_timing(t_rh, k, 1, rows_per_bank, timing)
                        .expect("valid ABACuS config"),
                ))
            }
            DefenseSpec::BlockHammer { t_rh } => Box::new(BlockHammerDefense::new(
                BlockHammerConfig::for_threshold_with_timing(t_rh, rows_per_bank, timing)
                    .expect("valid BlockHammer config"),
            )),
        }
    }

    /// Like [`DefenseSpec::build`], wrapped in an [`AuditedDefense`] that
    /// validates every refresh action online. For Graphene the wrapper also
    /// carries the derived `T` and reset window, certifying the paper's
    /// multiples-of-`T` trigger against an independent shadow count.
    ///
    /// # Panics
    ///
    /// Panics like [`DefenseSpec::build`] on underivable parameters.
    pub fn build_audited(
        &self,
        bank: usize,
        rows_per_bank: u32,
    ) -> Box<dyn RowHammerDefense + Send> {
        self.build_audited_for(Generation::Ddr4_2400, bank, rows_per_bank)
    }

    /// [`DefenseSpec::build_audited`] on an explicit generation: the inner
    /// defense *and* the certificate (tracking threshold, reset window) are
    /// derived from the generation's timing, so the audit proves the
    /// no-false-negative property against the window the device actually
    /// has, not the DDR4 64 ms assumption.
    ///
    /// # Panics
    ///
    /// Panics like [`DefenseSpec::build`] on underivable parameters.
    pub fn build_audited_for(
        &self,
        generation: Generation,
        bank: usize,
        rows_per_bank: u32,
    ) -> Box<dyn RowHammerDefense + Send> {
        let inner = self.build_for(generation, bank, rows_per_bank);
        Box::new(AuditedDefense::new(inner, self.audit_config_for(generation, rows_per_bank)))
    }

    /// The audit shell for this spec: action bounds plus the exact shadow
    /// certificate where the scheme supports one, every threshold derived
    /// from the generation's timing.
    fn audit_config_for(&self, generation: Generation, rows_per_bank: u32) -> AuditConfig {
        let timing = generation.timing();
        let mut cfg = AuditConfig::new(rows_per_bank);
        // The hardened variant runs under the *same* certificate as plain
        // Graphene: its repair NRRs are ordinary Neighbors actions, so the
        // shadow count still proves the no-false-negative property —
        // including while it degrades under injected corruption.
        if let DefenseSpec::Graphene { t_rh, k } | DefenseSpec::HardenedGraphene { t_rh, k } = *self
        {
            let params = GrapheneConfig::builder()
                .row_hammer_threshold(t_rh)
                .reset_window_divisor(k)
                .rows_per_bank(rows_per_bank)
                .timing(timing)
                .build()
                .expect("valid Graphene config")
                .derive()
                .expect("derivable");
            cfg.max_radius = params.blast_radius;
            cfg.certify = Some(ShadowCert {
                tracking_threshold: params.tracking_threshold,
                reset_window: params.reset_window,
            });
        }
        if matches!(*self, DefenseSpec::HardenedGraphene { .. }) {
            // A scrubbing defense that detects a corrupted *address* cannot
            // know which row the slot was tracking; its Hamming-ball repair
            // may name never-activated rows. The audit keeps the bank bound
            // and the certificate, waiving only the was-activated check.
            cfg.degraded_repairs = true;
        }
        // ABACuS counts exactly too (Misra-Gries over full row addresses),
        // so it carries the same no-false-negative certificate as Graphene
        // — at its cert threshold (2× the shared-table tracking quantum,
        // headroom for cross-bank spillover churn).
        if let DefenseSpec::Abacus { t_rh, k } = *self {
            let a = AbacusConfig::for_geometry_with_timing(t_rh, k, 1, rows_per_bank, timing)
                .expect("valid ABACuS config");
            cfg.max_radius = a.radius;
            cfg.certify = Some(ShadowCert {
                tracking_threshold: a.cert_threshold,
                reset_window: a.reset_window,
            });
        }
        // CoMeT's sketch can (with bounded probability) under-count, so it
        // runs under the plain action audit plus the analysis-layer
        // bounded-FN certificate, not the exact shadow cert.
        if let DefenseSpec::Comet { t_rh } = *self {
            cfg.max_radius = CometConfig::for_threshold_with_timing(t_rh, rows_per_bank, timing)
                .expect("valid CoMeT config")
                .radius;
        }
        cfg
    }

    /// The shared all-bank pool (ABACuS) for one generation, with the
    /// optional RFM re-spelling applied *inside* the audit shell so the
    /// certificate sees the spelling the controller sees.
    fn all_bank_pool_for(
        &self,
        generation: Generation,
        banks: u32,
        rows_per_bank: u32,
        audited: bool,
        rfm: bool,
    ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
        let DefenseSpec::Abacus { t_rh, k } = *self else { return None };
        let cfg = AbacusConfig::for_geometry_with_timing(
            t_rh,
            k,
            banks,
            rows_per_bank,
            generation.timing(),
        )
        .expect("valid ABACuS geometry");
        Some(
            AbacusDefense::shared_for_banks(cfg)
                .into_iter()
                .map(|facade| {
                    let mut inner: Box<dyn RowHammerDefense + Send> = Box::new(facade);
                    if rfm {
                        inner = Box::new(RfmIssuer::new(inner));
                    }
                    if !audited {
                        return inner;
                    }
                    // Same exact certificate as the per-bank audited path:
                    // the audit shell is per-bank even when the table is
                    // shared, so every bank's shadow count independently
                    // proves the no-false-negative property.
                    let mut audit = AuditConfig::new(rows_per_bank);
                    audit.max_radius = cfg.radius;
                    audit.certify = Some(ShadowCert {
                        tracking_threshold: cfg.cert_threshold,
                        reset_window: cfg.reset_window,
                    });
                    Box::new(AuditedDefense::new(inner, audit))
                })
                .collect(),
        )
    }

    /// The four schemes Figure 8/9 compare, at threshold `t_rh` with the
    /// Figure 9 PARA probability ladder.
    pub fn paper_lineup(t_rh: u64) -> Vec<DefenseSpec> {
        let p = rh_analysis::security::paper_para_ladder()
            .iter()
            .find(|&&(t, _)| t == t_rh)
            .map(|&(_, p)| p)
            .unwrap_or(0.00145);
        vec![
            DefenseSpec::Para { p },
            DefenseSpec::Cbt { t_rh },
            DefenseSpec::Twice { t_rh },
            DefenseSpec::Graphene { t_rh, k: 2 },
        ]
    }
}

/// [`DefenseSpec`] is *the* defense factory of the repo: the sim runner,
/// the bench binaries, the audit layer, and the sharded system path all
/// construct per-bank defense instances through this one impl, so the
/// seed derivation (`bank + 1`) and the audit wrapping live in a single
/// place. The `bank` index is the **global flat** index — the sharded
/// system builder offsets it per channel — so a sharded system and a
/// whole-system controller seed bit-identically.
impl DefenseFactory for DefenseSpec {
    fn build_defense(
        &self,
        bank: usize,
        rows_per_bank: u32,
        audited: bool,
    ) -> Box<dyn RowHammerDefense + Send> {
        if audited {
            self.build_audited(bank, rows_per_bank)
        } else {
            self.build(bank, rows_per_bank)
        }
    }

    fn build_all_bank(
        &self,
        _first_bank: usize,
        banks: u32,
        rows_per_bank: u32,
        audited: bool,
    ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
        self.all_bank_pool_for(Generation::Ddr4_2400, banks, rows_per_bank, audited, false)
    }
}

/// A [`DefenseSpec`] bound to the [`Generation`] it protects — the unit the
/// cross-generation matrix ([`crate::generations`]) sweeps.
///
/// Spec strings are generation-qualified (`ddr5/graphene@20000,k=2`); a
/// bare defense spec means the paper's DDR4-2400 device, so every legacy
/// string keeps parsing to the legacy behavior. As a [`DefenseFactory`] it
/// derives every parameter from the generation's timing and, on the
/// generations that define Refresh Management (DDR5, LPDDR5), re-spells
/// the defense's NRRs as RFM commands through [`RfmIssuer`] — inside the
/// audit shell, so the certificate covers the RFM spelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenSpec {
    /// The DRAM generation the defense is built for.
    pub generation: Generation,
    /// The defense to build.
    pub defense: DefenseSpec,
}

impl GenSpec {
    /// Binds `defense` to `generation`.
    pub fn new(generation: Generation, defense: DefenseSpec) -> Self {
        GenSpec { generation, defense }
    }

    /// The legacy binding: `defense` on the paper's DDR4-2400 device.
    pub fn ddr4(defense: DefenseSpec) -> Self {
        GenSpec::new(Generation::Ddr4_2400, defense)
    }

    /// Whether this pairing issues RFM commands: the generation defines the
    /// command and the defense tracks aggressors whose neighbor refreshes
    /// can be re-spelled ([`DefenseSpec::rfm_capable`]).
    pub fn issues_rfm(&self) -> bool {
        self.generation.rfm().is_some() && self.defense.rfm_capable()
    }

    /// Report name, generation-qualified (`ddr5/Graphene`).
    pub fn name(&self) -> String {
        format!("{}/{}", self.generation.name(), self.defense.name())
    }

    /// Canonical spec string. DDR4 stays bare — byte-for-byte the legacy
    /// [`DefenseSpec::spec_string`] notation — every other generation is
    /// prefixed (`lpddr5/comet@10000`).
    pub fn spec_string(&self) -> String {
        match self.generation {
            Generation::Ddr4_2400 => self.defense.spec_string(),
            g => format!("{}/{}", g.name(), self.defense.spec_string()),
        }
    }

    /// Parses the notation of [`GenSpec::spec_string`]: an optional
    /// `<generation>/` prefix, then a defense spec. Bare specs bind to
    /// DDR4-2400.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecParseError`] naming the field, token, and
    /// expectation.
    pub fn parse(s: &str) -> Result<Self, SpecParseError> {
        match s.split_once('/') {
            Some((g, rest)) => {
                let generation = g.parse::<Generation>().map_err(|_| {
                    SpecParseError::new("generation", g, "ddr4, ddr5, lpddr4x or lpddr5")
                })?;
                Ok(GenSpec::new(generation, DefenseSpec::parse(rest)?))
            }
            None => Ok(GenSpec::ddr4(DefenseSpec::parse(s)?)),
        }
    }
}

impl DefenseFactory for GenSpec {
    fn build_defense(
        &self,
        bank: usize,
        rows_per_bank: u32,
        audited: bool,
    ) -> Box<dyn RowHammerDefense + Send> {
        let mut inner = self.defense.build_for(self.generation, bank, rows_per_bank);
        if self.issues_rfm() {
            inner = Box::new(RfmIssuer::new(inner));
        }
        if audited {
            Box::new(AuditedDefense::new(
                inner,
                self.defense.audit_config_for(self.generation, rows_per_bank),
            ))
        } else {
            inner
        }
    }

    fn build_all_bank(
        &self,
        _first_bank: usize,
        banks: u32,
        rows_per_bank: u32,
        audited: bool,
    ) -> Option<Vec<Box<dyn RowHammerDefense + Send>>> {
        self.defense.all_bank_pool_for(
            self.generation,
            banks,
            rows_per_bank,
            audited,
            self.issues_rfm(),
        )
    }
}

/// A named, buildable workload.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadSpec {
    /// S1 with `n` aggressor rows.
    S1 {
        /// Number of aggressor rows in rotation.
        n: u32,
    },
    /// S2 with `n` aggressor rows plus noise.
    S2 {
        /// Number of aggressor rows in rotation.
        n: u32,
    },
    /// Single-row hammer.
    S3,
    /// Single-row hammer mixed with random accesses.
    S4,
    /// The Figure 7(a) PRoHIT-defeating pattern.
    Fig7a,
    /// The Figure 7(b) MRLoc-defeating pattern.
    Fig7b,
    /// Sixteen copies of one SPEC-like preset (the paper's SPEC-high runs).
    SpecHomogeneous {
        /// The preset to replicate.
        preset: SpecPreset,
    },
    /// The paper's mix-high: one copy of each SPEC-high application, plus
    /// repeats to fill 16 cores.
    MixHigh,
    /// The paper's mix-blend: a blend across all presets.
    MixBlend,
    /// Many-sided hammering striped across `banks` banks (and, through the
    /// mapping policy, across channels) — the full-system TRRespass shape.
    StripedManySided {
        /// Aggressors per bank.
        sides: u32,
        /// Number of banks the stripe covers (clamped to the system).
        banks: u16,
    },
    /// ABACuS-style same-row-all-banks hammering: the identical row index
    /// double-sided in every bank simultaneously.
    SameRowAllBanks {
        /// Number of banks swept (clamped to the system).
        banks: u16,
    },
}

impl WorkloadSpec {
    /// Workload name for reports.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::S1 { n } => format!("S1-{n}"),
            WorkloadSpec::S2 { n } => format!("S2-{n}"),
            WorkloadSpec::S3 => "S3".into(),
            WorkloadSpec::S4 => "S4".into(),
            WorkloadSpec::Fig7a => "fig7a".into(),
            WorkloadSpec::Fig7b => "fig7b".into(),
            WorkloadSpec::SpecHomogeneous { preset } => {
                format!("{}x16", ProxyWorkload::from_preset(*preset, 1, 1 << 20, 0).name())
            }
            WorkloadSpec::MixHigh => "mix-high".into(),
            WorkloadSpec::MixBlend => "mix-blend".into(),
            WorkloadSpec::StripedManySided { sides, banks } => {
                format!("striped-{banks}x{sides}-sided")
            }
            WorkloadSpec::SameRowAllBanks { banks } => format!("same-row-{banks}banks"),
        }
    }

    /// True for the adversarial (attacker-controlled, bank-saturating)
    /// workloads, which are evaluated on a single bank as in §V-B.
    pub fn is_adversarial(&self) -> bool {
        matches!(
            self,
            WorkloadSpec::S1 { .. }
                | WorkloadSpec::S2 { .. }
                | WorkloadSpec::S3
                | WorkloadSpec::S4
                | WorkloadSpec::Fig7a
                | WorkloadSpec::Fig7b
        )
    }

    /// True for the system-scale attack shapes, which only make sense on a
    /// multi-bank (and ideally multi-channel) geometry. Unlike the
    /// [`is_adversarial`](Self::is_adversarial) set they are *not* forced
    /// onto a single bank: the whole point is cross-bank, cross-channel
    /// pressure, so they run on the full system configuration.
    pub fn is_system_scale(&self) -> bool {
        matches!(self, WorkloadSpec::StripedManySided { .. } | WorkloadSpec::SameRowAllBanks { .. })
    }

    /// Builds the workload for a system of `banks` banks of `rows` rows.
    pub fn build(&self, banks: u16, rows: u32, seed: u64) -> Box<dyn Workload + Send> {
        match self {
            WorkloadSpec::S1 { n } => Box::new(Synthetic::s1(*n, rows, seed)),
            WorkloadSpec::S2 { n } => Box::new(Synthetic::s2(*n, rows, seed)),
            WorkloadSpec::S3 => Box::new(Synthetic::s3(rows, seed)),
            WorkloadSpec::S4 => Box::new(Synthetic::s4(rows, seed)),
            WorkloadSpec::Fig7a => Box::new(ProhitAttack::new(rows / 2)),
            WorkloadSpec::Fig7b => Box::new(MrlocAttack::new(rows / 2, 100)),
            WorkloadSpec::SpecHomogeneous { preset } => {
                let cores: Vec<Box<dyn Workload + Send>> = (0..16)
                    .map(|c| {
                        Box::new(ProxyWorkload::from_preset(*preset, banks, rows, seed + c))
                            as Box<dyn Workload + Send>
                    })
                    .collect();
                Box::new(Interleaved::new(cores))
            }
            WorkloadSpec::MixHigh => {
                let presets = SpecPreset::spec_high();
                let cores: Vec<Box<dyn Workload + Send>> = (0..16)
                    .map(|c| {
                        let preset = presets[c as usize % presets.len()];
                        Box::new(ProxyWorkload::from_preset(preset, banks, rows, seed + c))
                            as Box<dyn Workload + Send>
                    })
                    .collect();
                Box::new(Interleaved::new(cores))
            }
            WorkloadSpec::MixBlend => {
                let presets = SpecPreset::all();
                let cores: Vec<Box<dyn Workload + Send>> = (0..16)
                    .map(|c| {
                        let preset = presets[c as usize % presets.len()];
                        Box::new(ProxyWorkload::from_preset(preset, banks, rows, seed + c))
                            as Box<dyn Workload + Send>
                    })
                    .collect();
                Box::new(Interleaved::new(cores))
            }
            WorkloadSpec::StripedManySided { sides, banks: width } => {
                let width = (*width).clamp(1, banks);
                let victim = (rows / 2 + (seed % 97) as u32) % rows;
                Box::new(StripedNSided::new(victim, *sides, width, rows))
            }
            WorkloadSpec::SameRowAllBanks { banks: width } => {
                let width = (*width).clamp(1, banks);
                let victim = 1 + (rows / 2 + (seed % 97) as u32) % (rows - 2);
                Box::new(SameRowAllBanks::new(victim, width, rows))
            }
        }
    }

    /// The adversarial set of Figure 8(b): S1-10, S1-20, S2-10, S3, S4.
    pub fn adversarial_set() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::S1 { n: 10 },
            WorkloadSpec::S1 { n: 20 },
            WorkloadSpec::S2 { n: 10 },
            WorkloadSpec::S3,
            WorkloadSpec::S4,
        ]
    }

    /// The normal-workload set of Figure 8(a)/(c): the nine SPEC-high
    /// homogeneous runs, the two mixes, and the multithreaded proxies.
    pub fn normal_set() -> Vec<WorkloadSpec> {
        let mut v: Vec<WorkloadSpec> = SpecPreset::spec_high()
            .into_iter()
            .map(|preset| WorkloadSpec::SpecHomogeneous { preset })
            .collect();
        v.push(WorkloadSpec::MixHigh);
        v.push(WorkloadSpec::MixBlend);
        v.extend(
            SpecPreset::multithreaded()
                .into_iter()
                .map(|preset| WorkloadSpec::SpecHomogeneous { preset }),
        );
        v
    }

    /// The system-scale attack set exercised by the sharded full-system
    /// path: many-sided stripes of two widths plus the same-row sweep.
    pub fn system_set(banks: u16) -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::StripedManySided { sides: 2, banks },
            WorkloadSpec::StripedManySided { sides: 8, banks },
            WorkloadSpec::SameRowAllBanks { banks },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_defenses_build() {
        for spec in [
            DefenseSpec::None,
            DefenseSpec::Graphene { t_rh: 50_000, k: 2 },
            DefenseSpec::HardenedGraphene { t_rh: 50_000, k: 2 },
            DefenseSpec::Para { p: 0.00145 },
            DefenseSpec::Prohit,
            DefenseSpec::Mrloc { p: 0.00145 },
            DefenseSpec::Cbt { t_rh: 50_000 },
            DefenseSpec::Cra { t_rh: 50_000 },
            DefenseSpec::Twice { t_rh: 50_000 },
            DefenseSpec::Ideal { t_rh: 50_000 },
            DefenseSpec::Comet { t_rh: 50_000 },
            DefenseSpec::Abacus { t_rh: 50_000, k: 2 },
            DefenseSpec::BlockHammer { t_rh: 50_000 },
        ] {
            let d = spec.build(0, 65_536);
            assert!(!d.name().is_empty());
            assert!(!spec.name().is_empty());
            let a = spec.build_audited(0, 65_536);
            assert_eq!(a.name(), format!("Audited({})", d.name()));
            assert_eq!(a.table_bits(), d.table_bits(), "audit must not change footprint");
        }
    }

    #[test]
    fn spec_strings_round_trip() {
        for spec in [
            DefenseSpec::None,
            DefenseSpec::Graphene { t_rh: 50_000, k: 2 },
            DefenseSpec::HardenedGraphene { t_rh: 12_500, k: 4 },
            DefenseSpec::Para { p: 0.00145 },
            DefenseSpec::Prohit,
            DefenseSpec::Mrloc { p: 0.00145 },
            DefenseSpec::Cbt { t_rh: 50_000 },
            DefenseSpec::Cra { t_rh: 50_000 },
            DefenseSpec::Twice { t_rh: 50_000 },
            DefenseSpec::Ideal { t_rh: 50_000 },
            DefenseSpec::Comet { t_rh: 25_000 },
            DefenseSpec::Abacus { t_rh: 25_000, k: 2 },
            DefenseSpec::BlockHammer { t_rh: 25_000 },
        ] {
            let text = spec.spec_string();
            let back = DefenseSpec::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn arena_spec_strings_carry_all_bank_factory_params() {
        // The ABACuS notation must round-trip the reset-window divisor the
        // all-bank factory consumes, not just the threshold.
        let spec = DefenseSpec::parse("abacus@6250,k=4").unwrap();
        assert_eq!(spec, DefenseSpec::Abacus { t_rh: 6_250, k: 4 });
        assert_eq!(spec.spec_string(), "abacus@6250,k=4");
        assert_eq!(DefenseSpec::parse("comet@1560").unwrap(), DefenseSpec::Comet { t_rh: 1_560 });
        assert_eq!(
            DefenseSpec::parse("blockhammer@3125").unwrap(),
            DefenseSpec::BlockHammer { t_rh: 3_125 },
        );
    }

    #[test]
    fn malformed_spec_strings_are_rejected_with_reasons() {
        for (text, needle) in [
            ("abacus@6250", "k="),
            ("comet", "t_rh"),
            ("blockhammer@abc", "bad t_rh"),
            ("prohit@7", "no `@` arguments"),
            ("warp-field@9000", "unknown defense"),
        ] {
            let err = DefenseSpec::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "`{text}` -> {err}");
        }
    }

    #[test]
    fn parse_errors_name_the_offending_field_and_token() {
        let err = DefenseSpec::parse("blockhammer@abc").unwrap_err();
        assert_eq!((err.field, err.token.as_str()), ("t_rh", "abc"));
        let err = DefenseSpec::parse("graphene@50000,k=x").unwrap_err();
        assert_eq!((err.field, err.token.as_str()), ("k", "x"));
        let err = DefenseSpec::parse("para@fast").unwrap_err();
        assert_eq!((err.field, err.token.as_str()), ("p", "fast"));
        let err = DefenseSpec::parse("warp-field@9000").unwrap_err();
        assert_eq!((err.field, err.token.as_str()), ("defense", "warp-field"));
        let err = GenSpec::parse("xdr9/graphene@50000,k=2").unwrap_err();
        assert_eq!((err.field, err.token.as_str()), ("generation", "xdr9"));
    }

    #[test]
    fn generation_qualified_specs_round_trip() {
        let g = GenSpec::parse("ddr5/graphene@20000,k=2").unwrap();
        assert_eq!(g.generation, Generation::Ddr5_4800);
        assert_eq!(g.defense, DefenseSpec::Graphene { t_rh: 20_000, k: 2 });
        assert_eq!(g.spec_string(), "ddr5/graphene@20000,k=2");
        assert_eq!(g.name(), "ddr5/Graphene");
        // Bare specs are the DDR4 legacy notation, in both directions.
        let bare = GenSpec::parse("comet@6250").unwrap();
        assert_eq!(bare.generation, Generation::Ddr4_2400);
        assert_eq!(bare.spec_string(), "comet@6250");
        // A bad defense inside a good generation prefix still points at the
        // defense token.
        let err = GenSpec::parse("lpddr5/warp-field@9000").unwrap_err();
        assert_eq!(err.field, "defense");
    }

    #[test]
    fn rfm_generations_wrap_defenses_in_the_issuer() {
        let spec =
            GenSpec::new(Generation::Ddr5_4800, DefenseSpec::Graphene { t_rh: 20_000, k: 2 });
        assert!(spec.issues_rfm());
        assert_eq!(spec.build_defense(0, 65_536, false).name(), "Rfm(Graphene)");
        assert_eq!(spec.build_defense(0, 65_536, true).name(), "Audited(Rfm(Graphene))");
        // No RFM on DDR4 or LPDDR4X: the defense is untouched, and the DDR4
        // audited build matches the legacy factory byte for byte.
        let d4 = GenSpec::ddr4(DefenseSpec::Graphene { t_rh: 50_000, k: 2 });
        assert!(!d4.issues_rfm());
        assert_eq!(d4.build_defense(0, 65_536, true).name(), "Audited(Graphene)");
        let lp4 = GenSpec::new(Generation::Lpddr4x, DefenseSpec::Comet { t_rh: 12_500 });
        assert_eq!(lp4.build_defense(0, 65_536, false).name(), "CoMeT");
        // There is no defense to re-spell in the baseline.
        assert!(!GenSpec::new(Generation::Ddr5_4800, DefenseSpec::None).issues_rfm());
        // The shared-table factory keeps the wrap order per facade.
        let ab = GenSpec::new(Generation::Lpddr5, DefenseSpec::Abacus { t_rh: 10_000, k: 2 });
        let pool = ab.build_all_bank(0, 4, 65_536, true).expect("ABACuS is all-bank");
        assert_eq!(pool[0].name(), "Audited(Rfm(ABACuS))");
    }

    #[test]
    fn abacus_all_bank_factory_shares_one_table() {
        let spec = DefenseSpec::Abacus { t_rh: 50_000, k: 2 };
        let pool = spec.build_all_bank(0, 4, 65_536, false).expect("ABACuS is all-bank");
        assert_eq!(pool.len(), 4);
        for d in &pool {
            assert_eq!(d.name(), "ABACuS");
        }
        let audited = spec.build_all_bank(0, 4, 65_536, true).expect("ABACuS is all-bank");
        assert_eq!(audited[0].name(), "Audited(ABACuS)");
        // Everything else keeps the per-bank path.
        assert!(DefenseSpec::Comet { t_rh: 50_000 }.build_all_bank(0, 4, 65_536, false).is_none());
        assert!(DefenseSpec::Graphene { t_rh: 50_000, k: 2 }
            .build_all_bank(0, 4, 65_536, false)
            .is_none());
    }

    #[test]
    fn paper_lineup_has_four_schemes() {
        let lineup = DefenseSpec::paper_lineup(50_000);
        assert_eq!(lineup.len(), 4);
        assert_eq!(lineup[0].name(), "PARA-0.00145");
        assert_eq!(lineup[1].name(), "CBT-128");
    }

    #[test]
    fn paper_lineup_scales_cbt() {
        let lineup = DefenseSpec::paper_lineup(12_500);
        assert_eq!(lineup[1].name(), "CBT-512");
        assert_eq!(lineup[0].name(), "PARA-0.00602");
    }

    #[test]
    fn all_workloads_build_and_emit() {
        let mut specs = WorkloadSpec::adversarial_set();
        specs.push(WorkloadSpec::MixHigh);
        for spec in specs {
            let mut w = spec.build(64, 65_536, 7);
            let a = w.next_access();
            assert!(a.row.0 < 65_536, "{}", spec.name());
        }
    }

    #[test]
    fn adversarial_classification() {
        assert!(WorkloadSpec::S3.is_adversarial());
        assert!(!WorkloadSpec::MixHigh.is_adversarial());
    }

    #[test]
    fn system_scale_workloads_are_not_single_bank() {
        for spec in WorkloadSpec::system_set(64) {
            assert!(spec.is_system_scale(), "{}", spec.name());
            assert!(
                !spec.is_adversarial(),
                "{} must not be forced onto the single-bank attack config",
                spec.name()
            );
        }
        assert!(!WorkloadSpec::S3.is_system_scale());
        assert!(!WorkloadSpec::MixBlend.is_system_scale());
    }

    #[test]
    fn system_scale_workloads_cover_many_banks() {
        for spec in WorkloadSpec::system_set(64) {
            let mut w = spec.build(64, 65_536, 7);
            let banks: std::collections::HashSet<u16> =
                (0..256).map(|_| w.next_access().bank).collect();
            assert_eq!(banks.len(), 64, "{} must stripe all banks", spec.name());
        }
    }

    #[test]
    fn defense_factory_matches_direct_builds() {
        let spec = DefenseSpec::Graphene { t_rh: 50_000, k: 2 };
        let plain = spec.build_defense(3, 65_536, false);
        assert_eq!(plain.name(), spec.build(3, 65_536).name());
        let audited = spec.build_defense(3, 65_536, true);
        assert_eq!(audited.name(), format!("Audited({})", plain.name()));
    }

    #[test]
    fn normal_set_matches_paper_count() {
        // 9 SPEC-high + 2 mixes + 5 multithreaded = 16 workloads.
        assert_eq!(WorkloadSpec::normal_set().len(), 16);
    }
}
