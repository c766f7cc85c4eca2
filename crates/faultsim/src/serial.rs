//! JSONL serialization for fault plans.
//!
//! The format is rendered and parsed by hand on top of [`telemetry::json`].
//! Line 1 is a header carrying the schema tag and the full [`FaultSpec`];
//! each following line is one [`FaultEvent`]. Round-tripping reproduces the
//! plan exactly: `parse_jsonl(plan.to_jsonl()) == plan`.

use telemetry::json::{self, obj, u64_field, JsonValue};

use crate::plan::{
    ControllerFault, FaultEvent, FaultKind, FaultPlan, FaultSpec, HarnessFault, TrackerFault,
};

/// Schema tag written into (and required in) the header line.
pub const SCHEMA: &str = "faultplan.v1";

fn spec_to_json(spec: &FaultSpec) -> JsonValue {
    obj(vec![
        ("schema", JsonValue::Str(SCHEMA.to_owned())),
        ("seed", JsonValue::U64(spec.seed)),
        ("accesses", JsonValue::U64(spec.accesses)),
        ("banks", JsonValue::U64(u64::from(spec.banks))),
        ("tracker_slots", JsonValue::U64(u64::from(spec.tracker_slots))),
        ("count_bits", JsonValue::U64(u64::from(spec.count_bits))),
        ("addr_bits", JsonValue::U64(u64::from(spec.addr_bits))),
        ("spillover_bits", JsonValue::U64(u64::from(spec.spillover_bits))),
        ("bit_flips", JsonValue::U64(u64::from(spec.bit_flips))),
        ("lookup_misses", JsonValue::U64(u64::from(spec.lookup_misses))),
        ("nrr_drops", JsonValue::U64(u64::from(spec.nrr_drops))),
        ("nrr_defers", JsonValue::U64(u64::from(spec.nrr_defers))),
        ("refresh_postpones", JsonValue::U64(u64::from(spec.refresh_postpones))),
        ("duplicates", JsonValue::U64(u64::from(spec.duplicates))),
        ("sink_failures", JsonValue::U64(u64::from(spec.sink_failures))),
        ("worker_stalls", JsonValue::U64(u64::from(spec.worker_stalls))),
    ])
}

fn spec_from_json(v: &JsonValue) -> Result<FaultSpec, String> {
    let schema = v.get("schema").and_then(JsonValue::as_str).unwrap_or_default();
    if schema != SCHEMA {
        return Err(format!("unsupported fault plan schema `{schema}` (want `{SCHEMA}`)"));
    }
    Ok(FaultSpec {
        seed: u64_field(v, "seed")?,
        accesses: u64_field(v, "accesses")?,
        banks: u64_field(v, "banks")? as u16,
        tracker_slots: u64_field(v, "tracker_slots")? as u32,
        count_bits: u64_field(v, "count_bits")? as u32,
        addr_bits: u64_field(v, "addr_bits")? as u32,
        spillover_bits: u64_field(v, "spillover_bits")? as u32,
        bit_flips: u64_field(v, "bit_flips")? as u32,
        lookup_misses: u64_field(v, "lookup_misses")? as u32,
        nrr_drops: u64_field(v, "nrr_drops")? as u32,
        nrr_defers: u64_field(v, "nrr_defers")? as u32,
        refresh_postpones: u64_field(v, "refresh_postpones")? as u32,
        duplicates: u64_field(v, "duplicates")? as u32,
        sink_failures: u64_field(v, "sink_failures")? as u32,
        worker_stalls: u64_field(v, "worker_stalls")? as u32,
    })
}

fn kind_fields(kind: &FaultKind) -> Vec<(&'static str, JsonValue)> {
    let s = |v: &'static str| JsonValue::Str(v.to_owned());
    match *kind {
        FaultKind::Tracker(TrackerFault::CountBitFlip { slot, bit }) => vec![
            ("layer", s("tracker")),
            ("kind", s("count_bit_flip")),
            ("slot", JsonValue::U64(u64::from(slot))),
            ("bit", JsonValue::U64(u64::from(bit))),
        ],
        FaultKind::Tracker(TrackerFault::AddrBitFlip { slot, bit }) => vec![
            ("layer", s("tracker")),
            ("kind", s("addr_bit_flip")),
            ("slot", JsonValue::U64(u64::from(slot))),
            ("bit", JsonValue::U64(u64::from(bit))),
        ],
        FaultKind::Tracker(TrackerFault::SpilloverBitFlip { bit }) => vec![
            ("layer", s("tracker")),
            ("kind", s("spillover_bit_flip")),
            ("bit", JsonValue::U64(u64::from(bit))),
        ],
        FaultKind::Tracker(TrackerFault::LookupMiss) => {
            vec![("layer", s("tracker")), ("kind", s("lookup_miss"))]
        }
        FaultKind::Controller(ControllerFault::DropNrr) => {
            vec![("layer", s("controller")), ("kind", s("drop_nrr"))]
        }
        FaultKind::Controller(ControllerFault::DeferNrr { accesses }) => vec![
            ("layer", s("controller")),
            ("kind", s("defer_nrr")),
            ("accesses", JsonValue::U64(accesses)),
        ],
        FaultKind::Controller(ControllerFault::PostponeRefresh { refis }) => vec![
            ("layer", s("controller")),
            ("kind", s("postpone_refresh")),
            ("refis", JsonValue::U64(u64::from(refis))),
        ],
        FaultKind::Controller(ControllerFault::DuplicateCommand) => {
            vec![("layer", s("controller")), ("kind", s("duplicate_command"))]
        }
        FaultKind::Harness(HarnessFault::SinkFailure { writes }) => vec![
            ("layer", s("harness")),
            ("kind", s("sink_failure")),
            ("writes", JsonValue::U64(u64::from(writes))),
        ],
        FaultKind::Harness(HarnessFault::WorkerStall { millis }) => vec![
            ("layer", s("harness")),
            ("kind", s("worker_stall")),
            ("millis", JsonValue::U64(millis)),
        ],
    }
}

fn kind_from_json(v: &JsonValue) -> Result<FaultKind, String> {
    let layer = v.get("layer").and_then(JsonValue::as_str).unwrap_or_default();
    let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or_default();
    match (layer, kind) {
        ("tracker", "count_bit_flip") => Ok(FaultKind::Tracker(TrackerFault::CountBitFlip {
            slot: u64_field(v, "slot")? as u32,
            bit: u64_field(v, "bit")? as u32,
        })),
        ("tracker", "addr_bit_flip") => Ok(FaultKind::Tracker(TrackerFault::AddrBitFlip {
            slot: u64_field(v, "slot")? as u32,
            bit: u64_field(v, "bit")? as u32,
        })),
        ("tracker", "spillover_bit_flip") => {
            Ok(FaultKind::Tracker(TrackerFault::SpilloverBitFlip {
                bit: u64_field(v, "bit")? as u32,
            }))
        }
        ("tracker", "lookup_miss") => Ok(FaultKind::Tracker(TrackerFault::LookupMiss)),
        ("controller", "drop_nrr") => Ok(FaultKind::Controller(ControllerFault::DropNrr)),
        ("controller", "defer_nrr") => Ok(FaultKind::Controller(ControllerFault::DeferNrr {
            accesses: u64_field(v, "accesses")?,
        })),
        ("controller", "postpone_refresh") => {
            Ok(FaultKind::Controller(ControllerFault::PostponeRefresh {
                refis: u64_field(v, "refis")? as u32,
            }))
        }
        ("controller", "duplicate_command") => {
            Ok(FaultKind::Controller(ControllerFault::DuplicateCommand))
        }
        ("harness", "sink_failure") => Ok(FaultKind::Harness(HarnessFault::SinkFailure {
            writes: u64_field(v, "writes")? as u32,
        })),
        ("harness", "worker_stall") => {
            Ok(FaultKind::Harness(HarnessFault::WorkerStall { millis: u64_field(v, "millis")? }))
        }
        _ => Err(format!("unknown fault `{layer}/{kind}`")),
    }
}

impl FaultPlan {
    /// Renders the plan as JSONL: a spec header line followed by one line
    /// per event, in schedule order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&spec_to_json(self.spec()).to_string());
        out.push('\n');
        for e in self.events() {
            let mut fields = vec![
                ("seq", JsonValue::U64(e.seq)),
                ("at", JsonValue::U64(e.at_access)),
                ("bank", JsonValue::U64(u64::from(e.bank))),
            ];
            fields.extend(kind_fields(&e.kind));
            out.push_str(&obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a plan previously rendered by [`FaultPlan::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line (bad JSON, wrong
    /// schema tag, unknown fault kind, or missing field).
    pub fn parse_jsonl(input: &str) -> Result<Self, String> {
        let mut lines = input.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| "empty fault plan document".to_owned())?;
        let spec = spec_from_json(&json::parse(header).map_err(|e| format!("header: {e}"))?)?;
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = json::parse(line).map_err(|e| format!("event line {}: {e}", i + 1))?;
            events.push(FaultEvent {
                seq: u64_field(&v, "seq")?,
                at_access: u64_field(&v, "at")?,
                bank: u64_field(&v, "bank")? as u16,
                kind: kind_from_json(&v)?,
            });
        }
        Ok(FaultPlan::from_parts(spec, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_chaos_plan() {
        let plan = FaultPlan::generate(&FaultSpec::chaos(4242));
        let text = plan.to_jsonl();
        let back = FaultPlan::parse_jsonl(&text).unwrap();
        assert_eq!(back, plan);
        // And the rendering itself is stable.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn round_trip_empty_plan() {
        let plan = FaultPlan::generate(&FaultSpec::new(1));
        assert_eq!(FaultPlan::parse_jsonl(&plan.to_jsonl()).unwrap(), plan);
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = FaultPlan::parse_jsonl("{\"schema\":\"other.v9\",\"seed\":1}").unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn rejects_unknown_kind() {
        let plan = FaultPlan::generate(&FaultSpec::new(1));
        let doc = format!(
            "{}{}",
            plan.to_jsonl(),
            "{\"seq\":0,\"at\":1,\"bank\":0,\"layer\":\"tracker\",\"kind\":\"gamma_ray\"}\n"
        );
        let err = FaultPlan::parse_jsonl(&doc).unwrap_err();
        assert!(err.contains("unknown fault"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(FaultPlan::parse_jsonl("").is_err());
        assert!(FaultPlan::parse_jsonl("not json").is_err());
    }
}
