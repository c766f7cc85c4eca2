//! Seeded I/O fault plans: the storage-layer companion to [`crate::plan`].
//!
//! Where [`FaultPlan`](crate::FaultPlan) schedules faults against the
//! *simulated hardware* (tracker SRAM, controller commands), an
//! [`IoFaultPlan`] schedules faults against the *harness's own storage
//! stack* — the RHT4 trace files and `fleetckpt` checkpoints a fleet run
//! persists. The fault classes are the classic crash-and-corruption
//! repertoire:
//!
//! * [`IoFaultKind::TornWrite`] — a write persists only its first `k` bytes
//!   and the file silently absorbs everything after (power loss mid-write:
//!   the bytes the page cache never reached the platter);
//! * [`IoFaultKind::BitRot`] — a read returns the requested bytes with one
//!   bit flipped (media decay, a misbehaving controller, cosmic rays);
//! * [`IoFaultKind::FsyncFail`] — `fsync` reports failure (the
//!   "fsync-gate" class of durability bugs);
//! * [`IoFaultKind::ReaderStall`] — a read completes but only after a
//!   stall (a degraded device; exercises timeout/retry paths without
//!   corrupting data).
//!
//! Events are keyed by **operation index within their class** — the n-th
//! `read`, `write`, or `sync` the filesystem shim serves — the storage
//! clock that is independent of thread scheduling, so a plan reproduces
//! bit-identically across runs. Like hardware plans, generation is a pure
//! function of the [`IoFaultSpec`] and plans round-trip through JSONL
//! (schema [`IO_SCHEMA`], `ioplan.v1`) so a chaos run can archive the exact
//! schedule it survived. The shim that injects these events under real
//! reader/writer code is [`crate::chaosfs::ChaosFs`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::json::{self, obj, u64_field, JsonValue};

/// Schema tag of the JSONL rendering.
pub const IO_SCHEMA: &str = "ioplan.v1";

/// Which operation class a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A `read` call on an open file.
    Read,
    /// A `write` call on an open file.
    Write,
    /// A `sync_all` call on an open file.
    Sync,
}

impl IoOp {
    /// Stable lowercase name (used in JSONL and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
        }
    }
}

/// One storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The targeted write persists only its first `at_byte` bytes (clamped
    /// to the buffer length); every later write and sync on that file
    /// silently succeeds without persisting anything. The *next open* of
    /// the file sees the torn prefix — exactly a crash between a partial
    /// write and its fsync.
    TornWrite {
        /// Bytes of the faulted write that actually persist.
        at_byte: u32,
    },
    /// The targeted read returns with bit `bit` of byte `byte` (modulo the
    /// bytes actually read) flipped. The file itself is untouched — a
    /// retry reads clean data, so this models transient rot on the read
    /// path; flip the on-disk byte directly to model persistent rot.
    BitRot {
        /// Byte offset within the returned buffer (reduced modulo its
        /// length).
        byte: u32,
        /// Bit position within that byte.
        bit: u8,
    },
    /// The targeted `sync_all` fails with an injected I/O error.
    FsyncFail,
    /// The targeted read completes normally but stalls first.
    ReaderStall {
        /// Stall duration in milliseconds (the shim caps the real sleep so
        /// test suites stay fast).
        millis: u64,
    },
}

impl IoFaultKind {
    /// The operation class this fault strikes.
    pub fn op(&self) -> IoOp {
        match self {
            IoFaultKind::TornWrite { .. } => IoOp::Write,
            IoFaultKind::BitRot { .. } | IoFaultKind::ReaderStall { .. } => IoOp::Read,
            IoFaultKind::FsyncFail => IoOp::Sync,
        }
    }

    /// Stable lowercase name (used in JSONL and diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            IoFaultKind::TornWrite { .. } => "torn_write",
            IoFaultKind::BitRot { .. } => "bit_rot",
            IoFaultKind::FsyncFail => "fsync_fail",
            IoFaultKind::ReaderStall { .. } => "reader_stall",
        }
    }
}

/// A scheduled storage fault: `kind` strikes the `at_op`-th operation of
/// its class (0-based) served by the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultEvent {
    /// Stable generation order; ties on `at_op` within a class resolve by
    /// `seq`.
    pub seq: u64,
    /// 0-based index within the operation class ([`IoFaultKind::op`]).
    pub at_op: u64,
    /// What happens.
    pub kind: IoFaultKind,
}

/// Generation parameters for an [`IoFaultPlan`].
///
/// Every field participates deterministically; two equal specs always
/// produce equal plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultSpec {
    /// RNG seed; the sole source of randomness.
    pub seed: u64,
    /// Horizon: events are placed at op indices in `[0, ops)` of their
    /// class.
    pub ops: u64,
    /// Bound for sampled byte offsets (torn-write cut points, rot bytes).
    pub max_byte: u32,
    /// Number of torn-write events.
    pub torn_writes: u32,
    /// Number of transient bit-rot events.
    pub bit_rots: u32,
    /// Number of fsync-failure events.
    pub fsync_fails: u32,
    /// Number of reader-stall events.
    pub reader_stalls: u32,
}

impl IoFaultSpec {
    /// An empty spec (no faults) for `seed`, with defaults sized for the
    /// fleet service's I/O volume at test scale: a 4 096-op horizon and a
    /// 64 KiB byte bound.
    pub fn new(seed: u64) -> Self {
        IoFaultSpec {
            seed,
            ops: 4_096,
            max_byte: 65_536,
            torn_writes: 0,
            bit_rots: 0,
            fsync_fails: 0,
            reader_stalls: 0,
        }
    }

    /// A spec exercising every storage fault class at once.
    pub fn chaos(seed: u64) -> Self {
        IoFaultSpec {
            torn_writes: 2,
            bit_rots: 4,
            fsync_fails: 2,
            reader_stalls: 2,
            ..Self::new(seed)
        }
    }

    /// Total number of events this spec generates.
    pub fn event_count(&self) -> u64 {
        u64::from(self.torn_writes)
            + u64::from(self.bit_rots)
            + u64::from(self.fsync_fails)
            + u64::from(self.reader_stalls)
    }
}

/// A pre-materialized, op-index-ordered storage fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFaultPlan {
    spec: IoFaultSpec,
    events: Vec<IoFaultEvent>,
}

impl IoFaultPlan {
    /// Generates the schedule for `spec`.
    pub fn generate(spec: &IoFaultSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let horizon = spec.ops.max(1);
        let max_byte = spec.max_byte.max(1);
        let mut events = Vec::with_capacity(spec.event_count() as usize);
        let mut seq = 0u64;
        let mut push = |events: &mut Vec<IoFaultEvent>, rng: &mut StdRng, kind: IoFaultKind| {
            events.push(IoFaultEvent { seq, at_op: rng.gen_range(0..horizon), kind });
            seq += 1;
        };
        for _ in 0..spec.torn_writes {
            let at_byte = rng.gen_range(0..max_byte);
            push(&mut events, &mut rng, IoFaultKind::TornWrite { at_byte });
        }
        for _ in 0..spec.bit_rots {
            let byte = rng.gen_range(0..max_byte);
            let bit = rng.gen_range(0..8u8);
            push(&mut events, &mut rng, IoFaultKind::BitRot { byte, bit });
        }
        for _ in 0..spec.fsync_fails {
            push(&mut events, &mut rng, IoFaultKind::FsyncFail);
        }
        for _ in 0..spec.reader_stalls {
            let millis = rng.gen_range(1u64..=50);
            push(&mut events, &mut rng, IoFaultKind::ReaderStall { millis });
        }
        events.sort_by_key(|e| (e.at_op, e.seq));
        IoFaultPlan { spec: *spec, events }
    }

    /// A plan of exactly one hand-placed event — the precision tool the
    /// chaos report uses to strike a *specific* write or read ("tear the
    /// checkpoint's 3rd write at byte 40").
    pub fn single(at_op: u64, kind: IoFaultKind) -> Self {
        IoFaultPlan {
            spec: IoFaultSpec::new(0),
            events: vec![IoFaultEvent { seq: 0, at_op, kind }],
        }
    }

    /// Rebuilds a plan from parts (deserialization support); sorts events
    /// into schedule order.
    pub fn from_parts(spec: IoFaultSpec, mut events: Vec<IoFaultEvent>) -> Self {
        events.sort_by_key(|e| (e.at_op, e.seq));
        IoFaultPlan { spec, events }
    }

    /// The spec this plan was generated from.
    pub fn spec(&self) -> &IoFaultSpec {
        &self.spec
    }

    /// All events in schedule order (ascending `at_op`, ties by `seq`).
    pub fn events(&self) -> &[IoFaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the plan as JSONL: a spec header line followed by one line
    /// per event, in schedule order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &obj(vec![
                ("schema", JsonValue::Str(IO_SCHEMA.to_owned())),
                ("seed", JsonValue::U64(self.spec.seed)),
                ("ops", JsonValue::U64(self.spec.ops)),
                ("max_byte", JsonValue::U64(u64::from(self.spec.max_byte))),
                ("torn_writes", JsonValue::U64(u64::from(self.spec.torn_writes))),
                ("bit_rots", JsonValue::U64(u64::from(self.spec.bit_rots))),
                ("fsync_fails", JsonValue::U64(u64::from(self.spec.fsync_fails))),
                ("reader_stalls", JsonValue::U64(u64::from(self.spec.reader_stalls))),
            ])
            .to_string(),
        );
        out.push('\n');
        for e in self.events() {
            let mut fields = vec![
                ("seq", JsonValue::U64(e.seq)),
                ("at_op", JsonValue::U64(e.at_op)),
                ("op", JsonValue::Str(e.kind.op().name().to_owned())),
                ("kind", JsonValue::Str(e.kind.name().to_owned())),
            ];
            match e.kind {
                IoFaultKind::TornWrite { at_byte } => {
                    fields.push(("at_byte", JsonValue::U64(u64::from(at_byte))));
                }
                IoFaultKind::BitRot { byte, bit } => {
                    fields.push(("byte", JsonValue::U64(u64::from(byte))));
                    fields.push(("bit", JsonValue::U64(u64::from(bit))));
                }
                IoFaultKind::FsyncFail => {}
                IoFaultKind::ReaderStall { millis } => {
                    fields.push(("millis", JsonValue::U64(millis)));
                }
            }
            out.push_str(&obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a plan previously rendered by [`Self::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line (bad JSON, wrong
    /// schema tag, unknown fault kind, or missing field).
    pub fn parse_jsonl(input: &str) -> Result<Self, String> {
        let mut lines = input.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| "empty I/O fault plan document".to_owned())?;
        let h = json::parse(header).map_err(|e| format!("header: {e}"))?;
        let schema = h.get("schema").and_then(JsonValue::as_str).unwrap_or_default();
        if schema != IO_SCHEMA {
            return Err(format!("unsupported I/O plan schema `{schema}` (want `{IO_SCHEMA}`)"));
        }
        let spec = IoFaultSpec {
            seed: u64_field(&h, "seed")?,
            ops: u64_field(&h, "ops")?,
            max_byte: u64_field(&h, "max_byte")? as u32,
            torn_writes: u64_field(&h, "torn_writes")? as u32,
            bit_rots: u64_field(&h, "bit_rots")? as u32,
            fsync_fails: u64_field(&h, "fsync_fails")? as u32,
            reader_stalls: u64_field(&h, "reader_stalls")? as u32,
        };
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = json::parse(line).map_err(|e| format!("event line {}: {e}", i + 1))?;
            let kind = match v.get("kind").and_then(JsonValue::as_str).unwrap_or_default() {
                "torn_write" => {
                    IoFaultKind::TornWrite { at_byte: u64_field(&v, "at_byte")? as u32 }
                }
                "bit_rot" => IoFaultKind::BitRot {
                    byte: u64_field(&v, "byte")? as u32,
                    bit: u64_field(&v, "bit")? as u8,
                },
                "fsync_fail" => IoFaultKind::FsyncFail,
                "reader_stall" => IoFaultKind::ReaderStall { millis: u64_field(&v, "millis")? },
                other => return Err(format!("unknown I/O fault kind `{other}`")),
            };
            events.push(IoFaultEvent {
                seq: u64_field(&v, "seq")?,
                at_op: u64_field(&v, "at_op")?,
                kind,
            });
        }
        Ok(IoFaultPlan::from_parts(spec, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = IoFaultSpec::chaos(7);
        assert_eq!(IoFaultPlan::generate(&spec), IoFaultPlan::generate(&spec));
        assert_ne!(
            IoFaultPlan::generate(&IoFaultSpec::chaos(1)),
            IoFaultPlan::generate(&IoFaultSpec::chaos(2)),
        );
    }

    #[test]
    fn events_sorted_and_counted() {
        let spec = IoFaultSpec::chaos(99);
        let plan = IoFaultPlan::generate(&spec);
        assert_eq!(plan.len() as u64, spec.event_count());
        for w in plan.events().windows(2) {
            assert!((w[0].at_op, w[0].seq) < (w[1].at_op, w[1].seq));
        }
    }

    #[test]
    fn kinds_map_to_their_op_class() {
        let plan = IoFaultPlan::generate(&IoFaultSpec::chaos(3));
        for e in plan.events() {
            let expect = match e.kind {
                IoFaultKind::TornWrite { .. } => IoOp::Write,
                IoFaultKind::BitRot { .. } | IoFaultKind::ReaderStall { .. } => IoOp::Read,
                IoFaultKind::FsyncFail => IoOp::Sync,
            };
            assert_eq!(e.kind.op(), expect);
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let plan = IoFaultPlan::generate(&IoFaultSpec::chaos(4242));
        let text = plan.to_jsonl();
        let back = IoFaultPlan::parse_jsonl(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_jsonl(), text);
        // Single-event plans round-trip too.
        let single = IoFaultPlan::single(5, IoFaultKind::TornWrite { at_byte: 40 });
        assert_eq!(IoFaultPlan::parse_jsonl(&single.to_jsonl()).unwrap(), single);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(IoFaultPlan::parse_jsonl("").is_err());
        assert!(IoFaultPlan::parse_jsonl("not json").is_err());
        let err = IoFaultPlan::parse_jsonl("{\"schema\":\"other.v9\",\"seed\":1}").unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
        let plan = IoFaultPlan::generate(&IoFaultSpec::new(1));
        let doc = format!("{}{}", plan.to_jsonl(), "{\"seq\":0,\"at_op\":1,\"kind\":\"melt\"}\n");
        assert!(IoFaultPlan::parse_jsonl(&doc).unwrap_err().contains("unknown"));
    }
}
