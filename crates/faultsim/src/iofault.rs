//! I/O fault plans: the storage-layer companion to [`crate::plan`].
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
//! bit-identically across runs. Plans are placed by hand:
//! [`IoFaultPlan::single`] strikes one chosen operation, and the default
//! plan strikes none. The shim that injects these events under real
//! reader/writer code is [`crate::chaosfs::ChaosFs`].

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
}

/// A scheduled storage fault: `kind` strikes the `at_op`-th operation of
/// its class (0-based) served by the shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultEvent {
    /// 0-based index within the operation class ([`IoFaultKind::op`]).
    pub at_op: u64,
    /// What happens.
    pub kind: IoFaultKind,
}

/// An op-index-ordered storage fault schedule; the default plan is empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    events: Vec<IoFaultEvent>,
}

impl IoFaultPlan {
    /// A plan of exactly one hand-placed event — the precision tool the
    /// chaos report uses to strike a *specific* write or read ("tear the
    /// checkpoint's 3rd write at byte 40").
    pub fn single(at_op: u64, kind: IoFaultKind) -> Self {
        IoFaultPlan { events: vec![IoFaultEvent { at_op, kind }] }
    }

    /// All events in schedule order (ascending `at_op`).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_their_op_class() {
        let kinds = [
            (IoFaultKind::TornWrite { at_byte: 40 }, IoOp::Write),
            (IoFaultKind::BitRot { byte: 5, bit: 3 }, IoOp::Read),
            (IoFaultKind::FsyncFail, IoOp::Sync),
            (IoFaultKind::ReaderStall { millis: 1 }, IoOp::Read),
        ];
        for (kind, op) in kinds {
            assert_eq!(kind.op(), op, "{kind:?}");
            let plan = IoFaultPlan::single(7, kind);
            assert_eq!(plan.events(), &[IoFaultEvent { at_op: 7, kind }]);
        }
        assert!(IoFaultPlan::default().is_empty());
    }
}
