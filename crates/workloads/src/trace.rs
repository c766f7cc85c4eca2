//! In-memory trace recording and replay.
//!
//! Every generator in this crate is deterministic, but experiments sometimes
//! need the *same* access sequence replayed against many defenses. A
//! [`Trace`] is a materialized access list and [`TraceReplay`] loops over
//! it. The on-disk format is RHT4 ([`crate::rht4`]): traces that must
//! outlive the process, or that do not fit in memory, go through
//! [`TraceWriter`](crate::TraceWriter) and
//! [`TraceReader`](crate::TraceReader).
//!
//! [`TraceError`] is the typed malformation of an RHT4 file.

use dram_model::geometry::DramGeometry;

use crate::stream::{Access, Workload};

/// A malformed or geometry-incompatible trace encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// Fewer bytes than the fixed header.
    ShortHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// The magic prefix is not a known trace format.
    BadMagic {
        /// The four bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The chunks do not hold the record count the header promises.
    LengthMismatch {
        /// Records the header promised.
        records: u64,
    },
    /// The trace was recorded on a different geometry than the replay
    /// target (the geometry is stamped into the header).
    GeometryMismatch {
        /// The geometry the replay runs on.
        expected: DramGeometry,
        /// The geometry stamped into the trace.
        found: DramGeometry,
    },
    /// An access addresses a bank or row outside the target geometry.
    OutOfRange {
        /// Index of the offending access within the trace.
        index: u64,
        /// Its bank index.
        bank: u16,
        /// Its row index.
        row: u32,
        /// The geometry it was validated against.
        geometry: DramGeometry,
    },
    /// A CRC32C integrity frame failed to verify: the bytes on disk are not
    /// the bytes that were written (bit rot, a torn write behind a valid
    /// header, or an overwrite). Structurally valid data with a bad
    /// checksum must never be replayed.
    Corrupt {
        /// Which frame failed (`"header"`, `"chunk 3"`, …).
        what: String,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the bytes actually read.
        computed: u32,
    },
    /// Any other structural corruption (bad varint, truncated chunk, …).
    Malformed {
        /// Human-readable description of the corruption.
        detail: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::ShortHeader { len } => {
                write!(f, "trace shorter than header ({len} bytes)")
            }
            TraceError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            TraceError::LengthMismatch { records } => {
                write!(f, "trace body does not hold the {records} records its header promises")
            }
            TraceError::GeometryMismatch { expected, found } => {
                write!(f, "trace recorded for {found:?} cannot replay on {expected:?}")
            }
            TraceError::OutOfRange { index, bank, row, geometry } => write!(
                f,
                "access #{index} (bank {bank}, row {row}) is outside the target geometry \
                 ({} banks × {} rows)",
                geometry.total_banks(),
                geometry.rows_per_bank
            ),
            TraceError::Corrupt { what, stored, computed } => write!(
                f,
                "corrupt trace {what}: crc32c mismatch (stored {stored:#010x}, \
                 computed {computed:#010x})"
            ),
            TraceError::Malformed { detail } => write!(f, "malformed trace: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<TraceError> for std::io::Error {
    fn from(e: TraceError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// The temp sibling an atomic writer stages into: same directory (so the
/// rename cannot cross filesystems), name suffixed with `.tmp`.
pub(crate) fn tmp_sibling(path: &std::path::Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A recorded access trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    accesses: Vec<Access>,
    name: String,
}

impl Trace {
    /// Records `n` accesses from a workload.
    pub fn record(workload: &mut dyn Workload, n: usize) -> Self {
        let accesses = (0..n).map(|_| workload.next_access()).collect();
        Trace { accesses, name: format!("trace({})", workload.name()) }
    }

    /// Builds a trace from an explicit access list.
    pub fn from_accesses(name: impl Into<String>, accesses: Vec<Access>) -> Self {
        Trace { accesses, name: name.into() }
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// An infinitely looping replayer over this trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn replay(&self) -> TraceReplay {
        assert!(!self.accesses.is_empty(), "cannot replay an empty trace");
        TraceReplay { trace: self.clone(), position: 0 }
    }
}

/// Replays a [`Trace`], looping at the end.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Trace,
    position: usize,
}

impl Workload for TraceReplay {
    fn name(&self) -> String {
        self.trace.name.clone()
    }

    fn next_access(&mut self) -> Access {
        let a = self.trace.accesses[self.position % self.trace.accesses.len()];
        self.position += 1;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::Synthetic;
    use dram_model::geometry::RowId;

    #[test]
    fn record_and_replay_match_source() {
        let mut source = Synthetic::s1(10, 65_536, 42);
        let trace = Trace::record(&mut source, 500);
        let mut fresh = Synthetic::s1(10, 65_536, 42);
        let mut replay = trace.replay();
        for _ in 0..500 {
            assert_eq!(replay.next_access(), fresh.next_access());
        }
    }

    #[test]
    fn replay_loops() {
        let trace = Trace::from_accesses(
            "t",
            vec![
                Access { bank: 0, row: RowId(1), gap: 5, stream: 0 },
                Access { bank: 1, row: RowId(2), gap: 6, stream: 0 },
            ],
        );
        let mut r = trace.replay();
        let first: Vec<_> = (0..4).map(|_| r.next_access().row.0).collect();
        assert_eq!(first, vec![1, 2, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_panics() {
        let _ = Trace::default().replay();
    }
}
