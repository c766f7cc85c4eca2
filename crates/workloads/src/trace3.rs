//! The RHT4 streaming trace format: geometry-stamped, delta-encoded,
//! chunked, **CRC32C-framed**.
//!
//! An in-memory [`crate::trace::Trace`] materializes every access, which
//! caps replays at whatever fits in RAM. Fleet-scale runs (billions of ACTs)
//! need a disk format that is written incrementally and read back at bounded
//! memory. RHT4 provides:
//!
//! * a **geometry-stamped header** — channels/ranks/banks/rows are recorded
//!   at write time, so a trace replayed against a mismatched
//!   [`DramGeometry`] is rejected at open ([`TraceError::GeometryMismatch`])
//!   instead of routing out of range mid-run;
//! * **delta-encoded records** — bank/row/stream are zigzag-varint deltas
//!   against the previous record (the inter-arrival `gap` is already a time
//!   delta and is stored as a raw varint), shrinking well-behaved streams to
//!   a few bytes per access;
//! * **self-contained chunks** — each chunk restarts the delta baseline and
//!   carries its own record count and byte length, so a reader can skip
//!   whole chunks without decoding them (the checkpoint/resume path in
//!   `rh-sim` seeks this way) and never holds more than one chunk in memory;
//! * **integrity framing** — the header and every chunk carry a CRC32C
//!   ([`crate::crc`]); bit rot, torn writes behind a valid header, and
//!   foreign overwrites surface as [`TraceError::Corrupt`] at read time and
//!   are never silently replayed;
//! * **atomic writes** — [`TraceWriter`] streams into a temp sibling and
//!   renames into place on [`finish`](TraceWriter::finish), so a crash
//!   mid-write never leaves a truncated file behind valid magic.
//!
//! All file I/O goes through the [`crate::vfs`] seam, so the `faultsim`
//! chaos harness can inject deterministic I/O faults (torn writes, bit rot,
//! fsync failures) under this exact reader/writer logic.
//!
//! ## Layout (RHT4)
//!
//! ```text
//! header:  "RHT4" | channels u8 | ranks u8 | banks_per_rank u8 |
//!          rows_per_bank u32 LE | total_records u64 LE |
//!          header_crc u32 LE | name_len u16 LE | name bytes
//! chunk*:  records u32 LE | payload_len u32 LE | chunk_crc u32 LE | payload
//! payload: per record, against the previous record of the *same chunk*
//!          (baseline bank 0 / row 0 / stream 0 at each chunk start):
//!          zigzag(Δbank) | zigzag(Δrow) | varint(gap) | zigzag(Δstream)
//! ```
//!
//! `header_crc` is CRC32C over the header bytes with the crc field itself
//! excised (magic through `total_records`, then `name_len` and the name);
//! `chunk_crc` covers the chunk's own 8 framing bytes plus its payload, so
//! a corrupted record count or length field is caught as corruption, not
//! misparsed as structure. `total_records` (and therefore `header_crc`) is
//! patched just before the final rename, so a reader never sees a count the
//! body cannot back. A file with any other magic (including the retired
//! RHT2 and RHT3 encodings) is refused at open with
//! [`TraceError::BadMagic`].

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dram_model::geometry::{DramGeometry, RowId};

use crate::crc::{crc32c, Crc32c};
use crate::stream::{Access, Workload};
use crate::trace::{tmp_sibling, TraceError};
use crate::vfs::{real_fs, Vfs, VfsFile};

/// Magic prefix of the CRC-framed streaming encoding (`"RHT4"`).
const MAGIC: [u8; 4] = *b"RHT4";

/// Records per chunk unless overridden — 64 KiB-ish payloads at typical
/// delta widths, small enough that one decoded chunk is negligible next to
/// the simulator state.
pub const DEFAULT_CHUNK_RECORDS: u32 = 8_192;

/// Largest chunk payload a reader will allocate for (64 MiB — orders of
/// magnitude above any real chunk). Lengths beyond this are treated as
/// corruption of the frame itself rather than honored.
const MAX_CHUNK_PAYLOAD: u32 = 1 << 26;

/// Byte offset of the `total_records` field within the header
/// (magic + 3 geometry bytes + rows_per_bank).
const COUNT_OFFSET: u64 = 4 + 3 + 4;

/// Byte offset of the RHT4 `header_crc` field (right after
/// `total_records`).
const HEADER_CRC_OFFSET: u64 = COUNT_OFFSET + 8;

fn invalid(e: TraceError) -> std::io::Error {
    e.into()
}

/// Appends a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed delta onto the varint-friendly unsigned line.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads one LEB128 varint from `buf` at `*pos`.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or_else(|| TraceError::Malformed {
            detail: "varint runs past the end of its chunk".to_owned(),
        })?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(TraceError::Malformed { detail: "varint wider than 64 bits".to_owned() });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The delta baseline each chunk starts from.
const BASELINE: Access = Access { bank: 0, row: RowId(0), gap: 0, stream: 0 };

fn encode_record(buf: &mut Vec<u8>, prev: &Access, a: &Access) {
    put_varint(buf, zigzag(i64::from(a.bank) - i64::from(prev.bank)));
    put_varint(buf, zigzag(i64::from(a.row.0) - i64::from(prev.row.0)));
    put_varint(buf, a.gap);
    put_varint(buf, zigzag(i64::from(a.stream) - i64::from(prev.stream)));
}

fn decode_record(buf: &[u8], pos: &mut usize, prev: &Access) -> Result<Access, TraceError> {
    let d_bank = unzigzag(get_varint(buf, pos)?);
    let d_row = unzigzag(get_varint(buf, pos)?);
    let gap = get_varint(buf, pos)?;
    let d_stream = unzigzag(get_varint(buf, pos)?);
    let field = |base: i64, delta: i64, max: i64, what: &str| {
        let v = base.checked_add(delta).filter(|&v| (0..=max).contains(&v));
        v.ok_or_else(|| TraceError::Malformed {
            detail: format!("{what} delta {delta} from {base} leaves the field's range"),
        })
    };
    let bank = field(i64::from(prev.bank), d_bank, i64::from(u16::MAX), "bank")? as u16;
    let row = field(i64::from(prev.row.0), d_row, i64::from(u32::MAX), "row")? as u32;
    let stream = field(i64::from(prev.stream), d_stream, i64::from(u16::MAX), "stream")? as u16;
    Ok(Access { bank, row: RowId(row), gap, stream })
}

/// The RHT4 header bytes for `geometry`/`records`/`name`, with the
/// `header_crc` field filled in.
fn render_header(geometry: &DramGeometry, records: u64, name: &[u8]) -> Vec<u8> {
    let mut covered = Vec::with_capacity(21 + name.len());
    covered.extend_from_slice(&MAGIC);
    covered.push(geometry.channels);
    covered.push(geometry.ranks_per_channel);
    covered.push(geometry.banks_per_rank);
    covered.extend_from_slice(&geometry.rows_per_bank.to_le_bytes());
    covered.extend_from_slice(&records.to_le_bytes());
    let name_len = u16::try_from(name.len()).expect("validated at create");
    covered.extend_from_slice(&name_len.to_le_bytes());
    covered.extend_from_slice(name);
    let crc = crc32c(&covered);
    let mut header = covered;
    // Splice the crc field in at its offset (between total_records and
    // name_len).
    header.splice(
        HEADER_CRC_OFFSET as usize..HEADER_CRC_OFFSET as usize,
        crc.to_le_bytes().iter().copied(),
    );
    header
}

/// Incremental writer of an RHT4 trace.
///
/// Streams records to a temp sibling of the destination, one CRC-framed
/// chunk at a time, and atomically renames the complete file into place on
/// [`finish`](Self::finish). Dropping an unfinished writer removes the temp
/// file — the destination is never touched until the trace is whole.
#[derive(Debug)]
pub struct TraceWriter {
    fs: Arc<dyn Vfs>,
    file: Option<Box<dyn VfsFile>>,
    tmp: PathBuf,
    path: PathBuf,
    geometry: DramGeometry,
    name: Vec<u8>,
    buf: Vec<u8>,
    chunk_records: u32,
    chunk_capacity: u32,
    prev: Access,
    records: u64,
}

impl TraceWriter {
    /// Opens a writer targeting `path` with the default chunk size.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; rejects an unusable geometry or an
    /// over-long name as [`std::io::ErrorKind::InvalidData`].
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        geometry: DramGeometry,
    ) -> std::io::Result<Self> {
        Self::with_chunk_capacity(path, name, geometry, DEFAULT_CHUNK_RECORDS)
    }

    /// [`create`](Self::create) with an explicit records-per-chunk bound
    /// (the unit of reader memory and of checkpoint seek granularity).
    ///
    /// # Errors
    ///
    /// Like [`create`](Self::create); additionally rejects
    /// `chunk_capacity == 0`.
    pub fn with_chunk_capacity(
        path: impl AsRef<Path>,
        name: &str,
        geometry: DramGeometry,
        chunk_capacity: u32,
    ) -> std::io::Result<Self> {
        Self::with_chunk_capacity_on(real_fs(), path, name, geometry, chunk_capacity)
    }

    /// [`with_chunk_capacity`](Self::with_chunk_capacity) on an explicit
    /// filesystem — the chaos-injection entry point.
    ///
    /// # Errors
    ///
    /// Like [`with_chunk_capacity`](Self::with_chunk_capacity).
    pub fn with_chunk_capacity_on(
        fs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        name: &str,
        geometry: DramGeometry,
        chunk_capacity: u32,
    ) -> std::io::Result<Self> {
        if chunk_capacity == 0 {
            return Err(invalid(TraceError::Malformed {
                detail: "chunk capacity must be at least one record".to_owned(),
            }));
        }
        geometry.validate().map_err(|e| {
            invalid(TraceError::Malformed { detail: format!("unusable geometry: {e}") })
        })?;
        if u16::try_from(name.len()).is_err() {
            return Err(invalid(TraceError::Malformed {
                detail: format!("trace name of {} bytes exceeds the u16 length field", name.len()),
            }));
        }
        let path = path.as_ref().to_path_buf();
        let tmp = tmp_sibling(&path);
        let mut file = fs.create(&tmp)?;
        file.write_all(&render_header(&geometry, 0, name.as_bytes()))?;
        Ok(TraceWriter {
            fs,
            file: Some(file),
            tmp,
            path,
            geometry,
            name: name.as_bytes().to_vec(),
            buf: Vec::new(),
            chunk_records: 0,
            chunk_capacity,
            prev: BASELINE,
            records: 0,
        })
    }

    /// The geometry stamped into the header.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True before the first [`push`](Self::push).
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Rejects an access outside the stamped geometry
    /// ([`std::io::ErrorKind::InvalidData`]) and propagates write errors.
    pub fn push(&mut self, access: &Access) -> std::io::Result<()> {
        if u32::from(access.bank) >= self.geometry.total_banks()
            || access.row.0 >= self.geometry.rows_per_bank
        {
            return Err(invalid(TraceError::OutOfRange {
                index: self.records,
                bank: access.bank,
                row: access.row.0,
                geometry: self.geometry,
            }));
        }
        encode_record(&mut self.buf, &self.prev, access);
        self.prev = *access;
        self.records += 1;
        self.chunk_records += 1;
        if self.chunk_records == self.chunk_capacity {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Streams `n` accesses from a workload.
    ///
    /// # Errors
    ///
    /// Like [`push`](Self::push).
    pub fn record(&mut self, workload: &mut dyn Workload, n: u64) -> std::io::Result<()> {
        for _ in 0..n {
            self.push(&workload.next_access())?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        let payload_len = u32::try_from(self.buf.len()).map_err(|_| {
            invalid(TraceError::Malformed {
                detail: format!("chunk payload of {} bytes exceeds u32", self.buf.len()),
            })
        })?;
        // The chunk CRC covers the framing fields too, so a flipped record
        // count or length is corruption, not plausible structure.
        let mut digest = Crc32c::new();
        digest.update(&self.chunk_records.to_le_bytes());
        digest.update(&payload_len.to_le_bytes());
        digest.update(&self.buf);
        let file = self.file.as_mut().expect("writer alive until finish");
        file.write_all(&self.chunk_records.to_le_bytes())?;
        file.write_all(&payload_len.to_le_bytes())?;
        file.write_all(&digest.finish().to_le_bytes())?;
        file.write_all(&self.buf)?;
        self.buf.clear();
        self.chunk_records = 0;
        self.prev = BASELINE;
        Ok(())
    }

    /// Flushes the final chunk, patches the total record count (and the
    /// header CRC that covers it) into the header, and atomically renames
    /// the temp file onto the destination.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the temp file is removed and
    /// the destination is untouched.
    pub fn finish(mut self) -> std::io::Result<()> {
        let result = (|| {
            self.flush_chunk()?;
            let header = render_header(&self.geometry, self.records, &self.name);
            let file = self.file.as_mut().expect("writer alive until finish");
            file.seek(SeekFrom::Start(COUNT_OFFSET))?;
            file.write_all(&header[COUNT_OFFSET as usize..HEADER_CRC_OFFSET as usize + 4])?;
            file.sync_all()?;
            self.file = None; // close before rename
            self.fs.rename(&self.tmp, &self.path)
        })();
        if result.is_err() {
            self.file = None;
            let _ = self.fs.remove_file(&self.tmp);
        }
        // Drop must not remove the renamed file.
        self.tmp.clear();
        result
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        if !self.tmp.as_os_str().is_empty() {
            self.file = None;
            let _ = self.fs.remove_file(&self.tmp);
        }
    }
}

/// Chunked reader of an RHT4 trace, implementing [`Workload`] at O(chunk)
/// memory.
///
/// The reader holds exactly one decoded chunk; [`next_access`] refills from
/// disk when the chunk drains and loops back to the first chunk at
/// end-of-trace (mirroring [`crate::trace::TraceReplay`]). Each chunk is
/// CRC-verified before any of its records are decoded; a failed frame is
/// [`TraceError::Corrupt`]. I/O or decode failures mid-stream panic through
/// [`next_access`] — the `Workload` contract has no error channel — but
/// fallible consumers (the fleet pipeline) use [`try_next`](Self::try_next)
/// and surface the typed error instead.
///
/// [`next_access`]: Workload::next_access
#[derive(Debug)]
pub struct TraceReader {
    file: Box<dyn VfsFile>,
    geometry: DramGeometry,
    name: String,
    total: u64,
    body_start: u64,
    chunk: Vec<Access>,
    chunk_pos: usize,
    /// Records consumed since open/skip, monotonically (loops included).
    position: u64,
    /// Records of the underlying file consumed within the current loop.
    file_position: u64,
}

impl TraceReader {
    /// Opens a trace, validating magic, header structure, and the header
    /// CRC.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors, or malformations mapped to
    /// [`std::io::ErrorKind::InvalidData`] ([`TraceError::Corrupt`] for a
    /// failed CRC).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_on(real_fs(), path)
    }

    /// [`open`](Self::open) on an explicit filesystem — the
    /// chaos-injection entry point.
    ///
    /// # Errors
    ///
    /// Like [`open`](Self::open).
    pub fn open_on(fs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut file = fs.open(path.as_ref())?;
        let mut magic = [0u8; 4];
        let got = read_up_to(&mut file, &mut magic)?;
        if got < magic.len() {
            return Err(invalid(TraceError::ShortHeader { len: got }));
        }
        if magic != MAGIC {
            return Err(invalid(TraceError::BadMagic { found: magic }));
        }
        // Geometry, total, and the header crc field.
        let mut fixed = [0u8; 19];
        let got = read_up_to(&mut file, &mut fixed)?;
        if got < fixed.len() {
            return Err(invalid(TraceError::ShortHeader { len: 4 + got }));
        }
        let geometry = DramGeometry {
            channels: fixed[0],
            ranks_per_channel: fixed[1],
            banks_per_rank: fixed[2],
            rows_per_bank: u32::from_le_bytes(fixed[3..7].try_into().expect("4 bytes")),
        };
        geometry.validate().map_err(|e| {
            invalid(TraceError::Malformed { detail: format!("unusable geometry: {e}") })
        })?;
        let total = u64::from_le_bytes(fixed[7..15].try_into().expect("8 bytes"));
        let mut name_len = [0u8; 2];
        file.read_exact(&mut name_len).map_err(|_| {
            invalid(TraceError::Malformed { detail: "header ends inside name field".to_owned() })
        })?;
        let mut name = vec![0u8; usize::from(u16::from_le_bytes(name_len))];
        file.read_exact(&mut name).map_err(|_| {
            invalid(TraceError::Malformed { detail: "header ends inside name".to_owned() })
        })?;
        let stored = u32::from_le_bytes(fixed[15..19].try_into().expect("4 bytes"));
        let mut digest = Crc32c::new();
        digest.update(&magic);
        digest.update(&fixed[..15]);
        digest.update(&name_len);
        digest.update(&name);
        let computed = digest.finish();
        if computed != stored {
            return Err(invalid(TraceError::Corrupt {
                what: "header".to_owned(),
                stored,
                computed,
            }));
        }
        let name = String::from_utf8(name).map_err(|_| {
            invalid(TraceError::Malformed { detail: "trace name is not UTF-8".to_owned() })
        })?;
        let body_start = file.stream_position()?;
        Ok(TraceReader {
            file,
            geometry,
            name,
            total,
            body_start,
            chunk: Vec::new(),
            chunk_pos: 0,
            position: 0,
            file_position: 0,
        })
    }

    /// [`open`](Self::open), additionally requiring the stamped geometry to
    /// equal `expected` — the check that makes a mismatched replay a typed
    /// open-time error instead of a mid-run routing failure.
    ///
    /// # Errors
    ///
    /// Like [`open`](Self::open), plus [`TraceError::GeometryMismatch`]
    /// (mapped to [`std::io::ErrorKind::InvalidData`]).
    pub fn open_for(path: impl AsRef<Path>, expected: &DramGeometry) -> std::io::Result<Self> {
        Self::open_for_on(real_fs(), path, expected)
    }

    /// [`open_for`](Self::open_for) on an explicit filesystem.
    ///
    /// # Errors
    ///
    /// Like [`open_for`](Self::open_for).
    pub fn open_for_on(
        fs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        expected: &DramGeometry,
    ) -> std::io::Result<Self> {
        let reader = Self::open_on(fs, path)?;
        if reader.geometry != *expected {
            return Err(invalid(TraceError::GeometryMismatch {
                expected: *expected,
                found: reader.geometry,
            }));
        }
        Ok(reader)
    }

    /// The geometry stamped into the trace header.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The name stamped into the trace header.
    pub fn name(&self) -> String {
        self.name.clone()
    }

    /// Total records in the trace.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True for a trace with no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records consumed since open (or since the last
    /// [`skip_to`](Self::skip_to)), counting loops.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Repositions the stream so the next access is the one an
    /// uninterrupted reader would produce as its `position`-th record
    /// (loops folded in). Whole chunks are skipped by their byte length
    /// without decoding — and without CRC verification: a resumed run never
    /// re-executes those records, so their integrity cannot affect it —
    /// and only the chunk containing the target is decoded (and verified).
    /// This is the checkpoint-resume entry point.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and chunk-structure malformations. Seeking an
    /// empty trace to a nonzero position is
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn skip_to(&mut self, position: u64) -> std::io::Result<()> {
        if self.total == 0 && position != 0 {
            return Err(invalid(TraceError::Malformed {
                detail: "cannot seek an empty trace".to_owned(),
            }));
        }
        self.file.seek(SeekFrom::Start(self.body_start))?;
        self.chunk.clear();
        self.chunk_pos = 0;
        self.position = position;
        self.file_position = 0;
        let mut remaining = if self.total == 0 { 0 } else { position % self.total };
        // Skip whole chunks by length; decode only the one holding the target.
        while remaining > 0 {
            let frame = self
                .read_chunk_header()?
                .ok_or_else(|| invalid(TraceError::LengthMismatch { records: self.total }))?;
            if u64::from(frame.records) <= remaining {
                self.file.seek(SeekFrom::Current(i64::from(frame.payload_len)))?;
                self.file_position += u64::from(frame.records);
                remaining -= u64::from(frame.records);
            } else {
                self.decode_chunk(&frame)?;
                self.chunk_pos = remaining as usize;
                self.file_position += remaining;
                remaining = 0;
            }
        }
        Ok(())
    }

    /// Reads the next chunk header; `None` at end-of-file.
    fn read_chunk_header(&mut self) -> std::io::Result<Option<ChunkFrame>> {
        let mut header = [0u8; 12];
        let got = read_up_to(&mut self.file, &mut header)?;
        if got == 0 {
            return Ok(None);
        }
        if got < header.len() {
            return Err(invalid(TraceError::Malformed {
                detail: "truncated chunk header".to_owned(),
            }));
        }
        let records = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if records == 0 {
            return Err(invalid(TraceError::Malformed {
                detail: "chunk with zero records".to_owned(),
            }));
        }
        // Plausibility caps BEFORE the payload allocation: a corrupted
        // length field must fail here as Malformed, not drive a multi-GB
        // zeroed allocation whose bytes the CRC would reject anyway. Every
        // record occupies at least one payload byte.
        if payload_len > MAX_CHUNK_PAYLOAD || u64::from(records) > u64::from(payload_len) {
            return Err(invalid(TraceError::Malformed {
                detail: format!(
                    "implausible chunk frame: {records} record(s) in {payload_len} payload byte(s)"
                ),
            }));
        }
        Ok(Some(ChunkFrame { records, payload_len, stored_crc }))
    }

    /// Decodes one chunk payload into `self.chunk`, verifying its CRC frame
    /// first.
    fn decode_chunk(&mut self, frame: &ChunkFrame) -> std::io::Result<()> {
        let mut payload = vec![0u8; frame.payload_len as usize];
        self.file.read_exact(&mut payload).map_err(|_| {
            invalid(TraceError::Malformed { detail: "truncated chunk payload".to_owned() })
        })?;
        let mut digest = Crc32c::new();
        digest.update(&frame.records.to_le_bytes());
        digest.update(&frame.payload_len.to_le_bytes());
        digest.update(&payload);
        let computed = digest.finish();
        if computed != frame.stored_crc {
            // file_position still names the first record of this chunk.
            return Err(invalid(TraceError::Corrupt {
                what: format!("chunk at record {}", self.file_position),
                stored: frame.stored_crc,
                computed,
            }));
        }
        self.chunk.clear();
        self.chunk.reserve(frame.records as usize);
        let mut pos = 0usize;
        let mut prev = BASELINE;
        for i in 0..frame.records {
            let a = decode_record(&payload, &mut pos, &prev).map_err(invalid)?;
            if u32::from(a.bank) >= self.geometry.total_banks()
                || a.row.0 >= self.geometry.rows_per_bank
            {
                return Err(invalid(TraceError::OutOfRange {
                    index: self.file_position + u64::from(i),
                    bank: a.bank,
                    row: a.row.0,
                    geometry: self.geometry,
                }));
            }
            prev = a;
            self.chunk.push(a);
        }
        if pos != payload.len() {
            return Err(invalid(TraceError::Malformed {
                detail: format!(
                    "chunk payload has {} trailing byte(s) after its records",
                    payload.len() - pos
                ),
            }));
        }
        self.chunk_pos = 0;
        Ok(())
    }

    /// Advances to the next access, refilling (and looping) as needed —
    /// the fallible twin of [`Workload::next_access`], used by consumers
    /// (the fleet pipeline) that must surface corruption as a typed error
    /// instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and typed [`TraceError`] malformations
    /// (mapped to [`std::io::ErrorKind::InvalidData`]), including
    /// [`TraceError::Corrupt`] for a chunk whose CRC frame fails.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (checked at stream setup by every
    /// caller).
    pub fn try_next(&mut self) -> std::io::Result<Access> {
        assert!(self.total > 0, "cannot replay an empty trace");
        loop {
            if self.chunk_pos < self.chunk.len() {
                let a = self.chunk[self.chunk_pos];
                self.chunk_pos += 1;
                self.position += 1;
                self.file_position += 1;
                return Ok(a);
            }
            match self.read_chunk_header()? {
                Some(frame) => self.decode_chunk(&frame)?,
                None => {
                    if self.file_position != self.total {
                        return Err(invalid(TraceError::LengthMismatch { records: self.total }));
                    }
                    self.file.seek(SeekFrom::Start(self.body_start))?;
                    self.file_position = 0;
                }
            }
        }
    }
}

/// One chunk's framing fields.
#[derive(Debug, Clone, Copy)]
struct ChunkFrame {
    records: u32,
    payload_len: u32,
    stored_crc: u32,
}

/// `read` until the buffer is full or EOF; returns bytes read. (`read_exact`
/// cannot distinguish clean EOF from truncation.)
fn read_up_to(file: &mut dyn Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

impl Workload for TraceReader {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn next_access(&mut self) -> Access {
        self.try_next().unwrap_or_else(|e| panic!("trace stream failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::Synthetic;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("graphene_repro_rht4");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn geom(banks: u8, rows: u32) -> DramGeometry {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: banks,
            rows_per_bank: rows,
        }
    }

    fn write_accesses(path: &Path, g: DramGeometry, chunk: u32, accesses: &[Access]) {
        let mut w = TraceWriter::with_chunk_capacity(path, "t", g, chunk).unwrap();
        for a in accesses {
            w.push(a).unwrap();
        }
        w.finish().unwrap();
    }

    fn read_all(path: &Path) -> Vec<Access> {
        let mut r = TraceReader::open(path).unwrap();
        let n = r.len();
        (0..n).map(|_| r.next_access()).collect()
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::from(u32::MAX), -i64::from(u32::MAX), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn round_trip_synthetic_workload() {
        let path = tmp("round_trip.rht4");
        let g = geom(16, 65_536);
        let mut source = Synthetic::s1(10, 65_536, 42);
        let reference = crate::trace::Trace::record(&mut source, 5_000);
        write_accesses(&path, g, 512, reference.accesses());
        let decoded = read_all(&path);
        assert_eq!(decoded, reference.accesses());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gap_overflow_values_round_trip() {
        // The gap field is a raw varint; the extremes (including u64::MAX,
        // which would overflow any narrower delta) must survive.
        let path = tmp("gap_overflow.rht4");
        let g = geom(2, 100);
        let accesses = vec![
            Access { bank: 0, row: RowId(0), gap: u64::MAX, stream: 0 },
            Access { bank: 1, row: RowId(99), gap: 0, stream: 1 },
            Access { bank: 0, row: RowId(50), gap: u64::MAX - 1, stream: 0 },
        ];
        write_accesses(&path, g, 2, &accesses);
        assert_eq!(read_all(&path), accesses);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_trace_round_trips() {
        let path = tmp("zero_len.rht4");
        write_accesses(&path, geom(4, 1_000), 8, &[]);
        let r = TraceReader::open(&path).unwrap();
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.geometry(), &geom(4, 1_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn replaying_zero_length_trace_panics() {
        let path = tmp("zero_len_replay.rht4");
        write_accesses(&path, geom(4, 1_000), 8, &[]);
        let mut r = TraceReader::open(&path).unwrap();
        let _ = r.next_access();
    }

    #[test]
    fn geometry_mismatch_is_rejected_at_open() {
        let path = tmp("geometry_mismatch.rht4");
        let recorded = geom(16, 65_536);
        write_accesses(
            &path,
            recorded,
            8,
            &[Access { bank: 9, row: RowId(60_000), gap: 1, stream: 0 }],
        );
        let smaller = geom(4, 1_024);
        let err = TraceReader::open_for(&path, &smaller).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cannot replay on"), "{err}");
        assert!(TraceReader::open_for(&path, &recorded).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_out_of_geometry_access() {
        let path = tmp("writer_bounds.rht4");
        let mut w = TraceWriter::create(&path, "t", geom(4, 100)).unwrap();
        let err = w.push(&Access { bank: 4, row: RowId(0), gap: 0, stream: 0 }).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = w.push(&Access { bank: 0, row: RowId(100), gap: 0, stream: 0 }).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        drop(w);
        assert!(!path.exists(), "unfinished writer must not create the destination");
        assert!(!tmp_sibling(&path).exists(), "dropped writer must remove its temp file");
    }

    #[test]
    fn reader_loops_like_trace_replay() {
        let path = tmp("loops.rht4");
        let accesses = vec![
            Access { bank: 0, row: RowId(1), gap: 5, stream: 0 },
            Access { bank: 1, row: RowId(2), gap: 6, stream: 0 },
        ];
        write_accesses(&path, geom(2, 10), 1, &accesses);
        let mut r = TraceReader::open(&path).unwrap();
        let rows: Vec<_> = (0..5).map(|_| r.next_access().row.0).collect();
        assert_eq!(rows, vec![1, 2, 1, 2, 1]);
        assert_eq!(r.position(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skip_to_matches_sequential_consumption() {
        let path = tmp("skip_to.rht4");
        let g = geom(16, 4_096);
        let mut source = Synthetic::s2(10, 4_096, 7);
        let reference = crate::trace::Trace::record(&mut source, 1_000);
        write_accesses(&path, g, 64, reference.accesses());
        // Positions inside the first chunk, at chunk borders, and past one
        // full loop.
        for target in [0u64, 1, 63, 64, 65, 512, 999, 1_000, 1_001, 2_500] {
            let mut sequential = TraceReader::open(&path).unwrap();
            for _ in 0..target {
                sequential.next_access();
            }
            let mut skipped = TraceReader::open(&path).unwrap();
            skipped.skip_to(target).unwrap();
            assert_eq!(skipped.position(), target);
            for i in 0..50 {
                assert_eq!(
                    skipped.next_access(),
                    sequential.next_access(),
                    "target {target}, offset {i}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_body_is_detected() {
        let path = tmp("truncated.rht4");
        let g = geom(4, 1_000);
        let accesses: Vec<Access> = (0..100)
            .map(|i| Access { bank: (i % 4) as u16, row: RowId(i * 7 % 1_000), gap: 3, stream: 0 })
            .collect();
        write_accesses(&path, g, 16, &accesses);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 5]).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let err = (0..100).try_for_each(|_| r.try_next().map(|_| ())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_rot_in_a_chunk_is_detected_by_crc() {
        let path = tmp("bit_rot.rht4");
        let g = geom(4, 1_000);
        let accesses: Vec<Access> = (0..200)
            .map(|i| Access { bank: (i % 4) as u16, row: RowId(i * 3 % 1_000), gap: 9, stream: 0 })
            .collect();
        write_accesses(&path, g, 32, &accesses);
        let clean = std::fs::read(&path).unwrap();
        let header_len = 25 + 1; // fixed 25 + 1-byte name "t"
                                 // Flip one bit in every byte of the body, one at a time: each single
                                 // flip must surface as Corrupt (or a structural error), never decode
                                 // silently.
        for target in [header_len, header_len + 13, clean.len() / 2, clean.len() - 1] {
            let mut rotted = clean.clone();
            rotted[target] ^= 0x10;
            std::fs::write(&path, &rotted).unwrap();
            let mut r = TraceReader::open(&path).unwrap();
            let err = (0..200).try_for_each(|_| r.try_next().map(|_| ())).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "byte {target}");
        }
        // And the typed variant names the crc values for a payload flip.
        let mut rotted = clean.clone();
        *rotted.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &rotted).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let err = (0..200).try_for_each(|_| r.try_next().map(|_| ())).unwrap_err();
        assert!(err.to_string().contains("crc32c mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_rot_in_the_header_is_detected_at_open() {
        let path = tmp("header_rot.rht4");
        write_accesses(
            &path,
            geom(4, 1_000),
            8,
            &[Access { bank: 1, row: RowId(5), gap: 2, stream: 0 }],
        );
        let clean = std::fs::read(&path).unwrap();
        // Flip a bit of total_records: structurally plausible, caught only
        // by the header CRC.
        let mut rotted = clean.clone();
        rotted[COUNT_OFFSET as usize] ^= 0x02;
        std::fs::write(&path, &rotted).unwrap();
        let err = TraceReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header"), "{err}");
        // Flip a bit of the stored name: also header-CRC territory.
        let mut rotted = clean;
        let last_header_byte = 25; // the 1-byte name "t"
        rotted[last_header_byte] ^= 0x40;
        std::fs::write(&path, &rotted).unwrap();
        assert!(TraceReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_short_header() {
        let path = tmp("bad_magic.rht4");
        std::fs::write(&path, b"RHT2\x01\x01\x01\x00\x04\x00\x00plus-enough-padding").unwrap();
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // A complete header of the retired unframed RHT3 encoding is refused
        // by its tag, not parsed.
        let mut rht3 = b"RHT3".to_vec();
        rht3.extend_from_slice(&[1, 1, 4]);
        rht3.extend_from_slice(&1_000u32.to_le_bytes());
        rht3.extend_from_slice(&0u64.to_le_bytes());
        rht3.extend_from_slice(&1u16.to_le_bytes());
        rht3.push(b't');
        std::fs::write(&path, &rht3).unwrap();
        let err = TraceReader::open(&path).unwrap_err();
        let typed = err.get_ref().and_then(|e| e.downcast_ref::<TraceError>());
        assert_eq!(typed, Some(&TraceError::BadMagic { found: *b"RHT3" }), "{err}");
        std::fs::write(&path, b"RHT4").unwrap();
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("shorter than header"), "{err}");
        std::fs::write(&path, b"RH").unwrap();
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("shorter than header"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_encoding_is_compact_for_local_streams() {
        // A sequential walk (deltas of ±1 and small gaps) must beat a fixed
        // 16-byte record by a wide margin, CRC frames included.
        let path = tmp("compact.rht4");
        let g = geom(1, 65_536);
        let accesses: Vec<Access> = (0..10_000)
            .map(|i| Access { bank: 0, row: RowId(i), gap: 60_000, stream: 0 })
            .collect();
        write_accesses(&path, g, 1_024, &accesses);
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(
            size < 10_000 * 8,
            "delta encoding should be ≤ half of a fixed 16 B/record, got {size} bytes"
        );
        assert_eq!(read_all(&path), accesses);
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_codec_round_trips(
            seed in 0u64..1_000,
            n in 0usize..600,
            chunk in 1u32..100,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let g = geom(16, 65_536);
            let accesses: Vec<Access> = (0..n)
                .map(|_| Access {
                    bank: rng.gen_range(0..16),
                    row: RowId(rng.gen_range(0..65_536)),
                    // Mix small gaps with extreme ones to stress the varint.
                    gap: if rng.gen_bool(0.1) { u64::MAX - rng.gen_range(0..3) } else { rng.gen_range(0..100_000) },
                    stream: rng.gen_range(0..8),
                })
                .collect();
            let path = tmp(&format!("prop_{seed}_{n}_{chunk}.rht4"));
            write_accesses(&path, g, chunk, &accesses);
            let decoded = read_all(&path);
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(decoded, accesses);
        }

        #[test]
        fn prop_skip_to_agrees_with_sequential(
            seed in 0u64..500,
            n in 1usize..400,
            chunk in 1u32..64,
            frac in 0u64..2_000,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let g = geom(8, 4_096);
            let accesses: Vec<Access> = (0..n)
                .map(|_| Access {
                    bank: rng.gen_range(0..8),
                    row: RowId(rng.gen_range(0..4_096)),
                    gap: rng.gen_range(0..10_000),
                    stream: 0,
                })
                .collect();
            let path = tmp(&format!("prop_skip_{seed}_{n}_{chunk}_{frac}.rht4"));
            write_accesses(&path, g, chunk, &accesses);
            let target = frac % (2 * n as u64 + 1);
            let mut sequential = TraceReader::open(&path).unwrap();
            for _ in 0..target {
                sequential.next_access();
            }
            let mut skipped = TraceReader::open(&path).unwrap();
            skipped.skip_to(target).unwrap();
            let a: Vec<Access> = (0..5).map(|_| sequential.next_access()).collect();
            let b: Vec<Access> = (0..5).map(|_| skipped.next_access()).collect();
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(a, b);
        }
    }
}
