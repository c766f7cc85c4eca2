//! [`ChaosFs`]: the fallible-filesystem shim that executes an
//! [`IoFaultPlan`] under real reader/writer code.
//!
//! `ChaosFs` wraps any inner [`Vfs`] (normally [`workloads::vfs::RealFs`])
//! and implements [`Vfs`] itself, so the trace and checkpoint paths run
//! **unmodified** — the same `TraceReader::open_on`, the same atomic
//! temp-and-rename writers — while the shim counts every `read`, `write`,
//! and `sync_all` it serves and fires the plan's events when their op index
//! comes due. Because the plan is keyed by op index and the fleet service's
//! I/O sequence is deterministic, an injected fault reproduces
//! bit-identically from the plan alone.
//!
//! Every fired event is appended to an [`InjectedFault`] log (with the path
//! it struck), so a chaos harness can assert the exhaustive claim that
//! matters: *each* injected corruption was either recovered (final digest
//! bit-identical to the fault-free run) or surfaced as a typed error —
//! never silently absorbed into a wrong result.
//!
//! An optional path filter confines faults to files whose path contains a
//! substring (e.g. only checkpoint files), letting one plan target a single
//! artifact class while the rest of the run's I/O proceeds clean.

use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use workloads::vfs::{Vfs, VfsFile};

use crate::iofault::{IoFaultKind, IoFaultPlan, IoOp};

/// One fault the shim actually fired, with where it landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Index within the op class at which it fired.
    pub at_op: u64,
    /// The fault.
    pub kind: IoFaultKind,
    /// The file it struck.
    pub path: PathBuf,
}

/// Operation counts served so far, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoOpCounts {
    /// `read` calls served.
    pub reads: u64,
    /// `write` calls served.
    pub writes: u64,
    /// `sync_all` calls served.
    pub syncs: u64,
}

#[derive(Debug)]
struct ChaosState {
    counts: IoOpCounts,
    /// Remaining events in schedule order (front = next).
    pending: Vec<(u64, IoFaultKind)>,
    injected: Vec<InjectedFault>,
    /// Files a torn write has struck: all later writes/syncs on them
    /// silently no-op (the crash already "happened" for that file).
    torn: Vec<PathBuf>,
}

impl ChaosState {
    /// Pops the next due event of `op`'s class at the current count, if any.
    fn take_due(&mut self, op: IoOp) -> Option<IoFaultKind> {
        let count = match op {
            IoOp::Read => self.counts.reads,
            IoOp::Write => self.counts.writes,
            IoOp::Sync => self.counts.syncs,
        };
        let idx =
            self.pending.iter().position(|(at_op, kind)| kind.op() == op && *at_op <= count)?;
        Some(self.pending.remove(idx).1)
    }

    fn bump(&mut self, op: IoOp) {
        match op {
            IoOp::Read => self.counts.reads += 1,
            IoOp::Write => self.counts.writes += 1,
            IoOp::Sync => self.counts.syncs += 1,
        }
    }
}

/// A [`Vfs`] that injects a deterministic [`IoFaultPlan`] under its inner
/// filesystem. See the module docs for semantics.
///
/// Construct via [`ChaosFs::new`]/[`ChaosFs::filtered`], keep the returned
/// `Arc<ChaosFs>` to inspect [`injected`](Self::injected) afterwards, and
/// pass a clone (coerced to `Arc<dyn Vfs>`) to the code under test.
#[derive(Debug)]
pub struct ChaosFs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<ChaosState>>,
    /// When set, only paths containing this substring are counted and
    /// faultable.
    filter: Option<String>,
}

fn lock(state: &Mutex<ChaosState>) -> MutexGuard<'_, ChaosState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

impl ChaosFs {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: &IoFaultPlan) -> Arc<Self> {
        Self::build(inner, plan, None)
    }

    /// [`new`](Self::new), confining faults (and op counting) to paths
    /// whose string form contains `substr`.
    pub fn filtered(inner: Arc<dyn Vfs>, plan: &IoFaultPlan, substr: &str) -> Arc<Self> {
        Self::build(inner, plan, Some(substr.to_owned()))
    }

    fn build(inner: Arc<dyn Vfs>, plan: &IoFaultPlan, filter: Option<String>) -> Arc<Self> {
        Arc::new(ChaosFs {
            inner,
            state: Arc::new(Mutex::new(ChaosState {
                counts: IoOpCounts::default(),
                pending: plan.events().iter().map(|e| (e.at_op, e.kind)).collect(),
                injected: Vec::new(),
                torn: Vec::new(),
            })),
            filter,
        })
    }

    fn governs(&self, path: &Path) -> bool {
        match &self.filter {
            Some(s) => path.to_string_lossy().contains(s.as_str()),
            None => true,
        }
    }

    /// Every fault fired so far, in firing order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        lock(&self.state).injected.clone()
    }

    /// Operations served so far (on governed paths).
    pub fn counts(&self) -> IoOpCounts {
        lock(&self.state).counts
    }

    /// Scheduled events not yet fired.
    pub fn remaining(&self) -> usize {
        lock(&self.state).pending.len()
    }
}

#[derive(Debug)]
struct ChaosFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<ChaosState>>,
    path: PathBuf,
    /// Ops on this file don't count or fault (path outside the filter).
    exempt: bool,
}

impl ChaosFile {
    fn is_torn(&self) -> bool {
        lock(&self.state).torn.iter().any(|p| p == &self.path)
    }
}

impl Read for ChaosFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.exempt {
            return self.inner.read(buf);
        }
        let due = {
            let mut st = lock(&self.state);
            let due = st.take_due(IoOp::Read);
            st.bump(IoOp::Read);
            if let Some(kind) = due {
                let at_op = st.counts.reads - 1;
                st.injected.push(InjectedFault { at_op, kind, path: self.path.clone() });
            }
            due
        };
        if let Some(IoFaultKind::ReaderStall { millis }) = due {
            // Cap the real sleep so suites stay fast; the event is what
            // consumers assert on.
            std::thread::sleep(std::time::Duration::from_millis(millis.min(20)));
        }
        let n = self.inner.read(buf)?;
        if let Some(IoFaultKind::BitRot { byte, bit }) = due {
            if n > 0 {
                buf[byte as usize % n] ^= 1 << (bit % 8);
            }
        }
        Ok(n)
    }
}

impl Write for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.exempt {
            return self.inner.write(buf);
        }
        if self.is_torn() {
            // The crash already happened for this file: pretend success.
            return Ok(buf.len());
        }
        let due = {
            let mut st = lock(&self.state);
            let due = st.take_due(IoOp::Write);
            st.bump(IoOp::Write);
            if let Some(kind) = due {
                let at_op = st.counts.writes - 1;
                st.injected.push(InjectedFault { at_op, kind, path: self.path.clone() });
            }
            due
        };
        if let Some(IoFaultKind::TornWrite { at_byte }) = due {
            let keep = (at_byte as usize).min(buf.len());
            self.inner.write_all(&buf[..keep])?;
            lock(&self.state).torn.push(self.path.clone());
            // Report full success: the writer believes the bytes landed.
            return Ok(buf.len());
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.exempt && self.is_torn() {
            return Ok(());
        }
        self.inner.flush()
    }
}

impl Seek for ChaosFile {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl VfsFile for ChaosFile {
    fn sync_all(&mut self) -> io::Result<()> {
        if self.exempt {
            return self.inner.sync_all();
        }
        if self.is_torn() {
            return Ok(());
        }
        let due = {
            let mut st = lock(&self.state);
            let due = st.take_due(IoOp::Sync);
            st.bump(IoOp::Sync);
            if let Some(kind) = due {
                let at_op = st.counts.syncs - 1;
                st.injected.push(InjectedFault { at_op, kind, path: self.path.clone() });
            }
            due
        };
        if matches!(due, Some(IoFaultKind::FsyncFail)) {
            return Err(io::Error::other(format!(
                "injected fsync failure on {}",
                self.path.display()
            )));
        }
        self.inner.sync_all()
    }
}

impl ChaosFs {
    fn wrap(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(ChaosFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            exempt: !self.governs(path),
        })
    }
}

impl Vfs for ChaosFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // A torn file keeps its torn status across the rename — the
        // temp-and-rename idiom must not launder a partial write.
        {
            let mut st = lock(&self.state);
            for p in &mut st.torn {
                if p == from {
                    *p = to.to_path_buf();
                }
            }
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::vfs::real_fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("graphene_repro_chaosfs");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn clean_plan_is_a_passthrough() {
        let fs = ChaosFs::new(real_fs(), &IoFaultPlan::default());
        let p = tmp("clean.bin");
        {
            let mut f = fs.create(&p).unwrap();
            f.write_all(b"payload").unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(fs.read_to_string(&p).unwrap(), "payload");
        assert!(fs.injected().is_empty());
        assert_eq!(fs.counts().writes, 1);
        assert!(fs.counts().reads >= 1);
        fs.remove_file(&p).ok();
    }

    #[test]
    fn torn_write_persists_a_prefix_and_swallows_the_rest() {
        let plan = IoFaultPlan::single(0, IoFaultKind::TornWrite { at_byte: 4 });
        let fs = ChaosFs::new(real_fs(), &plan);
        let p = tmp("torn.bin");
        {
            let mut f = fs.create(&p).unwrap();
            // The faulted write persists 4 bytes; this and everything after
            // silently succeeds.
            f.write_all(b"0123456789").unwrap();
            f.write_all(b"more").unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(std::fs::read(&p).unwrap(), b"0123");
        let injected = fs.injected();
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].kind, IoFaultKind::TornWrite { at_byte: 4 });
        fs.remove_file(&p).ok();
    }

    #[test]
    fn torn_status_survives_rename() {
        let plan = IoFaultPlan::single(0, IoFaultKind::TornWrite { at_byte: 2 });
        let fs = ChaosFs::new(real_fs(), &plan);
        let a = tmp("torn_tmp.bin");
        let b = tmp("torn_final.bin");
        let mut f = fs.create(&a).unwrap();
        f.write_all(b"abcdef").unwrap();
        drop(f);
        fs.rename(&a, &b).unwrap();
        // Writing through a fresh handle to the renamed path still no-ops.
        let mut f2 = fs.create(&b).unwrap();
        f2.write_all(b"XYZ").unwrap();
        drop(f2);
        assert!(std::fs::read(&b).unwrap().is_empty(), "torn file swallows post-crash writes");
        fs.remove_file(&b).ok();
    }

    #[test]
    fn bit_rot_flips_exactly_one_read_bit_and_is_transient() {
        let plan = IoFaultPlan::single(0, IoFaultKind::BitRot { byte: 2, bit: 7 });
        let fs = ChaosFs::new(real_fs(), &plan);
        let p = tmp("rot.bin");
        std::fs::write(&p, b"abcdef").unwrap();
        let mut rotted = Vec::new();
        fs.open(&p).unwrap().read_to_end(&mut rotted).unwrap();
        assert_eq!(rotted, b"ab\xe3def", "bit 7 of byte 2 flipped");
        // The file itself is clean: a retry succeeds.
        let mut clean = Vec::new();
        fs.open(&p).unwrap().read_to_end(&mut clean).unwrap();
        assert_eq!(clean, b"abcdef");
        assert_eq!(fs.remaining(), 0);
        fs.remove_file(&p).ok();
    }

    #[test]
    fn fsync_failure_is_surfaced() {
        let plan = IoFaultPlan::single(0, IoFaultKind::FsyncFail);
        let fs = ChaosFs::new(real_fs(), &plan);
        let p = tmp("fsync.bin");
        let mut f = fs.create(&p).unwrap();
        f.write_all(b"x").unwrap();
        let err = f.sync_all().unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        // Only the targeted sync fails.
        f.sync_all().unwrap();
        drop(f);
        fs.remove_file(&p).ok();
    }

    #[test]
    fn path_filter_exempts_other_files() {
        let plan = IoFaultPlan::single(0, IoFaultKind::TornWrite { at_byte: 0 });
        let fs = ChaosFs::filtered(real_fs(), &plan, "governed");
        let free = tmp("free.bin");
        let hit = tmp("governed.bin");
        {
            let mut f = fs.create(&free).unwrap();
            f.write_all(b"untouched").unwrap();
        }
        assert_eq!(std::fs::read(&free).unwrap(), b"untouched");
        assert_eq!(fs.counts().writes, 0, "exempt ops are not counted");
        {
            let mut f = fs.create(&hit).unwrap();
            f.write_all(b"gone").unwrap();
        }
        assert!(std::fs::read(&hit).unwrap().is_empty());
        assert_eq!(fs.injected().len(), 1);
        fs.remove_file(&free).ok();
        fs.remove_file(&hit).ok();
    }

    #[test]
    fn reader_stall_returns_correct_data() {
        let plan = IoFaultPlan::single(0, IoFaultKind::ReaderStall { millis: 1 });
        let fs = ChaosFs::new(real_fs(), &plan);
        let p = tmp("stall.bin");
        std::fs::write(&p, b"slow but right").unwrap();
        assert_eq!(fs.read_to_string(&p).unwrap(), "slow but right");
        assert_eq!(fs.injected().len(), 1);
        fs.remove_file(&p).ok();
    }
}
