//! Versioned on-disk checkpoint store: one append-only file per
//! `(version, rank)`, `root/v<N>.r<R>.ckpt`, in a flat root directory.
//!
//! A file is a sequence of records `[name length: u8][name][payload
//! length: u64 LE][payload]`. [`CkptStore::write_section`] appends one
//! named section record and waits for no sync; written to a file that is
//! already committed or torn (a store reused by a fresh job, or a dead
//! incarnation's leftover), it starts the file afresh, so a file only ever
//! holds one line. After the append it asks the kernel to start writing
//! the file back (`sync_file_range(2)` with `SYNC_FILE_RANGE_WRITE`, the
//! call behind RocksDB's `bytes_per_sync`), so the device writes the line
//! while the rank computes on. That is only a hint and changes no
//! guarantee. [`CkptStore::mark_committed`] is the durability point: it
//! `fdatasync`s the file, appends the commit record (an empty name and, as
//! payload, the record's own offset), `fdatasync`s again and fsyncs the
//! root directory once, so the file's directory entry survives a machine
//! crash too — the commit-frame pattern of SQLite's write-ahead log. With
//! writeback begun at section write, the first `fdatasync` mostly waits
//! for a flush that is already under way.
//!
//! The protocol's checkpoint is two-phase: application/MPI state is written
//! when the recovery line is crossed (`chkpt_StartCheckpoint`), the
//! late-message log and the commit record only when all late messages have
//! been received (`chkpt_CommitCheckpoint`, Fig. 5). A file whose last
//! record is not a complete commit record is torn: an aborted checkpoint,
//! ignored and pruned on recovery. A torn record is never read as a
//! section. The *global* recovery line is the largest version committed by
//! **all** ranks — a global reduction at restore time, as in the paper's
//! `chkpt_RestoreCheckpoint`.

use std::fs;
use std::io::{Error, ErrorKind, Write};
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Bytes of a record's frame: the name length and the payload length.
const FRAME: usize = 1 + 8;

/// Bytes read at a record's start: the longest frame and name, or a commit
/// record's frame and payload.
const HEAD: usize = FRAME + 255;

/// Handle to a checkpoint root directory for one job.
#[derive(Clone, Debug)]
pub struct CkptStore {
    root: PathBuf,
}

/// A complete section record: its name, and its payload's offset and length.
struct Section {
    name: String,
    at: u64,
    len: u64,
}

/// How a line file ends: in a complete section record (or empty), so more
/// sections may follow; in a complete commit record; or cut short.
#[derive(PartialEq)]
enum Tail {
    Open,
    Committed,
    Torn,
}

impl CkptStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CkptStore { root })
    }

    fn file(&self, version: u64, rank: usize) -> PathBuf {
        self.root.join(format!("v{version}.r{rank}.ckpt"))
    }

    /// Open `(version, rank)`'s file to read and append, creating it.
    fn append(&self, version: u64, rank: usize) -> std::io::Result<fs::File> {
        fs::OpenOptions::new().create(true).read(true).append(true).open(self.file(version, rank))
    }

    /// Walk the records of `(version, rank)`'s file, reading frames only,
    /// until the end or a torn record. Returns the file, its complete
    /// sections in file order, and how it ends.
    fn scan(&self, version: u64, rank: usize) -> std::io::Result<(fs::File, Vec<Section>, Tail)> {
        let file = fs::File::open(self.file(version, rank))?;
        let (sections, tail) = scan_file(&file)?;
        Ok((file, sections, tail))
    }

    /// Append a named section (1 to 255 bytes of name) to `(version,
    /// rank)`'s file and start its writeback, waiting for no sync. A file
    /// that is committed or torn is cut to nothing first: the section opens
    /// a new line.
    pub fn write_section(
        &self,
        version: u64,
        rank: usize,
        section: &str,
        bytes: &[u8],
    ) -> std::io::Result<()> {
        let name_len = u8::try_from(section.len()).ok().filter(|&n| n > 0);
        let name_len = name_len.ok_or_else(|| {
            Error::new(ErrorKind::InvalidInput, format!("bad section name '{section}'"))
        })?;
        let mut frame = vec![name_len];
        frame.extend_from_slice(section.as_bytes());
        frame.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        let mut f = self.append(version, rank)?;
        if scan_file(&f)?.1 != Tail::Open {
            f.set_len(0)?;
        }
        f.write_all(&frame)?;
        f.write_all(bytes)?;
        start_writeback(&f);
        Ok(())
    }

    /// Read the last complete section named `section` of `(version, rank)`.
    pub fn read_section(
        &self,
        version: u64,
        rank: usize,
        section: &str,
    ) -> std::io::Result<Vec<u8>> {
        let (file, sections, _) = self.scan(version, rank)?;
        let s = sections.iter().rev().find(|s| s.name == section).ok_or_else(|| {
            Error::new(ErrorKind::NotFound, format!("no section '{section}' in v{version}.r{rank}"))
        })?;
        let mut buf = vec![0u8; s.len as usize];
        file.read_exact_at(&mut buf, s.at)?;
        Ok(buf)
    }

    /// Does a complete section exist?
    pub fn has_section(&self, version: u64, rank: usize, section: &str) -> bool {
        self.scan(version, rank).is_ok_and(|(_, ss, _)| ss.iter().any(|s| s.name == section))
    }

    /// Total payload bytes of the sections of `(version, rank)` that
    /// [`Self::read_section`] returns — the last of each name — without the
    /// record frames: the rank's checkpoint size as reported in the paper's
    /// tables.
    pub fn checkpoint_bytes(&self, version: u64, rank: usize) -> std::io::Result<u64> {
        let sections = self.scan(version, rank)?.1;
        let last = |i: usize| sections[i + 1..].iter().all(|s| s.name != sections[i].name);
        Ok((0..sections.len()).filter(|&i| last(i)).map(|i| sections[i].len).sum())
    }

    /// Commit `(version, rank)` — the end of `chkpt_CommitCheckpoint`: sync
    /// the sections, append the commit record, sync it, and sync the root
    /// directory.
    pub fn mark_committed(&self, version: u64, rank: usize) -> std::io::Result<()> {
        let mut f = self.append(version, rank)?;
        f.sync_data()?;
        let mut record = [0u8; FRAME + 8];
        record[1..FRAME].copy_from_slice(&8u64.to_le_bytes());
        record[FRAME..].copy_from_slice(&f.metadata()?.len().to_le_bytes());
        f.write_all(&record)?;
        f.sync_data()?;
        fs::File::open(&self.root)?.sync_all()
    }

    /// Is `(version, rank)` committed?
    pub fn is_committed(&self, version: u64, rank: usize) -> bool {
        self.scan(version, rank).is_ok_and(|(_, _, tail)| tail == Tail::Committed)
    }

    /// The last version this rank committed, if any ("query last local saved
    /// checkpoint committed to disk", Fig. 5).
    pub fn last_committed(&self, rank: usize) -> Option<u64> {
        self.versions().into_iter().rev().find(|v| self.is_committed(*v, rank))
    }

    /// Every line file in the root, as `(version, path)`.
    fn files(&self) -> Vec<(u64, PathBuf)> {
        let Ok(dir) = fs::read_dir(&self.root) else { return Vec::new() };
        dir.filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name();
            let (v, r) =
                name.to_str()?.strip_prefix('v')?.strip_suffix(".ckpt")?.split_once(".r")?;
            r.parse::<usize>().ok()?;
            Some((v.parse().ok()?, e.path()))
        })
        .collect()
    }

    /// All version numbers present in the store, ascending.
    pub fn versions(&self) -> Vec<u64> {
        let mut vs: Vec<u64> = self.files().into_iter().map(|(v, _)| v).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Remove every version newer than `keep`: the uncommitted or
    /// superseded lines discarded on recovery.
    pub fn prune(&self, keep: u64) -> std::io::Result<()> {
        for (v, path) in self.files() {
            if v > keep {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

/// Walk the records of an open line file, reading frames only, until the
/// end or a torn record. Returns its complete sections in file order, and
/// how it ends.
fn scan_file(file: &fs::File) -> std::io::Result<(Vec<Section>, Tail)> {
    let end = file.metadata()?.len();
    let (mut sections, mut tail, mut pos) = (Vec::new(), Tail::Open, 0);
    let mut buf = [0u8; HEAD];
    while pos < end {
        let head = &mut buf[..(end - pos).min(HEAD as u64) as usize];
        file.read_exact_at(head, pos)?;
        let name_len = head[0] as usize;
        let len = head.get(1 + name_len..FRAME + name_len);
        let len = len.map(|l| u64::from_le_bytes(l.try_into().expect("8 bytes")));
        let at = pos + (FRAME + name_len) as u64;
        let Some(len) = len.filter(|&len| len <= end - at) else {
            return Ok((sections, Tail::Torn));
        };
        let commit = name_len == 0 && at + len == end && head[FRAME..] == pos.to_le_bytes();
        tail = if commit { Tail::Committed } else { Tail::Open };
        if name_len > 0 {
            let name = String::from_utf8_lossy(&head[1..1 + name_len]).into_owned();
            sections.push(Section { name, at, len });
        }
        pos = at + len;
    }
    Ok((sections, tail))
}

/// Ask the kernel to start writing `file`'s dirty pages to the device now,
/// without waiting for them: `sync_file_range(2)` over the whole file with
/// `SYNC_FILE_RANGE_WRITE`. It is only a hint. A file system without
/// writeback makes it a no-op, and its result is ignored: an I/O error on
/// these pages still surfaces at the commit's `fdatasync`, which remains
/// the durability point.
fn start_writeback(file: &fs::File) {
    extern "C" {
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }
    const SYNC_FILE_RANGE_WRITE: u32 = 2;
    // SAFETY: the descriptor stays open for the call, which touches no
    // memory of this process.
    unsafe { sync_file_range(file.as_raw_fd(), 0, 0, SYNC_FILE_RANGE_WRITE) };
}

/// A uniquely named store root under the system temp dir, removed on drop —
/// shared test/bench support so every harness gets the same RAII semantics:
/// the directory is deleted on clean drop but *kept* (with its path printed)
/// when the thread is panicking, so the on-disk checkpoint state of a failed
/// run can be inspected post-mortem.
#[derive(Debug)]
pub struct TempStore {
    path: PathBuf,
}

impl TempStore {
    /// Reserve a fresh directory path. The store itself is created lazily by
    /// [`CkptStore::new`]; this only guarantees uniqueness and cleans up any
    /// stale leftover of the same name.
    pub fn new(name: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "c3-store-{name}-{}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        let _ = fs::remove_dir_all(&path);
        TempStore { path }
    }

    /// The store root, for `C3Config`-style constructors.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("keeping checkpoint store for post-mortem: {}", self.path.display());
        } else {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_roundtrip_and_size() {
        let tmp = TempStore::new("rt");
        let store = CkptStore::new(tmp.path()).unwrap();
        store.write_section(1, 0, "app", b"hello").unwrap();
        store.write_section(1, 0, "late", &[0u8; 100]).unwrap();
        assert_eq!(store.read_section(1, 0, "app").unwrap(), b"hello");
        assert_eq!(store.checkpoint_bytes(1, 0).unwrap(), 105);
        assert!(store.has_section(1, 0, "late"));
        assert!(!store.has_section(1, 0, "nope"));
        assert!(store.read_section(1, 0, "nope").is_err());
        assert!(store.write_section(1, 0, "", b"x").is_err(), "the empty name is the commit's");
    }

    #[test]
    fn commit_markers_and_last_committed() {
        let tmp = TempStore::new("commit");
        let store = CkptStore::new(tmp.path()).unwrap();
        store.write_section(1, 0, "app", b"a").unwrap();
        store.mark_committed(1, 0).unwrap();
        store.write_section(2, 0, "app", b"b").unwrap();
        // v2 never committed: last committed stays 1.
        assert_eq!(store.last_committed(0), Some(1));
        store.mark_committed(2, 0).unwrap();
        assert_eq!(store.last_committed(0), Some(2));
        assert_eq!(store.last_committed(1), None);
        // A section written after the commit record starts v2 afresh, so
        // v2 is uncommitted again.
        store.write_section(2, 0, "late", b"c").unwrap();
        assert_eq!(store.last_committed(0), Some(1));
        assert!(!store.has_section(2, 0, "app"));
        // One regular file per (version, rank), nothing else.
        let mut names: Vec<_> = fs::read_dir(tmp.path())
            .unwrap()
            .map(|e| e.unwrap())
            .inspect(|e| assert!(e.file_type().unwrap().is_file()))
            .map(|e| e.file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["v1.r0.ckpt", "v2.r0.ckpt"]);
    }

    #[test]
    fn prune_discards_newer_uncommitted() {
        let tmp = TempStore::new("prune");
        let store = CkptStore::new(tmp.path()).unwrap();
        for v in 1..=3 {
            store.write_section(v, 0, "app", b"x").unwrap();
        }
        store.mark_committed(1, 0).unwrap();
        store.prune(1).unwrap();
        assert_eq!(store.versions(), vec![1]);
    }

    /// A store reused by a fresh job: writing a committed line again
    /// replaces it, so the file and its size stay one line's.
    #[test]
    fn rewriting_a_committed_line_replaces_it() {
        let tmp = TempStore::new("rewrite");
        let store = CkptStore::new(tmp.path()).unwrap();
        let mut lens = Vec::new();
        for run in 0..3u8 {
            store.write_section(1, 0, "app", &[run; 10]).unwrap();
            store.write_section(1, 0, "late", &[run; 5]).unwrap();
            store.mark_committed(1, 0).unwrap();
            assert_eq!(store.checkpoint_bytes(1, 0).unwrap(), 15, "run {run}");
            assert_eq!(store.read_section(1, 0, "app").unwrap(), [run; 10]);
            lens.push(fs::metadata(store.file(1, 0)).unwrap().len());
        }
        assert_eq!(lens, [lens[0]; 3]);
    }

    /// A line written over a dead incarnation's torn file starts at the
    /// file's first byte, so the torn record is never parsed as a frame.
    #[test]
    fn writing_over_a_torn_file_starts_afresh() {
        let tmp = TempStore::new("retorn");
        let store = CkptStore::new(tmp.path()).unwrap();
        store.write_section(1, 0, "app", &[7u8; 64]).unwrap();
        let path = store.file(1, 0);
        let whole = fs::read(&path).unwrap();
        fs::write(&path, &whole[..20]).unwrap();
        store.write_section(1, 0, "app", b"new").unwrap();
        store.mark_committed(1, 0).unwrap();
        assert!(store.is_committed(1, 0));
        assert_eq!(store.read_section(1, 0, "app").unwrap(), b"new");
        assert_eq!(store.checkpoint_bytes(1, 0).unwrap(), 3);
    }

    /// A section written twice in one line counts once in the size, at the
    /// length `read_section` returns.
    #[test]
    fn checkpoint_bytes_counts_the_last_record_of_each_name() {
        let tmp = TempStore::new("dup");
        let store = CkptStore::new(tmp.path()).unwrap();
        store.write_section(1, 0, "app", &[1u8; 100]).unwrap();
        store.write_section(1, 0, "mpi", &[2u8; 7]).unwrap();
        store.write_section(1, 0, "app", &[3u8; 10]).unwrap();
        assert_eq!(store.read_section(1, 0, "app").unwrap(), [3u8; 10]);
        assert_eq!(store.checkpoint_bytes(1, 0).unwrap(), 17);
    }

    /// Cut a committed file at every byte offset inside its last section
    /// record and its commit record: the line is never committed, no
    /// partial record is ever read back, and `prune` removes the file.
    #[test]
    fn a_file_cut_inside_its_tail_is_torn() {
        let tmp = TempStore::new("cut");
        let store = CkptStore::new(tmp.path()).unwrap();
        store.write_section(1, 0, "app", b"older line").unwrap();
        store.mark_committed(1, 0).unwrap();
        let app: Vec<u8> = (0..40u8).collect();
        let late = b"late log".to_vec();
        store.write_section(2, 0, "app", &app).unwrap();
        store.write_section(2, 0, "late", &late).unwrap();
        store.mark_committed(2, 0).unwrap();
        let path = store.file(2, 0);
        let whole = fs::read(&path).unwrap();
        let late_start = FRAME + 3 + app.len();
        assert_eq!(whole.len(), late_start + FRAME + 4 + late.len() + FRAME + 8);
        assert!(store.is_committed(2, 0));

        for cut in late_start..whole.len() {
            fs::write(&path, &whole[..cut]).unwrap();
            assert!(!store.is_committed(2, 0), "cut at {cut} reads as committed");
            assert_eq!(store.last_committed(0), Some(1), "cut at {cut}");
            assert_eq!(store.read_section(2, 0, "app").unwrap(), app, "cut at {cut}");
            match store.read_section(2, 0, "late") {
                Ok(bytes) => assert_eq!(bytes, late, "cut at {cut} read a partial record"),
                Err(e) => assert_eq!(e.kind(), ErrorKind::NotFound, "cut at {cut}"),
            }
            store.prune(1).unwrap();
            assert!(!path.exists(), "prune kept the torn file cut at {cut}");
            assert_eq!(store.versions(), vec![1]);
        }
    }
}
