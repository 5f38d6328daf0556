//! The one durable JSONL log: torn-tail-tolerant loads and group-committed
//! appends.
//!
//! Two surfaces persist line-oriented JSON that must survive crashes: the
//! job journal (`otune-jobs`) and the tuning corpus (`otune-meta`). Both
//! go through [`JsonlLog`], and so do the event-stream readers of the CLI:
//!
//! * [`JsonlLog::load`] splits a file into records, skipping and counting
//!   torn or corrupt lines (a crash mid-write, interleaved garbage, a torn
//!   multi-byte write). A missing file is empty.
//! * [`JsonlLog::open`] opens a file for append and heals a torn tail once,
//!   so the next record starts on a fresh line.
//! * [`JsonlLog::append`] serializes a record into an in-memory batch; one
//!   `sync_data` covers the whole batch when it flushes.
//!
//! The [`SyncPolicy`] decides when a flush happens:
//!
//! | policy      | flush on append          | survives `kill -9`            |
//! |-------------|--------------------------|-------------------------------|
//! | `Every`     | every line (default)     | every acked append            |
//! | `Batch(n)`  | every `n` buffered lines | last flushed batch boundary   |
//! | `Barrier`   | never — barriers only    | last explicit [`barrier`]     |
//!
//! Under every policy an explicit [`JsonlLog::barrier`] drains the buffer
//! and fsyncs, so callers can guarantee "this entry is durable now" at
//! semantic boundaries (checkpoints, pause, completion) regardless of how
//! lazy the steady-state policy is. Buffered-but-unflushed lines live in
//! user space: a crash (`abort`, `kill -9`) loses exactly the unacked
//! suffix and nothing before it.
//!
//! [`barrier`]: JsonlLog::barrier

use crate::{metric, Telemetry};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Environment variable selecting the journal sync policy:
/// `every` | `batch:N` | `barrier`.
pub const SYNC_ENV: &str = "OTUNE_JOURNAL_SYNC";

/// When a [`JsonlLog`] pays a `sync_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// One fsync per appended line — the default.
    #[default]
    Every,
    /// Fsync once every `n` buffered lines (and at barriers).
    Batch(usize),
    /// Fsync only at explicit barriers.
    Barrier,
}

impl SyncPolicy {
    /// Parse `every` | `batch:N` | `barrier` (N ≥ 1). `None` on anything
    /// else.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s.trim() {
            "every" => Some(SyncPolicy::Every),
            "barrier" => Some(SyncPolicy::Barrier),
            other => {
                let n = other.strip_prefix("batch:")?.parse::<usize>().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(SyncPolicy::Batch(n))
                }
            }
        }
    }

    /// The policy selected by `OTUNE_JOURNAL_SYNC`, defaulting to
    /// [`SyncPolicy::Every`]; unparseable values also fall back to
    /// `Every` (fail safe: never weaker durability by accident).
    pub fn from_env() -> SyncPolicy {
        std::env::var(SYNC_ENV)
            .ok()
            .and_then(|s| SyncPolicy::parse(&s))
            .unwrap_or(SyncPolicy::Every)
    }
}

/// The counters a [`JsonlLog`] bumps as it flushes.
#[derive(Debug, Clone, Copy)]
pub struct LogCounters {
    /// Incremented once per non-empty flushed batch.
    pub batches: &'static str,
    /// Incremented once per `sync_data`.
    pub fsyncs: &'static str,
    /// Incremented by the payload bytes of each flush.
    pub bytes: &'static str,
}

impl LogCounters {
    /// The job journal's counters.
    pub const JOURNAL: LogCounters = LogCounters {
        batches: metric::JOURNAL_BATCHES,
        fsyncs: metric::JOURNAL_FSYNCS,
        bytes: metric::JOURNAL_BYTES,
    };

    /// The tuning corpus' counters.
    pub const CORPUS: LogCounters = LogCounters {
        batches: metric::CORPUS_FLUSHES,
        fsyncs: metric::CORPUS_FSYNCS,
        bytes: metric::CORPUS_BYTES,
    };
}

/// Group-commit append handle over one JSONL file.
///
/// Records are staged in an in-memory buffer; a flush writes the whole
/// buffer and pays one `sync_data` for it. The [`SyncPolicy`] decides
/// whether [`JsonlLog::append`] flushes eagerly (per line, per batch) or
/// leaves everything to explicit [`JsonlLog::barrier`]s. Dropping the log
/// flushes best-effort — but `std::process::abort()` skips destructors,
/// so crash semantics are exactly "unacked suffix lost".
#[derive(Debug)]
pub struct JsonlLog {
    file: File,
    policy: SyncPolicy,
    /// Staged payload not yet written to the file.
    buf: Vec<u8>,
    /// Lines staged in `buf`.
    pending: usize,
    /// File length as the OS sees it (excludes the staged buffer).
    file_len: u64,
    counters: Option<(Telemetry, LogCounters)>,
    /// Abort after this many completed fsyncs (1-based), if armed.
    crash_at_fsync: Option<u64>,
    /// Completed `sync_data` calls on this log.
    fsyncs: u64,
}

impl JsonlLog {
    /// Every parseable `T` record of the JSONL file at `path`, in file
    /// order, plus the number of lines skipped because they did not parse.
    /// Damage is reported, never silently swallowed; blank lines are
    /// neither records nor damage. Bytes are decoded lossily, so invalid
    /// UTF-8 stays confined to its own line. A missing file is empty.
    pub fn load<T: Deserialize>(path: impl AsRef<Path>) -> io::Result<(Vec<T>, u64)> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e),
        };
        // `from_utf8_lossy` scans byte by byte; valid files (the common case)
        // take the much faster strict check and decode identically.
        let text = match std::str::from_utf8(&bytes) {
            Ok(text) => Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(&bytes),
        };
        let mut records = Vec::new();
        let mut torn = 0u64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<T>(line) {
                Ok(record) => records.push(record),
                Err(_) => torn += 1,
            }
        }
        Ok((records, torn))
    }

    /// Open (or create) `path` for appending under `policy`. A torn tail
    /// (no trailing newline) is healed here, once: a newline is appended
    /// and fsynced so the next record starts on a fresh line.
    pub fn open(path: &Path, policy: SyncPolicy) -> io::Result<JsonlLog> {
        let (file, file_len) = open_for_append(path)?;
        let mut log = JsonlLog {
            file,
            policy,
            buf: Vec::new(),
            pending: 0,
            file_len,
            counters: None,
            crash_at_fsync: None,
            fsyncs: 0,
        };
        log.heal_tail(path)?;
        Ok(log)
    }

    /// Continue appending at `path` (the next segment of a rotated log):
    /// the current file is flushed and synced first, and the policy, the
    /// counters, the fsync count and an armed crash all carry over.
    pub fn rotate_to(&mut self, path: &Path) -> io::Result<()> {
        self.barrier()?;
        (self.file, self.file_len) = open_for_append(path)?;
        self.heal_tail(path)
    }

    fn heal_tail(&mut self, path: &Path) -> io::Result<()> {
        if self.file_len == 0 {
            return Ok(());
        }
        let mut reader = File::open(path)?;
        reader.seek(SeekFrom::End(-1))?;
        let mut last = [0u8; 1];
        reader.read_exact(&mut last)?;
        if last[0] == b'\n' {
            return Ok(());
        }
        self.file.write_all(b"\n")?;
        self.file_len += 1;
        self.sync()
    }

    /// Route the flush counters through `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, counters: LogCounters) {
        self.counters = Some((telemetry, counters));
    }

    /// Switch the sync cadence for future appends. The staged batch is
    /// flushed first, so no record silently changes durability class.
    pub fn set_policy(&mut self, policy: SyncPolicy) -> io::Result<()> {
        self.barrier()?;
        self.policy = policy;
        Ok(())
    }

    /// Completed `sync_data` calls on this log.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Logical length in bytes: the file plus the staged buffer (what the
    /// file length becomes after the next flush).
    pub fn len(&self) -> u64 {
        self.file_len + self.buf.len() as u64
    }

    /// Whether the log holds no bytes, flushed or staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arm a crash (`abort`, kill -9 semantics) right after the N-th
    /// completed `sync_data` of this log (1-based).
    pub fn arm_crash_at_fsync(&mut self, n: u64) {
        self.crash_at_fsync = Some(n);
    }

    /// Serialize `record` as one line, stage it, and flush if the policy
    /// calls for it. Returns the line's length in bytes, newline included.
    pub fn append<T: Serialize + ?Sized>(&mut self, record: &T) -> io::Result<usize> {
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.pending += 1;
        let flush_now = match self.policy {
            SyncPolicy::Every => true,
            SyncPolicy::Batch(n) => self.pending >= n,
            SyncPolicy::Barrier => false,
        };
        if flush_now {
            self.barrier()?;
        }
        Ok(line.len() + 1)
    }

    /// Sync barrier: after this returns, every record ever appended is
    /// durable. Writes the staged buffer and pays one `sync_data` for it;
    /// a no-op when nothing is staged (so the `Every` policy pays no extra
    /// fsyncs at barriers).
    pub fn barrier(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        let bytes = self.buf.len() as u64;
        self.file_len += bytes;
        self.buf.clear();
        self.pending = 0;
        if let Some((telemetry, counters)) = &self.counters {
            telemetry.incr(counters.batches);
            telemetry.add(counters.bytes, bytes);
        }
        self.sync()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        if let Some((telemetry, counters)) = &self.counters {
            telemetry.incr(counters.fsyncs);
        }
        if self.crash_at_fsync == Some(self.fsyncs) {
            // Kill -9 semantics: no destructors, no unwinding — the
            // staged suffix (if any) dies with the process.
            std::process::abort();
        }
        Ok(())
    }
}

fn open_for_append(path: &Path) -> io::Result<(File, u64)> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let len = file.metadata()?.len();
    Ok((file, len))
}

impl Drop for JsonlLog {
    fn drop(&mut self) {
        // Best-effort: clean shutdown loses nothing. abort() skips this.
        let _ = self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otune-durable-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn text(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn parses_sync_policies() {
        assert_eq!(SyncPolicy::parse("every"), Some(SyncPolicy::Every));
        assert_eq!(SyncPolicy::parse("barrier"), Some(SyncPolicy::Barrier));
        assert_eq!(SyncPolicy::parse("batch:8"), Some(SyncPolicy::Batch(8)));
        assert_eq!(SyncPolicy::parse(" batch:1 "), Some(SyncPolicy::Batch(1)));
        assert_eq!(SyncPolicy::parse("batch:0"), None);
        assert_eq!(SyncPolicy::parse("batch:"), None);
        assert_eq!(SyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn every_policy_flushes_each_line() {
        let path = tmp("every");
        let mut log = JsonlLog::open(&path, SyncPolicy::Every).unwrap();
        assert_eq!(log.append(&1u32).unwrap(), 2);
        assert_eq!(log.append(&22u32).unwrap(), 3);
        assert_eq!(log.fsyncs(), 2);
        assert_eq!(text(&path), "1\n22\n");
    }

    #[test]
    fn batch_policy_groups_lines_under_one_fsync() {
        let path = tmp("batch");
        let mut log = JsonlLog::open(&path, SyncPolicy::Batch(3)).unwrap();
        log.append(&1u32).unwrap();
        log.append(&2u32).unwrap();
        assert_eq!(text(&path), "");
        log.append(&3u32).unwrap();
        assert_eq!(log.fsyncs(), 1, "one sync_data covered the whole batch");
        assert_eq!(text(&path), "1\n2\n3\n");
    }

    #[test]
    fn barrier_policy_defers_everything_to_barriers() {
        let path = tmp("barrier");
        let mut log = JsonlLog::open(&path, SyncPolicy::Barrier).unwrap();
        for i in 0..10u32 {
            log.append(&i).unwrap();
        }
        assert_eq!(log.fsyncs(), 0);
        log.barrier().unwrap();
        assert_eq!(log.fsyncs(), 1);
        assert_eq!(JsonlLog::load::<u32>(&path).unwrap().0.len(), 10);
        // An empty barrier is free.
        log.barrier().unwrap();
        assert_eq!(log.fsyncs(), 1);
    }

    #[test]
    fn open_heals_a_torn_tail_once() {
        let path = tmp("heal");
        std::fs::write(&path, "1\n2").unwrap();
        let log = JsonlLog::open(&path, SyncPolicy::Barrier).unwrap();
        assert_eq!(text(&path), "1\n2\n", "healed without an append");
        assert_eq!(log.fsyncs(), 1);
        drop(log);
        // Already healed: reopening writes and syncs nothing.
        let log = JsonlLog::open(&path, SyncPolicy::Barrier).unwrap();
        assert_eq!(log.fsyncs(), 0);
        assert_eq!(text(&path), "1\n2\n");
    }

    #[test]
    fn appends_after_a_torn_tail_start_on_a_fresh_line() {
        let path = tmp("torn");
        std::fs::write(&path, "1\n{\"par").unwrap();
        let mut log = JsonlLog::open(&path, SyncPolicy::Every).unwrap();
        log.append(&3u32).unwrap();
        assert_eq!(text(&path), "1\n{\"par\n3\n");
        assert_eq!(JsonlLog::load::<u32>(&path).unwrap(), (vec![1, 3], 1));
    }

    #[test]
    fn drop_flushes_best_effort() {
        let path = tmp("dropflush");
        {
            let mut log = JsonlLog::open(&path, SyncPolicy::Barrier).unwrap();
            log.append("staged").unwrap();
        }
        assert_eq!(text(&path), "\"staged\"\n");
    }

    #[test]
    fn logical_len_tracks_staged_bytes() {
        let path = tmp("logical");
        let mut log = JsonlLog::open(&path, SyncPolicy::Barrier).unwrap();
        assert!(log.is_empty());
        log.append(&123u32).unwrap();
        assert_eq!(log.len(), 4);
        log.barrier().unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 4);
    }

    #[test]
    fn flush_counters_reach_the_registry() {
        let path = tmp("counters");
        let (telemetry, _sink) = crate::Telemetry::ring(16);
        let mut log = JsonlLog::open(&path, SyncPolicy::Batch(2)).unwrap();
        log.set_telemetry(telemetry.clone(), LogCounters::JOURNAL);
        log.append(&12u32).unwrap();
        log.append(&34u32).unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::JOURNAL_BATCHES], 1);
        assert_eq!(snap.counters[metric::JOURNAL_FSYNCS], 1);
        assert_eq!(snap.counters[metric::JOURNAL_BYTES], 6);
    }

    #[test]
    fn rotation_carries_the_fsync_count_and_counters() {
        let (first, second) = (tmp("rotate-a"), tmp("rotate-b"));
        let (telemetry, _sink) = crate::Telemetry::ring(16);
        let mut log = JsonlLog::open(&first, SyncPolicy::Barrier).unwrap();
        log.set_telemetry(telemetry.clone(), LogCounters::JOURNAL);
        log.append(&1u32).unwrap();
        log.rotate_to(&second).unwrap();
        assert_eq!(log.fsyncs(), 1, "rotation synced the old segment");
        assert_eq!(log.len(), 0);
        log.append(&2u32).unwrap();
        log.barrier().unwrap();
        assert_eq!((text(&first), text(&second)), ("1\n".into(), "2\n".into()));
        assert_eq!(log.fsyncs(), 2);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::JOURNAL_FSYNCS], 2);
    }
}
