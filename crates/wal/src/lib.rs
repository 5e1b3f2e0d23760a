//! Durable streaming sessions: a write-ahead log of accepted ingest
//! operations plus periodic window snapshots, so a sliding-window
//! detector can be rebuilt to its exact pre-crash state by replay.
//!
//! A session's window is irreplaceable stream state (that is why the
//! serving layer refuses new sessions at capacity instead of evicting).
//! This crate makes it survive the process: every accepted operation is
//! appended to `wal.log` *before* it is acknowledged, and every so often
//! the live window is written as `snapshot.bin`, after which the log
//! tail is truncated — the compaction discipline of LSM write-ahead
//! logs, shrunk to a single bounded window.
//!
//! # On-disk layout
//!
//! Both files use the length-prefixed little-endian framing of the graph
//! codec (`dod_graph::serialize`) with the FNV-1a digest discipline of
//! `Engine::save`:
//!
//! ```text
//! wal.log       magic "DODL" | version u8 |
//!               frames: (payload_len u32 | fnv1a u64 | payload)…
//!   payload     ops_before u64 | op_count u32 | ops…
//!   op          tag u8 (0 insert, 1 advance) | time f64 | [point]
//!
//! snapshot.bin  magic "DODS" | version u8 | ops_applied u64 |
//!               base_seq u64 | now f64 | entry_count u64 |
//!               entries: (time f64 | point)… | fnv1a u64 (whole prefix)
//! ```
//!
//! `ops_before` counts every operation in the session's history before
//! the frame, and the snapshot records `ops_applied`, the history prefix
//! it covers. Snapshots commit atomically (`snapshot.tmp` → fsync →
//! rename) *before* the log is truncated, so a crash between the two
//! leaves stale frames in the log — recovery skips any frame with
//! `ops_before < ops_applied`, which is always a whole-frame skip
//! because snapshots only ever cut at frame boundaries.
//!
//! # Recovery semantics
//!
//! [`SessionWal::open`] never panics on a damaged log. A torn tail —
//! truncation or bit rot anywhere after the last intact frame — is cut
//! off (the file is truncated back to the last frame whose checksum
//! verifies) and recovery proceeds with what survived, exactly the
//! contract of the LevelDB log reader. Only structural impossibilities
//! (wrong magic, unsupported version, a checksummed frame whose payload
//! is malformed, a snapshot failing its digest) surface as
//! [`DodError::Corrupt`] with the byte offset — those mean the wrong
//! file or real corruption, not a crashed writer.

use dod_core::telemetry::Counter;
use dod_core::DodError;
use dod_metrics::Fnv1a;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const LOG_MAGIC: &[u8; 4] = b"DODL";
const SNAP_MAGIC: &[u8; 4] = b"DODS";
const VERSION: u8 = 1;
/// Bytes of the log's magic + version header (everything before the
/// first frame).
pub const LOG_HEADER_LEN: u64 = 5;
/// Upper bound on one frame's payload: a frame is at most one scheduling
/// round of batched ops, far below this; anything larger is garbage from
/// a torn length prefix.
const MAX_FRAME_BYTES: u32 = 1 << 28;

/// The log file's name inside a session directory.
pub const LOG_FILE: &str = "wal.log";
/// The snapshot file's name inside a session directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// When appended frames are forced to stable storage.
///
/// The policy trades ingest throughput against the tail of acknowledged
/// operations an OS crash (not a process crash — the page cache survives
/// those) can lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every appended frame: no acknowledged operation
    /// is ever lost, at the cost of one disk round-trip per batch.
    Always,
    /// `fdatasync` every `n` appended frames (clamped to ≥ 1): bounded
    /// loss window, amortized sync cost.
    EveryN(u32),
    /// Never sync on append (the OS flushes on its own schedule);
    /// snapshots and shutdown still sync. Fastest, widest loss window.
    Never,
}

/// Lifetime counters of one session's WAL, shared (`Arc`) with scrapers
/// so `/metrics` can export `dod_wal_*` without touching the log.
#[derive(Debug, Default)]
pub struct WalTelemetry {
    /// Frames appended to the log.
    pub appended_records: Counter,
    /// Total bytes appended (framing included).
    pub appended_bytes: Counter,
    /// Operations appended across all frames.
    pub appended_ops: Counter,
    /// `fsync`/`fdatasync` calls issued.
    pub fsyncs: Counter,
    /// Wall time spent appending frames, the sync policy's `fdatasync`
    /// included, nanoseconds.
    pub append_nanos: Counter,
    /// Snapshots committed.
    pub snapshots: Counter,
    /// Wall time spent writing snapshots, nanoseconds.
    pub snapshot_nanos: Counter,
    /// Frames replayed by the last `open`.
    pub replayed_records: Counter,
    /// Operations replayed by the last `open`.
    pub replayed_ops: Counter,
    /// Wall time the caller spent replaying recovered state, nanoseconds
    /// (recorded by the detector layer, not by this crate).
    pub replay_nanos: Counter,
    /// Torn tails truncated by `open`.
    pub torn_tails: Counter,
    /// Append/sync failures (the session keeps serving; durability is
    /// degraded and this counter is the alarm).
    pub io_errors: Counter,
}

/// A point type that can travel through the log. Implemented for the
/// vector and string points the stream detectors serve; the encoding
/// must be self-delimiting (the frame checksum covers it, the cursor
/// bounds-checks it).
pub trait WalPoint: Sized + Clone {
    /// Appends the encoded point to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);
    /// Decodes one point, consuming exactly what `encode_into` produced.
    fn decode_from(cur: &mut Cursor<'_>) -> Result<Self, DodError>;
}

impl WalPoint for Vec<f32> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in self {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_from(cur: &mut Cursor<'_>) -> Result<Self, DodError> {
        let n = cur.u32("truncated point length")? as usize;
        let bytes = cur.take(n * 4, "truncated point data")?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect())
    }
}

impl WalPoint for String {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode_from(cur: &mut Cursor<'_>) -> Result<Self, DodError> {
        let n = cur.u32("truncated string length")? as usize;
        let at = cur.offset();
        let bytes = cur.take(n, "truncated string data")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DodError::Corrupt {
            offset: at,
            reason: "logged string is not UTF-8",
        })
    }
}

/// One logged operation — the full vocabulary a detector's window state
/// is a function of. Insertion times are normalized to the explicitly
/// assigned timestamp (auto-ticked inserts log the tick they received),
/// so replay is `insert_at`/`advance_to` all the way down.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp<P> {
    /// A point accepted at `time`.
    Insert {
        /// Assigned (possibly auto-ticked) timestamp.
        time: f64,
        /// The raw (unprepared) point.
        point: P,
    },
    /// A clock advance without insertion (time windows expire).
    Advance {
        /// Advanced-to timestamp.
        time: f64,
    },
}

/// A window-consistent cut of the detector's state: everything replay
/// needs to rebuild the global window *without* the pre-window history.
///
/// Deliberately absent: pivots and the cell→shard assignment. Any fixed
/// partition answers exactly (see `dod_shard`'s proof), so recovery
/// re-partitions from the replayed window instead of persisting routing
/// state that only affects load balance.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState<P> {
    /// History operations this snapshot covers; log frames below this
    /// are stale.
    pub ops_applied: u64,
    /// Global seq of the oldest window entry (the next seq to assign
    /// when the window is empty) — recovery restarts the seq clock here.
    pub base_seq: u64,
    /// Latest observed timestamp (may exceed the last entry's time after
    /// a trailing advance; `-inf` when nothing was ever ingested).
    pub now: f64,
    /// Window entries `(time, point)`, oldest first, seqs contiguous
    /// from `base_seq`.
    pub entries: Vec<(f64, P)>,
}

/// What [`SessionWal::open`] found on disk.
#[derive(Debug)]
pub struct Recovered<P> {
    /// The committed snapshot, if one exists.
    pub snapshot: Option<SnapshotState<P>>,
    /// Post-snapshot operations that survived in the log, in append
    /// order.
    pub ops: Vec<WalOp<P>>,
    /// Byte offset the log was truncated back to when a torn tail was
    /// found (`None` for a clean log).
    pub truncated_at: Option<u64>,
}

impl<P> Recovered<P> {
    /// `true` when nothing was on disk — a fresh session, not a
    /// recovery.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.ops.is_empty()
    }
}

/// One session's write-ahead log: an append handle positioned at the
/// log's tail, plus the snapshot installer. Created (and recovered) by
/// [`open`](SessionWal::open).
#[derive(Debug)]
pub struct SessionWal<P: WalPoint> {
    dir: PathBuf,
    log: File,
    sync: SyncPolicy,
    appends_since_sync: u32,
    /// Total history operations appended (snapshot-covered + logged).
    ops_appended: u64,
    telemetry: Arc<WalTelemetry>,
    scratch: Vec<u8>,
    _point: PhantomData<fn() -> P>,
}

impl<P: WalPoint> SessionWal<P> {
    /// Opens (or creates) the session directory, recovers whatever
    /// snapshot and log frames survive, truncates any torn tail, and
    /// returns the WAL positioned for appending plus the recovered
    /// state.
    pub fn open(dir: &Path, sync: SyncPolicy) -> Result<(Self, Recovered<P>), DodError> {
        fs::create_dir_all(dir)?;
        let telemetry = Arc::new(WalTelemetry::default());

        // An orphaned snapshot.tmp is an uncommitted snapshot from a
        // crashed writer; the committed snapshot.bin (if any) wins.
        let tmp = dir.join("snapshot.tmp");
        if tmp.exists() {
            let _ = fs::remove_file(&tmp);
        }
        let snap_path = dir.join(SNAPSHOT_FILE);
        let snapshot: Option<SnapshotState<P>> = if snap_path.exists() {
            Some(decode_snapshot(&fs::read(&snap_path)?)?)
        } else {
            None
        };
        let ops_applied = snapshot.as_ref().map_or(0, |s| s.ops_applied);

        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOG_FILE))?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)?;

        let mut ops: Vec<WalOp<P>> = Vec::new();
        let mut truncated_at = None;
        let mut ops_appended = ops_applied;
        if bytes.is_empty() {
            log.write_all(LOG_MAGIC)?;
            log.write_all(&[VERSION])?;
        } else if bytes.len() < LOG_HEADER_LEN as usize {
            // Crash during creation: the header itself is torn. Nothing
            // was ever framed, so reset to a fresh header. (set_len does
            // not move the write position — seek back explicitly.)
            log.set_len(0)?;
            log.seek(SeekFrom::Start(0))?;
            log.write_all(LOG_MAGIC)?;
            log.write_all(&[VERSION])?;
            truncated_at = Some(0);
            telemetry.torn_tails.inc();
        } else if &bytes[..4] != LOG_MAGIC {
            return Err(DodError::Corrupt {
                offset: 0,
                reason: "bad log magic",
            });
        } else if bytes[4] != VERSION {
            return Err(DodError::Corrupt {
                offset: 4,
                reason: "unsupported log version",
            });
        } else {
            let mut at = LOG_HEADER_LEN as usize;
            let mut torn = false;
            while at < bytes.len() {
                match read_frame::<P>(&bytes, at)? {
                    Frame::Torn => {
                        torn = true;
                        break;
                    }
                    Frame::Record {
                        ops_before,
                        ops: frame_ops,
                        end,
                    } => {
                        if ops_before + frame_ops.len() as u64 <= ops_applied {
                            // Stale pre-snapshot frame (crash between
                            // snapshot commit and log truncation).
                            at = end;
                            continue;
                        }
                        if ops_before < ops_applied || ops_before != ops_appended {
                            // A frame straddling the snapshot cut or out
                            // of sequence: snapshots only cut at frame
                            // boundaries and appends never skip, so the
                            // log stops making sense here. Stop cleanly
                            // at the last frame that did.
                            torn = true;
                            break;
                        }
                        ops_appended += frame_ops.len() as u64;
                        telemetry.replayed_records.inc();
                        telemetry.replayed_ops.add(frame_ops.len() as u64);
                        ops.extend(frame_ops);
                        at = end;
                    }
                }
            }
            if torn {
                log.set_len(at as u64)?;
                truncated_at = Some(at as u64);
                telemetry.torn_tails.inc();
            }
        }
        log.seek(SeekFrom::End(0))?;

        Ok((
            SessionWal {
                dir: dir.to_path_buf(),
                log,
                sync,
                appends_since_sync: 0,
                ops_appended,
                telemetry,
                scratch: Vec::new(),
                _point: PhantomData,
            },
            Recovered {
                snapshot,
                ops,
                truncated_at,
            },
        ))
    }

    /// The session directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared lifetime counters.
    pub fn telemetry(&self) -> Arc<WalTelemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Total history operations appended (snapshot-covered + logged).
    pub fn ops_appended(&self) -> u64 {
        self.ops_appended
    }

    /// Appends one frame of operations and applies the sync policy. Must
    /// run *before* the operations' effects are acknowledged — that
    /// ordering is the whole durability contract.
    pub fn append(&mut self, ops: &[WalOp<P>]) -> Result<(), DodError> {
        if ops.is_empty() {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        payload.extend_from_slice(&self.ops_appended.to_le_bytes());
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for op in ops {
            match op {
                WalOp::Insert { time, point } => {
                    payload.push(0);
                    payload.extend_from_slice(&time.to_le_bytes());
                    point.encode_into(&mut payload);
                }
                WalOp::Advance { time } => {
                    payload.push(1);
                    payload.extend_from_slice(&time.to_le_bytes());
                }
            }
        }
        let digest = Fnv1a::new().write(&payload).finish();
        let frame_len = 12 + payload.len() as u64;
        let write = (|| -> std::io::Result<()> {
            self.log.write_all(&(payload.len() as u32).to_le_bytes())?;
            self.log.write_all(&digest.to_le_bytes())?;
            self.log.write_all(&payload)?;
            match self.sync {
                SyncPolicy::Always => {
                    self.log.sync_data()?;
                    self.telemetry.fsyncs.inc();
                }
                SyncPolicy::EveryN(n) => {
                    self.appends_since_sync += 1;
                    if self.appends_since_sync >= n.max(1) {
                        self.log.sync_data()?;
                        self.telemetry.fsyncs.inc();
                        self.appends_since_sync = 0;
                    }
                }
                SyncPolicy::Never => {}
            }
            Ok(())
        })();
        self.scratch = payload;
        match write {
            Ok(()) => {
                self.ops_appended += ops.len() as u64;
                self.telemetry.appended_records.inc();
                self.telemetry.appended_ops.add(ops.len() as u64);
                self.telemetry.appended_bytes.add(frame_len);
                self.telemetry
                    .append_nanos
                    .add(t0.elapsed().as_nanos() as u64);
                Ok(())
            }
            Err(e) => {
                self.telemetry.io_errors.inc();
                Err(DodError::Io(e))
            }
        }
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), DodError> {
        self.log.sync_data().map_err(|e| {
            self.telemetry.io_errors.inc();
            DodError::Io(e)
        })?;
        self.telemetry.fsyncs.inc();
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Commits a window snapshot atomically (`snapshot.tmp` → fsync →
    /// rename), then truncates the log back to its header. The snapshot
    /// must cut exactly at the current append boundary
    /// (`snap.ops_applied == self.ops_appended()`), which is what makes
    /// every log frame either fully covered or fully post-snapshot.
    pub fn install_snapshot(&mut self, snap: &SnapshotState<P>) -> Result<(), DodError> {
        assert_eq!(
            snap.ops_applied, self.ops_appended,
            "snapshot must cut at the append boundary"
        );
        let t0 = std::time::Instant::now();
        let mut buf = Vec::with_capacity(64 + snap.entries.len() * 16);
        buf.extend_from_slice(SNAP_MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&snap.ops_applied.to_le_bytes());
        buf.extend_from_slice(&snap.base_seq.to_le_bytes());
        buf.extend_from_slice(&snap.now.to_le_bytes());
        buf.extend_from_slice(&(snap.entries.len() as u64).to_le_bytes());
        for (time, point) in &snap.entries {
            buf.extend_from_slice(&time.to_le_bytes());
            point.encode_into(&mut buf);
        }
        let digest = Fnv1a::new().write(&buf).finish();
        buf.extend_from_slice(&digest.to_le_bytes());

        let tmp = self.dir.join("snapshot.tmp");
        let commit = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
            fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
            // Make the rename itself durable (best-effort: directory
            // handles are not syncable on every platform).
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
            // Only now is the log tail redundant.
            self.log.set_len(LOG_HEADER_LEN)?;
            self.log.seek(SeekFrom::Start(LOG_HEADER_LEN))?;
            self.log.sync_all()?;
            Ok(())
        })();
        match commit {
            Ok(()) => {
                self.appends_since_sync = 0;
                self.telemetry.fsyncs.add(2);
                self.telemetry.snapshots.inc();
                self.telemetry
                    .snapshot_nanos
                    .add(t0.elapsed().as_nanos() as u64);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                self.telemetry.io_errors.inc();
                Err(DodError::Io(e))
            }
        }
    }
}

impl<P: WalPoint> Drop for SessionWal<P> {
    fn drop(&mut self) {
        // Best-effort: a clean shutdown leaves nothing in the page cache
        // regardless of the append policy.
        let _ = self.log.sync_all();
    }
}

/// Removes a session's durable files (log, snapshot, any orphaned tmp)
/// and the directory itself. Used by `DELETE /v1/sessions/{id}`.
///
/// Two outcomes are *not* errors: a file or directory already gone
/// (`NotFound` — deletion is idempotent), and a directory still holding
/// files this module does not own (`DirectoryNotEmpty` — e.g. a
/// manifest the caller removes separately). Everything else — a
/// permission failure, `wal.log` somehow being a directory — propagates:
/// a delete that leaves recoverable state on disk must not report
/// success.
pub fn remove_session_dir(dir: &Path) -> std::io::Result<()> {
    use std::io::ErrorKind;
    for f in [LOG_FILE, SNAPSHOT_FILE, "snapshot.tmp"] {
        match fs::remove_file(dir.join(f)) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    match fs::remove_dir(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::NotFound || e.kind() == ErrorKind::DirectoryNotEmpty => {
            Ok(())
        }
        Err(e) => Err(e),
    }
}

enum Frame<P> {
    /// A frame whose checksum verified.
    Record {
        ops_before: u64,
        ops: Vec<WalOp<P>>,
        end: usize,
    },
    /// The bytes at `at` are not an intact frame: torn tail.
    Torn,
}

/// Reads one frame at `at`. Checksum or length failures are `Torn`
/// (recovery stops cleanly); a payload that passes its checksum but does
/// not parse is `Corrupt` (that is structural damage, not a torn write).
fn read_frame<P: WalPoint>(bytes: &[u8], at: usize) -> Result<Frame<P>, DodError> {
    let rem = &bytes[at..];
    if rem.len() < 12 {
        return Ok(Frame::Torn);
    }
    let len = u32::from_le_bytes(rem[0..4].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_FRAME_BYTES || rem.len() < 12 + len as usize {
        return Ok(Frame::Torn);
    }
    let stored = u64::from_le_bytes(rem[4..12].try_into().expect("8 bytes"));
    let payload = &rem[12..12 + len as usize];
    if Fnv1a::new().write(payload).finish() != stored {
        return Ok(Frame::Torn);
    }
    let mut cur = Cursor::new(payload, at + 12);
    let ops_before = cur.u64("truncated ops_before")?;
    let count = cur.u32("truncated op count")?;
    let mut ops = Vec::with_capacity(count.min(65_536) as usize);
    for _ in 0..count {
        let tag = cur.u8("truncated op tag")?;
        let time = cur.f64("truncated op time")?;
        ops.push(match tag {
            0 => WalOp::Insert {
                time,
                point: P::decode_from(&mut cur)?,
            },
            1 => WalOp::Advance { time },
            _ => {
                return Err(DodError::Corrupt {
                    offset: cur.offset() - 9,
                    reason: "unknown op tag",
                })
            }
        });
    }
    if !cur.is_empty() {
        return Err(DodError::Corrupt {
            offset: cur.offset(),
            reason: "trailing bytes inside a checksummed frame",
        });
    }
    Ok(Frame::Record {
        ops_before,
        ops,
        end: at + 12 + len as usize,
    })
}

fn decode_snapshot<P: WalPoint>(bytes: &[u8]) -> Result<SnapshotState<P>, DodError> {
    if bytes.len() < 8 {
        return Err(DodError::Corrupt {
            offset: bytes.len(),
            reason: "snapshot too short for its digest",
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if Fnv1a::new().write(body).finish() != stored {
        return Err(DodError::Corrupt {
            offset: bytes.len() - 8,
            reason: "snapshot digest mismatch",
        });
    }
    let mut cur = Cursor::new(body, 0);
    if cur.take(4, "truncated snapshot magic")? != SNAP_MAGIC {
        return Err(DodError::Corrupt {
            offset: 0,
            reason: "bad snapshot magic",
        });
    }
    if cur.u8("truncated snapshot version")? != VERSION {
        return Err(DodError::Corrupt {
            offset: 4,
            reason: "unsupported snapshot version",
        });
    }
    let ops_applied = cur.u64("truncated ops_applied")?;
    let base_seq = cur.u64("truncated base_seq")?;
    let now = cur.f64("truncated now")?;
    let count = cur.u64("truncated entry count")? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let time = cur.f64("truncated entry time")?;
        entries.push((time, P::decode_from(&mut cur)?));
    }
    if !cur.is_empty() {
        return Err(DodError::Corrupt {
            offset: cur.offset(),
            reason: "trailing bytes after snapshot entries",
        });
    }
    Ok(SnapshotState {
        ops_applied,
        base_seq,
        now,
        entries,
    })
}

/// Bounds-checked little-endian reader reporting absolute file offsets
/// on failure (the `base` is where its slice starts in the file) —
/// the graph codec's cursor, offset-adjusted for framed payloads.
pub struct Cursor<'a> {
    data: &'a [u8],
    total: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8], base: usize) -> Self {
        Cursor {
            data,
            total: data.len(),
            base,
        }
    }

    /// Absolute file offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + (self.total - self.data.len())
    }

    fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Consumes `n` bytes or fails with a `Corrupt` at the current
    /// offset.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DodError> {
        if self.data.len() < n {
            return Err(DodError::Corrupt {
                offset: self.offset(),
                reason: what,
            });
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DodError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DodError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DodError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DodError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dod_wal_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ins(time: f64, x: f32) -> WalOp<Vec<f32>> {
        WalOp::Insert {
            time,
            point: vec![x],
        }
    }

    #[test]
    fn fresh_open_append_reopen_round_trips() {
        let dir = tmp_dir("round_trip");
        let (mut wal, rec) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Always).unwrap();
        assert!(rec.is_empty());
        wal.append(&[ins(0.0, 1.0), ins(1.0, 2.0)]).unwrap();
        wal.append(&[WalOp::Advance { time: 5.0 }]).unwrap();
        assert_eq!(wal.ops_appended(), 3);
        let t = wal.telemetry();
        assert_eq!(t.appended_records.get(), 2);
        assert_eq!(t.appended_ops.get(), 3);
        assert!(t.fsyncs.get() >= 2);
        let append_nanos = t.append_nanos.get();
        assert!(append_nanos > 0, "appends are timed");
        wal.append(&[]).unwrap();
        assert_eq!(t.append_nanos.get(), append_nanos, "empty append is free");
        drop(wal);

        let (wal, rec) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Always).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.truncated_at, None);
        assert_eq!(
            rec.ops,
            vec![ins(0.0, 1.0), ins(1.0, 2.0), WalOp::Advance { time: 5.0 }]
        );
        assert_eq!(wal.ops_appended(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_session_dir_is_idempotent_and_leaves_foreign_files() {
        let dir = tmp_dir("remove");
        let (wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        drop(wal);
        fs::write(dir.join("manifest.json"), b"{}").unwrap();

        // WAL files go; the foreign file — and therefore the directory —
        // stay, and neither is an error.
        remove_session_dir(&dir).unwrap();
        assert!(!dir.join(LOG_FILE).exists(), "log removed");
        assert!(dir.join("manifest.json").exists(), "foreign file kept");

        fs::remove_file(dir.join("manifest.json")).unwrap();
        remove_session_dir(&dir).unwrap();
        assert!(!dir.exists(), "empty directory removed");
        // Already gone is success too: deletion is idempotent.
        remove_session_dir(&dir).unwrap();
    }

    #[test]
    fn remove_session_dir_propagates_real_failures() {
        // `wal.log` as a *directory* cannot be `remove_file`d — a real
        // failure that must surface, not be swallowed as success. (A
        // permission-bit trick would not work here: tests may run as
        // root, which bypasses DAC checks.)
        let dir = tmp_dir("remove_fail");
        fs::create_dir_all(dir.join(LOG_FILE)).unwrap();
        let err = remove_session_dir(&dir).expect_err("undeletable log must error");
        assert_ne!(err.kind(), std::io::ErrorKind::NotFound);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_log_and_survives_reopen() {
        let dir = tmp_dir("snapshot");
        let (mut wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        wal.append(&[ins(0.0, 1.0), ins(1.0, 2.0)]).unwrap();
        let snap = SnapshotState {
            ops_applied: 2,
            base_seq: 1,
            now: 1.0,
            entries: vec![(1.0, vec![2.0f32])],
        };
        wal.install_snapshot(&snap).unwrap();
        assert_eq!(
            fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            LOG_HEADER_LEN,
            "log truncated to its header"
        );
        wal.append(&[ins(2.0, 3.0)]).unwrap();
        drop(wal);

        let (wal, rec) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(rec.snapshot, Some(snap));
        assert_eq!(rec.ops, vec![ins(2.0, 3.0)]);
        assert_eq!(wal.ops_appended(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_frames_below_the_snapshot_are_skipped() {
        // Simulates a crash between snapshot commit and log truncation:
        // the log still holds pre-snapshot frames.
        let dir = tmp_dir("stale");
        let (mut wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        wal.append(&[ins(0.0, 1.0), ins(1.0, 2.0)]).unwrap();
        drop(wal);
        let log_with_stale = fs::read(dir.join(LOG_FILE)).unwrap();

        let (mut wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        wal.install_snapshot(&SnapshotState {
            ops_applied: 2,
            base_seq: 0,
            now: 1.0,
            entries: vec![(0.0, vec![1.0f32]), (1.0, vec![2.0f32])],
        })
        .unwrap();
        drop(wal);
        // Undo the truncation: put the stale frames back.
        fs::write(dir.join(LOG_FILE), &log_with_stale).unwrap();

        let (mut wal, rec) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(rec.ops, Vec::new(), "stale frames are not replayed");
        assert!(rec.snapshot.is_some());
        assert_eq!(wal.ops_appended(), 2);
        // Appending continues from the snapshot boundary; the stale
        // prefix stays skippable on the next open.
        wal.append(&[ins(2.0, 3.0)]).unwrap();
        drop(wal);
        let (_, rec) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(rec.ops, vec![ins(2.0, 3.0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_intact_frame() {
        let dir = tmp_dir("torn");
        let (mut wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        wal.append(&[ins(0.0, 1.0)]).unwrap();
        wal.append(&[ins(1.0, 2.0)]).unwrap();
        drop(wal);
        let bytes = fs::read(dir.join(LOG_FILE)).unwrap();
        // Chop mid-way through the second frame.
        fs::write(dir.join(LOG_FILE), &bytes[..bytes.len() - 3]).unwrap();

        let (wal, rec) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(rec.ops, vec![ins(0.0, 1.0)]);
        let cut = rec.truncated_at.expect("tail was torn");
        assert_eq!(
            fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            cut,
            "file truncated back to the last intact frame"
        );
        assert_eq!(wal.telemetry().torn_tails.get(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_a_typed_corrupt() {
        let dir = tmp_dir("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOG_FILE), b"NOPE\x01").unwrap();
        match SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never) {
            Err(DodError::Corrupt { offset: 0, .. }) => {}
            other => panic!("expected Corrupt at 0, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_digest_is_a_typed_corrupt() {
        let dir = tmp_dir("snapdigest");
        let (mut wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never).unwrap();
        wal.append(&[ins(0.0, 1.0)]).unwrap();
        wal.install_snapshot(&SnapshotState {
            ops_applied: 1,
            base_seq: 0,
            now: 0.0,
            entries: vec![(0.0, vec![1.0f32])],
        })
        .unwrap();
        drop(wal);
        let mut bytes = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        match SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::Never) {
            Err(DodError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_syncs_on_schedule() {
        let dir = tmp_dir("everyn");
        let (mut wal, _) = SessionWal::<Vec<f32>>::open(&dir, SyncPolicy::EveryN(3)).unwrap();
        for i in 0..7 {
            wal.append(&[ins(i as f64, i as f32)]).unwrap();
        }
        assert_eq!(wal.telemetry().fsyncs.get(), 2, "7 appends / every 3");
        wal.sync().unwrap();
        assert_eq!(wal.telemetry().fsyncs.get(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn string_points_round_trip() {
        let dir = tmp_dir("strings");
        let (mut wal, _) = SessionWal::<String>::open(&dir, SyncPolicy::Never).unwrap();
        wal.append(&[WalOp::Insert {
            time: 0.0,
            point: "näive".to_string(),
        }])
        .unwrap();
        drop(wal);
        let (_, rec) = SessionWal::<String>::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(
            rec.ops,
            vec![WalOp::Insert {
                time: 0.0,
                point: "näive".to_string()
            }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
