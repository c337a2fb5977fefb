//! Append-only ΔA journaling: per-round checkpoints at O(|ΔA|) instead
//! of O(session).
//!
//! [`snapshot`](crate::snapshot::save) rewrites the whole counted core on every
//! save (~1.4 MB / ~7 ms at table IV scale), yet between two checkpoints
//! the *only* state that changed is a small batch of confirmed anchors —
//! the same observation that makes the in-memory delta path
//! (`C += L·ΔA·R`) cheap. This module mirrors that shape on disk: a
//! **base** snapshot (an ordinary `.snap`, unmodified) plus an
//! append-only **journal** of anchor-delta records. A checkpoint appends
//! a few dozen bytes; [`Journal::open`] replays the journal through
//! [`AlignmentSession::update_anchors`] — the deterministic delta path —
//! so the reopened session is **bit-equal** to one reopened from a
//! freshly saved monolithic snapshot (property-tested in
//! `tests/journal_props.rs`, including resumed updates and stats).
//!
//! ## File layout (`<base>.jrnl`)
//!
//! ```text
//! header   "MDAJRNL0" | version u32 | base_len u64 | base_crc u32
//! record*  len u32 | crc u32(payload) | payload
//! payload  kind u8 = 1 AnchorDelta  | n u64 | n × (left u32, right u32)
//!                  = 2 Checkpoint   | n_anchors u64
//!                  = 3 Compacted    | new_base_len u64 | new_base_crc u32
//! ```
//!
//! The header pins the journal to the exact base bytes it extends
//! (length + CRC-32); a journal found next to a different base refuses
//! with [`JournalError::BaseMismatch`] rather than replaying deltas onto
//! the wrong state. Every record is a length-prefixed, checksummed frame
//! of the record codec the serve wire shares, which splits corruption
//! into two cleanly distinguishable cases on open:
//!
//! * a **torn tail** — the file ends inside a frame, or the *last* record
//!   fails its CRC — is the expected residue of a crash mid-append. The
//!   intact prefix is replayed and the file is truncated back to it;
//!   never a refused file.
//! * a **damaged interior** — a record fails its CRC with more records
//!   after it — cannot be a torn append; replaying past it would
//!   silently skip a delta, so the open refuses with
//!   [`JournalError::Checksum`].
//!
//! ## Durability model
//!
//! [`Journal::append`] is a buffered write-ahead append: the record
//! reaches the OS before the in-memory update applies (a process crash
//! loses nothing), but is not fsynced per append — that is what keeps an
//! append 2–3 orders of magnitude cheaper than a monolithic save.
//! [`Journal::checkpoint`] is the durability point: it appends a
//! `Checkpoint` record (carrying the anchor count as a replay cross-check)
//! and fsyncs the journal. Power loss between checkpoints can cost at
//! most the un-synced suffix, which the torn-tail rule reclaims cleanly.
//!
//! ## Compaction
//!
//! Compaction folds the journal back into a fresh base without a crash
//! window, and is staged in three steps so the expensive one can run off
//! the owner's lock (the pool's background compactor and the serving
//! tier both rely on this):
//!
//! 1. [`Journal::begin_compact`] — under the owner's lock: appends a
//!    durable `Compacted` record naming the new base's length+CRC to the
//!    *old* journal and remembers the **fold mark** (the journal offset
//!    right after the marker). Appends may continue past the mark. The
//!    marker needs the new base's bytes, so the caller encodes them
//!    first: this step is O(base), not O(1).
//! 2. [`Journal::stage_compacted_base`] — **no lock needed**: writes the
//!    new base bytes to a synced temporary sibling. This is the O(base)
//!    I/O that used to stall writers.
//! 3. [`Journal::finish_compact`] — under the lock again, all cheap
//!    renames: publishes the staged base over the old one, then replaces
//!    the journal with a fresh header **plus every record appended after
//!    the fold mark** — deltas that arrived mid-compaction stay
//!    journaled against the new base they were not folded into.
//!
//! A synchronous caller runs the three back to back. Crash windows:
//! before (3)'s base rename, the old base + old journal survive — the
//! `Compacted` record names a base that does not exist and is ignored on
//! replay, and post-mark deltas replay normally. Between the base rename
//! and the journal replacement, the new base sits next to the old
//! journal: the header mismatches, but [`Journal::open`] finds the
//! `Compacted` record naming exactly the base now on disk, treats every
//! record before it as folded, and replays only the records after it —
//! nothing is lost in either window. When to compact is a policy knob
//! ([`CompactionPolicy`]) so serving tiers can trade journal growth
//! against save cost.

use crate::record::{self, Split};
use crate::snapshot::{self, SnapshotError};
use crate::stages::{AlignmentSession, Counted};
use crate::{AnchorEdge, SessionError};
use sparsela::codec::{crc32, Error as BinError, Reader, Writer};
use std::borrow::Cow;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The 8-byte journal magic: "MDAJRNL" + a format generation digit.
pub const JOURNAL_MAGIC: [u8; 8] = *b"MDAJRNL0";

/// The journal format version this build writes and the only one it
/// reads (same refuse-don't-migrate policy as the base snapshot).
pub const JOURNAL_VERSION: u32 = 1;

/// Fixed header length: magic + version + base_len + base_crc.
const HEADER_LEN: usize = 8 + 4 + 8 + 4;

const REC_ANCHOR_DELTA: u8 = 1;
const REC_CHECKPOINT: u8 = 2;
const REC_COMPACTED: u8 = 3;

/// When a journal-backed save folds the journal back into its base.
///
/// The knob callers hand to [`crate::SessionPool::set_compaction`] (a
/// sharded session fixes `Bytes(1 << 20)` on its pool);
/// [`Journal::should_compact`] evaluates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicy {
    /// Never compact implicitly; the journal grows until a caller runs
    /// [`Journal::begin_compact`] → [`Journal::stage_compacted_base`] →
    /// [`Journal::finish_compact`] itself. The right choice when an
    /// external job owns compaction.
    #[default]
    Never,
    /// Compact once the journal holds at least this many `AnchorDelta`
    /// records. `EveryN(1)` reproduces the old save-everything behavior
    /// with journal durability in between; `EveryN(0)` is treated as
    /// `Never`.
    EveryN(u32),
    /// Compact once the journal's record bytes (header excluded) reach
    /// this size — bounds worst-case replay work on open.
    Bytes(u64),
}

/// Everything that can go wrong appending to, replaying, or compacting a
/// journal.
#[derive(Debug)]
pub enum JournalError {
    /// Reading, writing, or syncing the journal file failed.
    Io(std::io::Error),
    /// The journal file does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// The journal's format version is not [`JOURNAL_VERSION`].
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The one version this build supports.
        supported: u32,
    },
    /// The journal's header names a base (length + CRC) other than the
    /// base snapshot actually on disk, and the journal is not the residue
    /// of a completed compaction — replaying it would apply deltas to the
    /// wrong state.
    BaseMismatch {
        /// The journal file that refused.
        path: PathBuf,
    },
    /// A record failed its CRC with more records after it — interior
    /// damage, not a torn tail (torn tails are truncated, not refused).
    Checksum {
        /// Byte offset of the damaged record's frame within the journal.
        offset: u64,
    },
    /// A record's payload decoded structurally wrong (bad kind byte,
    /// truncated field, trailing bytes) despite a matching CRC.
    Decode(BinError),
    /// Reading or writing the base snapshot failed.
    Snapshot(SnapshotError),
    /// Replaying an `AnchorDelta` record through the delta path failed —
    /// the journal carries an edge the base's populations cannot hold.
    Replay(SessionError),
    /// A `Checkpoint` record's recorded anchor count disagrees with the
    /// replayed session — the journal and base drifted apart.
    Inconsistent {
        /// The anchor count the `Checkpoint` record expects.
        expected: u64,
        /// The anchor count the replayed session actually has.
        found: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::BadMagic => write!(f, "not an anchor journal (bad magic)"),
            JournalError::UnsupportedVersion { found, supported } => write!(
                f,
                "journal format version {found} is not supported (this build reads \
                 version {supported}); compact or re-save"
            ),
            JournalError::BaseMismatch { path } => write!(
                f,
                "journal {} extends a different base snapshot than the one on disk",
                path.display()
            ),
            JournalError::Checksum { offset } => write!(
                f,
                "journal record at byte {offset} failed its checksum with records after it"
            ),
            JournalError::Decode(e) => write!(f, "journal record payload: {e}"),
            JournalError::Snapshot(e) => write!(f, "journal base snapshot: {e}"),
            JournalError::Replay(e) => write!(f, "journal replay: {e}"),
            JournalError::Inconsistent { expected, found } => write!(
                f,
                "journal checkpoint expects {expected} anchors but replay produced {found}"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Decode(e) => Some(e),
            JournalError::Snapshot(e) => Some(e),
            JournalError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<BinError> for JournalError {
    fn from(e: BinError) -> Self {
        JournalError::Decode(e)
    }
}

impl From<SnapshotError> for JournalError {
    fn from(e: SnapshotError) -> Self {
        JournalError::Snapshot(e)
    }
}

impl From<SessionError> for JournalError {
    fn from(e: SessionError) -> Self {
        JournalError::Replay(e)
    }
}

/// One journal record: decoded on replay, borrowed on append.
enum Record<'a> {
    /// A batch of confirmed anchors to fold through the delta path.
    AnchorDelta(Cow<'a, [AnchorEdge]>),
    /// A durability marker carrying the writer's anchor count as a
    /// replay cross-check.
    Checkpoint { n_anchors: u64 },
    /// A compaction intent marker naming the new base it produced.
    Compacted { base_len: u64, base_crc: u32 },
}

impl Record<'_> {
    /// The record as one frame (layout in the [module docs](self)).
    fn frame(&self) -> Vec<u8> {
        record::frame(|w| match self {
            Record::AnchorDelta(edges) => {
                w.u8(REC_ANCHOR_DELTA);
                record::write_pairs(w, edges);
            }
            Record::Checkpoint { n_anchors } => {
                w.u8(REC_CHECKPOINT);
                w.u64(*n_anchors);
            }
            Record::Compacted { base_len, base_crc } => {
                w.u8(REC_COMPACTED);
                w.u64(*base_len);
                w.u32(*base_crc);
            }
        })
    }

    fn decode(payload: &[u8]) -> Result<Record<'static>, JournalError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            REC_ANCHOR_DELTA => Record::AnchorDelta(Cow::Owned(record::read_pairs(&mut r)?)),
            REC_CHECKPOINT => Record::Checkpoint {
                n_anchors: r.u64()?,
            },
            REC_COMPACTED => Record::Compacted {
                base_len: r.u64()?,
                base_crc: r.u32()?,
            },
            kind => {
                return Err(JournalError::Decode(BinError::Malformed(format!(
                    "unknown journal record kind {kind}"
                ))))
            }
        };
        r.expect_end("a journal record")?;
        Ok(record)
    }
}

fn header_bytes((base_len, base_crc): (u64, u32)) -> Vec<u8> {
    let mut w = Writer::with_capacity(HEADER_LEN);
    w.bytes(&JOURNAL_MAGIC);
    w.u32(JOURNAL_VERSION);
    w.u64(base_len);
    w.u32(base_crc);
    w.into_bytes()
}

/// Scans the record region (header already consumed) and returns each
/// decoded record with the offset just past its frame. The last offset
/// (or [`HEADER_LEN`] when there are no records) is the valid length of
/// the file — `< bytes.len()` exactly when a torn tail must be truncated.
/// Journal frames have no size bound: a length past EOF is a torn tail.
fn scan(bytes: &[u8]) -> Result<Vec<(Record<'static>, usize)>, JournalError> {
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        match record::split_frame(bytes.get(pos..).unwrap_or_default(), u32::MAX) {
            Split::Intact { payload, end } => {
                pos += end;
                records.push((Record::decode(payload)?, pos));
            }
            // The damaged record is the last one — indistinguishable from
            // a torn append; drop it.
            Split::Corrupt { end, .. } if pos + end == bytes.len() => break,
            // Interior damage with intact records after it: refuse.
            Split::Corrupt { .. } => return Err(JournalError::Checksum { offset: pos as u64 }),
            // The file ends inside a frame: torn mid-append.
            Split::Incomplete | Split::TooLarge(_) => break,
        }
    }
    Ok(records)
}

/// An open append handle over a `<base>.jrnl` file paired with its base
/// snapshot; see the [module docs](self) for the format and durability
/// model.
pub struct Journal {
    base_path: PathBuf,
    journal_path: PathBuf,
    file: std::fs::File,
    journal_len: u64,
    delta_records: u32,
    base_len: u64,
    base_crc: u32,
    /// An in-flight staged compaction (`begin_compact` called, not yet
    /// finished); [`Journal::should_compact`] is `false` while one is
    /// pending so policy checks cannot double-trigger.
    pending: Option<PendingCompaction>,
}

/// Book-keeping for a compaction between [`Journal::begin_compact`] and
/// [`Journal::finish_compact`].
#[derive(Debug, Clone, Copy)]
struct PendingCompaction {
    new_len: u64,
    new_crc: u32,
    /// Journal offset right after the durable `Compacted` marker; records
    /// at or past this offset were appended mid-compaction and must
    /// survive into the fresh journal.
    fold_mark: u64,
    /// `AnchorDelta` records appended at or past `fold_mark` — the delta
    /// count the fresh journal starts with.
    deltas_after_mark: u32,
}

/// A new base snapshot written to a synced temporary file by
/// [`Journal::stage_compacted_base`], waiting for
/// [`Journal::finish_compact`] to publish it (or [`StagedBase::discard`]
/// to drop it).
#[derive(Debug)]
pub struct StagedBase {
    tmp: PathBuf,
    new_len: u64,
    new_crc: u32,
}

impl StagedBase {
    /// Removes the staged temporary file without publishing it — for
    /// callers whose compaction target disappeared (a vacated pool slot,
    /// a re-attached journal) between staging and finishing.
    pub fn discard(self) {
        std::fs::remove_file(&self.tmp).ok();
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("base", &self.base_path)
            .field("journal_len", &self.journal_len)
            .field("delta_records", &self.delta_records)
            .finish()
    }
}

/// Writes `bytes` as the whole journal at `journal_path` (atomically, by
/// rename) and reopens it for appending.
fn write_fresh(journal_path: &Path, bytes: &[u8]) -> Result<std::fs::File, JournalError> {
    snapshot::write_atomic(journal_path, bytes)?;
    Ok(std::fs::OpenOptions::new()
        .append(true)
        .open(journal_path)?)
}

impl Journal {
    /// The journal path paired with a base snapshot path: the sibling
    /// file with `.jrnl` appended to the full file name.
    pub fn path_for(base: &Path) -> PathBuf {
        let mut p = base.as_os_str().to_owned();
        p.push(".jrnl");
        PathBuf::from(p)
    }

    /// The one constructor: an append handle over an already-open journal
    /// `file` extending the base `(len, crc)` at `base_path`.
    fn new(
        base_path: PathBuf,
        (base_len, base_crc): (u64, u32),
        file: std::fs::File,
        journal_len: u64,
        delta_records: u32,
    ) -> Journal {
        Journal {
            journal_path: Journal::path_for(&base_path),
            base_path,
            file,
            journal_len,
            delta_records,
            base_len,
            base_crc,
            pending: None,
        }
    }

    /// Publishes `base_bytes` as the base snapshot at `base_path`
    /// (atomically, by rename) and starts a fresh, empty journal beside
    /// it.
    ///
    /// # Errors
    /// [`JournalError::Snapshot`] / [`JournalError::Io`] when either
    /// write fails.
    pub fn create(base_path: impl AsRef<Path>, base_bytes: &[u8]) -> Result<Journal, JournalError> {
        let base_path = base_path.as_ref().to_path_buf();
        snapshot::write_atomic(&base_path, base_bytes)?;
        let base = (base_bytes.len() as u64, crc32(base_bytes));
        let file = write_fresh(&Journal::path_for(&base_path), &header_bytes(base))?;
        Ok(Journal::new(base_path, base, file, HEADER_LEN as u64, 0))
    }

    /// Opens the base snapshot at `base_path`, replays its journal (if
    /// any) through the delta path, and returns the reconstructed session
    /// with the journal ready for further appends. A missing journal file
    /// is a plain monolithic snapshot: a fresh journal is started. A torn
    /// tail is truncated; see the [module docs](self) for the full
    /// corruption policy.
    ///
    /// # Errors
    /// See [`JournalError`].
    pub fn open(
        base_path: impl AsRef<Path>,
    ) -> Result<(AlignmentSession<Counted>, Journal), JournalError> {
        let base_path = base_path.as_ref().to_path_buf();
        let base_bytes = std::fs::read(&base_path).map_err(SnapshotError::Io)?;
        let mut session = snapshot::from_bytes(&base_bytes)?;
        let base = (base_bytes.len() as u64, crc32(&base_bytes));
        drop(base_bytes);

        let journal_path = Journal::path_for(&base_path);
        let jbytes = match std::fs::read(&journal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let file = write_fresh(&journal_path, &header_bytes(base))?;
                return Ok((
                    session,
                    Journal::new(base_path, base, file, HEADER_LEN as u64, 0),
                ));
            }
            Err(e) => return Err(JournalError::Io(e)),
        };

        let mut r = Reader::new(&jbytes);
        let magic = r
            .bytes(JOURNAL_MAGIC.len())
            .map_err(|_| JournalError::BadMagic)?;
        if magic != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        }
        let version = r.u32()?;
        if version != JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion {
                found: version,
                supported: JOURNAL_VERSION,
            });
        }
        let header = (r.u64()?, r.u32()?);

        // `fold` is the index of the `Compacted` marker the base on disk
        // was folded at, when the header names another base. The one
        // legitimate way here: a compaction that crashed after publishing
        // its new base but before replacing the journal — recognisable by
        // a `Compacted` record naming exactly the base now on disk.
        // Records before that marker were folded into the new base;
        // records after it arrived mid-compaction and must replay onto it
        // (and survive into the rebuilt journal). Anything else refuses.
        let (records, fold) = if header == base {
            (scan(&jbytes)?, None)
        } else {
            scan(&jbytes)
                .ok()
                .and_then(|records| {
                    let idx = records.iter().rposition(|(r, _)| {
                        matches!(r, Record::Compacted { base_len, base_crc }
                            if (*base_len, *base_crc) == base)
                    })?;
                    Some((records, Some(idx)))
                })
                .ok_or(JournalError::BaseMismatch {
                    path: journal_path.clone(),
                })?
        };
        let mut delta_records = 0u32;
        for (record, _) in &records[fold.map_or(0, |idx| idx + 1)..] {
            match record {
                Record::AnchorDelta(edges) => {
                    session.update_anchors(edges)?;
                    delta_records += 1;
                }
                Record::Checkpoint { n_anchors } => {
                    let found = session.n_anchors() as u64;
                    if *n_anchors != found {
                        return Err(JournalError::Inconsistent {
                            expected: *n_anchors,
                            found,
                        });
                    }
                }
                // A replayed `Compacted` record is an aborted compaction
                // (its base never landed): the deltas before it are
                // already applied, so it is inert.
                Record::Compacted { .. } => {}
            }
        }

        let valid_len = records.last().map_or(HEADER_LEN, |(_, end)| *end);
        let (file, journal_len) = match fold {
            None => {
                let file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&journal_path)?;
                if valid_len < jbytes.len() {
                    // Torn tail: reclaim the intact prefix.
                    file.set_len(valid_len as u64)?;
                }
                (file, valid_len)
            }
            Some(idx) => {
                // Finish the interrupted fold exactly as `finish_compact`
                // would have: a fresh header plus the raw frames after the
                // marker (a torn tail stays behind).
                let mut fresh = header_bytes(base);
                fresh.extend_from_slice(&jbytes[records[idx].1..valid_len]);
                (write_fresh(&journal_path, &fresh)?, fresh.len())
            }
        };
        Ok((
            session,
            Journal::new(base_path, base, file, journal_len as u64, delta_records),
        ))
    }

    /// Appends one `AnchorDelta` record. Write-ahead by contract: callers
    /// append **before** applying the same edges in memory, so the
    /// journal is never behind the state it reconstructs. Buffered (no
    /// fsync) — see the durability model in the [module docs](self).
    ///
    /// # Errors
    /// [`JournalError::Io`] when the append fails; the in-memory session
    /// must then be left unchanged by the caller.
    pub fn append(&mut self, edges: &[AnchorEdge]) -> Result<(), JournalError> {
        self.write_record(&Record::AnchorDelta(Cow::Borrowed(edges)), false)?;
        self.delta_records += 1;
        if let Some(p) = self.pending.as_mut() {
            p.deltas_after_mark += 1;
        }
        Ok(())
    }

    /// Appends a `Checkpoint` record carrying `n_anchors` as a replay
    /// cross-check and fsyncs the journal — the durability point of the
    /// write-ahead scheme.
    ///
    /// # Errors
    /// [`JournalError::Io`] when the append or sync fails.
    pub fn checkpoint(&mut self, n_anchors: usize) -> Result<(), JournalError> {
        let n_anchors = n_anchors as u64;
        self.write_record(&Record::Checkpoint { n_anchors }, true)
    }

    /// Appends one record's frame, fsyncing after it when `sync`. The
    /// bytes are counted as soon as they are in the file: a failed fsync
    /// must not leave `journal_len` short, or the next fold mark would
    /// land inside this frame.
    fn write_record(&mut self, record: &Record<'_>, sync: bool) -> Result<(), JournalError> {
        let framed = record.frame();
        self.file.write_all(&framed)?;
        self.journal_len += framed.len() as u64;
        if sync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Step 1 of a staged compaction (see the [module docs](self)):
    /// appends the durable `Compacted` intent marker naming the base
    /// `base_bytes` will become, fsyncs it, and remembers the fold mark.
    /// It runs under the owner's lock and costs one CRC-32 pass over
    /// `base_bytes` plus the fsync — O(base), on top of encoding the bytes
    /// in the first place. Records appended after this call are preserved
    /// by [`Journal::finish_compact`].
    ///
    /// # Errors
    /// [`JournalError::Io`] when the marker append or sync fails (the
    /// journal stays exactly as it was, plus at most a torn tail).
    /// Calling again while a compaction is already pending is refused as
    /// [`JournalError::Decode`] — one fold at a time per journal.
    pub fn begin_compact(&mut self, base_bytes: &[u8]) -> Result<(), JournalError> {
        if self.pending.is_some() {
            return Err(JournalError::Decode(BinError::Malformed(
                "a staged compaction is already pending on this journal".into(),
            )));
        }
        let new_len = base_bytes.len() as u64;
        let new_crc = crc32(base_bytes);
        let marker = Record::Compacted {
            base_len: new_len,
            base_crc: new_crc,
        };
        self.write_record(&marker, true)?;
        self.pending = Some(PendingCompaction {
            new_len,
            new_crc,
            fold_mark: self.journal_len,
            deltas_after_mark: 0,
        });
        Ok(())
    }

    /// True when [`Journal::begin_compact`] has run without a matching
    /// [`Journal::finish_compact`] yet.
    pub fn compaction_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Drops an in-flight staged compaction without publishing it — the
    /// durable marker it wrote names a base that never lands, which
    /// replay ignores. Policy checks become live again.
    pub fn abort_compact(&mut self) {
        self.pending = None;
    }

    /// Step 2 of a staged compaction: writes `base_bytes` to a synced
    /// temporary sibling of `base_path`. An associated function on
    /// purpose — it touches neither the journal nor the base, so a
    /// background job runs it **without** holding the journal owner's
    /// lock while appends continue.
    ///
    /// # Errors
    /// [`JournalError::Io`] when the write or sync fails (the temporary
    /// file is removed).
    pub fn stage_compacted_base(
        base_path: &Path,
        base_bytes: &[u8],
    ) -> Result<StagedBase, JournalError> {
        let tmp = snapshot::write_synced_sibling(base_path, "cstage", base_bytes)?;
        Ok(StagedBase {
            tmp,
            new_len: base_bytes.len() as u64,
            new_crc: crc32(base_bytes),
        })
    }

    /// Step 3 of a staged compaction, under the owner's lock again: all
    /// renames. Publishes the staged base over the old one, then replaces
    /// the journal with a fresh header **plus the records appended after
    /// the fold mark** — mid-compaction deltas stay journaled against the
    /// new base they were not folded into. Both crash windows recover on
    /// the next [`Journal::open`] (see the [module docs](self)).
    ///
    /// # Errors
    /// [`JournalError::Decode`] when `staged` does not match the pending
    /// compaction (the staged file is discarded, the pending fold stays
    /// armed); [`JournalError::Io`] / [`JournalError::Snapshot`] when a
    /// rename or the journal rewrite fails — the pending flag is cleared
    /// and the on-disk pair stays recoverable by open.
    pub fn finish_compact(&mut self, staged: StagedBase) -> Result<(), JournalError> {
        let Some(pending) = self.pending else {
            staged.discard();
            return Err(JournalError::Decode(BinError::Malformed(
                "finish_compact without a pending begin_compact".into(),
            )));
        };
        if (staged.new_len, staged.new_crc) != (pending.new_len, pending.new_crc) {
            staged.discard();
            return Err(JournalError::Decode(BinError::Malformed(
                "staged base does not match the pending compaction marker".into(),
            )));
        }
        // Records appended after the fold mark (mid-compaction traffic)
        // must survive into the fresh journal.
        let result = (|| -> Result<u64, JournalError> {
            let jbytes = std::fs::read(&self.journal_path)?;
            let fold = (pending.fold_mark as usize).min(jbytes.len());
            let mut fresh = header_bytes((pending.new_len, pending.new_crc));
            fresh.extend_from_slice(&jbytes[fold..]);
            drop(jbytes);
            std::fs::rename(&staged.tmp, &self.base_path)?;
            self.file = write_fresh(&self.journal_path, &fresh)?;
            Ok(fresh.len() as u64)
        })();
        // Pending clears on every outcome: on failure the disk pair is
        // recovered by the next open, and leaving the flag set would
        // block all future compactions of this journal.
        self.pending = None;
        self.journal_len = result?;
        self.base_len = pending.new_len;
        self.base_crc = pending.new_crc;
        self.delta_records = pending.deltas_after_mark;
        Ok(())
    }

    /// True when `policy` says the journal has grown enough to fold back
    /// into its base. Always false while a staged compaction is pending —
    /// policy checks cannot double-trigger a fold.
    pub fn should_compact(&self, policy: CompactionPolicy) -> bool {
        if self.pending.is_some() {
            return false;
        }
        match policy {
            CompactionPolicy::Never => false,
            CompactionPolicy::EveryN(n) => n > 0 && self.delta_records >= n,
            CompactionPolicy::Bytes(b) => self.journal_len - HEADER_LEN as u64 >= b,
        }
    }

    /// The base snapshot path this journal extends.
    pub fn base_path(&self) -> &Path {
        &self.base_path
    }

    /// Byte length of the base snapshot this journal extends.
    pub fn base_len(&self) -> u64 {
        self.base_len
    }

    /// Current journal file length in bytes (header included).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_len
    }

    /// Number of `AnchorDelta` records since the base was last written.
    pub fn delta_records(&self) -> u32 {
        self.delta_records
    }
}
