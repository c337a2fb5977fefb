//! Journaled [`Counted`] sessions in one process: the pool a serve
//! worker ([`crate::serve`]) keeps its tenants in.
//!
//! Each client — a fold rotation, a network pair, a tenant — owns one
//! slot holding an [`AlignmentSession<Counted>`](AlignmentSession), the
//! stage where anchor feedback can still be folded in:
//!
//! * sessions enter the pool either live ([`SessionPool::insert`]) or by
//!   **opening a base snapshot + ΔA journal** ([`SessionPool::open`]) —
//!   at paper scale, opening is the difference between milliseconds and a
//!   full catalog recount per session (the `snapshot` bench bin measures
//!   it);
//! * each slot sits behind its own lock, so independent slots never
//!   contend; the background compactor takes a slot's lock only to
//!   finish a fold;
//! * [`SessionPool::with_counted`] reads a slot under its lock — a caller
//!   that needs features clones the session there and featurizes the
//!   clone outside the pool.
//!
//! ## One persistence verb
//!
//! [`SessionPool::save`] is the only way a slot reaches disk: at the
//! slot's **home** (the base its journal extends) it appends an fsynced
//! `Checkpoint` record — O(|ΔA|), not O(session); anywhere else it writes
//! a fresh base + journal and moves the home there. A slot opened from
//! disk is at home where it was opened, and no two live slots of one pool
//! share a base: `open` and `save` both refuse another live slot's home
//! with [`PoolError::AlreadyOpen`].
//!
//! ## Write-ahead journaling
//!
//! On a journaled slot every anchor update is **appended to the journal
//! before it is applied in memory**, under the slot lock, so the on-disk
//! record is never behind the state it reconstructs. The ordering
//! contract, precisely:
//!
//! 1. the batch is pre-validated against the anchor shape (the exact
//!    check the delta path performs), so a batch that would be refused in
//!    memory is refused *before* it reaches the journal;
//! 2. the `AnchorDelta` record is appended (buffered write — the OS has
//!    it, a process crash loses nothing);
//! 3. the in-memory update applies.
//!
//! If (2) fails, memory is untouched and the journal holds at most a
//! torn tail, which the next open truncates. A no-op batch (all edges
//! already known) is journaled too and replays as the same no-op —
//! replayed stats stay bit-equal.
//!
//! ## Background compaction
//!
//! The pool evaluates its [`CompactionPolicy`]
//! ([`SessionPool::set_compaction`]) itself, after every journaled write
//! — the write-ahead append of [`SessionPool::update_anchors`] and the
//! checkpoint of [`SessionPool::save`] — so a journal stays bounded
//! whether or not anyone ever saves. A due fold runs in two parts. Under
//! the slot lock, the pool encodes the counted core into the new base's
//! bytes (O(session): the snapshot encoding plus a CRC-32 per section)
//! and [`Journal::begin_compact`] appends and fsyncs the marker naming
//! that base, after one more CRC-32 pass over it. A single shared
//! **compactor thread** then writes the new base **off-lock** while
//! updates keep flowing (they land after the fold mark and survive), and
//! re-takes the lock for [`Journal::finish_compact`] — cheap renames.
//! [`SessionPool::flush_compactions`] drains the queue and reports
//! per-slot failures; a failed fold leaves the base+journal pair exactly
//! as durable as before and re-arms the policy.
//!
//! Featurized and fitted stages stay out of the pool by design: they
//! are derived artifacts ([`AlignmentSession::into_report`] is terminal)
//! that a caller re-derives from the counted core.
//!
//! ## Example
//!
//! ```
//! use session::pool::SessionPool;
//! use session::SessionBuilder;
//!
//! let world = datagen::generate(&datagen::presets::tiny(13));
//! let counted = SessionBuilder::new(world.left(), world.right())
//!     .anchors(world.truth().links()[..6].to_vec())
//!     .count()
//!     .unwrap();
//!
//! let mut pool = SessionPool::new();
//! let a = pool.insert(counted.clone());
//! let b = pool.insert(counted);
//! let extra = world.truth().links()[6..10].to_vec();
//! assert_eq!(pool.update_anchors(a, &extra).unwrap(), 4);
//! assert_eq!(pool.update_anchors(b, &extra).unwrap(), 4);
//! assert_eq!(pool.stats(b).unwrap().full_counts, 1); // still no recount
//! ```

use crate::journal::{CompactionPolicy, Journal, JournalError};
use crate::snapshot;
use crate::stages::{AlignmentSession, Counted};
use crate::{AnchorEdge, SessionError};
use metadiagram::DeltaStats;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Opaque handle to a pooled session. Ids are dense indices in insertion
/// order and are never reused within a pool's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(usize);

impl SessionId {
    /// The slot index (stable for the pool's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Everything a pool operation can fail with.
#[derive(Debug)]
pub enum PoolError {
    /// The id does not name a slot of this pool.
    UnknownSession(usize),
    /// The slot exists but its session is gone — a panic unwound through
    /// an operation on it and vacated it. The pool stays usable; only
    /// this slot is lost.
    Vacated(usize),
    /// A journal operation failed (write-ahead append, save, checkpoint,
    /// compaction).
    Journal(JournalError),
    /// A live slot of this pool is already journaled at this base path —
    /// a second slot would append to the same journal, and replay would
    /// merge both slots' updates.
    AlreadyOpen {
        /// The base snapshot path that is already open.
        path: PathBuf,
    },
    /// The underlying session operation failed.
    Session(SessionError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownSession(id) => write!(f, "no session #{id} in this pool"),
            PoolError::Vacated(id) => {
                write!(f, "session #{id} was vacated by a panicked operation")
            }
            PoolError::Journal(e) => write!(f, "pool journal: {e}"),
            PoolError::AlreadyOpen { path } => {
                write!(f, "a live slot is already journaled at {}", path.display())
            }
            PoolError::Session(e) => write!(f, "pool session: {e}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Journal(e) => Some(e),
            PoolError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for PoolError {
    fn from(e: JournalError) -> Self {
        PoolError::Journal(e)
    }
}

impl From<SessionError> for PoolError {
    fn from(e: SessionError) -> Self {
        PoolError::Session(e)
    }
}

/// One pooled session plus its (optional) write-ahead journal. The two
/// live under the same lock so append-then-apply is atomic per slot.
struct Slot {
    session: AlignmentSession<Counted>,
    journal: Option<Journal>,
}

/// A slot as the pool shares it with the compactor thread. `None` is a
/// vacated slot.
type SlotCell = Arc<Mutex<Option<Slot>>>;

/// One fold handed to the compactor thread: the slot to finish on, the
/// base bytes captured under the lock at `begin_compact` time (the state
/// at the fold mark — capturing later would fold in post-mark deltas the
/// suffix replays again), and where to stage them.
struct CompactionJob {
    slot: SlotCell,
    index: usize,
    base_path: PathBuf,
    bytes: Vec<u8>,
}

/// Shared state between the pool and its compactor thread.
struct CompactorState {
    /// Folds enqueued but not yet finished; guarded by `pending`'s lock,
    /// signalled through `done`.
    pending: Mutex<usize>,
    done: Condvar,
    /// Failed folds, drained by [`SessionPool::flush_compactions`].
    errors: Mutex<Vec<(usize, JournalError)>>,
    /// Stall (milliseconds) between staging and finishing, so the unit
    /// tests can prove updates flow mid-fold.
    #[cfg(test)]
    stall_ms: AtomicU64,
}

/// The lazily-spawned background compactor: one thread per pool, fed
/// over an mpsc channel, joined on pool drop.
struct Compactor {
    tx: mpsc::Sender<CompactionJob>,
    handle: Option<std::thread::JoinHandle<()>>,
    state: Arc<CompactorState>,
}

impl Compactor {
    fn spawn() -> Compactor {
        let (tx, rx) = mpsc::channel::<CompactionJob>();
        let state = Arc::new(CompactorState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            errors: Mutex::new(Vec::new()),
            #[cfg(test)]
            stall_ms: AtomicU64::new(0),
        });
        let worker_state = Arc::clone(&state);
        // srclint: allow(raw_spawn, reason = "single long-lived service thread owned by the pool, joined in Drop; map_claimed is for bounded fan-out, not a resident consumer loop")
        let handle = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                let result = run_compaction(&job, &worker_state);
                if let Err(e) = result {
                    worker_state
                        .errors
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((job.index, e));
                }
                let mut pending = worker_state
                    .pending
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *pending = pending.saturating_sub(1);
                drop(pending);
                worker_state.done.notify_all();
            }
        });
        Compactor {
            tx,
            handle: Some(handle),
            state,
        }
    }
}

/// The compactor thread's half of one fold: stage off-lock (stalled in
/// unit tests), then finish under the slot lock. A slot that was
/// vacated or re-journaled in the meantime discards the staged base — the
/// old pair is still durable.
#[cfg_attr(not(test), allow(unused_variables))]
fn run_compaction(job: &CompactionJob, state: &CompactorState) -> Result<(), JournalError> {
    let staged = Journal::stage_compacted_base(&job.base_path, &job.bytes);
    #[cfg(test)]
    {
        let stall = state.stall_ms.load(Ordering::Relaxed);
        if stall > 0 {
            std::thread::sleep(std::time::Duration::from_millis(stall));
        }
    }
    let mut guard = job.slot.lock().unwrap_or_else(PoisonError::into_inner);
    let journal = guard
        .as_mut()
        .and_then(|s| s.journal.as_mut())
        .filter(|j| j.compaction_pending() && j.base_path() == job.base_path);
    match (staged, journal) {
        (Ok(staged), Some(j)) => j.finish_compact(staged),
        (Ok(staged), None) => {
            staged.discard();
            Ok(())
        }
        (Err(e), journal) => {
            // Staging failed: drop the intent so the policy can retry at
            // the next durability point.
            if let Some(j) = journal {
                j.abort_compact();
            }
            Err(e)
        }
    }
}

/// A pool of journaled [`Counted`] sessions; see the [module docs](self).
#[derive(Default)]
pub struct SessionPool {
    slots: Vec<SlotCell>,
    compaction: CompactionPolicy,
    compactor: Mutex<Option<Compactor>>,
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        let compactor = self
            .compactor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(mut c) = compactor {
            drop(c.tx); // closes the channel; the thread drains and exits
            if let Some(handle) = c.handle.take() {
                handle.join().ok();
            }
        }
    }
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool")
            .field("sessions", &self.slots.len())
            .finish()
    }
}

impl SessionPool {
    /// An empty pool with [`CompactionPolicy::Never`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets when a journaled slot's journal is folded back into its base
    /// snapshot (default: [`CompactionPolicy::Never`]); evaluated after
    /// every journaled write.
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.compaction = policy;
    }

    /// Number of sessions (including vacated slots).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn push(&mut self, session: AlignmentSession<Counted>, journal: Option<Journal>) -> SessionId {
        self.slots
            .push(Arc::new(Mutex::new(Some(Slot { session, journal }))));
        SessionId(self.slots.len() - 1)
    }

    /// Adds a live [`Counted`] session (no journal; the first
    /// [`SessionPool::save`] gives it write-ahead persistence).
    pub fn insert(&mut self, session: AlignmentSession<Counted>) -> SessionId {
        self.push(session, None)
    }

    /// The base paths live slots other than `except` are journaled at,
    /// locking one slot at a time. A poisoned slot is skipped: its next
    /// access vacates it, dropping its journal.
    fn journaled_paths(&self, except: Option<SessionId>) -> HashSet<PathBuf> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| except.is_none_or(|id| id.0 != i))
            .filter_map(|(_, m)| {
                let guard = m.lock().ok()?;
                Some(guard.as_ref()?.journal.as_ref()?.base_path().to_path_buf())
            })
            .collect()
    }

    /// Opens the base snapshot at `path` into a new slot, replaying its
    /// ΔA journal (if any) through the delta path; the slot keeps the
    /// journal attached, so later updates are write-ahead journaled.
    ///
    /// # Errors
    /// [`PoolError::AlreadyOpen`] when a live slot is journaled at `path`
    /// (compared by exact [`Path`] equality); [`PoolError::Journal`] when
    /// the base or journal cannot be restored. The pool is unchanged in
    /// either case.
    pub fn open(&mut self, path: impl AsRef<Path>) -> Result<SessionId, PoolError> {
        let path = path.as_ref();
        if self.journaled_paths(None).contains(path) {
            return Err(PoolError::AlreadyOpen {
                path: path.to_path_buf(),
            });
        }
        let (session, journal) = Journal::open(path)?;
        Ok(self.push(session, Some(journal)))
    }

    /// Locks one slot, returning its guard together with the shared
    /// [`SlotCell`] a background fold keeps hold of.
    fn lock(&self, id: SessionId) -> Result<(&SlotCell, MutexGuard<'_, Option<Slot>>), PoolError> {
        let m = self
            .slots
            .get(id.0)
            .ok_or(PoolError::UnknownSession(id.0))?;
        match m.lock() {
            Ok(guard) => Ok((m, guard)),
            // A poisoned slot means a panic unwound mid-operation — the
            // session may be torn (counts updated, margins not). Serving
            // it would silently return wrong results, so the slot is
            // vacated: the session is dropped, the poison cleared, and
            // every later access gets the typed Vacated error.
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                m.clear_poison();
                Err(PoolError::Vacated(id.0))
            }
        }
    }

    fn slot(&self, id: SessionId) -> Result<MutexGuard<'_, Option<Slot>>, PoolError> {
        self.lock(id).map(|(_, guard)| guard)
    }

    /// Applies newly confirmed anchors to one session through
    /// [`AlignmentSession::update_anchors`]. Returns the number of
    /// genuinely new anchors merged.
    ///
    /// On a journaled slot this is **write-ahead**: the batch is
    /// pre-validated, appended to the journal, and only then applied in
    /// memory — all under the slot lock (see the module docs for the
    /// ordering contract) — and the pool's [`CompactionPolicy`] is then
    /// evaluated, enqueueing a background fold when due.
    ///
    /// # Errors
    /// [`PoolError::UnknownSession`] / [`PoolError::Vacated`] for bad
    /// slots; [`PoolError::Session`] when the batch is invalid
    /// (out-of-range endpoints — neither journal nor session changes);
    /// [`PoolError::Journal`] when the append fails (the session is
    /// unchanged).
    pub fn update_anchors(&self, id: SessionId, edges: &[AnchorEdge]) -> Result<usize, PoolError> {
        let (cell, mut guard) = self.lock(id)?;
        let slot = guard.as_mut().ok_or(PoolError::Vacated(id.0))?;
        if let Some(j) = slot.journal.as_mut() {
            slot.session
                .counts
                .check_links(edges)
                .map_err(|e| PoolError::Session(e.into()))?;
            j.append(edges)?;
        }
        let applied = slot.session.update_anchors(edges)?;
        self.enqueue_if_due(id, slot, cell);
        Ok(applied)
    }

    /// Persists a session's counted core — the pool's one persistence
    /// verb.
    ///
    /// When the slot's journal is based at exactly `path`, this is the
    /// cheap path: an fsynced `Checkpoint` record — O(|ΔA|) — after which
    /// the pool's [`CompactionPolicy`] is evaluated (a due fold runs in
    /// the **background**; see the module docs, and await it with
    /// [`SessionPool::flush_compactions`]). Otherwise (no journal yet, or
    /// another path) the counted core is written as the base at `path`, a
    /// fresh journal is started beside it, and the slot's home moves
    /// there: later updates are write-ahead journaled against `path`, and
    /// the old pair, if any, stays valid on disk at its last state.
    ///
    /// # Errors
    /// Slot errors as elsewhere; [`PoolError::AlreadyOpen`] when another
    /// live slot is journaled at `path` (writing there would overwrite
    /// that slot's base and journal), exactly as [`SessionPool::open`]
    /// refuses it; [`PoolError::Journal`] when a write fails. In either
    /// error case the slot keeps its previous journal.
    pub fn save(&self, id: SessionId, path: impl AsRef<Path>) -> Result<(), PoolError> {
        let path = path.as_ref();
        let at_home = (self.slot(id)?.as_ref())
            .ok_or(PoolError::Vacated(id.0))?
            .journal
            .as_ref()
            .is_some_and(|j| j.base_path() == path);
        // Only a move of home can collide with another slot, so a
        // checkpoint skips the scan. The scan runs while `id` is unlocked:
        // holding one slot lock while taking another could deadlock two
        // concurrent saves.
        if !at_home && self.journaled_paths(Some(id)).contains(path) {
            return Err(PoolError::AlreadyOpen {
                path: path.to_path_buf(),
            });
        }
        let (cell, mut guard) = self.lock(id)?;
        let slot = guard.as_mut().ok_or(PoolError::Vacated(id.0))?;
        match slot.journal.as_mut() {
            // The lock is held across the checkpoint append on purpose:
            // it must be ordered against this slot's write-ahead appends.
            Some(j) if j.base_path() == path => {
                j.checkpoint(slot.session.n_anchors())?;
                self.enqueue_if_due(id, slot, cell);
            }
            _ => slot.journal = Some(Journal::create(path, &snapshot::to_bytes(&slot.session))?),
        }
        Ok(())
    }

    /// Under the slot lock, after every journaled write: if the policy
    /// says the journal is due, encode the counted core and run
    /// [`Journal::begin_compact`] on it — both O(session), since the
    /// durable marker names the encoded base's length and CRC — then hand
    /// the write of the new base to the compactor thread. A failed marker
    /// append is reported through
    /// [`SessionPool::flush_compactions`] like a failed fold — the write
    /// that triggered it has already succeeded, and the policy re-arms at
    /// the next journaled write.
    fn enqueue_if_due(&self, id: SessionId, slot: &mut Slot, cell: &SlotCell) {
        let Some(j) = slot
            .journal
            .as_mut()
            .filter(|j| j.should_compact(self.compaction))
        else {
            return;
        };
        let bytes = snapshot::to_bytes(&slot.session);
        let mut compactor = self
            .compactor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let c = compactor.get_or_insert_with(Compactor::spawn);
        if let Err(e) = j.begin_compact(&bytes) {
            c.state
                .errors
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((id.0, e));
            return;
        }
        let job = CompactionJob {
            slot: Arc::clone(cell),
            index: id.0,
            base_path: j.base_path().to_path_buf(),
            bytes,
        };
        *c.state
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        if c.tx.send(job).is_err() {
            // The compactor thread is gone (it only exits when the
            // channel closes, so this is a should-not-happen guard):
            // un-arm the fold so the policy can retry, and undo the
            // pending bump.
            j.abort_compact();
            let mut pending = c
                .state
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *pending = pending.saturating_sub(1);
        }
    }

    /// Blocks until every enqueued background fold has finished and
    /// returns the failures, one `(slot, error)` pair each — empty means
    /// all folds landed. A failed fold is not fatal: the base+journal
    /// pair is exactly as durable as before the attempt and the policy
    /// re-arms at the next durability point.
    pub fn flush_compactions(&self) -> Vec<(SessionId, JournalError)> {
        let compactor = self
            .compactor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(c) = compactor.as_ref() else {
            return Vec::new();
        };
        let state = Arc::clone(&c.state);
        drop(compactor); // don't hold the spawn lock while waiting
        let mut pending = state.pending.lock().unwrap_or_else(PoisonError::into_inner);
        while *pending > 0 {
            pending = state
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(pending);
        let mut errors = state.errors.lock().unwrap_or_else(PoisonError::into_inner);
        errors.drain(..).map(|(i, e)| (SessionId(i), e)).collect()
    }

    /// Stalls the compactor for `ms` milliseconds between staging and
    /// finishing each fold, so tests can prove updates flow while a fold
    /// is in flight.
    #[cfg(test)]
    fn set_compaction_test_stall(&self, ms: u64) {
        let mut compactor = self
            .compactor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let c = compactor.get_or_insert_with(Compactor::spawn);
        c.state.stall_ms.store(ms, Ordering::Relaxed);
    }

    /// The journal state of a slot, as
    /// `(base_len, journal_bytes, delta_records)`, or `None` for an
    /// unjournaled slot — lets a serving frontend watch journal growth
    /// without touching the policy machinery.
    ///
    /// # Errors
    /// Slot errors as elsewhere.
    pub fn journal_stats(&self, id: SessionId) -> Result<Option<(u64, u64, u32)>, PoolError> {
        let guard = self.slot(id)?;
        let slot = guard.as_ref().ok_or(PoolError::Vacated(id.0))?;
        Ok(slot
            .journal
            .as_ref()
            .map(|j| (j.base_len(), j.journal_bytes(), j.delta_records())))
    }

    /// Current anchor count of one session.
    ///
    /// # Errors
    /// Slot errors as elsewhere.
    pub fn n_anchors(&self, id: SessionId) -> Result<usize, PoolError> {
        let guard = self.slot(id)?;
        Ok(guard
            .as_ref()
            .ok_or(PoolError::Vacated(id.0))?
            .session
            .n_anchors())
    }

    /// Work counters of one session ([`AlignmentSession::stats`]).
    ///
    /// # Errors
    /// Slot errors as elsewhere.
    pub fn stats(&self, id: SessionId) -> Result<DeltaStats, PoolError> {
        let guard = self.slot(id)?;
        let slot = guard.as_ref().ok_or(PoolError::Vacated(id.0))?;
        Ok(slot.session.stats())
    }

    /// Runs `f` against a slot's session under its lock.
    ///
    /// # Errors
    /// Slot errors as elsewhere.
    pub fn with_counted<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&AlignmentSession<Counted>) -> R,
    ) -> Result<R, PoolError> {
        let guard = self.slot(id)?;
        Ok(f(&guard.as_ref().ok_or(PoolError::Vacated(id.0))?.session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;
    use std::time::{Duration, Instant};

    /// Regression for the inline-compaction gap: a save that triggers the
    /// compaction policy must NOT hold the slot lock for the fold's
    /// O(session) staging I/O. With the compactor artificially stalled,
    /// updates on the same slot must keep completing while the fold is in
    /// flight, mid-fold updates must survive the fold, and the folded pair
    /// must reopen bit-equal to the live session.
    #[test]
    fn compaction_runs_in_background_and_never_blocks_updates() {
        let w = datagen::generate(&datagen::presets::tiny(70));
        let links = w.truth().links();
        let path =
            std::env::temp_dir().join(format!("pool-unit-{}-bg-compact.snap", std::process::id()));
        let mut pool = SessionPool::new();
        pool.set_compaction(CompactionPolicy::EveryN(1));
        // Stall each fold for 800 ms between staging and finishing — far
        // longer than any update below takes.
        pool.set_compaction_test_stall(800);
        let counted = SessionBuilder::new(w.left(), w.right())
            .anchors(links[..6].to_vec())
            .count()
            .unwrap();
        let id = pool.insert(counted);
        pool.save(id, &path).unwrap();

        pool.update_anchors(id, &links[6..8]).unwrap();
        let save_started = Instant::now();
        pool.save(id, &path).unwrap();
        let save_took = save_started.elapsed();
        let backlog = pool
            .compactor
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, |c| *c.state.pending.lock().unwrap());
        assert_eq!(backlog, 1, "the fold must be enqueued");
        assert!(
            save_took < Duration::from_millis(400),
            "save must return without waiting for the stalled fold (took {save_took:?})"
        );

        // Updates flow while the fold is stalled in the background.
        let update_started = Instant::now();
        pool.update_anchors(id, &links[8..10]).unwrap();
        pool.update_anchors(id, &links[10..12]).unwrap();
        let updates_took = update_started.elapsed();
        assert!(
            updates_took < Duration::from_millis(400),
            "updates must not block on the in-flight fold (took {updates_took:?})"
        );

        assert!(pool.flush_compactions().is_empty(), "the fold must succeed");
        pool.set_compaction_test_stall(0);
        let (_, _, recs) = pool.journal_stats(id).unwrap().unwrap();
        assert_eq!(
            recs, 2,
            "the two mid-fold updates must survive the fold as journal suffix records"
        );

        // The folded base + suffix journal reopens bit-equal to the live
        // session.
        let n = pool.n_anchors(id).unwrap();
        let (replayed, _) = Journal::open(&path).unwrap();
        assert_eq!(replayed.n_anchors(), n);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(Journal::path_for(&path)).ok();
    }
}
