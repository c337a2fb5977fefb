//! The serving coordinator: shards slots across N worker processes and
//! survives their deaths.
//!
//! One [`Coordinator`] owns N child processes (spawned from a
//! [`WorkerSpec`], each running [`super::worker::worker_main`] over its
//! stdin/stdout), routes every slot to `slot % N`, and gives callers a
//! synchronous request API safe to hammer from many client threads at
//! once. Three mechanisms carry the serving contract:
//!
//! * **Admission control** — a counting semaphore caps concurrent client
//!   operations tier-wide; excess callers block at the door instead of
//!   ballooning pipe buffers and pending maps.
//! * **Deadlines** — every call waits at most [`ServeConfig::deadline`]
//!   for its response before declaring the worker wedged and replacing
//!   it (the `stall` fault in the test harness exercises exactly this).
//! * **Restart-and-replay** — when a worker dies or stalls, the
//!   coordinator kills it, respawns from the spec (minus `SERVE_FAULT`,
//!   so injected faults fire once), re-`Open`s every slot the dead
//!   worker held — the **base+journal pair on disk is the whole
//!   hand-off**; a restarted worker replays to a bit-equal session — and
//!   resubmits every request that never got its response, original seq
//!   numbers intact. Updates are idempotent set-unions, so a request the
//!   dead worker *did* apply (journaled, never acked) is safe to submit
//!   twice; [`ServeConfig::restart_limit`] bounds how many times a
//!   worker slot may be replaced before its callers get
//!   [`ServeError::RestartLimit`].
//!
//! Request batching rides the same path: [`Coordinator::update_many`]
//! submits all its jobs back to back and only then awaits their
//! responses (the worker batches responses per read), instead of one
//! round-trip per job. Child stdin is unbuffered, so every frame is its
//! own pipe write.

use super::protocol::{
    decode_response, encode_request, FrameReader, ProtocolError, Request, Response,
};
use crate::AnchorEdge;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How to spawn one worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The worker executable (typically the `serve_worker` bin, or the
    /// calling binary re-executing itself with a `--worker` flag).
    pub exe: PathBuf,
    /// Arguments passed to every spawn.
    pub args: Vec<String>,
    /// Extra environment for **generation-0 spawns only** — this is
    /// where tests plant `SERVE_FAULT`; respawns strip it so a fault
    /// fires at most once per worker slot.
    pub envs: Vec<(String, String)>,
}

impl WorkerSpec {
    /// A spec running `exe` with no extra args or environment.
    pub fn new(exe: impl Into<PathBuf>) -> Self {
        WorkerSpec {
            exe: exe.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }
}

/// Tier-level knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Concurrent client operations admitted tier-wide (a batched call
    /// counts once); excess callers block until a slot frees.
    pub max_in_flight: usize,
    /// How long one request may wait for its response before the worker
    /// is declared wedged and replaced.
    pub deadline: Duration,
    /// How many times one worker slot may be restarted before callers
    /// get [`ServeError::RestartLimit`].
    pub restart_limit: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_in_flight: 64,
            deadline: Duration::from_secs(10),
            restart_limit: 3,
        }
    }
}

/// Everything a serving call can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// Spawning a worker process failed.
    Spawn(std::io::Error),
    /// Writing to or reading from a worker pipe failed.
    Io(std::io::Error),
    /// The byte stream from a worker was corrupt.
    Protocol(ProtocolError),
    /// The worker served the request and reported a typed failure.
    Worker {
        /// Coarse failure class.
        code: super::protocol::ErrorCode,
        /// Worker-side detail.
        message: String,
    },
    /// The worker slot burned through its restart budget; the tier keeps
    /// serving other workers, but this one is gone.
    RestartLimit {
        /// Index of the exhausted worker slot.
        worker: usize,
    },
    /// The response kind did not match the request (a worker bug).
    Unexpected {
        /// What the caller was waiting for.
        expected: &'static str,
    },
    /// The coordinator has been shut down.
    ShutDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spawn(e) => write!(f, "spawn worker: {e}"),
            ServeError::Io(e) => write!(f, "worker pipe: {e}"),
            ServeError::Protocol(e) => write!(f, "worker stream: {e}"),
            ServeError::Worker { code, message } => write!(f, "worker error [{code}]: {message}"),
            ServeError::RestartLimit { worker } => {
                write!(f, "worker {worker} exceeded its restart budget")
            }
            ServeError::Unexpected { expected } => {
                write!(
                    f,
                    "worker sent the wrong response kind (expected {expected})"
                )
            }
            ServeError::ShutDown => write!(f, "coordinator is shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Spawn(e) | ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

/// One request the coordinator has written but not yet seen answered.
/// The request itself is kept so a restart can resubmit it verbatim.
struct PendingEntry {
    request: Request,
    done: Option<Response>,
    /// Coordinator-internal (a restart's re-`Open`): nobody is waiting,
    /// the reader thread discards the response on arrival.
    internal: bool,
}

/// Mutable per-worker state, under one lock with one condvar. The stdin
/// handle lives in its own lock so a client writing a large frame never
/// blocks the reader thread's deposits (which need this lock).
#[derive(Default)]
struct WorkerState {
    child: Option<Child>,
    generation: u64,
    /// False from the moment the reader thread sees EOF / corruption
    /// until a restart brings a new generation up.
    alive: bool,
    /// True once the restart budget is burned: terminal.
    failed: bool,
    /// True once the current generation's `Hello` arrived.
    ready: bool,
    next_seq: u64,
    pending: HashMap<u64, PendingEntry>,
    /// Every slot this worker has successfully opened, and from where —
    /// the replay script for restarts. BTreeMap for deterministic
    /// re-open order.
    registry: BTreeMap<u64, String>,
    restarts: u32,
}

impl WorkerState {
    /// Registers `request` as pending under the next seq; returns the seq
    /// and the request's frame.
    fn register(&mut self, request: Request, internal: bool) -> (u64, Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = encode_request(seq, &request);
        let entry = PendingEntry {
            request,
            done: None,
            internal,
        };
        self.pending.insert(seq, entry);
        (seq, frame)
    }
}

struct WorkerShared {
    index: usize,
    spec: WorkerSpec,
    deadline: Duration,
    restart_limit: u32,
    state: Mutex<WorkerState>,
    cv: Condvar,
    stdin: Mutex<Option<ChildStdin>>,
}

fn lock_state(shared: &WorkerShared) -> std::sync::MutexGuard<'_, WorkerState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerShared {
    /// Spawns a child for `generation`, wires its pipes, and starts the
    /// generation's reader thread. Caller holds the state lock.
    fn spawn_child(
        self: &Arc<Self>,
        st: &mut WorkerState,
        first_generation: bool,
    ) -> Result<(), ServeError> {
        let mut cmd = Command::new(&self.spec.exe);
        cmd.args(&self.spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &self.spec.envs {
            // Injected faults are for first spawns only: a restarted
            // worker must come up healthy or restart-and-replay could
            // never converge.
            if !first_generation && k == "SERVE_FAULT" {
                continue;
            }
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().map_err(ServeError::Spawn)?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        st.generation += 1;
        st.alive = true;
        st.ready = false;
        st.child = Some(child);
        *self.stdin.lock().unwrap_or_else(PoisonError::into_inner) = stdin;
        let generation = st.generation;
        let shared = Arc::clone(self);
        if let Some(stdout) = stdout {
            // srclint: allow(raw_spawn, reason = "one detached reader thread per worker generation; it exits on pipe EOF or generation change, and the coordinator cannot join it without deadlocking on its own pipe reads")
            std::thread::spawn(move || read_responses(shared, generation, stdout));
        }
        Ok(())
    }

    /// Kills the current child and brings up a replacement: re-opens the
    /// registry, resubmits the undone pending requests (same seqs).
    /// Caller holds the state lock.
    fn restart(self: &Arc<Self>, st: &mut WorkerState) -> Result<(), ServeError> {
        if st.failed {
            return Err(ServeError::RestartLimit { worker: self.index });
        }
        st.restarts += 1;
        if let Some(mut child) = st.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        if st.restarts > self.restart_limit {
            st.failed = true;
            st.alive = false;
            self.cv.notify_all();
            return Err(ServeError::RestartLimit { worker: self.index });
        }
        // Internal re-opens of the dead generation are moot.
        st.pending.retain(|_, e| !e.internal);
        self.spawn_child(st, false)?;

        // Replay script: every slot first, then the undone requests in
        // seq order — a resubmitted request must find its slot open.
        let mut burst: Vec<u8> = Vec::new();
        for (slot, path) in st.registry.clone() {
            burst.extend_from_slice(&st.register(Request::Open { slot, path }, true).1);
        }
        let mut undone: Vec<u64> = st
            .pending
            .iter()
            .filter(|(_, e)| !e.internal && e.done.is_none())
            .map(|(&seq, _)| seq)
            .collect();
        undone.sort_unstable();
        for seq in undone {
            if let Some(entry) = st.pending.get(&seq) {
                burst.extend_from_slice(&encode_request(seq, &entry.request));
            }
        }
        // The new pipe is empty and the burst is bounded by the
        // admission window, so this write cannot wedge on a full pipe.
        let mut stdin = self.stdin.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = stdin.as_mut() {
            w.write_all(&burst).map_err(ServeError::Io)?;
        }
        Ok(())
    }
}

/// The reader thread for one worker generation: drains stdout, deposits
/// responses by seq, and flags the generation dead on EOF or corruption.
fn read_responses(shared: Arc<WorkerShared>, generation: u64, stdout: impl Read) {
    let mut frames = FrameReader::new(stdout);
    // EOF and a pipe error end the stream like corruption does.
    'stream: while let Ok(true) = frames.fill() {
        loop {
            let (seq, response) = match frames.next(decode_response) {
                Ok(Some(hit)) => hit,
                Ok(None) => break,
                Err(_) => break 'stream, // corrupt stream: declare dead
            };
            let mut st = lock_state(&shared);
            if st.generation != generation {
                return; // superseded; the new generation has its own reader
            }
            if seq == 0 {
                if matches!(response, Response::Hello { .. }) {
                    st.ready = true;
                }
                // Any other seq-0 message is the worker's teardown
                // diagnostic; EOF follows, which flags the death.
            } else if let Some(entry) = st.pending.get_mut(&seq) {
                if entry.internal {
                    st.pending.remove(&seq);
                } else {
                    entry.done = Some(response);
                }
            }
            shared.cv.notify_all();
            drop(st);
        }
    }
    let mut st = lock_state(&shared);
    if st.generation == generation {
        st.alive = false;
        shared.cv.notify_all();
    }
}

/// The admission window: a counting semaphore capping how many client
/// operations are in flight tier-wide.
struct ClaimWindow {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl ClaimWindow {
    fn new(permits: usize) -> Self {
        ClaimWindow {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Blocks for a permit. The returned guard releases it on drop,
    /// unwinding included, so a panicking caller never strands the
    /// callers blocked behind it.
    fn acquire(&self) -> Permit<'_> {
        let mut n = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *n == 0 {
            n = self.cv.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n -= 1;
        Permit(self)
    }
}

/// One admission permit (see [`ClaimWindow::acquire`]).
struct Permit<'a>(&'a ClaimWindow);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let window = self.0;
        *window
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        window.cv.notify_all();
    }
}

/// The multi-process serving tier; see the [module docs](self).
pub struct Coordinator {
    workers: Vec<Arc<WorkerShared>>,
    admission: ClaimWindow,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Coordinator {
    /// Spawns `config.workers` worker processes from `spec` and waits
    /// for every `Hello` handshake (bounded by the deadline).
    ///
    /// # Errors
    /// [`ServeError::Spawn`] when a process cannot start;
    /// [`ServeError::Io`] when a worker never says hello.
    pub fn spawn(spec: WorkerSpec, config: ServeConfig) -> Result<Coordinator, ServeError> {
        let n = config.workers.max(1);
        let mut workers = Vec::with_capacity(n);
        for index in 0..n {
            let shared = Arc::new(WorkerShared {
                index,
                spec: spec.clone(),
                deadline: config.deadline,
                restart_limit: config.restart_limit,
                state: Mutex::new(WorkerState {
                    next_seq: 1, // seq 0 is the Hello channel
                    ..WorkerState::default()
                }),
                cv: Condvar::new(),
                stdin: Mutex::new(None),
            });
            {
                let mut st = lock_state(&shared);
                shared.spawn_child(&mut st, true)?;
            }
            workers.push(shared);
        }
        let coordinator = Coordinator {
            workers,
            admission: ClaimWindow::new(config.max_in_flight.max(1)),
        };
        for shared in &coordinator.workers {
            let deadline_at = Instant::now() + config.deadline;
            let mut st = lock_state(shared);
            while !st.ready {
                if !st.alive || Instant::now() >= deadline_at {
                    return Err(ServeError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("worker {} never completed its handshake", shared.index),
                    )));
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
        }
        Ok(coordinator)
    }

    /// Number of worker processes.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// How many times worker `index` has been restarted (for tests and
    /// ops dashboards).
    pub fn restarts(&self, index: usize) -> u32 {
        self.workers
            .get(index)
            .map(|w| lock_state(w).restarts)
            .unwrap_or(0)
    }

    fn worker_for(&self, slot: u64) -> &Arc<WorkerShared> {
        &self.workers[(slot % self.workers.len() as u64) as usize]
    }

    /// Registers `(seq, request)` as pending and writes its frame.
    fn submit(&self, shared: &Arc<WorkerShared>, request: Request) -> Result<u64, ServeError> {
        let mut st = lock_state(shared);
        if st.failed {
            return Err(ServeError::RestartLimit {
                worker: shared.index,
            });
        }
        if st.child.is_none() {
            return Err(ServeError::ShutDown);
        }
        if !st.alive {
            shared.restart(&mut st)?;
        }
        let (seq, frame) = st.register(request, false);
        drop(st); // never hold the state lock across a pipe write
        let mut stdin = shared.stdin.lock().unwrap_or_else(PoisonError::into_inner);
        let write = stdin.as_mut().map(|w| w.write_all(&frame));
        drop(stdin);
        if !matches!(write, Some(Ok(()))) {
            // The pipe is gone — the reader thread will flag the death;
            // the await loop restarts and resubmits this very entry.
            let mut st = lock_state(shared);
            st.alive = false;
            shared.cv.notify_all();
        }
        Ok(seq)
    }

    /// Waits for `seq`'s response, restarting the worker on death or
    /// deadline, bounded by the restart budget.
    fn await_seq(&self, shared: &Arc<WorkerShared>, seq: u64) -> Result<Response, ServeError> {
        let mut st = lock_state(shared);
        let mut deadline_at = Instant::now() + shared.deadline;
        loop {
            let Some(entry) = st.pending.get_mut(&seq) else {
                return Err(ServeError::Unexpected {
                    expected: "a pending entry for this seq",
                });
            };
            if let Some(response) = entry.done.take() {
                // A successful Open goes on the restart replay script.
                let opened = match (&entry.request, &response) {
                    (Request::Open { slot, path }, Response::Opened { .. }) => {
                        Some((*slot, path.clone()))
                    }
                    _ => None,
                };
                st.pending.remove(&seq);
                if let Some((slot, path)) = opened {
                    st.registry.insert(slot, path);
                }
                if let Response::Error { code, message } = response {
                    return Err(ServeError::Worker { code, message });
                }
                return Ok(response);
            }
            if st.failed {
                st.pending.remove(&seq);
                return Err(ServeError::RestartLimit {
                    worker: shared.index,
                });
            }
            if !st.alive || Instant::now() >= deadline_at {
                // Dead (crash) or wedged (deadline): replace and replay.
                if let Err(e) = shared.restart(&mut st) {
                    st.pending.remove(&seq);
                    return Err(e);
                }
                deadline_at = Instant::now() + shared.deadline;
                continue;
            }
            let wait = deadline_at.saturating_duration_since(Instant::now());
            let (guard, _) = shared
                .cv
                .wait_timeout(st, wait.min(Duration::from_millis(100)))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn call(&self, slot: u64, request: Request) -> Result<Response, ServeError> {
        let _permit = self.admission.acquire();
        let shared = self.worker_for(slot);
        let seq = self.submit(shared, request)?;
        self.await_seq(shared, seq)
    }

    /// Opens the base snapshot (+ journal) at `path` into `slot` on the
    /// slot's worker; returns the anchor count after replay.
    ///
    /// # Errors
    /// [`ServeError::Worker`] with [`super::protocol::ErrorCode::Open`]
    /// when the worker cannot open the files; transport errors as
    /// elsewhere.
    pub fn open(&self, slot: u64, path: impl Into<String>) -> Result<u64, ServeError> {
        match self.call(
            slot,
            Request::Open {
                slot,
                path: path.into(),
            },
        )? {
            Response::Opened { n_anchors, .. } => Ok(n_anchors),
            _ => Err(ServeError::Unexpected { expected: "Opened" }),
        }
    }

    /// Applies confirmed anchors to `slot`, write-ahead journaled on the
    /// worker; returns `(applied, n_anchors)`.
    ///
    /// # Errors
    /// As for [`Coordinator::open`], with update/journal error codes.
    pub fn update_anchors(
        &self,
        slot: u64,
        edges: Vec<AnchorEdge>,
    ) -> Result<(u64, u64), ServeError> {
        updated(self.call(slot, Request::UpdateAnchors { slot, edges })?)
    }

    /// Applies many update batches: submits every job back to back, then
    /// awaits them, instead of one round-trip per job. Results come back
    /// **in job order**. The whole batch counts as one admission unit.
    pub fn update_many(
        &self,
        jobs: Vec<(u64, Vec<AnchorEdge>)>,
    ) -> Vec<Result<(u64, u64), ServeError>> {
        let _permit = self.admission.acquire();
        let mut seqs: Vec<Result<(usize, u64), ServeError>> = Vec::with_capacity(jobs.len());
        for (slot, edges) in jobs {
            let shared = self.worker_for(slot);
            let worker_index = shared.index;
            seqs.push(
                self.submit(shared, Request::UpdateAnchors { slot, edges })
                    .map(|seq| (worker_index, seq)),
            );
        }
        seqs.into_iter()
            .map(|submitted| {
                let (worker_index, seq) = submitted?;
                updated(self.await_seq(&self.workers[worker_index], seq)?)
            })
            .collect()
    }

    /// Scores candidate pairs against `slot`'s counts, one score per
    /// pair in order.
    ///
    /// # Errors
    /// As for [`Coordinator::open`].
    pub fn query(&self, slot: u64, pairs: Vec<(u32, u32)>) -> Result<Vec<f64>, ServeError> {
        match self.call(slot, Request::Query { slot, pairs })? {
            Response::Scores(scores) => Ok(scores),
            _ => Err(ServeError::Unexpected { expected: "Scores" }),
        }
    }

    /// Top-`k` alignment candidates for `left` in `slot`, best first.
    ///
    /// # Errors
    /// As for [`Coordinator::open`].
    pub fn align(&self, slot: u64, left: u32, k: u32) -> Result<Vec<(u32, f64)>, ServeError> {
        match self.call(slot, Request::Align { slot, left, k })? {
            Response::Aligned(hits) => Ok(hits),
            _ => Err(ServeError::Unexpected {
                expected: "Aligned",
            }),
        }
    }

    /// Fsyncs `slot`'s journal on its worker (the durability point);
    /// returns the anchor count the checkpoint recorded.
    ///
    /// # Errors
    /// As for [`Coordinator::open`].
    pub fn checkpoint(&self, slot: u64) -> Result<u64, ServeError> {
        match self.call(slot, Request::Checkpoint { slot })? {
            Response::Checkpointed { n_anchors } => Ok(n_anchors),
            _ => Err(ServeError::Unexpected {
                expected: "Checkpointed",
            }),
        }
    }

    /// Shuts every worker down cleanly: `Shutdown` request, wait for the
    /// ack (restart machinery disabled — a worker that dies mid-shutdown
    /// is simply reaped), then reap the process.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        let mut first_err: Option<ServeError> = None;
        for shared in &self.workers {
            let result = self.shutdown_worker(shared);
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn shutdown_worker(&self, shared: &Arc<WorkerShared>) -> Result<(), ServeError> {
        let mut st = lock_state(shared);
        let Some(mut child) = st.child.take() else {
            return Ok(()); // already down
        };
        let (seq, frame) = st.register(Request::Shutdown, false);
        drop(st);
        {
            let mut stdin = shared.stdin.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(w) = stdin.as_mut() {
                w.write_all(&frame).ok();
            }
            // Dropping stdin closes the pipe — the belt-and-braces exit
            // signal for a worker that missed the frame.
            *stdin = None;
        }
        let deadline_at = Instant::now() + shared.deadline;
        let mut st = lock_state(shared);
        let acked = loop {
            if let Some(entry) = st.pending.get(&seq) {
                if entry.done.is_some() {
                    st.pending.remove(&seq);
                    break true;
                }
            } else {
                break false;
            }
            if !st.alive || Instant::now() >= deadline_at {
                st.pending.remove(&seq);
                break false;
            }
            let (guard, _) = shared
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        };
        st.alive = false;
        drop(st);
        if !acked {
            child.kill().ok();
        }
        child.wait().map_err(ServeError::Io)?;
        Ok(())
    }
}

/// The `(applied, n_anchors)` of an [`Request::UpdateAnchors`] answer.
fn updated(response: Response) -> Result<(u64, u64), ServeError> {
    match response {
        Response::Updated {
            applied, n_anchors, ..
        } => Ok((applied, n_anchors)),
        _ => Err(ServeError::Unexpected {
            expected: "Updated",
        }),
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        for shared in &self.workers {
            let mut st = lock_state(shared);
            if let Some(mut child) = st.child.take() {
                child.kill().ok();
                child.wait().ok();
            }
        }
    }
}
