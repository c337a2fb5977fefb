//! The serving worker: one process, one [`SessionPool`], a frame loop
//! over stdin/stdout.
//!
//! A worker is deliberately dumb: it decodes frames off stdin in arrival
//! order, serves each request against its pool, and writes one response
//! frame per request — batched per read so a burst of pipelined requests
//! costs one flush, not one per message. All recovery intelligence lives
//! in the coordinator; the worker's only contract is the **write-ahead
//! journal**: every update is journaled before it is applied, so
//! whatever the worker was doing when it died, the base+journal pair on
//! disk replays to a state the coordinator can hand to a replacement
//! process ([`Request::Checkpoint`] is the fsync point, exactly as in
//! [`crate::journal`]).
//!
//! Each wire slot maps to one pool slot and the base path it was opened
//! from; [`Request::Checkpoint`] is [`SessionPool::save`] to that path.
//! Journals are bounded by **background compaction**: the pool evaluates
//! the worker's [`CompactionPolicy`] (`SERVE_COMPACT`, default 1 MiB of
//! journal bytes) after every journaled write. The new base file is
//! written off-thread, but encoding the counted core and the fold
//! marker's CRC and fsync run inline in the request loop, under the slot
//! lock, so the request that trips the policy waits for them.
//!
//! ## Fault injection (`SERVE_FAULT`)
//!
//! The restart-and-replay path needs deterministic crashes to test
//! against, so a worker arms itself from the `SERVE_FAULT` environment
//! variable (the coordinator strips it when respawning, so an injected
//! fault fires at most once per worker slot):
//!
//! * `exit:<n>` — exit before serving request index `n` (a crash that
//!   loses the request entirely);
//! * `exit-after:<n>` — serve request `n` (journal append included),
//!   then exit **without flushing responses** (the applied-but-unacked
//!   window: the journal has the update, the client has no answer —
//!   resubmission must be idempotent);
//! * `stall:<n>` — hang forever at request `n` (the deadline path: the
//!   coordinator must kill and replace, not wait).

use super::protocol::{decode_request, encode_response, ErrorCode, FrameReader, Request, Response};
use crate::journal::CompactionPolicy;
use crate::pool::{PoolError, SessionId, SessionPool};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::PathBuf;

/// A deterministic crash point parsed from `SERVE_FAULT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Exit before serving request index `.0`.
    Exit(u64),
    /// Serve request index `.0`, then exit without flushing.
    ExitAfter(u64),
    /// Stall forever at request index `.0`.
    Stall(u64),
}

impl Fault {
    /// Parses a `SERVE_FAULT` value (`exit:<n>` / `exit-after:<n>` /
    /// `stall:<n>`); `None` for anything unparseable — a misspelled
    /// fault must not crash production workers.
    pub fn parse(spec: &str) -> Option<Fault> {
        let (kind, n) = spec.split_once(':')?;
        let n = n.trim().parse().ok()?;
        match kind.trim() {
            "exit" => Some(Fault::Exit(n)),
            "exit-after" => Some(Fault::ExitAfter(n)),
            "stall" => Some(Fault::Stall(n)),
            _ => None,
        }
    }
}

/// Parses a `SERVE_COMPACT` value (`never` / `everyn:<n>` /
/// `bytes:<n>`); `None` for anything unparseable.
fn parse_compaction(spec: &str) -> Option<CompactionPolicy> {
    if spec.trim() == "never" {
        return Some(CompactionPolicy::Never);
    }
    let (kind, n) = spec.split_once(':')?;
    match kind.trim() {
        "everyn" => Some(CompactionPolicy::EveryN(n.trim().parse().ok()?)),
        "bytes" => Some(CompactionPolicy::Bytes(n.trim().parse().ok()?)),
        _ => None,
    }
}

/// The process exit code an injected fault exits with — distinguishable
/// from a clean shutdown (0) and a protocol teardown (2) in test output.
pub const FAULT_EXIT_CODE: i32 = 17;

/// Serves frames from stdin to stdout until `Shutdown`, stdin EOF, or a
/// corrupt stream; returns the process exit code. This is the entire
/// worker binary — `serve_worker` is a two-line wrapper around it.
pub fn worker_main() -> i32 {
    let fault = std::env::var("SERVE_FAULT")
        .ok()
        .and_then(|s| Fault::parse(&s));
    let compaction = std::env::var("SERVE_COMPACT")
        .ok()
        .and_then(|s| parse_compaction(&s))
        .unwrap_or(CompactionPolicy::Bytes(1 << 20));
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_worker(stdin.lock(), stdout.lock(), fault, compaction)
}

/// The worker loop over arbitrary byte streams — the process-free seam
/// the protocol tests drive directly.
pub fn run_worker(
    input: impl Read,
    mut output: impl Write,
    fault: Option<Fault>,
    compaction: CompactionPolicy,
) -> i32 {
    let mut pool = SessionPool::new();
    pool.set_compaction(compaction);
    let mut slots: HashMap<u64, (SessionId, PathBuf)> = HashMap::new();

    // Readiness handshake: seq 0 is reserved for this one unsolicited
    // frame.
    let hello = encode_response(
        0,
        &Response::Hello {
            pid: std::process::id() as u64,
        },
    );
    if output
        .write_all(&hello)
        .and_then(|()| output.flush())
        .is_err()
    {
        return 2;
    }

    let mut frames = FrameReader::new(input);
    let mut served: u64 = 0;
    loop {
        match frames.fill() {
            Ok(true) => {}
            Ok(false) => return 0, // coordinator closed the pipe: clean exit
            Err(_) => return 2,
        }

        // Serve every complete frame in the buffer, then flush once —
        // pipelined bursts are batched on both sides of the pipe.
        let mut out: Vec<u8> = Vec::new();
        loop {
            let (seq, request) = match frames.next(decode_request) {
                Ok(Some(decoded)) => decoded,
                Ok(None) => break,
                Err(e) => {
                    // A corrupt stream cannot be resynchronized: report
                    // once (seq 0 — the frame's own seq is unknowable)
                    // and tear down.
                    let teardown = format!("protocol stream corrupt: {e}");
                    let teardown = error_response(ErrorCode::BadRequest, &teardown);
                    out.extend_from_slice(&encode_response(0, &teardown));
                    let _ = output.write_all(&out);
                    let _ = output.flush();
                    return 2;
                }
            };

            match fault {
                Some(Fault::Exit(at)) if served == at => return FAULT_EXIT_CODE,
                Some(Fault::Stall(at)) if served == at => loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                },
                _ => {}
            }

            let shutdown = matches!(request, Request::Shutdown);
            let response =
                serve_request(&mut pool, &mut slots, request).unwrap_or_else(|error| error);
            out.extend_from_slice(&encode_response(seq, &response));

            if let Some(Fault::ExitAfter(at)) = fault {
                if served == at {
                    // The update (if any) is journaled; the response is
                    // not flushed — the applied-but-unacked crash.
                    return FAULT_EXIT_CODE;
                }
            }
            served += 1;

            if shutdown {
                let _ = output.write_all(&out);
                let _ = output.flush();
                return 0;
            }
        }
        if !out.is_empty() && (output.write_all(&out).is_err() || output.flush().is_err()) {
            return 2; // coordinator is gone
        }
    }
}

/// Serves one decoded request against the worker's pool; `Err` carries
/// the error response.
fn serve_request(
    pool: &mut SessionPool,
    slots: &mut HashMap<u64, (SessionId, PathBuf)>,
    request: Request,
) -> Result<Response, Response> {
    let internal = |e: PoolError| error_response(ErrorCode::Internal, &e);
    Ok(match request {
        // A second open would leak the first session and its journal
        // handle; the slot keeps serving the session it already has.
        Request::Open { slot, .. } if slots.contains_key(&slot) => {
            return Err(error_response(ErrorCode::Open, &"slot already open"))
        }
        Request::Open { slot, path } => {
            let id = pool
                .open(&path)
                .map_err(|e| error_response(ErrorCode::Open, &e))?;
            slots.insert(slot, (id, PathBuf::from(path)));
            Response::Opened {
                slot,
                n_anchors: pool.n_anchors(id).map_err(internal)? as u64,
            }
        }
        Request::UpdateAnchors { slot, edges } => {
            let &(id, _) = open_slot(slots, slot)?;
            let applied = pool.update_anchors(id, &edges).map_err(|e| match e {
                PoolError::Session(_) => error_response(ErrorCode::Update, &e),
                PoolError::Journal(_) => error_response(ErrorCode::Journal, &e),
                _ => internal(e),
            })?;
            Response::Updated {
                slot,
                applied: applied as u64,
                n_anchors: pool.n_anchors(id).map_err(internal)? as u64,
            }
        }
        Request::Query { slot, pairs } => {
            let scores = pool.with_counted(open_slot(slots, slot)?.0, |s| {
                let (rows, cols) = s.anchor().shape();
                pairs
                    .iter()
                    .map(|&(l, r)| {
                        let (l, r) = (l as usize, r as usize);
                        if l >= rows || r >= cols {
                            return 0.0;
                        }
                        (0..s.catalog().len())
                            .map(|i| s.count_of(i).get(l, r))
                            .sum()
                    })
                    .collect::<Vec<f64>>()
            });
            Response::Scores(scores.map_err(internal)?)
        }
        Request::Align { slot, left, k } => {
            let hits = pool.with_counted(open_slot(slots, slot)?.0, |s| {
                let (rows, cols) = s.anchor().shape();
                if (left as usize) >= rows {
                    return None;
                }
                let mut hits: Vec<(u32, f64)> = (0..cols)
                    .filter_map(|r| {
                        let score: f64 = (0..s.catalog().len())
                            .map(|i| s.count_of(i).get(left as usize, r))
                            .sum();
                        (score > 0.0).then_some((r as u32, score))
                    })
                    .collect();
                // Deterministic order: score descending (total order, so
                // NaN cannot scramble it), right-index ascending on ties.
                hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                hits.truncate(k as usize);
                Some(hits)
            });
            Response::Aligned(hits.map_err(internal)?.ok_or_else(|| {
                let message = format!("left user {left} is out of range for slot {slot}");
                error_response(ErrorCode::BadRequest, &message)
            })?)
        }
        Request::Checkpoint { slot } => {
            let &(id, ref path) = open_slot(slots, slot)?;
            pool.save(id, path)
                .map_err(|e| error_response(ErrorCode::Journal, &e))?;
            Response::Checkpointed {
                n_anchors: pool.n_anchors(id).map_err(internal)? as u64,
            }
        }
        Request::Shutdown => {
            // Let in-flight folds land before acknowledging: the
            // coordinator may hand these files to a replacement worker
            // the moment the ack arrives.
            for (id, e) in pool.flush_compactions() {
                eprintln!("serve-worker: background fold failed on {id}: {e}");
            }
            Response::ShuttingDown
        }
    })
}

/// The pool session behind wire slot `slot`, and its base path.
fn open_slot(
    slots: &HashMap<u64, (SessionId, PathBuf)>,
    slot: u64,
) -> Result<&(SessionId, PathBuf), Response> {
    slots.get(&slot).ok_or_else(|| Response::Error {
        code: ErrorCode::UnknownSlot,
        message: format!("slot {slot} was never opened on this worker"),
    })
}

fn error_response(code: ErrorCode, e: &dyn std::fmt::Display) -> Response {
    Response::Error {
        code,
        message: e.to_string(),
    }
}
