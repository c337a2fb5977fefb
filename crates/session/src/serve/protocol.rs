//! The serving tier's wire protocol: length-prefixed, CRC-framed
//! request/response messages over a byte stream.
//!
//! ## Frame layout
//!
//! ```text
//! frame    len u32 | crc u32(payload) | payload
//! payload  seq u64 | kind u8 | body
//! ```
//!
//! Frames, anchor-pair lists and the end-of-message check come from the
//! crate's one record codec, which the ΔA journal (`session::journal`)
//! shares. A reader over a pipe sees arbitrary prefixes of the stream;
//! the length prefix + payload CRC split every anomaly into exactly two
//! cases — **incomplete** (wait for more bytes; never an error) and
//! **corrupt** (refuse with a typed [`ProtocolError`]; never a panic,
//! never a guess). [`decode_frame`] is that split: `Ok(None)` means wait,
//! `Err` means the stream is unrecoverable.
//!
//! `len` is bounded by [`MAX_FRAME_LEN`] *before* any allocation, and
//! every variable-length body field decodes through the vendored
//! reader's `seq_len` guard — a hostile or bit-rotted length prefix is
//! refused while it is still just an integer.
//!
//! The `seq` is a per-connection correlation id chosen by the requester;
//! responses echo it verbatim, which is what lets the coordinator keep
//! many requests in flight per worker and resubmit the undone ones —
//! same seq — after a restart. Seq `0` is reserved for the worker's
//! unsolicited [`Response::Hello`] handshake.

use crate::record::{self, Split};
use crate::AnchorEdge;
use serde::bin::{Error as BinError, Reader, Writer};
use std::fmt;
use std::io::Read;

pub use crate::record::FRAME_OVERHEAD;

/// Hard upper bound on a frame's payload length (64 MiB). A `len` above
/// this is refused before any buffering — the guard that keeps a corrupt
/// or hostile length prefix from ballooning the reader's buffer.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

const REQ_OPEN: u8 = 1;
const REQ_UPDATE: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_ALIGN: u8 = 4;
const REQ_CHECKPOINT: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;

const RESP_OPENED: u8 = 1;
const RESP_UPDATED: u8 = 2;
const RESP_SCORES: u8 = 3;
const RESP_ALIGNED: u8 = 4;
const RESP_CHECKPOINTED: u8 = 5;
const RESP_SHUTTING_DOWN: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_HELLO: u8 = 8;

/// A malformed or corrupt frame — the stream cannot be trusted past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame's declared payload length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        declared: u32,
    },
    /// The payload failed its CRC — bit damage between the peers.
    Checksum {
        /// CRC the frame header promised.
        expected: u32,
        /// CRC the payload actually has.
        found: u32,
    },
    /// The payload decoded structurally wrong (truncated field, bad
    /// length prefix, trailing bytes) despite a matching CRC.
    Decode(BinError),
    /// The payload's kind byte names no known message.
    UnknownKind(u8),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLarge { declared } => write!(
                f,
                "frame declares a {declared}-byte payload (max {MAX_FRAME_LEN})"
            ),
            ProtocolError::Checksum { expected, found } => write!(
                f,
                "frame payload checksum mismatch (expected {expected:#010x}, found {found:#010x})"
            ),
            ProtocolError::Decode(e) => write!(f, "frame payload: {e}"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BinError> for ProtocolError {
    fn from(e: BinError) -> Self {
        ProtocolError::Decode(e)
    }
}

/// One client request to a serving worker. Slots are coordinator-chosen
/// dense ids; the worker maps them to its pool sessions.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the base snapshot (+ journal) at `path` into slot `slot`.
    Open {
        /// Coordinator-assigned slot id.
        slot: u64,
        /// Path of the base snapshot on the worker's filesystem.
        path: String,
    },
    /// Apply confirmed anchors to a slot, write-ahead through its
    /// journal.
    UpdateAnchors {
        /// Target slot.
        slot: u64,
        /// The confirmed anchor batch.
        edges: Vec<AnchorEdge>,
    },
    /// Score a batch of candidate pairs against a slot's counts.
    Query {
        /// Target slot.
        slot: u64,
        /// `(left, right)` user pairs to score.
        pairs: Vec<(u32, u32)>,
    },
    /// Top-`k` alignment candidates for one left user.
    Align {
        /// Target slot.
        slot: u64,
        /// The left-network user to align.
        left: u32,
        /// How many candidates to return.
        k: u32,
    },
    /// Fsync the slot's journal (the durability point).
    Checkpoint {
        /// Target slot.
        slot: u64,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

/// Typed failure codes a worker reports inside [`Response::Error`] —
/// coarse enough to be stable across versions, fine enough for the
/// coordinator to distinguish "your request is wrong" from "the worker
/// is hurt".
/// The discriminant is the code's wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request names a slot the worker never opened.
    UnknownSlot = 1,
    /// Opening the snapshot/journal failed.
    Open = 2,
    /// The update batch was rejected (validation) — nothing was applied
    /// or journaled.
    Update = 3,
    /// A journal operation (checkpoint, fold) failed.
    Journal = 4,
    /// The request itself is invalid: a frame that does not decode (sent
    /// once before the worker tears down), or an `Align` whose left user
    /// is outside the slot's population. `Align` with `k = 0` is valid
    /// and answers `Aligned([])`.
    BadRequest = 5,
    /// Anything else — the worker is in trouble.
    Internal = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        use ErrorCode::*;
        [UnknownSlot, Open, Update, Journal, BadRequest, Internal]
            .into_iter()
            .find(|&code| code as u8 == v)
            .ok_or_else(|| BinError::Malformed(format!("unknown error code {v}")).into())
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnknownSlot => "unknown-slot",
            ErrorCode::Open => "open",
            ErrorCode::Update => "update",
            ErrorCode::Journal => "journal",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// One worker response. Every request gets exactly one, echoing its seq;
/// [`Response::Hello`] is the one unsolicited message (seq 0, sent once
/// at startup as the readiness handshake).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// [`Request::Open`] succeeded.
    Opened {
        /// The slot that was opened.
        slot: u64,
        /// Anchor count after journal replay.
        n_anchors: u64,
    },
    /// [`Request::UpdateAnchors`] succeeded.
    Updated {
        /// The slot that was updated.
        slot: u64,
        /// Genuinely new anchors merged by this batch.
        applied: u64,
        /// Anchor count after the batch.
        n_anchors: u64,
    },
    /// [`Request::Query`] scores, one per requested pair, in order.
    Scores(Vec<f64>),
    /// [`Request::Align`] candidates: `(right_user, score)`, best first.
    Aligned(Vec<(u32, f64)>),
    /// [`Request::Checkpoint`] fsynced the journal.
    Checkpointed {
        /// Anchor count recorded in the checkpoint.
        n_anchors: u64,
    },
    /// [`Request::Shutdown`] acknowledged; the worker exits after
    /// flushing this.
    ShuttingDown,
    /// The request failed; the worker keeps serving.
    Error {
        /// Coarse failure class.
        code: ErrorCode,
        /// Human-readable detail (never parsed).
        message: String,
    },
    /// Startup handshake: the worker is ready (seq 0).
    Hello {
        /// The worker's OS process id, for diagnostics.
        pid: u64,
    },
}

/// Encodes `(seq, request)` as one complete frame, ready to write.
pub fn encode_request(seq: u64, request: &Request) -> Vec<u8> {
    record::frame(|p| {
        p.u64(seq);
        match request {
            Request::Open { slot, path } => {
                p.u8(REQ_OPEN);
                p.u64(*slot);
                write_str(p, path);
            }
            Request::UpdateAnchors { slot, edges } => {
                p.u8(REQ_UPDATE);
                p.u64(*slot);
                record::write_pairs(p, edges);
            }
            Request::Query { slot, pairs } => {
                p.u8(REQ_QUERY);
                p.u64(*slot);
                record::write_pairs(p, pairs);
            }
            Request::Align { slot, left, k } => {
                p.u8(REQ_ALIGN);
                p.u64(*slot);
                p.u32(*left);
                p.u32(*k);
            }
            Request::Checkpoint { slot } => {
                p.u8(REQ_CHECKPOINT);
                p.u64(*slot);
            }
            Request::Shutdown => {
                p.u8(REQ_SHUTDOWN);
            }
        }
    })
}

/// Encodes `(seq, response)` as one complete frame, ready to write.
pub fn encode_response(seq: u64, response: &Response) -> Vec<u8> {
    record::frame(|p| {
        p.u64(seq);
        match response {
            Response::Opened { slot, n_anchors } => {
                p.u8(RESP_OPENED);
                p.u64(*slot);
                p.u64(*n_anchors);
            }
            Response::Updated {
                slot,
                applied,
                n_anchors,
            } => {
                p.u8(RESP_UPDATED);
                p.u64(*slot);
                p.u64(*applied);
                p.u64(*n_anchors);
            }
            Response::Scores(scores) => {
                p.u8(RESP_SCORES);
                p.usize(scores.len());
                for s in scores {
                    p.f64(*s);
                }
            }
            Response::Aligned(hits) => {
                p.u8(RESP_ALIGNED);
                p.usize(hits.len());
                for (right, score) in hits {
                    p.u32(*right);
                    p.f64(*score);
                }
            }
            Response::Checkpointed { n_anchors } => {
                p.u8(RESP_CHECKPOINTED);
                p.u64(*n_anchors);
            }
            Response::ShuttingDown => {
                p.u8(RESP_SHUTTING_DOWN);
            }
            Response::Error { code, message } => {
                p.u8(RESP_ERROR);
                p.u8(*code as u8);
                write_str(p, message);
            }
            Response::Hello { pid } => {
                p.u8(RESP_HELLO);
                p.u64(*pid);
            }
        }
    })
}

/// A string field: `n u64 | n UTF-8 bytes`.
fn write_str(p: &mut Writer, s: &str) {
    p.usize(s.len());
    p.bytes(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>, what: &str) -> Result<String, ProtocolError> {
    let n = r.seq_len(1)?;
    String::from_utf8(r.bytes(n)?.to_vec())
        .map_err(|_| ProtocolError::Decode(BinError::Malformed(format!("{what} is not UTF-8"))))
}

/// Tries to split one frame off the front of `buf`.
///
/// * `Ok(None)` — `buf` holds an incomplete frame; read more bytes and
///   try again (a torn frame is *never* an error: pipes deliver
///   arbitrary prefixes).
/// * `Ok(Some((payload, consumed)))` — one intact, CRC-verified payload;
///   drop `consumed` bytes from the front of `buf` before the next call.
///
/// # Errors
/// [`ProtocolError::FrameTooLarge`] before any buffering when the length
/// prefix exceeds [`MAX_FRAME_LEN`]; [`ProtocolError::Checksum`] when a
/// complete payload fails its CRC. Both mean the stream is corrupt — the
/// connection must be torn down, not resynchronized.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtocolError> {
    match record::split_frame(buf, MAX_FRAME_LEN) {
        Split::Incomplete => Ok(None),
        Split::TooLarge(declared) => Err(ProtocolError::FrameTooLarge { declared }),
        Split::Corrupt {
            expected, found, ..
        } => Err(ProtocolError::Checksum { expected, found }),
        Split::Intact { payload, end } => Ok(Some((payload, end))),
    }
}

/// The read side of a frame stream (a worker's stdin, a coordinator's
/// view of a worker's stdout): buffers chunks off `input` and splits
/// complete frames under the [`decode_frame`] policy.
pub(crate) struct FrameReader<R> {
    input: R,
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already returned as frames.
    consumed: usize,
    chunk: Box<[u8]>,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(input: R) -> Self {
        FrameReader {
            input,
            buf: Vec::new(),
            consumed: 0,
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        }
    }

    /// Drops the frames already returned, then blocks for the next chunk
    /// of input; `Ok(false)` at end of stream.
    pub(crate) fn fill(&mut self) -> std::io::Result<bool> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let n = loop {
            match self.input.read(&mut self.chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(n > 0)
    }

    /// Decodes the next complete buffered frame's payload with `decode`;
    /// `Ok(None)` when no complete frame is buffered (call
    /// [`FrameReader::fill`]).
    ///
    /// # Errors
    /// As [`decode_frame`] and `decode`: the stream is corrupt.
    pub(crate) fn next<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, ProtocolError>,
    ) -> Result<Option<T>, ProtocolError> {
        let Some((payload, len)) = decode_frame(&self.buf[self.consumed..])? else {
            return Ok(None);
        };
        let decoded = decode(payload)?;
        self.consumed += len;
        Ok(Some(decoded))
    }
}

/// Decodes a frame payload (from [`decode_frame`]) as `(seq, request)`.
///
/// # Errors
/// [`ProtocolError::Decode`] / [`ProtocolError::UnknownKind`] on
/// structural damage — every sequence length is `seq_len`-guarded before
/// its preallocation.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtocolError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let request = match r.u8()? {
        REQ_OPEN => Request::Open {
            slot: r.u64()?,
            path: read_str(&mut r, "open path")?,
        },
        REQ_UPDATE => Request::UpdateAnchors {
            slot: r.u64()?,
            edges: record::read_pairs(&mut r)?,
        },
        REQ_QUERY => Request::Query {
            slot: r.u64()?,
            pairs: record::read_pairs(&mut r)?,
        },
        REQ_ALIGN => Request::Align {
            slot: r.u64()?,
            left: r.u32()?,
            k: r.u32()?,
        },
        REQ_CHECKPOINT => Request::Checkpoint { slot: r.u64()? },
        REQ_SHUTDOWN => Request::Shutdown,
        kind => return Err(ProtocolError::UnknownKind(kind)),
    };
    record::expect_end(&r, "a protocol message")?;
    Ok((seq, request))
}

/// Decodes a frame payload (from [`decode_frame`]) as `(seq, response)`.
///
/// # Errors
/// As for [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let response = match r.u8()? {
        RESP_OPENED => Response::Opened {
            slot: r.u64()?,
            n_anchors: r.u64()?,
        },
        RESP_UPDATED => Response::Updated {
            slot: r.u64()?,
            applied: r.u64()?,
            n_anchors: r.u64()?,
        },
        RESP_SCORES => {
            let n = r.seq_len(8)?;
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                scores.push(r.f64()?);
            }
            Response::Scores(scores)
        }
        RESP_ALIGNED => {
            let n = r.seq_len(12)?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                hits.push((r.u32()?, r.f64()?));
            }
            Response::Aligned(hits)
        }
        RESP_CHECKPOINTED => Response::Checkpointed {
            n_anchors: r.u64()?,
        },
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_ERROR => Response::Error {
            code: ErrorCode::from_u8(r.u8()?)?,
            message: read_str(&mut r, "error message")?,
        },
        RESP_HELLO => Response::Hello { pid: r.u64()? },
        kind => return Err(ProtocolError::UnknownKind(kind)),
    };
    record::expect_end(&r, "a protocol message")?;
    Ok((seq, response))
}
