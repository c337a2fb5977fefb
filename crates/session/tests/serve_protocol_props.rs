//! Serving-protocol frame codec properties.
//!
//! The contract under test (ISSUE 10 satellite): every request/response
//! variant round-trips through its frame bit-exactly; a torn frame —
//! any strict prefix of a valid stream — means *wait*, never a panic,
//! never an error, never an allocation sized by garbage; and any single
//! flipped bit anywhere in a frame is refused (or leaves the decoder
//! waiting), never silently accepted. The same seam the coordinator and
//! worker use is also driven end-to-end in-process here: `run_worker`
//! over plain `Read`/`Write` buffers, no child process needed.

use hetnet::UserId;
use proptest::prelude::*;
use session::serve::protocol::{
    decode_frame, decode_request, decode_response, encode_request, encode_response, ErrorCode,
    ProtocolError, Request, Response, MAX_FRAME_LEN,
};
use session::serve::worker::{run_worker, Fault, FAULT_EXIT_CODE};
use session::{snapshot, AnchorEdge, Journal, SessionBuilder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("serve-proto-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn edge(l: u32, r: u32) -> AnchorEdge {
    AnchorEdge {
        left: UserId(l),
        right: UserId(r),
    }
}

/// One of every request variant, with non-trivial bodies.
fn request_menu() -> Vec<Request> {
    vec![
        Request::Open {
            slot: 7,
            path: "/tmp/some where/with spaces/base.snap".into(),
        },
        Request::Open {
            slot: 0,
            path: String::new(),
        },
        Request::UpdateAnchors {
            slot: u64::MAX,
            edges: vec![edge(0, 0), edge(u32::MAX, 3), edge(9, u32::MAX)],
        },
        Request::UpdateAnchors {
            slot: 1,
            edges: vec![],
        },
        Request::Query {
            slot: 3,
            pairs: vec![(0, 1), (u32::MAX, u32::MAX), (5, 0)],
        },
        Request::Align {
            slot: 2,
            left: 11,
            k: 4,
        },
        Request::Checkpoint { slot: 42 },
        Request::Shutdown,
    ]
}

/// One of every response variant, including NaN/negative-zero floats —
/// round-tripping must be bit-exact, not just `==`-exact.
fn response_menu() -> Vec<Response> {
    vec![
        Response::Opened {
            slot: 7,
            n_anchors: 19,
        },
        Response::Updated {
            slot: 7,
            applied: 0,
            n_anchors: u64::MAX,
        },
        Response::Scores(vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY]),
        Response::Scores(vec![]),
        Response::Aligned(vec![(3, 0.25), (0, -0.0), (u32::MAX, f64::MIN_POSITIVE)]),
        Response::Checkpointed { n_anchors: 4 },
        Response::ShuttingDown,
        Response::Error {
            code: ErrorCode::UnknownSlot,
            message: "slot 9 was never opened — tea ☕ included".into(),
        },
        Response::Error {
            code: ErrorCode::Internal,
            message: String::new(),
        },
        Response::Hello { pid: 12345 },
    ]
}

fn bits_of(r: &Response) -> Vec<u64> {
    match r {
        Response::Scores(s) => s.iter().map(|v| v.to_bits()).collect(),
        Response::Aligned(h) => h.iter().map(|(_, v)| v.to_bits()).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn every_request_variant_round_trips() {
    for (i, request) in request_menu().into_iter().enumerate() {
        let seq = 1 + i as u64 * 17;
        let frame = encode_request(seq, &request);
        let (payload, consumed) = decode_frame(&frame).unwrap().expect("complete frame");
        assert_eq!(consumed, frame.len(), "one frame, fully consumed");
        let (got_seq, got) = decode_request(payload).unwrap();
        assert_eq!(got_seq, seq);
        assert_eq!(got, request);
    }
}

#[test]
fn every_response_variant_round_trips_bit_exactly() {
    for (i, response) in response_menu().into_iter().enumerate() {
        let seq = i as u64;
        let frame = encode_response(seq, &response);
        let (payload, consumed) = decode_frame(&frame).unwrap().expect("complete frame");
        assert_eq!(consumed, frame.len());
        let (got_seq, got) = decode_response(payload).unwrap();
        assert_eq!(got_seq, seq);
        // NaN != NaN, so compare float payloads by bits and the rest by Eq.
        assert_eq!(bits_of(&got), bits_of(&response), "float bits must survive");
        match (&got, &response) {
            (Response::Scores(_), Response::Scores(_)) => {}
            (Response::Aligned(a), Response::Aligned(b)) => {
                let rights: Vec<u32> = a.iter().map(|&(r, _)| r).collect();
                let expect: Vec<u32> = b.iter().map(|&(r, _)| r).collect();
                assert_eq!(rights, expect);
            }
            _ => assert_eq!(got, response),
        }
    }
}

/// Every strict prefix of every frame is "wait", never an error or a
/// panic — a pipe may deliver any byte split it likes.
#[test]
fn torn_frames_wait_per_byte() {
    for request in request_menu() {
        let frame = encode_request(5, &request);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Ok(None) => {}
                other => panic!(
                    "prefix of {cut}/{} bytes must wait, got {other:?}",
                    frame.len()
                ),
            }
        }
    }
    for response in response_menu() {
        let frame = encode_response(5, &response);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Ok(None) => {}
                other => panic!(
                    "prefix of {cut}/{} bytes must wait, got {other:?}",
                    frame.len()
                ),
            }
        }
    }
}

/// A frame declaring an absurd payload length is refused while it is
/// still just an integer — before any buffering or allocation.
#[test]
fn hostile_length_prefix_is_refused_before_allocation() {
    for declared in [MAX_FRAME_LEN + 1, u32::MAX, 1 << 30] {
        let mut buf = declared.to_le_bytes().to_vec();
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_frame(&buf),
            Err(ProtocolError::FrameTooLarge { declared }),
            "declared={declared}"
        );
    }
    // At exactly the cap the decoder waits for the payload instead.
    let mut buf = MAX_FRAME_LEN.to_le_bytes().to_vec();
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(decode_frame(&buf), Ok(None));
}

/// A payload whose *interior* sequence length claims more elements than
/// the payload holds is refused by the seq_len guard, not trusted into
/// a giant preallocation.
#[test]
fn hostile_interior_lengths_are_refused() {
    // Hand-build an UpdateAnchors payload claiming 2^30 edges.
    let mut p = serde::bin::Writer::new();
    p.u64(1); // seq
    p.u8(2); // REQ_UPDATE
    p.u64(0); // slot
    p.usize(1 << 30); // claimed edge count, no edges follow
    let payload = p.into_bytes();
    let mut w = serde::bin::Writer::new();
    w.u32(payload.len() as u32);
    w.u32(serde::bin::crc32(&payload));
    w.bytes(&payload);
    let framed = w.into_bytes();
    let (payload, _) = decode_frame(&framed).unwrap().expect("frame is intact");
    assert!(
        matches!(decode_request(payload), Err(ProtocolError::Decode(_))),
        "a claimed length beyond the payload must be refused"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single flipped bit anywhere in a frame is never silently
    /// accepted: the decoder refuses (checksum / too-large) or keeps
    /// waiting — it never yields a payload, matching or not.
    #[test]
    fn single_bit_flips_never_decode(variant in 0usize..8, seq in 0u64..1000) {
        let request = request_menu().swap_remove(variant);
        let frame = encode_request(seq, &request);
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                prop_assert!(
                    !matches!(decode_frame(&damaged), Ok(Some(_))),
                    "bit {bit} of byte {byte} flipped and the frame still decoded"
                );
            }
        }
    }

    /// Concatenated frames split off one at a time regardless of how
    /// the stream is chunked.
    #[test]
    fn streams_reassemble_across_arbitrary_chunking(chunk in 1usize..37, seq0 in 0u64..50) {
        let menu = request_menu();
        let mut stream = Vec::new();
        for (i, r) in menu.iter().enumerate() {
            stream.extend_from_slice(&encode_request(seq0 + i as u64, r));
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            buf.extend_from_slice(piece);
            loop {
                let mut consumed = 0;
                match decode_frame(&buf) {
                    Ok(Some((payload, used))) => {
                        decoded.push(decode_request(payload).unwrap());
                        consumed = used;
                    }
                    Ok(None) => {}
                    Err(e) => prop_assert!(false, "valid stream refused: {e}"),
                }
                if consumed == 0 {
                    break;
                }
                buf.drain(..consumed);
            }
        }
        prop_assert_eq!(decoded.len(), menu.len());
        for (i, ((got_seq, got), want)) in decoded.into_iter().zip(menu).enumerate() {
            prop_assert_eq!(got_seq, seq0 + i as u64);
            prop_assert_eq!(got, want);
        }
    }
}

// ---------------------------------------------------------------------
// run_worker driven through its Read/Write seam, no child process.
// ---------------------------------------------------------------------

fn make_base(dir: &std::path::Path) -> (PathBuf, usize) {
    let w = datagen::generate(&datagen::presets::tiny(91));
    let s = SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..6].to_vec())
        .count()
        .unwrap();
    let path = dir.join("base.snap");
    snapshot::save(&s, &path).unwrap();
    (path, s.n_anchors())
}

fn drain_responses(bytes: &[u8]) -> Vec<(u64, Response)> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((payload, used)) = decode_frame(&bytes[at..]).unwrap() {
        out.push(decode_response(payload).unwrap());
        at += used;
    }
    assert_eq!(at, bytes.len(), "worker output must be whole frames");
    out
}

#[test]
fn worker_serves_a_full_session_over_the_seam() {
    let dir = temp_dir("seam");
    let (base, n0) = make_base(&dir);
    let w = datagen::generate(&datagen::presets::tiny(91));
    let extra = w.truth().links()[6..9].to_vec();

    let mut input = Vec::new();
    input.extend_from_slice(&encode_request(
        1,
        &Request::Open {
            slot: 4,
            path: base.display().to_string(),
        },
    ));
    input.extend_from_slice(&encode_request(
        2,
        &Request::UpdateAnchors {
            slot: 4,
            edges: extra.clone(),
        },
    ));
    input.extend_from_slice(&encode_request(
        3,
        &Request::Query {
            slot: 4,
            pairs: vec![(0, 0), (1, 2), (70_000, 2)],
        },
    ));
    input.extend_from_slice(&encode_request(
        4,
        &Request::Align {
            slot: 4,
            left: 0,
            k: 3,
        },
    ));
    input.extend_from_slice(&encode_request(5, &Request::Checkpoint { slot: 4 }));
    input.extend_from_slice(&encode_request(
        6,
        &Request::Align {
            slot: 4,
            left: 0,
            k: 0,
        },
    ));
    input.extend_from_slice(&encode_request(9, &Request::Shutdown));

    let mut output = Vec::new();
    let code = run_worker(
        &input[..],
        &mut output,
        None,
        session::CompactionPolicy::Never,
    );
    assert_eq!(code, 0, "clean shutdown");

    let responses = drain_responses(&output);
    assert!(
        matches!(responses[0], (0, Response::Hello { .. })),
        "first message is the handshake"
    );
    let n_after = {
        let mut live = snapshot::open(&base).unwrap();
        live.update_anchors(&extra).unwrap();
        live.n_anchors() as u64
    };
    assert_eq!(
        responses[1],
        (
            1,
            Response::Opened {
                slot: 4,
                n_anchors: n0 as u64
            }
        )
    );
    match &responses[2] {
        (
            2,
            Response::Updated {
                slot: 4, n_anchors, ..
            },
        ) => assert_eq!(*n_anchors, n_after),
        other => panic!("expected Updated, got {other:?}"),
    }
    match &responses[3] {
        (3, Response::Scores(scores)) => {
            assert_eq!(scores.len(), 3);
            assert_eq!(scores[2], 0.0, "out-of-range pair scores 0, not an error");
        }
        other => panic!("expected Scores, got {other:?}"),
    }
    assert!(matches!(responses[4], (4, Response::Aligned(_))));
    assert!(matches!(responses[5], (5, Response::Checkpointed { .. })));
    // A zero `k` is a valid request for no hits, not a bad request.
    assert_eq!(responses[6], (6, Response::Aligned(vec![])));
    assert_eq!(responses[7], (9, Response::ShuttingDown));

    // The write-ahead journal holds the update even though the worker is
    // gone — the durable hand-off the coordinator's restarts rely on.
    let (replayed, _) = Journal::open(&base).unwrap();
    assert_eq!(replayed.n_anchors() as u64, n_after);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_tears_down_on_corrupt_stream_with_a_typed_error() {
    let mut input = encode_request(1, &Request::Checkpoint { slot: 0 });
    let last = input.len() - 1;
    input[last] ^= 0x40; // payload bit damage → CRC refusal

    let mut output = Vec::new();
    let code = run_worker(
        &input[..],
        &mut output,
        None,
        session::CompactionPolicy::Never,
    );
    assert_eq!(code, 2, "protocol corruption is the protocol exit code");
    let responses = drain_responses(&output);
    assert!(matches!(responses[0], (0, Response::Hello { .. })));
    match responses.last().unwrap() {
        (0, Response::Error { code, .. }) => assert_eq!(*code, ErrorCode::BadRequest),
        other => panic!("expected a seq-0 teardown diagnostic, got {other:?}"),
    }
}

#[test]
fn worker_requests_against_unknown_slots_get_typed_errors() {
    let mut input = Vec::new();
    input.extend_from_slice(&encode_request(1, &Request::Checkpoint { slot: 31 }));
    input.extend_from_slice(&encode_request(
        2,
        &Request::Query {
            slot: 31,
            pairs: vec![(0, 0)],
        },
    ));
    input.extend_from_slice(&encode_request(3, &Request::Shutdown));
    let mut output = Vec::new();
    let code = run_worker(
        &input[..],
        &mut output,
        None,
        session::CompactionPolicy::Never,
    );
    assert_eq!(code, 0, "bad requests never kill the worker");
    let responses = drain_responses(&output);
    for seq in [1u64, 2] {
        match &responses[seq as usize] {
            (s, Response::Error { code, .. }) => {
                assert_eq!(*s, seq);
                assert_eq!(*code, ErrorCode::UnknownSlot);
            }
            other => panic!("expected UnknownSlot, got {other:?}"),
        }
    }
}

#[test]
fn worker_refuses_a_second_open_of_a_live_slot() {
    let dir = temp_dir("reopen");
    let (base, n0) = make_base(&dir);
    // A second base with fewer anchors: had the duplicate Open replaced
    // the slot's session, the update below would count against it.
    let w = datagen::generate(&datagen::presets::tiny(91));
    let other = dir.join("other.snap");
    let small = SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..2].to_vec())
        .count()
        .unwrap();
    snapshot::save(&small, &other).unwrap();
    let extra = w.truth().links()[6..9].to_vec();

    let mut input = Vec::new();
    for (seq, path) in [(1u64, &base), (2, &other)] {
        input.extend_from_slice(&encode_request(
            seq,
            &Request::Open {
                slot: 7,
                path: path.display().to_string(),
            },
        ));
    }
    input.extend_from_slice(&encode_request(
        3,
        &Request::UpdateAnchors {
            slot: 7,
            edges: extra.clone(),
        },
    ));
    input.extend_from_slice(&encode_request(4, &Request::Shutdown));
    let mut output = Vec::new();
    let code = run_worker(
        &input[..],
        &mut output,
        None,
        session::CompactionPolicy::Never,
    );
    assert_eq!(code, 0, "a refused open never kills the worker");

    let responses = drain_responses(&output);
    assert_eq!(
        responses[1],
        (
            1,
            Response::Opened {
                slot: 7,
                n_anchors: n0 as u64
            }
        )
    );
    match &responses[2] {
        (2, Response::Error { code, message }) => {
            assert_eq!(*code, ErrorCode::Open);
            assert!(message.contains("slot already open"), "{message}");
        }
        other => panic!("expected the duplicate Open refused, got {other:?}"),
    }
    match &responses[3] {
        (
            3,
            Response::Updated {
                slot: 7,
                applied,
                n_anchors,
            },
        ) => {
            assert_eq!(*applied, extra.len() as u64);
            assert_eq!(
                *n_anchors,
                (n0 + extra.len()) as u64,
                "landed on the original"
            );
        }
        other => panic!("expected Updated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Two wire slots on one base path would share one journal, so replay
/// would merge their updates: the second `Open` is refused.
#[test]
fn worker_refuses_a_second_slot_on_a_live_base() {
    let dir = temp_dir("shared-base");
    let (base, n0) = make_base(&dir);
    let mut input = Vec::new();
    for (seq, slot) in [(1u64, 1u64), (2, 2)] {
        let path = base.display().to_string();
        input.extend_from_slice(&encode_request(seq, &Request::Open { slot, path }));
    }
    input.extend_from_slice(&encode_request(3, &Request::Shutdown));
    let mut output = Vec::new();
    let code = run_worker(
        &input[..],
        &mut output,
        None,
        session::CompactionPolicy::Never,
    );
    assert_eq!(code, 0, "a refused open never kills the worker");

    let responses = drain_responses(&output);
    let opened = Response::Opened {
        slot: 1,
        n_anchors: n0 as u64,
    };
    assert_eq!(responses[1], (1, opened));
    match &responses[2] {
        (2, Response::Error { code, message }) => {
            assert_eq!(*code, ErrorCode::Open);
            assert!(message.contains("already journaled"), "{message}");
        }
        other => panic!("expected the shared-base Open refused, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_exit_fault_fires_at_the_exact_request_index() {
    let mut input = Vec::new();
    input.extend_from_slice(&encode_request(1, &Request::Checkpoint { slot: 0 }));
    input.extend_from_slice(&encode_request(2, &Request::Checkpoint { slot: 0 }));
    input.extend_from_slice(&encode_request(3, &Request::Shutdown));
    let mut output = Vec::new();
    let code = run_worker(
        &input[..],
        &mut output,
        Some(Fault::Exit(1)),
        session::CompactionPolicy::Never,
    );
    assert_eq!(code, FAULT_EXIT_CODE);
    let responses = drain_responses(&output);
    // Hello went out; request 0's answer may have been flushed, request
    // 1 and later must not have been served.
    assert!(responses.iter().all(|(seq, _)| *seq < 2));
}
