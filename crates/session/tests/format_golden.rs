//! Golden bytes for every framed record this crate writes: the ΔA journal
//! records, one wire frame per `Request` and `Response` variant, the
//! sharded manifest's boundary ledger, and one whole snapshot file.
//!
//! Round-trip tests cannot catch a format change made on both sides at
//! once; these pin the exact bytes. Each expected value is a hex literal
//! derived from the documented layouts (`docs/SNAPSHOT_FORMAT.md`,
//! `docs/SERVING.md`): `len u32 | crc u32 | payload`, all integers
//! little-endian, CRC-32/ISO-HDLC over the payload. Spaces in a literal
//! only separate fields.

use hetnet::partition::PartitionMap;
use hetnet::UserId;
use session::serve::protocol::{encode_request, encode_response, ErrorCode, Request, Response};
use session::sharded::{ShardedConfig, ShardedSession, MANIFEST_FILE};
use session::{snapshot, AnchorEdge, Journal, SessionBuilder};
use sparsela::codec::crc32;

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn edge(l: u32, r: u32) -> AnchorEdge {
    AnchorEdge::new(UserId(l), UserId(r))
}

#[test]
fn journal_records_are_byte_stable() {
    let dir = std::env::temp_dir().join(format!("format-golden-jrnl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("golden.snap");
    // The journal never parses its base, so any bytes pin a header.
    let mut journal = Journal::create(&base, b"base-v1").unwrap();
    journal.append(&[edge(1, 2), edge(3, 4)]).unwrap();
    journal.checkpoint(5).unwrap();
    journal.begin_compact(b"base-v2").unwrap();
    journal.abort_compact();
    let bytes = std::fs::read(Journal::path_for(&base)).unwrap();

    let header = hex("4d44414a524e4c30 01000000 0700000000000000 9ac849e8");
    let anchor_delta =
        hex("19000000 34cdc1d6 01 0200000000000000 0100000002000000 0300000004000000");
    let checkpoint = hex("09000000 4c321f80 02 0500000000000000");
    let compacted = hex("0d000000 2de1ad43 03 0700000000000000 20994071");
    assert_eq!(
        bytes,
        [header, anchor_delta, checkpoint, compacted].concat(),
        "journal bytes drifted from the documented record layout"
    );
    assert_eq!(journal.journal_bytes(), bytes.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_request_frame_is_byte_stable() {
    let cases = [
        (
            Request::Open {
                slot: 3,
                path: "a.snap".into(),
            },
            "1f000000 bdb50eb1 0700000000000000 01 0300000000000000 0600000000000000 612e736e6170",
        ),
        (
            Request::UpdateAnchors {
                slot: 3,
                edges: vec![edge(1, 2), edge(3, 4)],
            },
            "29000000 e20307a5 0700000000000000 02 0300000000000000 0200000000000000 \
             0100000002000000 0300000004000000",
        ),
        (
            Request::Query {
                slot: 3,
                pairs: vec![(5, 6)],
            },
            "21000000 0617b154 0700000000000000 03 0300000000000000 0100000000000000 \
             0500000006000000",
        ),
        (
            Request::Align {
                slot: 3,
                left: 9,
                k: 4,
            },
            "19000000 66ed72ed 0700000000000000 04 0300000000000000 09000000 04000000",
        ),
        (
            Request::Checkpoint { slot: 3 },
            "11000000 5acf652d 0700000000000000 05 0300000000000000",
        ),
        (Request::Shutdown, "09000000 52dc0b6b 0700000000000000 06"),
    ];
    for (request, expected) in cases {
        assert_eq!(encode_request(7, &request), hex(expected), "{request:?}");
    }
}

#[test]
fn every_response_frame_is_byte_stable() {
    let cases = [
        (
            7,
            Response::Opened {
                slot: 3,
                n_anchors: 10,
            },
            "19000000 5e913118 0700000000000000 01 0300000000000000 0a00000000000000",
        ),
        (
            7,
            Response::Updated {
                slot: 3,
                applied: 1,
                n_anchors: 11,
            },
            "21000000 e6cadbc1 0700000000000000 02 0300000000000000 0100000000000000 \
             0b00000000000000",
        ),
        (
            7,
            Response::Scores(vec![0.5, -1.0]),
            "21000000 daff7f9f 0700000000000000 03 0200000000000000 000000000000e03f \
             000000000000f0bf",
        ),
        (
            7,
            Response::Aligned(vec![(4, 2.0)]),
            "1d000000 898976fb 0700000000000000 04 0100000000000000 04000000 0000000000000040",
        ),
        (
            7,
            Response::Checkpointed { n_anchors: 11 },
            "11000000 efd480fe 0700000000000000 05 0b00000000000000",
        ),
        (
            7,
            Response::ShuttingDown,
            "09000000 52dc0b6b 0700000000000000 06",
        ),
        (
            7,
            Response::Error {
                code: ErrorCode::Journal,
                message: "disk".into(),
            },
            "16000000 9776b246 0700000000000000 07 04 0400000000000000 6469736b",
        ),
        (
            0,
            Response::Hello { pid: 42 },
            "11000000 3b2d811a 0000000000000000 08 2a00000000000000",
        ),
    ];
    for (seq, response, expected) in cases {
        assert_eq!(
            encode_response(seq, &response),
            hex(expected),
            "{response:?}"
        );
    }
}

#[test]
fn manifest_ledger_of_two_edges_is_byte_stable() {
    // Left split in half, right whole: seven anchors in the lower half win
    // the matching, so the two upper-half anchors form the whole boundary
    // ledger — the last field of the manifest's only section, hence the
    // file's tail.
    let world = datagen::generate(&datagen::presets::tiny(43));
    let n_left = world.left().n_users();
    let truth = world.truth().links();
    let left_assign: Vec<usize> = (0..n_left).map(|u| usize::from(u >= n_left / 2)).collect();
    let mut anchors = truth[..7].to_vec();
    anchors.extend_from_slice(&truth[truth.len() - 2..]);
    let mut sharded = ShardedSession::with_partitions(
        world.left(),
        world.right(),
        PartitionMap::from_assignment(&left_assign, world.left()),
        PartitionMap::trivial(world.right().n_users()),
        anchors,
        &ShardedConfig::default(),
    )
    .unwrap();
    assert_eq!(sharded.boundary_anchors().len(), 2);

    let dir = std::env::temp_dir().join(format!("format-golden-mani-{}", std::process::id()));
    sharded.save_dir(&dir).unwrap();
    let bytes = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
    let ledger = hex("0200000000000000 1c00000002000000 1d0000000a000000");
    assert_eq!(&bytes[bytes.len() - ledger.len()..], ledger.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_of_a_tiny_store_is_byte_stable() {
    let world = datagen::generate(&datagen::presets::tiny(11));
    let counted = SessionBuilder::new(world.left(), world.right())
        .anchors(world.truth().links()[..8].to_vec())
        .count()
        .unwrap();
    let bytes = snapshot::to_bytes(&counted);
    // magic | version 2 | two sections | table CRC, then the table: `META`
    // (one feature-set byte, 3 = Full) and `DCNT`, each id | offset u64 |
    // length u64 | CRC-32.
    let header = hex("4d4441534e415000 02000000 02000000 8bd31f85");
    let table = hex("4d455441 4400000000000000 0100000000000000 37be0b4b \
         44434e54 4500000000000000 6d81020000000000 661d873e");
    let head = [header, table].concat();
    assert_eq!(
        &bytes[..head.len()],
        head.as_slice(),
        "header or table drifted"
    );
    // The `DCNT` payload (164 205 bytes) is pinned by its length and CRC
    // above; the whole file by these.
    assert_eq!(
        (bytes.len(), crc32(&bytes)),
        (164_274, 0xd4a6_3d3f),
        "snapshot bytes drifted"
    );
}
