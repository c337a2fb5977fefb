//! Property tests of the byte codec (`sparsela::codec`): arbitrary bytes
//! never panic a decoder, `Writer`→`Reader` round trips are bit-exact,
//! and the slicing-by-8 `crc32` equals a bytewise one-table reference.

use proptest::prelude::*;
use sparsela::codec::{crc32, decode_csr, decode_margins, decode_threading, Error, Reader, Writer};

/// Hostile input: random bytes interleaved with small little-endian
/// `u64`s, so length prefixes sometimes fit and the slice and CSR
/// decoders get past their first read.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..12),
        2 => (0u64..6).prop_map(|v| v.to_le_bytes().to_vec()),
        1 => any::<u64>().prop_map(|v| v.to_le_bytes().to_vec()),
    ];
    proptest::collection::vec(piece, 0..10).prop_map(|pieces| pieces.concat())
}

/// Runs decode operation `op` on `r` and checks that a failure is a
/// well-formed typed [`Error`] describing the reader's actual state.
fn run_op(op: u8, r: &mut Reader<'_>) -> Result<(), TestCaseError> {
    let before = r.remaining();
    let result: Result<(), Error> = match op % 13 {
        0 => r.u8().map(drop),
        1 => r.u32().map(drop),
        2 => r.u64().map(drop),
        3 => r.usize().map(drop),
        4 => r.f64().map(drop),
        5 => r.bytes(usize::from(op / 13)).map(drop),
        6 => r.seq_len(usize::from(op / 13)).map(drop),
        7 => r.usize_slice().map(drop),
        8 => r.f64_slice().map(drop),
        9 => decode_csr(r).map(drop),
        10 => decode_margins(r).map(drop),
        11 => decode_threading(r).map(drop),
        _ => r.expect_end("the input"),
    };
    prop_assert!(r.remaining() <= before, "a read grew the input");
    match result {
        Ok(()) => {}
        Err(Error::UnexpectedEof { needed, remaining }) => {
            prop_assert!(remaining < needed, "EOF with {remaining} >= {needed}");
            prop_assert_eq!(remaining, r.remaining());
        }
        Err(Error::BadLength {
            declared,
            remaining,
        }) => {
            prop_assert!(declared > 0, "a zero length is never too long");
            prop_assert!(remaining <= before);
        }
        Err(Error::Malformed(what)) => prop_assert!(!what.is_empty()),
    }
    Ok(())
}

/// One value of each kind the writer can encode.
#[derive(Debug, Clone)]
enum Value {
    U8(u8),
    U32(u32),
    U64(u64),
    Usize(usize),
    F64(u64),
    Bytes(Vec<u8>),
    Usizes(Vec<usize>),
    F64s(Vec<u64>),
}

/// `f64` bit patterns: arbitrary bits (subnormals, infinities, NaNs with
/// any payload), plus NaNs with set sign and quiet bits to be sure.
fn f64_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => any::<u64>(),
        1 => any::<u64>().prop_map(|b| b | 0x7FF0_0000_0000_0001),
        1 => any::<u64>().prop_map(|b| (b & 0x000F_FFFF_FFFF_FFFF) | 0xFFF8_0000_0000_0000),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u8>().prop_map(Value::U8),
        any::<u32>().prop_map(Value::U32),
        any::<u64>().prop_map(Value::U64),
        any::<usize>().prop_map(Value::Usize),
        f64_bits().prop_map(Value::F64),
        proptest::collection::vec(any::<u8>(), 0..20).prop_map(Value::Bytes),
        proptest::collection::vec(any::<usize>(), 0..20).prop_map(Value::Usizes),
        proptest::collection::vec(f64_bits(), 0..20).prop_map(Value::F64s),
    ]
}

/// The CRC-32/ISO-HDLC definition, one byte and one table at a time.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| {
            (0..8).fold(i, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    !bytes.iter().fold(!0u32, |c, &b| {
        table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in hostile_bytes(),
        ops in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let mut r = Reader::new(&bytes);
        for op in ops {
            run_op(op, &mut r)?;
        }
    }

    #[test]
    fn writer_reader_round_trips_are_bit_exact(
        values in proptest::collection::vec(value(), 0..16),
    ) {
        let mut w = Writer::new();
        for v in &values {
            match v {
                Value::U8(x) => w.u8(*x),
                Value::U32(x) => w.u32(*x),
                Value::U64(x) => w.u64(*x),
                Value::Usize(x) => w.usize(*x),
                Value::F64(bits) => w.f64(f64::from_bits(*bits)),
                Value::Bytes(xs) => {
                    w.usize(xs.len());
                    w.bytes(xs);
                }
                Value::Usizes(xs) => w.usize_slice(xs),
                Value::F64s(bits) => {
                    let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
                    w.f64_slice(&xs);
                }
            }
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &values {
            match v {
                Value::U8(x) => prop_assert_eq!(r.u8().unwrap(), *x),
                Value::U32(x) => prop_assert_eq!(r.u32().unwrap(), *x),
                Value::U64(x) => prop_assert_eq!(r.u64().unwrap(), *x),
                Value::Usize(x) => prop_assert_eq!(r.usize().unwrap(), *x),
                Value::F64(bits) => prop_assert_eq!(r.f64().unwrap().to_bits(), *bits),
                Value::Bytes(xs) => {
                    let n = r.seq_len(1).unwrap();
                    prop_assert_eq!(r.bytes(n).unwrap(), xs.as_slice());
                }
                Value::Usizes(xs) => prop_assert_eq!(&r.usize_slice().unwrap(), xs),
                Value::F64s(bits) => {
                    let back: Vec<u64> =
                        r.f64_slice().unwrap().iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(&back, bits);
                }
            }
        }
        prop_assert_eq!(r.expect_end("the values"), Ok(()));
    }

    #[test]
    fn crc32_matches_the_bytewise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        skip in 0usize..8,
    ) {
        prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
        // An unaligned start moves every 8-byte block boundary.
        let tail = bytes.get(skip..).unwrap_or_default();
        prop_assert_eq!(crc32(tail), crc32_reference(tail));
    }
}

/// Every length across the first two 8-byte blocks and into the third,
/// so each slicing-by-8 remainder length is covered.
#[test]
fn crc32_matches_the_reference_at_every_short_length() {
    let mut rng = TestRng::deterministic("crc32_short_lengths");
    for len in 0..=17 {
        for _ in 0..32 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_reference(&bytes), "len {len}");
        }
    }
}
