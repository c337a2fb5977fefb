//! The repo's one byte format: little-endian primitives, and the
//! encode/decode of the matrices and margins this crate owns.
//!
//! Every byte stream the workspace persists or sends is built from the
//! primitives here: snapshots (`session::snapshot`, see
//! `docs/SNAPSHOT_FORMAT.md` at the repo root), the ΔA journal, serving
//! wire frames and the sharded manifest.
//!
//! * [`Writer`] — append-only little-endian encoder over an owned buffer;
//! * [`Reader`] — bounds-checked cursor over a borrowed byte slice, whose
//!   every read can fail with a typed [`Error`] instead of panicking
//!   (truncated or hostile input must surface as an error, never as a
//!   wrong value silently accepted). [`Reader::expect_end`] is the one
//!   end-of-input check: no payload carries bytes past its last field;
//! * [`crc32`] — the CRC-32/ISO-HDLC checksum (the one zip/png/gzip use),
//!   used to detect bit-rot inside snapshot sections and frames.
//!
//! Encoding conventions shared by every codec built on this module:
//! integers are fixed-width little-endian, `usize` travels as `u64`,
//! `f64` as its IEEE-754 bit pattern (bit-exact round-trips, NaN
//! payloads preserved), sequences as a `u64` length followed by the
//! elements. There is no varint layer — snapshot payloads are dominated
//! by `f64`/`u64` arrays, so fixed width costs little and keeps offsets
//! computable.
//!
//! On top of the primitives sit the codecs for this crate's types —
//! [`encode_csr`], [`encode_margins`], [`encode_threading`] and their
//! decoders — which the snapshot subsystem uses to persist a counted
//! session so a serving process can reopen paper-scale meta-diagram
//! counts without paying the build.
//!
//! **Exactness.** `f64` values travel as raw IEEE-754 bit patterns, so a
//! decode is bit-identical to what was encoded — the property the
//! snapshot layer's "reopened session ≡ never-persisted session"
//! guarantee reduces to.
//!
//! **Trust model.** Encoded bytes may come from a truncated or bit-flipped
//! file (the section checksums upstream catch most of this, but the codec
//! must not rely on them). Every decode therefore re-validates structural
//! invariants — [`decode_csr`] goes through [`CsrMatrix::try_new`], and
//! length prefixes are sanity-checked against the remaining input before
//! any allocation — so corrupted input surfaces as a typed error, never as
//! a mis-shaped matrix silently accepted.

use crate::csr::CsrMatrix;
use crate::par::Threading;
use crate::sums::MarginSums;

use std::fmt;

/// A decoding failure. Every variant means "refuse the input": the codec
/// never guesses around malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before a read completed.
    UnexpectedEof {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A length prefix exceeds what the remaining input could possibly
    /// hold, or does not fit in `usize` on this platform.
    BadLength {
        /// The declared length.
        declared: u64,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A tag, magic number, or invariant check failed; the message names
    /// what was expected.
    Malformed(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            Error::BadLength {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining input ({remaining} bytes)"
                )
            }
            Error::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Shorthand result for decoding.
pub type Result<T> = std::result::Result<T, Error>;

/// Append-only little-endian encoder.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer pre-sized for roughly `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (portable across word
    /// sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 little-endian bit pattern —
    /// bit-exact on round-trip, NaN payloads included.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes (no length prefix — pair with [`Writer::usize`]
    /// when the length is not implied by context).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Reserves room for at least `additional` more bytes — callers that
    /// know their encoded length (the snapshot codecs compute it exactly)
    /// pre-size once instead of growing the buffer geometrically.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a `u64` length prefix followed by the slice's `usize`
    /// elements (each as `u64`).
    ///
    /// The payload is materialized as one `8 × len` byte block written in
    /// fixed-size chunks — the encode mirror of [`Reader::usize_slice`]'s
    /// `as_chunks` decode: one reservation and no per-element capacity
    /// checks, which matters when snapshot save walks tens of millions of
    /// CSR indices.
    pub fn usize_slice(&mut self, v: &[usize]) {
        self.reserve(8 + v.len() * 8);
        self.usize(v.len());
        let start = self.buf.len();
        self.buf.resize(start + v.len() * 8, 0);
        for (chunk, &x) in self.buf[start..].chunks_exact_mut(8).zip(v) {
            chunk.copy_from_slice(&(x as u64).to_le_bytes());
        }
    }

    /// Appends a `u64` length prefix followed by the slice's `f64`
    /// elements (bit patterns), bulk-written as for
    /// [`Writer::usize_slice`].
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.reserve(8 + v.len() * 8);
        self.usize(v.len());
        let start = self.buf.len();
        self.buf.resize(start + v.len() * 8, 0);
        for (chunk, &x) in self.buf[start..].chunks_exact_mut(8).zip(v) {
            chunk.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian cursor over borrowed bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Refuses bytes left after a payload's last field: a payload decodes
    /// to exactly its own length or not at all. `what` names the payload
    /// in the error.
    ///
    /// # Errors
    /// [`Error::Malformed`] when any byte remains.
    pub fn expect_end(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::Malformed(format!("{n} trailing bytes after {what}"))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] when the input is exhausted.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] on exhausted input; [`Error::BadLength`]
    /// when the value does not fit a `usize` on this platform.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Error::BadLength {
            declared: v,
            remaining: self.remaining(),
        })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length prefix destined for a sequence of elements at least
    /// `min_elem_bytes` wide each, rejecting prefixes the remaining input
    /// cannot possibly satisfy — the guard that keeps a corrupted length
    /// from triggering a huge allocation before the EOF is noticed.
    ///
    /// # Errors
    /// [`Error::UnexpectedEof`] / [`Error::BadLength`] as for
    /// [`Reader::usize`], plus [`Error::BadLength`] when
    /// `len * min_elem_bytes` exceeds the remaining input.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let len = self.usize()?;
        let needed = (len as u64).saturating_mul(min_elem_bytes.max(1) as u64);
        if needed > self.remaining() as u64 {
            return Err(Error::BadLength {
                declared: len as u64,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a `u64`-length-prefixed sequence of `usize` values.
    ///
    /// The payload is taken as one bounds-checked slice and converted
    /// with `as_chunks` — one check for the whole array instead of one
    /// per element, which matters when snapshot decode walks tens of
    /// millions of indices.
    ///
    /// # Errors
    /// As for [`Reader::seq_len`] and [`Reader::usize`].
    pub fn usize_slice(&mut self) -> Result<Vec<usize>> {
        let len = self.seq_len(8)?;
        let (chunks, _) = self.take(len * 8)?.as_chunks::<8>();
        let mut out = Vec::with_capacity(len);
        for &chunk in chunks {
            let v = u64::from_le_bytes(chunk);
            out.push(usize::try_from(v).map_err(|_| Error::BadLength {
                declared: v,
                remaining: self.remaining(),
            })?);
        }
        Ok(out)
    }

    /// Reads a `u64`-length-prefixed sequence of `f64` bit patterns (one
    /// bounds check for the whole array, as for [`Reader::usize_slice`]).
    ///
    /// # Errors
    /// As for [`Reader::seq_len`] and [`Reader::f64`].
    pub fn f64_slice(&mut self) -> Result<Vec<f64>> {
        let len = self.seq_len(8)?;
        let (chunks, _) = self.take(len * 8)?.as_chunks::<8>();
        Ok(chunks
            .iter()
            .map(|&chunk| f64::from_bits(u64::from_le_bytes(chunk)))
            .collect())
    }
}

/// CRC-32/ISO-HDLC (reflected, polynomial `0xEDB88320`, initial and final
/// XOR `0xFFFFFFFF`) — the checksum of zip, gzip and png.
///
/// Uses slicing-by-8: eight derived 256-entry tables (built once,
/// process-wide) let the loop fold 8 input bytes per iteration instead of
/// one, which keeps checksumming a multi-megabyte snapshot section well
/// under the cost of decoding it — the checksum pass must never dominate
/// open-from-snapshot, whose whole point is beating a rebuild.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 8]>> = std::sync::OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let (chunks, rest) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][((lo >> 24) & 0xFF) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in rest {
        crc = tables[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Encodes a CSR matrix: shape, then `indptr`, `indices`, `values` as
/// length-prefixed arrays.
pub fn encode_csr(m: &CsrMatrix, w: &mut Writer) {
    w.usize(m.nrows());
    w.usize(m.ncols());
    w.usize_slice(m.indptr());
    w.usize_slice(m.indices());
    w.f64_slice(m.values());
}

/// Exact byte length [`encode_csr`] will produce for `m` — lets callers
/// pre-size a [`Writer`] instead of growing it geometrically mid-encode.
pub fn csr_encoded_len(m: &CsrMatrix) -> usize {
    // nrows + ncols + three length prefixes, then the three payloads.
    5 * 8 + (m.indptr().len() + m.indices().len() + m.values().len()) * 8
}

/// Decodes a CSR matrix, re-validating every structural invariant
/// (monotone `indptr`, strictly increasing in-bounds column indices,
/// matching array lengths) via [`CsrMatrix::try_new`].
///
/// # Errors
/// [`Error::UnexpectedEof`] / [`Error::BadLength`] on truncated input;
/// [`Error::Malformed`] when the arrays decode but violate the CSR
/// invariants.
pub fn decode_csr(r: &mut Reader<'_>) -> Result<CsrMatrix> {
    let nrows = r.usize()?;
    let ncols = r.usize()?;
    let indptr = r.usize_slice()?;
    let indices = r.usize_slice()?;
    let values = r.f64_slice()?;
    CsrMatrix::try_new(nrows, ncols, indptr, indices, values)
        .map_err(|e| Error::Malformed(format!("csr: {e}")))
}

/// Encodes margin sums as two length-prefixed `f64` arrays (rows, cols).
pub fn encode_margins(s: &MarginSums, w: &mut Writer) {
    w.f64_slice(s.rows());
    w.f64_slice(s.cols());
}

/// Exact byte length [`encode_margins`] will produce for `s` (see
/// [`csr_encoded_len`]).
pub fn margins_encoded_len(s: &MarginSums) -> usize {
    2 * 8 + (s.rows().len() + s.cols().len()) * 8
}

/// Decodes margin sums. Shape consistency with the matrix they describe
/// is the caller's cross-check ([`MarginSums::matches`]); this only
/// restores the arrays.
///
/// # Errors
/// [`Error::UnexpectedEof`] / [`Error::BadLength`] on truncated input.
pub fn decode_margins(r: &mut Reader<'_>) -> Result<MarginSums> {
    let row = r.f64_slice()?;
    let col = r.f64_slice()?;
    Ok(MarginSums::from_parts(row, col))
}

const THREADING_SERIAL: u8 = 0;
const THREADING_THREADS: u8 = 1;
const THREADING_AUTO: u8 = 2;

/// Encodes a [`Threading`] knob as a one-byte tag (plus the worker count
/// for [`Threading::Threads`]).
pub fn encode_threading(t: Threading, w: &mut Writer) {
    match t {
        Threading::Serial => w.u8(THREADING_SERIAL),
        Threading::Threads(n) => {
            w.u8(THREADING_THREADS);
            w.usize(n);
        }
        Threading::Auto => w.u8(THREADING_AUTO),
    }
}

/// Decodes a [`Threading`] knob.
///
/// # Errors
/// [`Error::Malformed`] on an unknown tag; EOF errors on truncated input.
pub fn decode_threading(r: &mut Reader<'_>) -> Result<Threading> {
    match r.u8()? {
        THREADING_SERIAL => Ok(Threading::Serial),
        THREADING_THREADS => Ok(Threading::Threads(r.usize()?)),
        THREADING_AUTO => Ok(Threading::Auto),
        tag => Err(Error::Malformed(format!("threading: unknown tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.f64(-0.1);
        w.bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.1);
        assert_eq!(r.bytes(3).unwrap(), b"abc");
        r.expect_end("the primitives").unwrap();
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut w = Writer::new();
            w.f64(v);
            let bytes = w.into_bytes();
            let back = Reader::new(&bytes).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn slices_round_trip() {
        let mut w = Writer::new();
        w.usize_slice(&[0, 7, usize::MAX]);
        w.f64_slice(&[1.0, -2.5]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.usize_slice().unwrap(), vec![0, 7, usize::MAX]);
        assert_eq!(r.f64_slice().unwrap(), vec![1.0, -2.5]);
        r.expect_end("the slices").unwrap();
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(r.u64(), Err(Error::UnexpectedEof { .. })));
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a length prefix no input could satisfy
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.f64_slice(), Err(Error::BadLength { .. })));
        // And one that fits usize but not the remaining bytes.
        let mut w = Writer::new();
        w.usize(1000);
        w.f64(1.0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.usize_slice(), Err(Error::BadLength { .. })));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A single flipped bit changes the checksum.
        assert_ne!(crc32(b"hello world"), crc32(b"hello worle"));
    }

    #[test]
    fn reader_tracks_remaining_and_refuses_trailing_bytes() {
        let bytes = [1u8, 2, 3, 4];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.remaining(), 4);
        r.u8().unwrap();
        assert_eq!(r.remaining(), 3);
        assert_eq!(
            r.expect_end("a record"),
            Err(Error::Malformed("3 trailing bytes after a record".into()))
        );
        r.bytes(3).unwrap();
        assert_eq!(r.expect_end("a record"), Ok(()));
    }

    #[test]
    fn error_displays_name_the_failure() {
        let eof = Error::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(eof.to_string().contains("needed 8"));
        let len = Error::BadLength {
            declared: 99,
            remaining: 1,
        };
        assert!(len.to_string().contains("99"));
        assert!(Error::Malformed("bad tag".into())
            .to_string()
            .contains("bad tag"));
    }

    fn sample() -> CsrMatrix {
        CsrMatrix::from_dense(
            3,
            4,
            &[1.0, 0.0, 2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.25],
        )
    }

    #[test]
    fn csr_round_trips_bit_exact() {
        for m in [
            sample(),
            CsrMatrix::zeros(0, 0),
            CsrMatrix::zeros(5, 2),
            CsrMatrix::identity(7),
        ] {
            let mut w = Writer::new();
            encode_csr(&m, &mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = decode_csr(&mut r).unwrap();
            assert_eq!(back, m);
            r.expect_end("the matrix").unwrap();
        }
    }

    #[test]
    fn truncated_csr_errors_at_every_cut() {
        let mut w = Writer::new();
        encode_csr(&sample(), &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_csr(&mut r).is_err(), "cut at {cut} mis-opened");
        }
    }

    #[test]
    fn corrupted_structure_is_rejected() {
        // Encode a valid matrix, then corrupt the indptr region so the
        // arrays still decode but violate CSR invariants.
        let m = sample();
        let mut w = Writer::new();
        encode_csr(&m, &mut w);
        let mut bytes = w.into_bytes();
        // Byte 24 starts indptr's payload (after nrows, ncols, and
        // indptr's length prefix, 8 bytes each): setting its low byte to
        // 255 breaks `indptr[0] == 0`.
        bytes[24] = 255;
        let mut r = Reader::new(&bytes);
        assert!(matches!(decode_csr(&mut r), Err(Error::Malformed(_))));
    }

    #[test]
    fn encoded_len_hints_are_exact() {
        for m in [sample(), CsrMatrix::zeros(0, 0), CsrMatrix::identity(7)] {
            let mut w = Writer::new();
            encode_csr(&m, &mut w);
            assert_eq!(w.len(), csr_encoded_len(&m));
            let s = MarginSums::of(&m);
            let mut w = Writer::new();
            encode_margins(&s, &mut w);
            assert_eq!(w.len(), margins_encoded_len(&s));
        }
    }

    #[test]
    fn margins_round_trip_and_match_their_matrix() {
        let m = sample();
        let s = MarginSums::of(&m);
        let mut w = Writer::new();
        encode_margins(&s, &mut w);
        let bytes = w.into_bytes();
        let back = decode_margins(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, s);
        assert!(back.matches(&m));
    }

    #[test]
    fn threading_round_trips() {
        for t in [Threading::Serial, Threading::Threads(6), Threading::Auto] {
            let mut w = Writer::new();
            encode_threading(t, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(decode_threading(&mut Reader::new(&bytes)).unwrap(), t);
        }
        assert!(decode_threading(&mut Reader::new(&[9])).is_err());
    }
}
