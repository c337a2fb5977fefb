//! Binary encode/decode of the crate's persistent artifacts.
//!
//! The snapshot subsystem (`session::snapshot`, see
//! `docs/SNAPSHOT_FORMAT.md` at the repo root) persists a counted session
//! so a serving process can reopen paper-scale meta-diagram counts without
//! paying the build. The matrices and margin sums it stores are owned by
//! this crate, so their byte layout lives here, on top of the vendored
//! [`serde::bin`] little-endian primitives.
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
use serde::bin::{Error, Reader, Writer};

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
pub fn decode_csr(r: &mut Reader<'_>) -> Result<CsrMatrix, Error> {
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
pub fn decode_margins(r: &mut Reader<'_>) -> Result<MarginSums, Error> {
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
pub fn decode_threading(r: &mut Reader<'_>) -> Result<Threading, Error> {
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
            assert!(r.is_exhausted());
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
