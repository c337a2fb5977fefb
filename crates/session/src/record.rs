//! The one record codec the crate's framed byte streams share: the ΔA
//! journal ([`crate::journal`]) and the serving wire
//! ([`crate::serve::protocol`]).
//!
//! ```text
//! frame  len u32 | crc u32(payload) | payload
//! pairs  n u64 | n × (left u32, right u32)
//! ```
//!
//! All integers are little-endian; the CRC is CRC-32/ISO-HDLC. The codec
//! only splits and checks. What an incomplete or corrupt frame means is
//! the caller's policy: the journal truncates a torn tail and refuses
//! interior damage, the wire waits for more bytes and tears the
//! connection down on corruption.

use crate::AnchorEdge;
use hetnet::UserId;
use sparsela::codec::{crc32, Error as BinError, Reader, Writer};

/// Frame overhead: the `len` + `crc` prefix.
pub const FRAME_OVERHEAD: usize = 8;

/// Encodes one frame: `encode` writes the payload behind a placeholder
/// prefix, which is then patched with the payload's length and CRC-32 —
/// one buffer, no copy of the payload.
pub(crate) fn frame(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.u64(0);
    encode(&mut w);
    let mut bytes = w.into_bytes();
    let (prefix, payload) = bytes.split_at_mut(FRAME_OVERHEAD);
    prefix[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    prefix[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    bytes
}

/// One attempt to split a frame off the front of a buffer.
pub(crate) enum Split<'a> {
    /// The buffer ends inside the prefix or the payload.
    Incomplete,
    /// The prefix declares a payload longer than the caller's bound.
    TooLarge(u32),
    /// A complete frame, ending at `end`, whose payload fails its CRC.
    Corrupt {
        expected: u32,
        found: u32,
        end: usize,
    },
    /// A complete, CRC-verified payload; its frame ends at `end`.
    Intact { payload: &'a [u8], end: usize },
}

/// Splits the frame at the front of `buf`. The `max_len` bound is checked
/// as soon as the prefix is there, before the payload is waited for.
pub(crate) fn split_frame(buf: &[u8], max_len: u32) -> Split<'_> {
    let &[l0, l1, l2, l3, c0, c1, c2, c3, ..] = buf else {
        return Split::Incomplete;
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let expected = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > max_len {
        return Split::TooLarge(len);
    }
    let Some(end) = FRAME_OVERHEAD
        .checked_add(len as usize)
        .filter(|&end| end <= buf.len())
    else {
        return Split::Incomplete;
    };
    let payload = &buf[FRAME_OVERHEAD..end];
    let found = crc32(payload);
    if found != expected {
        return Split::Corrupt {
            expected,
            found,
            end,
        };
    }
    Split::Intact { payload, end }
}

/// An element of a pair list: anchor edges on the journal and the wire;
/// plain `(left, right)` user pairs in wire queries.
pub(crate) trait Pair {
    fn ids(&self) -> (u32, u32);
    fn from_ids(left: u32, right: u32) -> Self;
}

impl Pair for (u32, u32) {
    fn ids(&self) -> (u32, u32) {
        *self
    }
    fn from_ids(left: u32, right: u32) -> Self {
        (left, right)
    }
}

impl Pair for AnchorEdge {
    fn ids(&self) -> (u32, u32) {
        (self.left.0, self.right.0)
    }
    fn from_ids(left: u32, right: u32) -> Self {
        AnchorEdge::new(UserId(left), UserId(right))
    }
}

/// Writes a pair list: `n u64 | n × (left u32, right u32)`.
pub(crate) fn write_pairs<P: Pair>(w: &mut Writer, pairs: &[P]) {
    w.reserve(8 + pairs.len() * 8);
    w.usize(pairs.len());
    for p in pairs {
        let (left, right) = p.ids();
        w.u32(left);
        w.u32(right);
    }
}

/// Reads a [`write_pairs`] list. The count is bounded by the bytes left
/// (`seq_len`) before it sizes the allocation.
pub(crate) fn read_pairs<P: Pair>(r: &mut Reader<'_>) -> Result<Vec<P>, BinError> {
    let n = r.seq_len(8)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(P::from_ids(r.u32()?, r.u32()?));
    }
    Ok(pairs)
}
