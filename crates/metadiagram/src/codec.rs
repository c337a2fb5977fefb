//! Binary encode/decode of the delta-count store and its catalog types.
//!
//! A [`DeltaCatalogCounts`] is the whole counting state of an alignment
//! session: the merged anchor matrix, every materialized count matrix with
//! its maintained [`sparsela::MarginSums`], the `L`/`R` factor chains that
//! make anchor updates incremental, and the work counters. This module
//! lays all of it out as bytes (on top of [`sparsela::codec`]'s
//! primitives) so `session::snapshot` can persist
//! a `Counted` stage and a fresh process can resume `update_anchors`
//! without recounting — see `docs/SNAPSHOT_FORMAT.md` for the file-level
//! framing around this payload.
//!
//! **What is stored vs derived.** The node plan — which diagrams are
//! counted, in what order, each stack's parts and the catalog mapping —
//! is not stored: the writer's store was built from it and the reader
//! re-plans it from the catalog that the snapshot's [`FeatureSet`]
//! rebuilds, with the one planner the build uses. The payload carries a
//! CRC-32 fingerprint of that plan instead, so a snapshot written under a
//! different plan is refused, never read under the wrong one. Each anchor
//! chain stores `L` and `R` only; the cached transpose `Lᵀ` is recomputed
//! on decode ([`sparsela::CsrMatrix::transpose`] is exact and
//! deterministic, and the transpose is a third of every chain's bytes).
//! Everything else decodes bit-identically from the stream.
//!
//! **Decode-time validation.** Checksums upstream catch bit-rot; this
//! layer rejects *semantically* broken payloads, whatever their origin:
//! the plan fingerprint must match the catalog's, every CSR re-validates
//! its structural invariants, every value of the anchor matrix, the
//! factors and the counts must be finite and `> 0`, factor shapes must
//! compose with the anchor matrix, every count must have the anchor shape,
//! and stored margins must match their count matrix bit-for-bit. A
//! payload that fails any check is refused with a typed error — never
//! opened approximately.

use crate::catalog::{Catalog, FeatureSet};
use crate::delta::{DeltaCatalogCounts, DeltaStats, FactorChain, Node, NodeCount, NodePlan};
use crate::diagram::Diagram;
use sparsela::codec::{
    crc32, csr_encoded_len, decode_csr, decode_margins, decode_threading, encode_csr,
    encode_margins, encode_threading, margins_encoded_len, Error, Reader, Writer,
};
use sparsela::{CsrMatrix, Threading};
use std::fmt;
use std::sync::Arc;

fn feature_set_tag(set: FeatureSet) -> u8 {
    match set {
        FeatureSet::MetaPathsOnly => 0,
        FeatureSet::PathsAndSocialDiagrams => 1,
        FeatureSet::PathsAndAttrDiagram => 2,
        FeatureSet::Full => 3,
    }
}

/// Encodes a [`FeatureSet`] as a one-byte tag.
pub fn encode_feature_set(set: FeatureSet, w: &mut Writer) {
    w.u8(feature_set_tag(set));
}

/// Decodes a [`FeatureSet`] tag.
///
/// # Errors
/// [`Error::Malformed`] on an unknown tag (4, a retired word-attribute
/// catalog, among them); EOF errors on truncated input.
pub fn decode_feature_set(r: &mut Reader<'_>) -> Result<FeatureSet, Error> {
    match r.u8()? {
        0 => Ok(FeatureSet::MetaPathsOnly),
        1 => Ok(FeatureSet::PathsAndSocialDiagrams),
        2 => Ok(FeatureSet::PathsAndAttrDiagram),
        3 => Ok(FeatureSet::Full),
        tag => Err(Error::Malformed(format!("feature set: unknown tag {tag}"))),
    }
}

/// The CRC-32 of a node plan's derived `Debug` text: the planned diagrams
/// in order, then the catalog mapping (each stack's parts follow from the
/// order). `Debug` tells every [`Diagram`] variant apart, where
/// [`Diagram::name`] does not (`Ψ[P1×P2]` names both a `SocialPair` and a
/// two-part `Stack`). Should that text ever change, an older snapshot is
/// refused, never mis-opened.
fn plan_fingerprint(order: &[Diagram], catalog_pos: &[usize]) -> u32 {
    crc32(format!("{order:?}{catalog_pos:?}").as_bytes())
}

fn encode_stats(stats: &DeltaStats, w: &mut Writer) {
    w.usize(stats.full_counts);
    w.usize(stats.delta_updates);
    w.usize(stats.anchors_applied);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<DeltaStats, Error> {
    Ok(DeltaStats {
        full_counts: r.usize()?,
        delta_updates: r.usize()?,
        anchors_applied: r.usize()?,
    })
}

/// Encodes the whole store: the anchor matrix, the plan fingerprint, each
/// planned node in plan order (an anchor chain's `L` and `R`, then every
/// node's count and margins), the threading knob, and the work counters.
pub fn encode_store(store: &DeltaCatalogCounts, w: &mut Writer) {
    encode_csr(&store.anchor, w);
    w.u32(plan_fingerprint(&store.order, &store.catalog_pos));
    for node in &store.nodes {
        if let Node::AnchorChain(chain, _) = node {
            encode_csr(&chain.l, w);
            encode_csr(&chain.r, w);
        }
        let counted = node.counted();
        encode_csr(&counted.count, w);
        encode_margins(&counted.sums, w);
    }
    encode_threading(store.threading, w);
    encode_stats(&store.stats, w);
}

/// Exact byte length [`encode_store`] will produce for `store` — the
/// snapshot layer pre-sizes its section buffer with this so the encode
/// pass never reallocates (save-side throughput then tracks the bulk
/// slice writes instead of `Vec` growth).
pub fn store_encoded_len(store: &DeltaCatalogCounts) -> usize {
    let mut len = csr_encoded_len(&store.anchor) + 4; // anchor + fingerprint
    for node in &store.nodes {
        if let Node::AnchorChain(chain, _) = node {
            len += csr_encoded_len(&chain.l) + csr_encoded_len(&chain.r);
        }
        let counted = node.counted();
        len += csr_encoded_len(&counted.count) + margins_encoded_len(&counted.sums);
    }
    len += match store.threading {
        Threading::Threads(_) => 1 + 8,
        Threading::Serial | Threading::Auto => 1,
    };
    len + 3 * 8 // stats
}

/// Reads a matrix whose every stored value must be finite and `> 0`. The
/// anchor matrix, the factors and the counts all are when built, and
/// updates rely on it: it makes every increment positive, so a count only
/// grows ([`CsrMatrix::splice_add`]).
fn decode_positive(r: &mut Reader<'_>, what: fmt::Arguments<'_>) -> Result<CsrMatrix, Error> {
    let m = decode_csr(r)?;
    // A fold without early exit vectorizes: twice as fast as a `find`.
    let values = m.values().iter();
    if !values.fold(true, |ok, &v| ok & (v > 0.0) & (v < f64::INFINITY)) {
        return Err(Error::Malformed(format!(
            "{what}: holds a value that is not finite and > 0"
        )));
    }
    Ok(m)
}

/// Reads node `i`'s count and margins: the count must be positive and have
/// the anchor `shape`, and the margins must equal it bit for bit.
fn decode_count(r: &mut Reader<'_>, i: usize, shape: (usize, usize)) -> Result<NodeCount, Error> {
    let count = decode_positive(r, format_args!("node {i}: count"))?;
    if count.shape() != shape {
        return Err(Error::Malformed(format!(
            "node {i}: count shape {:?} != anchor shape {shape:?}",
            count.shape()
        )));
    }
    let sums = decode_margins(r)?;
    if !sums.matches(&count) {
        return Err(Error::Malformed(format!(
            "node {i}: stored margins disagree with the count matrix"
        )));
    }
    Ok(NodeCount { count, sums })
}

/// Decodes a store encoded by [`encode_store`] under `catalog` (the
/// catalog rebuilt from the snapshot's stored [`FeatureSet`]), whose plan
/// lays out the nodes. The result is bit-identical to the encoded store —
/// including the recomputed `Lᵀ` caches — so every subsequent
/// `update_anchors` produces exactly the bytes the never-persisted store
/// would. This is the only door a stored store comes in by, and updates
/// trust what it lets through: a store it returns has its catalog's plan,
/// finite positive values in its anchor matrix, factors and counts, every
/// count of the anchor shape, margins equal to their counts, and chains
/// that compose with the anchor matrix.
///
/// # Errors
/// EOF/length errors on truncated input; [`Error::Malformed`] when the
/// plan fingerprint differs from `catalog`'s (checked before any node is
/// read) or any structural or semantic invariant fails (CSR shape,
/// positivity, factor composition, count shape, margin agreement).
pub fn decode_store(r: &mut Reader<'_>, catalog: &Catalog) -> Result<DeltaCatalogCounts, Error> {
    let anchor = decode_positive(r, format_args!("anchor matrix"))?;
    let shape @ (n1, n2) = anchor.shape();
    let NodePlan {
        order,
        parts,
        catalog_pos,
    } = NodePlan::of(catalog);
    let (found, planned) = (r.u32()?, plan_fingerprint(&order, &catalog_pos));
    if found != planned {
        return Err(Error::Malformed(format!(
            "plan fingerprint {found:08x} does not match the {:?} catalog's {planned:08x}",
            catalog.feature_set()
        )));
    }
    let mut nodes = Vec::with_capacity(order.len());
    for (i, (diagram, parts)) in order.iter().zip(parts).enumerate() {
        // The planned diagram fixes the node's kind, as in the build:
        // social paths and their middle-stackings are anchor chains,
        // attribute paths and theirs are anchor-free, endpoint stackings
        // are stacks. A restored store holds its own copies of the parts
        // a built one shares with the other stores of its networks.
        nodes.push(match diagram {
            Diagram::Social(_) | Diagram::SocialPair(..) => {
                let l = decode_positive(r, format_args!("node {i}: L factor"))?;
                let rr = decode_positive(r, format_args!("node {i}: R factor"))?;
                if l.shape() != (n1, n1) || rr.shape() != (n2, n2) {
                    return Err(Error::Malformed(format!(
                        "node {i}: factor chain shapes {:?}/{:?} do not compose with the \
                         {n1}×{n2} anchor matrix",
                        l.shape(),
                        rr.shape()
                    )));
                }
                let chain = Arc::new(FactorChain::new(l, rr));
                Node::AnchorChain(chain, decode_count(r, i, shape)?)
            }
            Diagram::Attr(_) | Diagram::AttrPair(..) => {
                Node::AnchorFree(Arc::new(decode_count(r, i, shape)?))
            }
            Diagram::Stack(_) => Node::Stack(parts, decode_count(r, i, shape)?),
        });
    }
    let threading = decode_threading(r)?;
    let stats = decode_stats(r)?;
    Ok(DeltaCatalogCounts {
        anchor,
        order,
        nodes,
        catalog_pos,
        threading,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet::aligned::anchor_matrix;
    use sparsela::Threading;

    fn store() -> (DeltaCatalogCounts, Catalog) {
        let w = datagen::generate(&datagen::presets::tiny(29));
        let train = w.truth().links()[..10].to_vec();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let store =
            DeltaCatalogCounts::build(w.left(), w.right(), a, &catalog, Threading::Serial).unwrap();
        (store, catalog)
    }

    fn encoded(store: &DeltaCatalogCounts) -> Vec<u8> {
        let mut w = Writer::new();
        encode_store(store, &mut w);
        w.into_bytes()
    }

    #[test]
    fn feature_sets_round_trip() {
        for set in [
            FeatureSet::MetaPathsOnly,
            FeatureSet::PathsAndSocialDiagrams,
            FeatureSet::PathsAndAttrDiagram,
            FeatureSet::Full,
        ] {
            let mut w = Writer::new();
            encode_feature_set(set, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(decode_feature_set(&mut Reader::new(&bytes)).unwrap(), set);
        }
        for tag in [4, 99] {
            assert!(matches!(
                decode_feature_set(&mut Reader::new(&[tag])),
                Err(Error::Malformed(_))
            ));
        }
    }

    #[test]
    fn store_round_trips_bit_identically() {
        let (store, catalog) = store();
        let bytes = encoded(&store);
        let mut r = Reader::new(&bytes);
        let back = decode_store(&mut r, &catalog).unwrap();
        r.expect_end("the store").unwrap();
        assert_eq!(back.anchor, store.anchor);
        assert_eq!(back.order, store.order);
        assert_eq!(back.catalog_pos, store.catalog_pos);
        assert_eq!(back.threading, store.threading);
        assert_eq!(back.stats, store.stats);
        assert_eq!(back.nodes.len(), store.nodes.len());
        for (i, (got, want)) in back.nodes.iter().zip(&store.nodes).enumerate() {
            assert_eq!(got.counted(), want.counted(), "count and margins {i}");
            match (got, want) {
                // A restored store shares nothing with the built one.
                (Node::AnchorFree(a), Node::AnchorFree(b)) => assert!(!Arc::ptr_eq(a, b)),
                (Node::Stack(a, _), Node::Stack(b, _)) => assert_eq!(a, b),
                (Node::AnchorChain(a, _), Node::AnchorChain(b, _)) => {
                    assert!(!Arc::ptr_eq(a, b));
                    assert_eq!(a.l, b.l);
                    assert_eq!(a.r, b.r);
                    assert_eq!(a.lt, b.lt, "recomputed transpose diverged");
                }
                _ => panic!("node {i}: kind changed across the round trip"),
            }
        }
    }

    #[test]
    fn store_encoded_len_is_exact() {
        let (store, _) = store();
        let mut w = Writer::new();
        encode_store(&store, &mut w);
        assert_eq!(w.len(), store_encoded_len(&store));
    }

    #[test]
    fn reopened_store_resumes_updates_bit_equal() {
        let w = datagen::generate(&datagen::presets::tiny(31));
        let train = w.truth().links()[..8].to_vec();
        let extra = w.truth().links()[8..18].to_vec();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let mut live =
            DeltaCatalogCounts::build(w.left(), w.right(), a, &catalog, Threading::Serial).unwrap();
        let bytes = encoded(&live);
        let mut reopened = decode_store(&mut Reader::new(&bytes), &catalog).unwrap();
        let o1 = live.update_anchors(&extra).unwrap();
        let o2 = reopened.update_anchors(&extra).unwrap();
        assert_eq!(o1, o2);
        for i in 0..catalog.len() {
            assert_eq!(live.catalog_count(i), reopened.catalog_count(i));
            assert_eq!(live.catalog_sums(i), reopened.catalog_sums(i));
        }
        assert_eq!(live.stats(), reopened.stats());
        assert_eq!(reopened.stats().full_counts, 1, "no recount on reopen");
    }

    #[test]
    fn catalog_mismatch_is_refused() {
        let (store, _) = store();
        let bytes = encoded(&store);
        let wrong = Catalog::new(FeatureSet::MetaPathsOnly);
        assert!(matches!(
            decode_store(&mut Reader::new(&bytes), &wrong),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn flipped_plan_fingerprint_is_refused_before_any_node() {
        let (store, catalog) = store();
        let mut bytes = encoded(&store);
        // The fingerprint follows the anchor matrix.
        let at = csr_encoded_len(&store.anchor);
        bytes[at] ^= 0x01;
        let err = decode_store(&mut Reader::new(&bytes), &catalog).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err}");
        assert!(err.to_string().contains("plan fingerprint"), "{err}");
        // Cut right after the fingerprint, the payload has no nodes left to
        // read: the refusal is the fingerprint's, not an EOF.
        let err = decode_store(&mut Reader::new(&bytes[..at + 4]), &catalog).unwrap_err();
        assert!(err.to_string().contains("plan fingerprint"), "{err}");
    }

    #[test]
    fn truncation_never_mis_opens() {
        let (store, catalog) = store();
        let bytes = encoded(&store);
        // Cuts sampled across the whole payload (every cut would be slow:
        // the payload is ~hundreds of KB).
        let step = (bytes.len() / 97).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_store(&mut r, &catalog).is_err(), "cut {cut} opened");
        }
    }

    #[test]
    fn in_memory_corruptions_are_refused_at_decode() {
        // Each corruption a live store could only get from a hand-edited or
        // version-skewed payload; the decoder is the one gate that refuses
        // it, so no update ever sees such a store.
        let (store, catalog) = store();
        let (n1, n2) = store.anchor.shape();
        let refused = |broken: &DeltaCatalogCounts, what: &str| {
            let err = decode_store(&mut Reader::new(&encoded(broken)), &catalog).unwrap_err();
            assert!(matches!(err, Error::Malformed(_)), "{what}: {err}");
            err.to_string()
        };
        // A factor chain whose `R` does not compose with the anchor matrix.
        let mut broken = store.clone();
        let chain = broken
            .nodes
            .iter_mut()
            .find_map(|node| match node {
                Node::AnchorChain(chain, _) => Some(chain),
                _ => None,
            })
            .expect("catalog has anchor chains");
        Arc::make_mut(chain).r = sparsela::CsrMatrix::zeros(1, 1);
        let err = refused(&broken, "chain R");
        assert!(err.contains("do not compose"), "{err}");
        // A count (with margins that match it) of the wrong shape.
        let mut broken = store.clone();
        let count = sparsela::CsrMatrix::zeros(n1, n2 + 1);
        *broken.nodes[0].counted_mut() = NodeCount {
            sums: sparsela::MarginSums::of(&count),
            count,
        };
        let err = refused(&broken, "count shape");
        assert!(err.contains("count shape"), "{err}");
        // The edits went to private copies: the store they were cloned
        // from still opens.
        decode_store(&mut Reader::new(&encoded(&store)), &catalog).unwrap();
    }

    #[test]
    fn values_that_are_not_finite_and_positive_are_refused() {
        // Counts only grow, and updates rely on it: a store holding a value
        // that is not finite and > 0 in a count, an `L` factor or the
        // anchor matrix is refused by the positivity check.
        let (store, catalog) = store();
        let with_first = |m: &CsrMatrix, v: f64| {
            let mut values = m.values().to_vec();
            values[0] = v;
            let (indptr, indices) = (m.indptr().to_vec(), m.indices().to_vec());
            CsrMatrix::from_parts_unchecked(m.nrows(), m.ncols(), indptr, indices, values)
        };
        let refused = |broken: &DeltaCatalogCounts, what: &str| {
            let err = decode_store(&mut Reader::new(&encoded(broken)), &catalog).unwrap_err();
            assert!(matches!(err, Error::Malformed(_)), "{what}: {err}");
            let err = err.to_string();
            assert!(err.contains(what), "{err}");
            assert!(err.contains("not finite and > 0"), "{err}");
        };
        let counted = store
            .nodes
            .iter()
            .position(|node| node.counted().count.nnz() > 0)
            .expect("catalog has a nonempty count");
        let chained = store
            .nodes
            .iter()
            .position(|node| matches!(node, Node::AnchorChain(chain, _) if chain.l.nnz() > 0))
            .expect("catalog has a chain with a nonempty L");
        for v in [0.0, -1.0, f64::NAN] {
            // A count, with margins recomputed from it: they agree, so only
            // the positivity check can refuse it (and it runs first for NaN,
            // whose margins never compare equal).
            let mut broken = store.clone();
            let own = broken.nodes[counted].counted_mut();
            own.count = with_first(&own.count, v);
            own.sums = sparsela::MarginSums::of(&own.count);
            refused(&broken, &format!("node {counted}: count"));
            // An `L` factor.
            let mut broken = store.clone();
            if let Node::AnchorChain(chain, _) = &mut broken.nodes[chained] {
                let chain = Arc::make_mut(chain);
                chain.l = with_first(&chain.l, v);
            }
            refused(&broken, &format!("node {chained}: L factor"));
            // The anchor matrix.
            let mut broken = store.clone();
            broken.anchor = with_first(&broken.anchor, v);
            refused(&broken, "anchor matrix");
        }
        decode_store(&mut Reader::new(&encoded(&store)), &catalog).unwrap();
    }

    #[test]
    fn margin_corruption_is_refused() {
        let (store, catalog) = store();
        let mut broken = store.clone();
        // Margins drift from their count matrix → decode must refuse.
        let sums = &mut broken.nodes[0].counted_mut().sums;
        *sums = sparsela::MarginSums::from_parts(
            sums.rows().iter().map(|&v| v + 1.0).collect(),
            sums.cols().to_vec(),
        );
        let bytes = encoded(&broken);
        let err = decode_store(&mut Reader::new(&bytes), &catalog).unwrap_err();
        assert!(err.to_string().contains("margins"));
    }
}
