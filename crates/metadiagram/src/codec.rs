//! Binary encode/decode of the delta-count store and its catalog types.
//!
//! A [`DeltaCatalogCounts`] is the whole counting state of an alignment
//! session: the merged anchor matrix, every materialized count matrix with
//! its maintained [`sparsela::MarginSums`], the `L`/`R` factor chains that
//! make anchor updates incremental, and the work counters. This module
//! lays all of it out as bytes (on top of [`sparsela::codec`] and the
//! vendored [`serde::bin`] primitives) so `session::snapshot` can persist
//! a `Counted` stage and a fresh process can resume `update_anchors`
//! without recounting — see `docs/SNAPSHOT_FORMAT.md` for the file-level
//! framing around this payload.
//!
//! **What is stored vs recomputed.** Each anchor chain stores `L` and `R`
//! only; the cached transpose `Lᵀ` is recomputed on decode
//! ([`sparsela::CsrMatrix::transpose`] is exact and deterministic, and the
//! transpose is a third of every chain's bytes). Everything else decodes
//! bit-identically from the stream.
//!
//! **Decode-time validation.** Checksums upstream catch bit-rot; this
//! layer rejects *semantically* broken payloads, whatever their origin:
//! every CSR re-validates its structural invariants, stack nodes may only
//! reference earlier nodes (the dependency order a propagation pass relies
//! on), node kinds must agree with their diagram shapes, a stack may hold
//! at most one anchor-dependent part, factor shapes
//! must compose with the anchor matrix, stored margins must match their
//! count matrix bit-for-bit, and the catalog mapping must agree with the
//! catalog rebuilt from the stored [`FeatureSet`]. A payload that fails
//! any check is refused with a typed error — never opened approximately.

use crate::catalog::{Catalog, FeatureSet};
use crate::delta::{DeltaCatalogCounts, DeltaStats, FactorChain, Node, NodeCount};
use crate::diagram::{AttrPathId, Diagram, SocialPathId};
use serde::bin::{Error, Reader, Writer};
use sparsela::codec::{
    csr_encoded_len, decode_csr, decode_margins, decode_threading, encode_csr, encode_margins,
    encode_threading, margins_encoded_len,
};
use sparsela::Threading;
use std::sync::Arc;

/// Hostile input could nest `Diagram::Stack` arbitrarily deep; the paper's
/// catalog never exceeds depth 3, so anything past this bound is refused
/// before the recursive decoder can overflow the stack.
const MAX_DIAGRAM_DEPTH: usize = 16;

fn feature_set_tag(set: FeatureSet) -> u8 {
    match set {
        FeatureSet::MetaPathsOnly => 0,
        FeatureSet::PathsAndSocialDiagrams => 1,
        FeatureSet::PathsAndAttrDiagram => 2,
        FeatureSet::Full => 3,
        FeatureSet::FullWithWords => 4,
    }
}

/// Encodes a [`FeatureSet`] as a one-byte tag.
pub fn encode_feature_set(set: FeatureSet, w: &mut Writer) {
    w.u8(feature_set_tag(set));
}

/// Decodes a [`FeatureSet`] tag.
///
/// # Errors
/// [`Error::Malformed`] on an unknown tag; EOF errors on truncated input.
pub fn decode_feature_set(r: &mut Reader<'_>) -> Result<FeatureSet, Error> {
    match r.u8()? {
        0 => Ok(FeatureSet::MetaPathsOnly),
        1 => Ok(FeatureSet::PathsAndSocialDiagrams),
        2 => Ok(FeatureSet::PathsAndAttrDiagram),
        3 => Ok(FeatureSet::Full),
        4 => Ok(FeatureSet::FullWithWords),
        tag => Err(Error::Malformed(format!("feature set: unknown tag {tag}"))),
    }
}

fn social_tag(p: SocialPathId) -> u8 {
    match p {
        SocialPathId::P1 => 0,
        SocialPathId::P2 => 1,
        SocialPathId::P3 => 2,
        SocialPathId::P4 => 3,
    }
}

fn social_from_tag(tag: u8) -> Result<SocialPathId, Error> {
    match tag {
        0 => Ok(SocialPathId::P1),
        1 => Ok(SocialPathId::P2),
        2 => Ok(SocialPathId::P3),
        3 => Ok(SocialPathId::P4),
        _ => Err(Error::Malformed(format!("social path: unknown tag {tag}"))),
    }
}

fn attr_tag(a: AttrPathId) -> u8 {
    match a {
        AttrPathId::Timestamp => 0,
        AttrPathId::Location => 1,
        AttrPathId::Word => 2,
    }
}

fn attr_from_tag(tag: u8) -> Result<AttrPathId, Error> {
    match tag {
        0 => Ok(AttrPathId::Timestamp),
        1 => Ok(AttrPathId::Location),
        2 => Ok(AttrPathId::Word),
        _ => Err(Error::Malformed(format!("attr path: unknown tag {tag}"))),
    }
}

const DIAGRAM_SOCIAL: u8 = 0;
const DIAGRAM_ATTR: u8 = 1;
const DIAGRAM_SOCIAL_PAIR: u8 = 2;
const DIAGRAM_ATTR_PAIR: u8 = 3;
const DIAGRAM_STACK: u8 = 4;

/// Encodes a [`Diagram`] recursively (tag byte per node).
pub fn encode_diagram(d: &Diagram, w: &mut Writer) {
    match d {
        Diagram::Social(p) => {
            w.u8(DIAGRAM_SOCIAL);
            w.u8(social_tag(*p));
        }
        Diagram::Attr(a) => {
            w.u8(DIAGRAM_ATTR);
            w.u8(attr_tag(*a));
        }
        Diagram::SocialPair(a, b) => {
            w.u8(DIAGRAM_SOCIAL_PAIR);
            w.u8(social_tag(*a));
            w.u8(social_tag(*b));
        }
        Diagram::AttrPair(a, b) => {
            w.u8(DIAGRAM_ATTR_PAIR);
            w.u8(attr_tag(*a));
            w.u8(attr_tag(*b));
        }
        Diagram::Stack(parts) => {
            w.u8(DIAGRAM_STACK);
            w.usize(parts.len());
            for p in parts {
                encode_diagram(p, w);
            }
        }
    }
}

/// Decodes a [`Diagram`], refusing nesting deeper than the catalog could
/// ever produce.
///
/// # Errors
/// [`Error::Malformed`] on unknown tags or excessive nesting; EOF errors
/// on truncated input.
pub fn decode_diagram(r: &mut Reader<'_>) -> Result<Diagram, Error> {
    decode_diagram_at(r, 0)
}

fn decode_diagram_at(r: &mut Reader<'_>, depth: usize) -> Result<Diagram, Error> {
    if depth > MAX_DIAGRAM_DEPTH {
        return Err(Error::Malformed(format!(
            "diagram nested deeper than {MAX_DIAGRAM_DEPTH}"
        )));
    }
    match r.u8()? {
        DIAGRAM_SOCIAL => Ok(Diagram::Social(social_from_tag(r.u8()?)?)),
        DIAGRAM_ATTR => Ok(Diagram::Attr(attr_from_tag(r.u8()?)?)),
        DIAGRAM_SOCIAL_PAIR => Ok(Diagram::SocialPair(
            social_from_tag(r.u8()?)?,
            social_from_tag(r.u8()?)?,
        )),
        DIAGRAM_ATTR_PAIR => Ok(Diagram::AttrPair(
            attr_from_tag(r.u8()?)?,
            attr_from_tag(r.u8()?)?,
        )),
        DIAGRAM_STACK => {
            // Each part is ≥ 2 bytes (tag + payload).
            let len = r.seq_len(2)?;
            let mut parts = Vec::with_capacity(len);
            for _ in 0..len {
                parts.push(decode_diagram_at(r, depth + 1)?);
            }
            Ok(Diagram::Stack(parts))
        }
        tag => Err(Error::Malformed(format!("diagram: unknown tag {tag}"))),
    }
}

const NODE_ANCHOR_FREE: u8 = 0;
const NODE_ANCHOR_CHAIN: u8 = 1;
const NODE_STACK: u8 = 2;

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

/// Encodes the whole store: anchor matrix, materialized nodes in
/// dependency order (diagram, kind, count, margins each), the catalog
/// mapping, the threading knob, and the work counters.
pub fn encode_store(store: &DeltaCatalogCounts, w: &mut Writer) {
    encode_csr(&store.anchor, w);
    w.usize(store.order.len());
    for (diagram, node) in store.order.iter().zip(&store.nodes) {
        encode_diagram(diagram, w);
        match node {
            Node::AnchorFree(_) => w.u8(NODE_ANCHOR_FREE),
            Node::AnchorChain(chain, _) => {
                w.u8(NODE_ANCHOR_CHAIN);
                encode_csr(&chain.l, w);
                encode_csr(&chain.r, w);
            }
            Node::Stack(parts, _) => {
                w.u8(NODE_STACK);
                w.usize_slice(parts);
            }
        }
        let counted = node.counted();
        encode_csr(&counted.count, w);
        encode_margins(&counted.sums, w);
    }
    w.usize_slice(&store.catalog_pos);
    encode_threading(store.threading, w);
    encode_stats(&store.stats, w);
}

fn diagram_encoded_len(d: &Diagram) -> usize {
    match d {
        Diagram::Social(_) | Diagram::Attr(_) => 2,
        Diagram::SocialPair(_, _) | Diagram::AttrPair(_, _) => 3,
        Diagram::Stack(parts) => 1 + 8 + parts.iter().map(diagram_encoded_len).sum::<usize>(),
    }
}

/// Exact byte length [`encode_store`] will produce for `store` — the
/// snapshot layer pre-sizes its section buffer with this so the encode
/// pass never reallocates (save-side throughput then tracks the bulk
/// slice writes instead of `Vec` growth).
pub fn store_encoded_len(store: &DeltaCatalogCounts) -> usize {
    let mut len = csr_encoded_len(&store.anchor) + 8; // anchor + node count
    for (diagram, node) in store.order.iter().zip(&store.nodes) {
        len += diagram_encoded_len(diagram) + 1; // diagram + kind tag
        len += match node {
            Node::AnchorFree(_) => 0,
            Node::AnchorChain(chain, _) => csr_encoded_len(&chain.l) + csr_encoded_len(&chain.r),
            Node::Stack(parts, _) => 8 + parts.len() * 8,
        };
        let counted = node.counted();
        len += csr_encoded_len(&counted.count) + margins_encoded_len(&counted.sums);
    }
    len += 8 + store.catalog_pos.len() * 8; // catalog mapping
    len += match store.threading {
        Threading::Threads(_) => 1 + 8,
        Threading::Serial | Threading::Auto => 1,
    };
    len + 3 * 8 // stats
}

/// Decodes a store encoded by [`encode_store`] and cross-validates it
/// against `catalog` (the catalog rebuilt from the snapshot's stored
/// [`FeatureSet`]). The result is bit-identical to the encoded store —
/// including the recomputed `Lᵀ` caches — so every subsequent
/// `update_anchors` produces exactly the bytes the never-persisted store
/// would. This is the only door a stored store comes in by, and updates
/// trust what it lets through: a store it returns has every count of the
/// anchor shape, margins equal to their counts, chains that compose with
/// the anchor matrix, and stacks over earlier nodes with at most one
/// anchor-dependent part.
///
/// # Errors
/// EOF/length errors on truncated input; [`Error::Malformed`] when any
/// structural or semantic invariant fails (CSR shape, dependency order,
/// kind/diagram agreement, a stack over more than one anchor-dependent
/// part, factor composition, margin agreement, catalog mapping).
pub fn decode_store(r: &mut Reader<'_>, catalog: &Catalog) -> Result<DeltaCatalogCounts, Error> {
    let anchor = decode_csr(r)?;
    let (n1, n2) = anchor.shape();
    let n_nodes = r.seq_len(1)?;
    let mut order = Vec::with_capacity(n_nodes);
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut dependent = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let diagram = decode_diagram(r)?;
        // The node's kind and payload; its count follows. A restored store
        // holds its own copies of the parts a built one shares with the
        // other stores of its networks.
        let node: Box<dyn FnOnce(NodeCount) -> Node> = match r.u8()? {
            NODE_ANCHOR_FREE => Box::new(|counted| Node::AnchorFree(Arc::new(counted))),
            NODE_ANCHOR_CHAIN => {
                let l = decode_csr(r)?;
                let rr = decode_csr(r)?;
                if l.shape() != (n1, n1) || rr.shape() != (n2, n2) {
                    return Err(Error::Malformed(format!(
                        "node {i}: factor chain shapes {:?}/{:?} do not compose with the \
                         {n1}×{n2} anchor matrix",
                        l.shape(),
                        rr.shape()
                    )));
                }
                let chain = Arc::new(FactorChain::new(l, rr));
                Box::new(move |counted| Node::AnchorChain(chain, counted))
            }
            NODE_STACK => {
                let parts = r.usize_slice()?;
                if parts.is_empty() || parts.iter().any(|&p| p >= i) {
                    return Err(Error::Malformed(format!(
                        "node {i}: stack parts {parts:?} break dependency order"
                    )));
                }
                Box::new(move |counted| Node::Stack(parts, counted))
            }
            tag => {
                return Err(Error::Malformed(format!(
                    "node {i}: unknown kind tag {tag}"
                )))
            }
        };
        let count = decode_csr(r)?;
        if count.shape() != (n1, n2) {
            return Err(Error::Malformed(format!(
                "node {i}: count shape {:?} != anchor shape ({n1}, {n2})",
                count.shape()
            )));
        }
        let sums = decode_margins(r)?;
        if !sums.matches(&count) {
            return Err(Error::Malformed(format!(
                "node {i}: stored margins disagree with the count matrix"
            )));
        }
        let node = node(NodeCount { count, sums });
        // The kind is fully determined by the diagram shape (mirrors
        // `DeltaCatalogCounts::build`): social paths and social
        // middle-stackings are anchor chains, attribute paths and their
        // middle-stackings are anchor-free, endpoint stackings are
        // stacks whose stored part indices must name exactly the
        // diagram's own parts, in order. A checksum-valid file whose
        // kinds disagree would propagate updates through the wrong
        // nodes — refuse it.
        let agrees = match (&diagram, &node) {
            (Diagram::Social(_) | Diagram::SocialPair(_, _), Node::AnchorChain(..)) => true,
            (Diagram::Attr(_) | Diagram::AttrPair(_, _), Node::AnchorFree(_)) => true,
            (Diagram::Stack(ds), Node::Stack(parts, _)) => {
                parts.len() == ds.len()
                    && parts
                        .iter()
                        .zip(ds.iter())
                        .all(|(&p, d)| &order[p] as &Diagram == d)
            }
            _ => false,
        };
        if !agrees {
            return Err(Error::Malformed(format!(
                "node {i}: kind does not match diagram {}",
                diagram.name()
            )));
        }
        // The delta path updates a stack from its one moving part's
        // increment; a stack over two anchor-dependent parts has no such
        // rule.
        dependent.push(
            node.anchor_dependent(&dependent)
                .map_err(|msg| Error::Malformed(format!("node {i}: {msg}")))?,
        );
        order.push(diagram);
        nodes.push(node);
    }
    let catalog_pos = r.usize_slice()?;
    if catalog_pos.len() != catalog.len() {
        return Err(Error::Malformed(format!(
            "catalog mapping has {} entries, catalog has {}",
            catalog_pos.len(),
            catalog.len()
        )));
    }
    for (cat, (&pos, entry)) in catalog_pos.iter().zip(catalog.entries()).enumerate() {
        if pos >= order.len() {
            return Err(Error::Malformed(format!(
                "catalog entry {cat} points past the {} materialized nodes",
                order.len()
            )));
        }
        if order[pos] != entry.diagram {
            return Err(Error::Malformed(format!(
                "catalog entry {cat} ({}) maps to node {pos} ({})",
                entry.name,
                order[pos].name()
            )));
        }
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
            FeatureSet::FullWithWords,
        ] {
            let mut w = Writer::new();
            encode_feature_set(set, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(decode_feature_set(&mut Reader::new(&bytes)).unwrap(), set);
        }
        assert!(decode_feature_set(&mut Reader::new(&[99])).is_err());
    }

    #[test]
    fn every_catalog_diagram_round_trips() {
        for entry in Catalog::new(FeatureSet::FullWithWords).entries() {
            let mut w = Writer::new();
            encode_diagram(&entry.diagram, &mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_diagram(&mut r).unwrap(), entry.diagram);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn hostile_diagram_nesting_is_refused() {
        // A stack-of-stack-of-… chain deeper than MAX_DIAGRAM_DEPTH.
        let mut w = Writer::new();
        for _ in 0..(MAX_DIAGRAM_DEPTH + 2) {
            w.u8(DIAGRAM_STACK);
            w.usize(1);
        }
        w.u8(DIAGRAM_SOCIAL);
        w.u8(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_diagram(&mut Reader::new(&bytes)),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn store_round_trips_bit_identically() {
        let (store, catalog) = store();
        let bytes = encoded(&store);
        let mut r = Reader::new(&bytes);
        let back = decode_store(&mut r, &catalog).unwrap();
        assert!(r.is_exhausted());
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
    fn kind_diagram_disagreement_is_refused() {
        // A checksum-valid payload whose node kinds disagree with their
        // diagrams would propagate updates through the wrong nodes; the
        // decoder must refuse it, not open it approximately.
        let (store, catalog) = store();
        // An anchor-dependent diagram tagged AnchorFree: updates to it
        // would be silently skipped.
        let mut broken = store.clone();
        let i = broken
            .order
            .iter()
            .position(|d| matches!(d, Diagram::Social(_)))
            .expect("catalog has social paths");
        broken.nodes[i] = Node::AnchorFree(Arc::new(broken.nodes[i].counted().clone()));
        let err = decode_store(&mut Reader::new(&encoded(&broken)), &catalog).unwrap_err();
        assert!(err.to_string().contains("kind does not match"));
        // A stack whose stored part indices name the wrong diagrams.
        let mut broken = store.clone();
        let s = broken
            .nodes
            .iter()
            .position(|k| matches!(k, Node::Stack(p, _) if p.len() == 2))
            .expect("catalog has two-part stacks");
        if let Node::Stack(parts, _) = &mut broken.nodes[s] {
            parts.reverse();
        }
        let err = decode_store(&mut Reader::new(&encoded(&broken)), &catalog).unwrap_err();
        assert!(err.to_string().contains("kind does not match"));
    }

    #[test]
    fn stack_over_two_anchor_dependent_parts_is_refused() {
        // Stack([Social(P1), Social(P2)]) names its parts correctly, so the
        // kind/diagram check passes, but the delta path can update a stack
        // from one moving part only.
        let (store, catalog) = store();
        let mut broken = store.clone();
        let p1 = broken
            .order
            .iter()
            .position(|d| *d == Diagram::Social(SocialPathId::P1))
            .expect("catalog has P1");
        let p2 = broken
            .order
            .iter()
            .position(|d| *d == Diagram::Social(SocialPathId::P2))
            .expect("catalog has P2");
        let s = broken
            .nodes
            .iter()
            .position(|k| matches!(k, Node::Stack(p, _) if p.len() == 2))
            .expect("catalog has two-part stacks");
        broken.order[s] = Diagram::Stack(vec![
            Diagram::Social(SocialPathId::P1),
            Diagram::Social(SocialPathId::P2),
        ]);
        broken.nodes[s] = Node::Stack(vec![p1, p2], broken.nodes[s].counted().clone());
        let err = decode_store(&mut Reader::new(&encoded(&broken)), &catalog).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)));
        assert!(err.to_string().contains("anchor-dependent"), "{err}");
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
        // A stack part naming its own node (dependency order violated).
        let mut broken = store.clone();
        let s = broken
            .nodes
            .iter()
            .position(|node| matches!(node, Node::Stack(..)))
            .expect("catalog has stacks");
        if let Node::Stack(parts, _) = &mut broken.nodes[s] {
            parts[0] = s;
        }
        let err = refused(&broken, "self part");
        assert!(err.contains("dependency order"), "{err}");
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
