//! The feature catalog Φ (paper §III-B.2).
//!
//! The complete catalog is
//! `Φ = P ∪ Ψf² ∪ Ψa² ∪ Ψf,a ∪ Ψf,a² ∪ Ψf²,a²`:
//!
//! | family  | members                          | count |
//! |---------|----------------------------------|------:|
//! | `P`     | P1..P4, P5, P6                   | 6     |
//! | `Ψf²`   | Pi × Pj, i < j ∈ {1..4}          | 6     |
//! | `Ψa²`   | P5 × P6                          | 1     |
//! | `Ψf,a`  | Pi × Pj, i ∈ f, j ∈ a            | 8     |
//! | `Ψf,a²` | Pi × (P5 × P6)                   | 4     |
//! | `Ψf²,a²`| (Pi × Pj) × (P5 × P6), i < j     | 6     |
//!
//! for **31 features** total. `Pi × Pi` degenerates to `Pi` (stacking a
//! binary path onto itself adds nothing), so only unordered distinct pairs
//! enter the diagram families.

use crate::diagram::{AttrPathId, Diagram, SocialPathId};

/// Which slice of the catalog to use — the paper's MP vs MPMD comparison
/// plus the intermediate slices used by the feature-family ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// Meta paths only (the paper's `-MP` feature sets): P1..P6.
    MetaPathsOnly,
    /// Paths plus the social diagram family Ψf².
    PathsAndSocialDiagrams,
    /// Paths plus the attribute diagram Ψa².
    PathsAndAttrDiagram,
    /// The full 31-feature catalog (the paper's `-MPMD` feature sets).
    Full,
    /// Extension beyond the paper: the full catalog with the **word**
    /// attribute path PW added to `Pa` — 58 features. The schema's Word
    /// type appears in the paper's Fig. 2 but never in its catalog; this
    /// slice exercises it (requires networks generated with a vocabulary).
    FullWithWords,
}

/// One named feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Report name (`P1`, `Ψ[P1×P2]`, …).
    pub name: String,
    /// The diagram whose Dice proximity is the feature value.
    pub diagram: Diagram,
}

/// An ordered feature catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    entries: Vec<CatalogEntry>,
    set: FeatureSet,
}

fn entry(diagram: Diagram) -> CatalogEntry {
    CatalogEntry {
        name: diagram.name(),
        diagram,
    }
}

impl Catalog {
    /// Builds the catalog slice for `set`.
    pub fn new(set: FeatureSet) -> Self {
        let mut entries = Vec::new();
        let attrs: Vec<AttrPathId> = match set {
            FeatureSet::FullWithWords => {
                vec![
                    AttrPathId::Timestamp,
                    AttrPathId::Location,
                    AttrPathId::Word,
                ]
            }
            _ => AttrPathId::PAPER.to_vec(),
        };
        // P: the base meta paths.
        for p in SocialPathId::ALL {
            entries.push(entry(Diagram::Social(p)));
        }
        for &a in &attrs {
            entries.push(entry(Diagram::Attr(a)));
        }
        let social_pairs: Vec<(SocialPathId, SocialPathId)> = {
            let mut v = Vec::new();
            for (ii, &i) in SocialPathId::ALL.iter().enumerate() {
                for &j in &SocialPathId::ALL[ii + 1..] {
                    v.push((i, j));
                }
            }
            v
        };
        match set {
            FeatureSet::MetaPathsOnly => {}
            FeatureSet::PathsAndSocialDiagrams => {
                for &(i, j) in &social_pairs {
                    entries.push(entry(Diagram::SocialPair(i, j)));
                }
            }
            FeatureSet::PathsAndAttrDiagram => {
                entries.push(entry(Diagram::psi2()));
            }
            FeatureSet::Full | FeatureSet::FullWithWords => {
                let attr_pairs: Vec<(AttrPathId, AttrPathId)> = {
                    let mut v = Vec::new();
                    for (ii, &a) in attrs.iter().enumerate() {
                        for &b in &attrs[ii + 1..] {
                            v.push((a, b));
                        }
                    }
                    v
                };
                // Ψf².
                for &(i, j) in &social_pairs {
                    entries.push(entry(Diagram::SocialPair(i, j)));
                }
                // Ψa² (one pair in the paper's catalog; three with words).
                for &(a, b) in &attr_pairs {
                    entries.push(entry(Diagram::AttrPair(a, b)));
                }
                // Ψf,a.
                for p in SocialPathId::ALL {
                    for &a in &attrs {
                        entries.push(entry(Diagram::Stack(vec![
                            Diagram::Social(p),
                            Diagram::Attr(a),
                        ])));
                    }
                }
                // Ψf,a².
                for p in SocialPathId::ALL {
                    for &(a, b) in &attr_pairs {
                        entries.push(entry(Diagram::Stack(vec![
                            Diagram::Social(p),
                            Diagram::AttrPair(a, b),
                        ])));
                    }
                }
                // Ψf²,a².
                for &(i, j) in &social_pairs {
                    for &(a, b) in &attr_pairs {
                        entries.push(entry(Diagram::Stack(vec![
                            Diagram::SocialPair(i, j),
                            Diagram::AttrPair(a, b),
                        ])));
                    }
                }
            }
        }
        Catalog { entries, set }
    }

    /// The catalog entries in evaluation order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Catalogs are never empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slice this catalog was built for.
    pub fn feature_set(&self) -> FeatureSet {
        self.set
    }

    /// Feature names in order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The covering set of every entry, in catalog order (the input to
    /// [`crate::covering::plan_order`] / [`crate::covering::plan_dag`]).
    pub fn coverings(&self) -> Vec<crate::covering::CoveringSet> {
        self.entries
            .iter()
            .map(|e| e.diagram.covering_set())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn family_sizes_match_paper() {
        assert_eq!(Catalog::new(FeatureSet::MetaPathsOnly).len(), 6);
        assert_eq!(Catalog::new(FeatureSet::PathsAndSocialDiagrams).len(), 12);
        assert_eq!(Catalog::new(FeatureSet::PathsAndAttrDiagram).len(), 7);
        assert_eq!(Catalog::new(FeatureSet::Full).len(), 31);
    }

    #[test]
    fn words_extension_size() {
        // 7 paths + 6 Ψf² + 3 Ψa² + 12 Ψf,a + 12 Ψf,a² + 18 Ψf²,a² = 58.
        let c = Catalog::new(FeatureSet::FullWithWords);
        assert_eq!(c.len(), 58);
        let names: HashSet<_> = c.names().into_iter().collect();
        assert_eq!(names.len(), 58, "all names distinct");
        assert!(names.contains("PW"));
        assert!(names.contains("Ψ[P5×PW]"));
        assert!(names.contains("Ψ[P6×PW]"));
    }

    #[test]
    fn full_catalog_has_distinct_names() {
        let c = Catalog::new(FeatureSet::Full);
        let names: HashSet<_> = c.names().into_iter().collect();
        assert_eq!(names.len(), 31);
    }

    #[test]
    fn paths_prefix_is_shared_across_sets() {
        let mp = Catalog::new(FeatureSet::MetaPathsOnly);
        let full = Catalog::new(FeatureSet::Full);
        for (a, b) in mp.entries().iter().zip(full.entries().iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn full_catalog_contains_named_diagrams() {
        let c = Catalog::new(FeatureSet::Full);
        let names = c.names();
        assert!(names.contains(&"P1"));
        assert!(names.contains(&"P6"));
        assert!(names.contains(&"Ψ[P1×P2]"));
        assert!(names.contains(&"Ψ[P5×P6]"));
        assert!(names.contains(&"Ψ[P1×Ψ[P5×P6]]"));
    }

    #[test]
    fn no_degenerate_self_pairs() {
        let c = Catalog::new(FeatureSet::Full);
        for e in c.entries() {
            if let Diagram::SocialPair(i, j) = &e.diagram {
                assert_ne!(i, j, "degenerate pair {i:?}×{j:?} in catalog");
            }
        }
    }

    #[test]
    fn feature_set_is_recorded() {
        assert_eq!(
            Catalog::new(FeatureSet::Full).feature_set(),
            FeatureSet::Full
        );
        assert!(!Catalog::new(FeatureSet::Full).is_empty());
    }
}
