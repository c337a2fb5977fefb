//! Full-catalog feature extraction on generated worlds — the dominant cost
//! of one experiment fold: the delta store's catalog count plus the
//! candidate gather, serial and with the diagram/candidate fan-out at 2 and
//! 4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetnet::aligned::anchor_matrix;
use metadiagram::{extract_features, Catalog, DeltaCatalogCounts, FeatureSet, Threading};

/// Counts `catalog` against `amat` and gathers the candidates' features.
fn featurize(
    world: &datagen::GeneratedWorld,
    amat: &sparsela::CsrMatrix,
    catalog: &Catalog,
    candidates: &[(hetnet::UserId, hetnet::UserId)],
    threading: Threading,
) -> metadiagram::FeatureMatrix {
    let store = DeltaCatalogCounts::build(
        world.left(),
        world.right(),
        amat.clone(),
        catalog,
        threading,
    )
    .unwrap();
    extract_features(&store, catalog, candidates, threading)
}

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction");
    group.sample_size(10);
    for (name, cfg) in [
        ("tiny", datagen::presets::tiny(3)),
        ("small", datagen::presets::small(3)),
    ] {
        let world = datagen::generate(&cfg);
        let train: Vec<_> = world.truth().links()[..world.truth().len() / 10].to_vec();
        let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
        for (set_name, set) in [
            ("MP", FeatureSet::MetaPathsOnly),
            ("MPMD", FeatureSet::Full),
        ] {
            let catalog = Catalog::new(set);
            group.bench_with_input(BenchmarkId::new(set_name, name), &(), |b, _| {
                b.iter(|| {
                    let amat =
                        anchor_matrix(world.left().n_users(), world.right().n_users(), &train)
                            .unwrap();
                    featurize(&world, &amat, &catalog, &candidates, Threading::Serial)
                })
            });
        }
    }
    group.finish();
}

/// Serial vs parallel extraction of the full MPMD catalog. Each stack
/// reads its already-counted parts; results are bit-identical at every
/// thread count.
fn bench_extraction_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction_parallel");
    group.sample_size(10);
    let world = datagen::generate(&datagen::presets::small(3));
    let train: Vec<_> = world.truth().links()[..world.truth().len() / 10].to_vec();
    let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
    let catalog = Catalog::new(FeatureSet::Full);
    let amat = anchor_matrix(world.left().n_users(), world.right().n_users(), &train).unwrap();

    group.bench_with_input(BenchmarkId::new("serial", "small/MPMD"), &(), |b, _| {
        b.iter(|| featurize(&world, &amat, &catalog, &candidates, Threading::Serial))
    });
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), "small/MPMD"),
            &(),
            |b, _| {
                b.iter(|| {
                    featurize(
                        &world,
                        &amat,
                        &catalog,
                        &candidates,
                        Threading::Threads(threads),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_extraction, bench_extraction_parallel);
criterion_main!(benches);
