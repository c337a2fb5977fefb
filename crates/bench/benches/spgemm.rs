//! SpGEMM kernel benchmark: dense-accumulator vs sort-merge strategies on
//! synthetic sparse matrices shaped like the engine's adjacency products,
//! plus the row-partitioned parallel kernel at 1/2/4 workers vs serial.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsela::spgemm::{spgemm_threaded, spgemm_with, Accumulator, Threading};
use sparsela::{CooMatrix, CsrMatrix};

fn random_sparse(rng: &mut StdRng, nrows: usize, ncols: usize, nnz_per_row: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nrows * nnz_per_row);
    for r in 0..nrows {
        for _ in 0..nnz_per_row {
            coo.push(r, rng.gen_range(0..ncols), 1.0).unwrap();
        }
    }
    coo.to_csr()
}

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    for &(n, d) in &[(500usize, 8usize), (2000, 16)] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_sparse(&mut rng, n, n, d);
        let b = random_sparse(&mut rng, n, n, d);
        group.bench_with_input(
            BenchmarkId::new("dense_acc", format!("{n}x{n}@{d}")),
            &(),
            |bch, _| {
                bch.iter(|| spgemm_with(black_box(&a), black_box(&b), Accumulator::Dense).unwrap())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sort_merge", format!("{n}x{n}@{d}")),
            &(),
            |bch, _| {
                bch.iter(|| {
                    spgemm_with(black_box(&a), black_box(&b), Accumulator::SortMerge).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_spgemm_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_parallel");
    for &(n, d) in &[(2000usize, 16usize), (8000, 24)] {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_sparse(&mut rng, n, n, d);
        let b = random_sparse(&mut rng, n, n, d);
        group.bench_with_input(
            BenchmarkId::new("serial", format!("{n}x{n}@{d}")),
            &(),
            |bch, _| {
                bch.iter(|| spgemm_with(black_box(&a), black_box(&b), Accumulator::Auto).unwrap())
            },
        );
        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), format!("{n}x{n}@{d}")),
                &(),
                |bch, _| {
                    bch.iter(|| {
                        spgemm_threaded(
                            black_box(&a),
                            black_box(&b),
                            Accumulator::Auto,
                            Threading::Threads(threads),
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm, bench_spgemm_parallel);
criterion_main!(benches);
