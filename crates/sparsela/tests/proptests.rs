//! Property tests: every sparse kernel is checked against a naive dense
//! reference implementation on randomly generated matrices.

use proptest::prelude::*;
use sparsela::{
    fused_rows, spgemm, spgemm_lowrank, CholeskyFactor, CooMatrix, CsrMatrix, DenseMatrix,
    MarginSums, RidgeSolver, RowStep, Threading,
};

/// Strategy: a random sparse matrix as (nrows, ncols, dense buffer) with
/// small integer-valued entries (exact float arithmetic, no rounding noise).
fn dense_buffer(max_dim: usize) -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            prop_oneof![
                8 => Just(0.0),
                2 => (-4i32..=4).prop_map(|v| v as f64),
            ],
            r * c,
        )
        .prop_map(move |data| (r, c, data))
    })
}

fn pair_for_product(max_dim: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(n, k, m)| {
        let lhs = proptest::collection::vec(
            prop_oneof![7 => Just(0.0), 3 => (-3i32..=3).prop_map(|v| v as f64)],
            n * k,
        );
        let rhs = proptest::collection::vec(
            prop_oneof![7 => Just(0.0), 3 => (-3i32..=3).prop_map(|v| v as f64)],
            k * m,
        );
        (lhs, rhs).prop_map(move |(a, b)| {
            (
                CsrMatrix::from_dense(n, k, &a),
                CsrMatrix::from_dense(k, m, &b),
            )
        })
    })
}

fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    a.matmul(b)
}

/// A product whose left rows sit on both sides of the dense accumulator's
/// scan threshold (`ncols / 8` multiply-adds), over a right operand wide
/// enough for the threshold to separate them: 32–80 columns, or over 4096
/// columns, where a sparse row's few multiply-adds are far under
/// `ncols / 64` and a dense row sits next to near-empty ones. Right rows 0
/// and 1 are equal and dense; rows `k-3..k` are equal and hold one entry.
/// Left rows 0..5 are, in order:
/// * dense — every column (the scanned path);
/// * sparse — one entry against a one-entry right row (the touched-list
///   path);
/// * sparse and cancelling — `+v, -v, +w` against the three equal
///   one-entry rows, so one slot cancels to exactly 0.0 and is then hit
///   again (listed twice);
/// * dense and cancelling — `+v, -v` against the two equal dense rows,
///   which scans an all-zero row;
/// * empty.
///
/// Later rows pick one of these kinds at random.
fn threshold_straddling_product() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    let nonzero = || prop_oneof![(-3i32..=-1), (1i32..=3)].prop_map(f64::from);
    let width = prop_oneof![32usize..=80, 4097usize..=4400];
    (5usize..=9, 5usize..=8, width).prop_flat_map(move |(n, k, m)| {
        let rhs = proptest::collection::vec(
            prop_oneof![1 => Just(0.0), 2 => (-3i32..=3).prop_map(f64::from)],
            k * m,
        );
        let kinds = proptest::collection::vec(0u8..5, n);
        let lhs = proptest::collection::vec(nonzero(), n * k);
        (rhs, kinds, lhs, 0..m, nonzero()).prop_map(move |(mut r, kinds, lv, col, x)| {
            for j in 0..m {
                r[m + j] = r[j];
                for row in k - 3..k {
                    r[row * m + j] = if j == col { x } else { 0.0 };
                }
            }
            let mut l = vec![0.0; n * k];
            for i in 0..n {
                let kind = if i < 5 { i as u8 } else { kinds[i] };
                let row = &mut l[i * k..(i + 1) * k];
                let v = &lv[i * k..(i + 1) * k];
                match kind {
                    0 => row.copy_from_slice(v),
                    1 => row[k - 1] = v[0],
                    2 => {
                        row[k - 3] = v[0];
                        row[k - 2] = -v[0];
                        row[k - 1] = v[1];
                    }
                    3 => {
                        row[0] = v[0];
                        row[1] = -v[0];
                    }
                    _ => {}
                }
            }
            (
                CsrMatrix::from_dense(n, k, &l),
                CsrMatrix::from_dense(k, m, &r),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spgemm_matches_dense_reference((a, b) in pair_for_product(8)) {
        let sparse = spgemm(&a, &b).unwrap();
        let reference = naive_matmul(&a.to_dense(), &b.to_dense());
        prop_assert!(sparse.to_dense().max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn dense_scan_touched_list_and_sort_merge_match_the_dense_reference(
        (a, b) in threshold_straddling_product()
    ) {
        // The generator's rows 0 (dense) and 1 (sparse) really straddle
        // the scan threshold, and on a wide output the sparse rows sit far
        // under `ncols / 64` multiply-adds: the rows a sort-merge kernel
        // would take, now accumulated on the touched-list path.
        let flops = |i: usize| a.row(i).map(|(k, _)| b.row_nnz(k)).sum::<usize>();
        let threshold = b.ncols() / 8;
        prop_assert!(b.row_nnz(0) == 0 || flops(0) >= threshold);
        prop_assert!(flops(1) < threshold && flops(2) < threshold);
        prop_assert!(b.ncols() <= 4096 || flops(2) < b.ncols() / 64);
        let reference = CsrMatrix::from_dense(
            a.nrows(),
            b.ncols(),
            naive_matmul(&a.to_dense(), &b.to_dense()).data(),
        );
        let got = spgemm(&a, &b).unwrap();
        prop_assert_eq!(&got, &reference);
        // Cancellations to exactly 0.0 are not stored.
        prop_assert!(got.values().iter().all(|&v| v != 0.0));
        // Rows 2 and 3 cancel in full (row 2 in one slot only).
        prop_assert_eq!(reference.row_nnz(3), 0);
    }

    #[test]
    fn fused_rows_match_the_unfused_kernels_at_any_block_count(
        (a, b) in pair_for_product(10),
        given_seed in proptest::collection::vec(-3i32..=3, 100),
        blocks in 1usize..=5
    ) {
        // A product, a given matrix, and Hadamards over both in either
        // order (signed values, so products cancel and 0.0 results drop).
        let p = spgemm(&a, &b).unwrap();
        let (n, m) = p.shape();
        let g: Vec<f64> = (0..n * m).map(|i| f64::from(given_seed[i % given_seed.len()])).collect();
        let given = CsrMatrix::from_dense(n, m, &g);
        let (forward, backward, chained) = ([0usize, 1], [1usize, 0], [2usize, 0, 1]);
        let steps = [
            RowStep::Product(&a, &b),
            RowStep::Given(&given),
            RowStep::Hadamard(&forward),
            RowStep::Hadamard(&backward),
            RowStep::Hadamard(&chained),
        ];
        let out = fused_rows(&steps, (n, m), Threading::Threads(blocks)).unwrap();
        let h = p.hadamard(&given).unwrap();
        let want = [
            Some(p.clone()),
            None,
            Some(h.clone()),
            Some(given.hadamard(&p).unwrap()),
            Some(h.hadamard(&p).unwrap().hadamard(&given).unwrap()),
        ];
        prop_assert_eq!(out.len(), want.len());
        for (got, want) in out.iter().zip(&want) {
            match (got, want) {
                (Some((c, sums)), Some(w)) => {
                    prop_assert_eq!(c, w);
                    prop_assert_eq!(sums, &MarginSums::of(w));
                }
                (None, None) => {}
                _ => prop_assert!(false, "a given step must yield nothing, every other a matrix"),
            }
        }
    }

    #[test]
    fn lowrank_update_is_bit_equal_to_refactored_product(
        n1 in 1usize..=7,
        n2 in 1usize..=7,
        ldata in proptest::collection::vec(prop_oneof![3 => Just(0.0), 1 => (1i32..=3).prop_map(f64::from)], 49),
        rdata in proptest::collection::vec(prop_oneof![3 => Just(0.0), 1 => (1i32..=3).prop_map(f64::from)], 49),
        edges in proptest::collection::vec((0usize..7, 0usize..7), 1..6)
    ) {
        // Nonnegative integer factors (the count-engine regime): the
        // low-rank kernel must reproduce the plain product chain exactly.
        let l = CsrMatrix::from_dense(n1, n1, &ldata[..n1 * n1]);
        let r = CsrMatrix::from_dense(n2, n2, &rdata[..n2 * n2]);
        let mut coo = CooMatrix::new(n1, n2);
        for &(i, j) in &edges {
            coo.push(i % n1, j % n2, 1.0).unwrap();
        }
        let delta = coo.to_csr().binarized();
        let full = spgemm(&spgemm(&l, &delta).unwrap(), &r).unwrap();
        let low = spgemm_lowrank(&l.transpose(), &delta, &r).unwrap();
        prop_assert_eq!(low, full);
    }

    #[test]
    fn transpose_is_involution((r, c, data) in dense_buffer(9)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_entries((r, c, data) in dense_buffer(6)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        let t = m.transpose();
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn hadamard_is_pointwise((r, c, a) in dense_buffer(7), b_seed in proptest::collection::vec(-4i32..=4, 49)) {
        let ma = CsrMatrix::from_dense(r, c, &a);
        let b: Vec<f64> = (0..r * c).map(|i| f64::from(b_seed[i % b_seed.len()])).collect();
        let mb = CsrMatrix::from_dense(r, c, &b);
        let h = ma.hadamard(&mb).unwrap();
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(h.get(i, j), a[i * c + j] * b[i * c + j]);
            }
        }
    }

    #[test]
    fn add_is_pointwise((r, c, a) in dense_buffer(7), b_seed in proptest::collection::vec(-4i32..=4, 49)) {
        let ma = CsrMatrix::from_dense(r, c, &a);
        let b: Vec<f64> = (0..r * c).map(|i| b_seed[i % b_seed.len()] as f64).collect();
        let mb = CsrMatrix::from_dense(r, c, &b);
        let s = ma.add(&mb).unwrap();
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(s.get(i, j), a[i * c + j] + b[i * c + j]);
            }
        }
    }

    #[test]
    fn splice_add_is_bit_equal_to_add(
        (r, c, cells) in (1..=7usize, 1..=7usize).prop_flat_map(|(r, c)| {
            let cell = (
                prop_oneof![3 => Just(0u8), 2 => 1u8..=4],
                prop_oneof![3 => Just(0u8), 2 => 1u8..=4],
            );
            proptest::collection::vec(cell, r * c).prop_map(move |v| (r, c, v))
        })
    ) {
        // A positive base and a positive delta, as every count and every
        // count increment is: the in-place splice must equal add bit for
        // bit, and margins maintained via accumulate must equal a rescan.
        let dense = |f: &dyn Fn(&(u8, u8)) -> f64| -> Vec<f64> { cells.iter().map(f).collect() };
        let base = CsrMatrix::from_dense(r, c, &dense(&|t| f64::from(t.0)));
        let delta = CsrMatrix::from_dense(r, c, &dense(&|t| f64::from(t.1)));
        let mut sums = MarginSums::of(&base);
        sums.accumulate(&delta).unwrap();
        let mut spliced = base.clone();
        spliced.splice_add(&delta).unwrap();
        let reference = base.add(&delta).unwrap();
        prop_assert_eq!(spliced.indptr(), reference.indptr());
        prop_assert_eq!(spliced.indices(), reference.indices());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&spliced), bits(&reference));
        prop_assert!(sums.matches(&spliced));
        // The spliced matrix must still be structurally valid CSR.
        prop_assert!(CsrMatrix::try_new(
            r, c,
            spliced.indptr().to_vec(),
            spliced.indices().to_vec(),
            spliced.values().to_vec()
        ).is_ok());
    }

    #[test]
    fn increment_splice_of_a_stack_equals_the_rehadamard(
        (r, c, cells) in (1..=7usize, 1..=7usize).prop_flat_map(|(r, c)| {
            let cell = (
                prop_oneof![3 => Just(0u8), 2 => 1u8..=4],
                prop_oneof![1 => Just(0u8), 2 => 1u8..=3],
                prop_oneof![2 => Just(0u8), 3 => 1u8..=4],
            );
            proptest::collection::vec(cell, r * c).prop_map(move |v| (r, c, v))
        })
    ) {
        // A stack S = C∘B over a moving count C and a fixed part B, both
        // positive where stored. Splicing the positive increment D into C
        // gives the stack the increment D∘B through the same splice, and
        // the result must equal the re-Hadamard of the spliced C bit for
        // bit, margins included.
        let dense = |f: &dyn Fn(&(u8, u8, u8)) -> f64| -> Vec<f64> { cells.iter().map(f).collect() };
        let count = CsrMatrix::from_dense(r, c, &dense(&|t| f64::from(t.0)));
        let fixed = CsrMatrix::from_dense(r, c, &dense(&|t| f64::from(t.1)));
        let inc = CsrMatrix::from_dense(r, c, &dense(&|t| f64::from(t.2)));

        let mut stack = count.hadamard(&fixed).unwrap();
        let mut sums = MarginSums::of(&stack);
        let ds = inc.hadamard(&fixed).unwrap();
        sums.accumulate(&ds).unwrap();
        stack.splice_add(&ds).unwrap();

        let mut moved = count.clone();
        moved.splice_add(&inc).unwrap();
        let want = moved.hadamard(&fixed).unwrap();
        prop_assert_eq!(stack.indptr(), want.indptr());
        prop_assert_eq!(stack.indices(), want.indices());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&stack), bits(&want));
        prop_assert!(sums.matches(&stack));
    }

    #[test]
    fn coo_roundtrip_accumulates(
        triplets in proptest::collection::vec((0usize..5, 0usize..5, -3i32..=3), 0..40)
    ) {
        let mut coo = CooMatrix::new(5, 5);
        let mut dense = [0.0f64; 25];
        for &(r, c, v) in &triplets {
            coo.push(r, c, v as f64).unwrap();
            dense[r * 5 + c] += v as f64;
        }
        let csr = coo.to_csr();
        for r in 0..5 {
            for c in 0..5 {
                prop_assert_eq!(csr.get(r, c), dense[r * 5 + c]);
            }
        }
        // Structure must be valid (strictly increasing columns per row).
        prop_assert!(CsrMatrix::try_new(
            5, 5,
            csr.indptr().to_vec(),
            csr.indices().to_vec(),
            csr.values().to_vec()
        ).is_ok());
    }

    #[test]
    fn row_col_sums_match_dense((r, c, data) in dense_buffer(8)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        let rs = m.row_sums();
        let cs = m.col_sums();
        for i in 0..r {
            let expect: f64 = (0..c).map(|j| data[i * c + j]).sum();
            prop_assert!((rs[i] - expect).abs() < 1e-12);
        }
        for j in 0..c {
            let expect: f64 = (0..r).map(|i| data[i * c + j]).sum();
            prop_assert!((cs[j] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_is_associative((a, b) in pair_for_product(6)) {
        // (a*b)*I == a*(b*I) on three factors.
        let id = CsrMatrix::identity(b.ncols());
        let left = spgemm(&spgemm(&a, &b).unwrap(), &id).unwrap();
        let right = spgemm(&a, &spgemm(&b, &id).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn cholesky_solves_spd_systems(
        seed in proptest::collection::vec(-3i32..=3, 16),
        rhs in proptest::collection::vec(-5i32..=5, 4)
    ) {
        // A = BᵀB + I is always SPD.
        let b = DenseMatrix::from_rows(4, 4, seed.iter().map(|&v| v as f64).collect());
        let mut a = b.gram();
        for i in 0..4 {
            a[(i, i)] += 1.0;
        }
        let f = CholeskyFactor::factor(&a).unwrap();
        let rhs: Vec<f64> = rhs.iter().map(|&v| v as f64).collect();
        let x = f.solve(&rhs);
        let ax = a.matvec(&x);
        for (g, want) in ax.iter().zip(rhs.iter()) {
            prop_assert!((g - want).abs() < 1e-8);
        }
    }

    #[test]
    fn ridge_satisfies_normal_equations(
        xdata in proptest::collection::vec(-3i32..=3, 12),
        ydata in proptest::collection::vec(-3i32..=3, 4)
    ) {
        let x = DenseMatrix::from_rows(4, 3, xdata.iter().map(|&v| v as f64).collect());
        let y: Vec<f64> = ydata.iter().map(|&v| v as f64).collect();
        let c = 2.0;
        let solver = RidgeSolver::new(&x, c).unwrap();
        let w = solver.solve(&x, &y);
        let mut lhs = x.gram();
        for i in 0..3 {
            for j in 0..3 {
                lhs[(i, j)] *= c;
            }
            lhs[(i, i)] += 1.0;
        }
        let got = lhs.matvec(&w);
        let mut want = x.tr_matvec(&y);
        for v in &mut want {
            *v *= c;
        }
        for (g, r) in got.iter().zip(want.iter()) {
            prop_assert!((g - r).abs() < 1e-8);
        }
    }
}
