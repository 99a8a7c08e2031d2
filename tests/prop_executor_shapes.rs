//! Property tests driving the raw Morton executor across arbitrary tile
//! shapes and recursion depths (the `modgemm` interface only ever uses
//! planner-chosen shapes; these reach the rest of the space).

use modgemm::core::{strassen_mul, workspace_len, ExecPolicy, NodeLayouts, Variant};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_product;
use modgemm::mat::{Matrix, Op};
use modgemm::morton::convert::{from_morton, to_morton};
use modgemm::morton::MortonLayout;
use proptest::prelude::*;

fn run_exec(
    a: &Matrix<i64>,
    b: &Matrix<i64>,
    tm: usize,
    tk: usize,
    tn: usize,
    depth: usize,
    policy: ExecPolicy,
) -> Matrix<i64> {
    let la = MortonLayout::new(tm, tk, depth);
    let lb = MortonLayout::new(tk, tn, depth);
    let lc = MortonLayout::new(tm, tn, depth);
    let layouts = NodeLayouts::new(la, lb, lc);
    let mut ab = vec![0i64; la.len()];
    let mut bb = vec![0i64; lb.len()];
    let mut cb = vec![0i64; lc.len()];
    to_morton(a.view(), Op::NoTrans, &la, &mut ab);
    to_morton(b.view(), Op::NoTrans, &lb, &mut bb);
    let mut ws = vec![0i64; workspace_len(layouts, policy)];
    strassen_mul(&mut ab, &mut bb, &mut cb, layouts, &mut ws, policy);
    let mut out = Matrix::zeros(a.rows(), b.cols());
    from_morton(&cb, &lc, out.view_mut());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn executor_is_exact_for_any_tile_shape(
        tm in 1usize..7,
        tk in 1usize..7,
        tn in 1usize..7,
        depth in 0usize..4,
        pad_m in 0usize..3,
        pad_k in 0usize..3,
        pad_n in 0usize..3,
        strassen_min in prop_oneof![Just(0usize), Just(8), Just(usize::MAX)],
        winograd in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Logical sizes at most the padded sizes, shrunk a little to
        // exercise zero-padding.
        let (pm, pk, pn) = (tm << depth, tk << depth, tn << depth);
        let m = pm.saturating_sub(pad_m).max(1);
        let k = pk.saturating_sub(pad_k).max(1);
        let n = pn.saturating_sub(pad_n).max(1);

        let a: Matrix<i64> = random_matrix(m, k, seed);
        let b: Matrix<i64> = random_matrix(k, n, seed + 1);
        let policy = ExecPolicy {
            strassen_min,
            variant: if winograd { Variant::Winograd } else { Variant::Strassen },
            ..ExecPolicy::default()
        };
        let got = run_exec(&a, &b, tm, tk, tn, depth, policy);
        prop_assert_eq!(got, naive_product(&a, &b));
    }
}
