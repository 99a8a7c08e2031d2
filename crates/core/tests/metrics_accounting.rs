//! Cross-layer guarantees of the metrics layer:
//!
//! * the flop counts an instrumented run reports equal the closed forms
//!   in `modgemm_core::counts`, across truncation policies;
//! * instrumentation never perturbs the numerics — the `NoopSink` path
//!   and a `CollectingSink` run produce bit-identical products.

use modgemm_core::counts::{conventional_flops, strassen_flops, strassen_levels};
use modgemm_core::exec::{
    strassen_mul, try_strassen_mul_with_sink, workspace_len, ExecPolicy, NodeLayouts,
};
use modgemm_core::metrics::{CollectingSink, NoopSink};
use modgemm_core::{
    try_modgemm_with_ctx, try_modgemm_with_metrics, GemmContext, GemmPlan, ModgemmConfig,
    Truncation,
};
use modgemm_mat::gen::random_matrix;
use modgemm_mat::view::Op;
use modgemm_mat::Matrix;
use modgemm_morton::convert::to_morton;
use modgemm_morton::MortonLayout;

fn layouts(tile: usize, depth: usize) -> NodeLayouts {
    let l = MortonLayout::new(tile, tile, depth);
    NodeLayouts::new(l, l, l)
}

fn morton_operands(layouts: NodeLayouts, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let a: Matrix<f64> = random_matrix(layouts.a.rows(), layouts.a.cols(), seed);
    let b: Matrix<f64> = random_matrix(layouts.b.rows(), layouts.b.cols(), seed + 1);
    let mut ab = vec![0.0; layouts.a.len()];
    let mut bb = vec![0.0; layouts.b.len()];
    to_morton(a.view(), Op::NoTrans, &layouts.a, &mut ab);
    to_morton(b.view(), Op::NoTrans, &layouts.b, &mut bb);
    (ab, bb)
}

#[test]
fn recorded_flops_match_counts_across_policies() {
    // 64×64 of 8×8 tiles (depth 3): deep enough that every policy below
    // takes a different mix of Strassen and conventional levels.
    let layouts = layouts(8, 3);
    let policies = [
        ExecPolicy::default(), // Strassen at every division
        ExecPolicy { strassen_min: 16, ..Default::default() }, // one conventional level
        ExecPolicy { strassen_min: 32, ..Default::default() }, // two
        ExecPolicy { strassen_min: 1 << 20, ..Default::default() }, // pure conventional
    ];
    let (mut ab, mut bb) = morton_operands(layouts, 1);
    for policy in policies {
        let mut cb = vec![0.0; layouts.c.len()];
        let mut ws = vec![0.0; workspace_len(layouts, policy)];
        let mut sink = CollectingSink::new();
        try_strassen_mul_with_sink(&mut ab, &mut bb, &mut cb, layouts, &mut ws, policy, &mut sink)
            .unwrap();
        let m = sink.into_metrics();
        let (pm, pk, pn) = layouts.dims();
        assert_eq!(m.flops, strassen_flops(layouts, policy), "policy {policy:?}");
        assert_eq!(m.conventional_flops, conventional_flops(pm, pk, pn), "policy {policy:?}");
        assert_eq!(m.strassen_levels, strassen_levels(layouts, policy), "policy {policy:?}");
        assert_eq!(m.peak_workspace_elems, ws.len(), "policy {policy:?}");
        // Per-level timing covers exactly the visited levels: one slot
        // per Strassen level plus the handover level (the leaf tile when
        // Strassen runs all the way down).
        assert_eq!(m.level_times.len(), m.strassen_levels + 1, "policy {policy:?}");
    }
    // Sanity on the ordering the closed forms promise: more Strassen
    // levels, fewer flops.
    let full = strassen_flops(layouts, policies[0]);
    let partial = strassen_flops(layouts, policies[1]);
    let none = strassen_flops(layouts, policies[3]);
    assert!(full < partial && partial < none);
    let (pm, pk, pn) = layouts.dims();
    assert_eq!(none, conventional_flops(pm, pk, pn));
}

#[test]
fn pipeline_metrics_flops_match_counts() {
    // Full pipeline at an odd size: the plan's padded layouts are chosen
    // internally, but the recorded plan must still satisfy the closed
    // forms on its *own* padded dimensions.
    let n = 96;
    let a: Matrix<f64> = random_matrix(n, n, 7);
    let b: Matrix<f64> = random_matrix(n, n, 8);
    for strassen_min in [0usize, 24, 1 << 20] {
        let cfg = ModgemmConfig { strassen_min, ..ModgemmConfig::default() };
        let mut c: Matrix<f64> = Matrix::zeros(n, n);
        let mut ctx = GemmContext::new();
        let mut sink = CollectingSink::new();
        try_modgemm_with_metrics(
            1.0,
            Op::NoTrans,
            a.view(),
            Op::NoTrans,
            b.view(),
            0.0,
            c.view_mut(),
            &cfg,
            &mut ctx,
            &mut sink,
        )
        .unwrap();
        let m = sink.into_metrics();
        assert_eq!(m.problem, Some((n, n, n)));
        // conventional_flops(m,k,n) = 2·m·k·n, so summed across plans it
        // must equal twice the recorded padded volume.
        assert_eq!(m.conventional_flops as u128, 2 * m.padded_volume);
        assert!(m.flops <= m.conventional_flops);
        if strassen_min == 0 {
            assert!(m.strassen_levels > 0, "paper policy must take Strassen levels");
            assert!(m.flops < m.conventional_flops);
        } else if strassen_min == 1 << 20 {
            assert_eq!(m.strassen_levels, 0);
            assert_eq!(m.flops, m.conventional_flops);
        }
        assert!(m.padding_ratio() >= 1.0);
        assert!(m.effective_flops() == conventional_flops(n, n, n));
    }
}

#[test]
fn noop_and_collecting_runs_are_bit_identical() {
    // Executor level.
    let layouts = layouts(8, 3);
    let policy = ExecPolicy { strassen_min: 16, ..Default::default() };
    let (mut ab, mut bb) = morton_operands(layouts, 21);
    let mut c_noop = vec![0.0; layouts.c.len()];
    let mut ws = vec![0.0; workspace_len(layouts, policy)];
    strassen_mul(&mut ab, &mut bb, &mut c_noop, layouts, &mut ws, policy);

    let mut c_inst = vec![0.0; layouts.c.len()];
    let mut ws = vec![0.0; workspace_len(layouts, policy)];
    let mut sink = CollectingSink::new();
    try_strassen_mul_with_sink(&mut ab, &mut bb, &mut c_inst, layouts, &mut ws, policy, &mut sink)
        .unwrap();
    assert!(sink.metrics.flops > 0);
    assert_bits_eq(&c_noop, &c_inst);

    // Full pipeline, odd size (padding + conversion in play).
    let n = 97;
    let a: Matrix<f64> = random_matrix(n, n, 31);
    let b: Matrix<f64> = random_matrix(n, n, 32);
    let cfg = ModgemmConfig::default();
    let mut c_noop: Matrix<f64> = Matrix::zeros(n, n);
    let mut ctx = GemmContext::new();
    try_modgemm_with_ctx(
        0.5,
        Op::NoTrans,
        a.view(),
        Op::Trans,
        b.view(),
        0.25,
        c_noop.view_mut(),
        &cfg,
        &mut ctx,
    )
    .unwrap();

    let mut c_inst: Matrix<f64> = Matrix::zeros(n, n);
    let mut ctx = GemmContext::new();
    let mut sink = CollectingSink::new();
    try_modgemm_with_metrics(
        0.5,
        Op::NoTrans,
        a.view(),
        Op::Trans,
        b.view(),
        0.25,
        c_inst.view_mut(),
        &cfg,
        &mut ctx,
        &mut sink,
    )
    .unwrap();
    assert!(sink.metrics.breakdown.total() > std::time::Duration::ZERO);
    assert_bits_eq(c_noop.as_slice(), c_inst.as_slice());
}

#[test]
fn pooled_noop_and_collecting_runs_are_bit_identical() {
    // One DAG level on two workers (64 = 8·2^3, one conventional level
    // below strassen_min 16): the pooled plan must produce the same bits
    // with and without a sink, and the instrumented run must report the
    // same plan facts as the closed forms plus the pool counters.
    let cfg = ModgemmConfig {
        truncation: Truncation::Fixed(8),
        strassen_min: 16,
        parallel_depth: 1,
        threads: 2,
        ..ModgemmConfig::default()
    };
    let n = 64;
    let plan = GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap();
    assert_eq!(plan.parallel_depth(), 1);
    let a: Matrix<f64> = random_matrix(n, n, 21);
    let b: Matrix<f64> = random_matrix(n, n, 22);
    let (av, bv) = (a.view(), b.view());
    let mut c_noop: Matrix<f64> = Matrix::zeros(n, n);
    let mut ctx = GemmContext::new();
    let (op, one, zero) = (Op::NoTrans, 1.0, 0.0);
    plan.try_execute_with_metrics(
        one,
        op,
        av,
        op,
        bv,
        zero,
        c_noop.view_mut(),
        &mut ctx,
        &mut NoopSink,
    )
    .unwrap();
    let mut c_inst: Matrix<f64> = Matrix::zeros(n, n);
    let mut ctx = GemmContext::new();
    let mut sink = CollectingSink::new();
    plan.try_execute_with_metrics(
        one,
        op,
        av,
        op,
        bv,
        zero,
        c_inst.view_mut(),
        &mut ctx,
        &mut sink,
    )
    .unwrap();
    assert_bits_eq(c_noop.as_slice(), c_inst.as_slice());

    let m = sink.into_metrics();
    let layouts = layouts(8, 3);
    let policy = ExecPolicy { strassen_min: 16, ..Default::default() };
    assert_eq!(m.flops, strassen_flops(layouts, policy));
    assert_eq!(m.strassen_levels, strassen_levels(layouts, policy));
    assert!(m.temp_allocations > 0, "a cold context reports its growth");
    let pool = m.pool.expect("pooled runs report pool counters");
    assert_eq!(pool.workers, 2);
    assert!(pool.tasks_executed > 0);
}

fn assert_bits_eq(x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), y.len());
    for (i, (a, b)) in x.iter().zip(y).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
    }
}
