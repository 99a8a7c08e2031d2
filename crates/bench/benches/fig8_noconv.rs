//! Figure 8: MODGEMM with and without conversion (operands pre-packed in
//! Morton order), against DGEFMM.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use modgemm_baselines::{dgefmm, DgefmmConfig};
use modgemm_bench::{criterion, GEMM_SIZES};
use modgemm_core::{
    layouts_of, modgemm, modgemm_premorton, GemmContext, ModgemmConfig, MortonMatrix,
};
use modgemm_mat::gen::random_problem;
use modgemm_mat::{Matrix, Op};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_noconv");
    let mod_cfg = ModgemmConfig::paper();
    let fmm_cfg = DgefmmConfig::default();

    for n in GEMM_SIZES {
        let (a, b, _) = random_problem::<f64>(n, n, n, 42);
        let mut cmat: Matrix<f64> = Matrix::zeros(n, n);
        g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));

        let plan = mod_cfg.plan(n, n, n).unwrap();
        let layouts = layouts_of(&plan);
        let mut am = MortonMatrix::pack(a.view(), Op::NoTrans, layouts.a);
        let mut bm = MortonMatrix::pack(b.view(), Op::NoTrans, layouts.b);
        let mut cm = MortonMatrix::zeros(n, n, layouts.c);
        // One context across iterations: the workspace is allocated once.
        let mut ctx = GemmContext::new();

        g.bench_with_input(BenchmarkId::new("modgemm_noconv", n), &n, |bch, _| {
            bch.iter(|| {
                modgemm_premorton(&mut am, &mut bm, &mut cm, &mod_cfg, &mut ctx);
                black_box(cm.as_slice());
            })
        });
        g.bench_with_input(BenchmarkId::new("modgemm_with_conv", n), &n, |bch, _| {
            bch.iter(|| {
                modgemm(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    cmat.view_mut(),
                    &mod_cfg,
                );
                black_box(cmat.as_slice());
            })
        });
        g.bench_with_input(BenchmarkId::new("dgefmm", n), &n, |bch, _| {
            bch.iter(|| {
                dgefmm(
                    1.0,
                    Op::NoTrans,
                    a.view(),
                    Op::NoTrans,
                    b.view(),
                    0.0,
                    cmat.view_mut(),
                    &fmm_cfg,
                );
                black_box(cmat.as_slice());
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
