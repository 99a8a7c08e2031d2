//! Figure 8: MODGEMM *without* conversion time vs DGEFMM.
//!
//! Operands are pre-packed into Morton order outside the timed region
//! ("assuming the matrices are already in Morton order"); the timed
//! region is only the core computation. For reference the with-conversion
//! ratio is printed alongside.
//!
//! Expected shape: removing the 5–15% conversion cost makes MODGEMM beat
//! DGEFMM at nearly all sizes.

use modgemm_baselines::{dgefmm, DgefmmConfig};
use modgemm_core::{
    layouts_of, modgemm, modgemm_premorton, GemmContext, ModgemmConfig, MortonMatrix,
};
use modgemm_experiments::{ms, protocol, ratio, Cli, JsonArtifact, Table};
use modgemm_mat::gen::random_problem;
use modgemm_mat::{Matrix, Op};

fn main() {
    let mut art = JsonArtifact::new("fig8_noconv");
    let cli = Cli::parse();
    let sizes = cli.sweep();
    let mod_cfg = ModgemmConfig::paper();
    let fmm_cfg = DgefmmConfig::default();

    let mut table = Table::new(&[
        "n",
        "dgefmm_ms",
        "modgemm_noconv_ms",
        "modgemm_conv_ms",
        "noconv/dgefmm",
        "conv/dgefmm",
    ]);

    for &n in &sizes {
        let (a, b, _) = random_problem::<f64>(n, n, n, 42);
        let mut c: Matrix<f64> = Matrix::zeros(n, n);

        let t_fmm = protocol::measure(n, || {
            dgefmm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &fmm_cfg);
            std::hint::black_box(c.as_slice());
        });

        let t_conv = protocol::measure(n, || {
            modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &mod_cfg);
            std::hint::black_box(c.as_slice());
        });

        // Pre-pack outside the timer; one context serves every timed
        // call, so its workspace is allocated once, not per call.
        let plan = mod_cfg.plan(n, n, n).expect("square sizes are always feasible");
        let layouts = layouts_of(&plan);
        let mut am = MortonMatrix::pack(a.view(), Op::NoTrans, layouts.a);
        let mut bm = MortonMatrix::pack(b.view(), Op::NoTrans, layouts.b);
        let mut cm = MortonMatrix::zeros(n, n, layouts.c);
        let mut ctx = GemmContext::new();
        let t_noconv = protocol::measure(n, || {
            modgemm_premorton(&mut am, &mut bm, &mut cm, &mod_cfg, &mut ctx);
            std::hint::black_box(cm.as_slice());
        });

        let f = t_fmm.as_secs_f64();
        table.row(vec![
            n.to_string(),
            ms(t_fmm),
            ms(t_noconv),
            ms(t_conv),
            ratio(t_noconv.as_secs_f64() / f),
            ratio(t_conv.as_secs_f64() / f),
        ]);
        eprintln!("done n = {n}");
    }

    art.print_table("Figure 8: MODGEMM without conversion vs DGEFMM", &table);
    println!("\nPaper shape: without conversion, MODGEMM <= DGEFMM at nearly all sizes.");

    art.finish();
}
