//! The non-finite failpoint must corrupt the finished product — after
//! the task that completes an item's root and before any unpack chunk —
//! so that Freivalds verification sees it and the verified-retry path
//! runs. Covered inline (depth 0, one worker) and on the pool (one
//! parallel Strassen level, two workers), where the root's `SPre`/`TPre`
//! run while child products still write C.
//!
//! Runs only with the `failpoints` feature; the sites are process-global,
//! so this binary holds a single test.

#![cfg(feature = "failpoints")]

use modgemm_core::faults::{self, FaultSite, FaultSpec};
use modgemm_core::{GemmContext, GemmError, GemmPlan, ModgemmConfig, VerifyMode};
use modgemm_mat::naive::naive_gemm;
use modgemm_mat::{Matrix, Op};

fn filled(rows: usize, cols: usize, salt: i64) -> Matrix<f64> {
    let data = (0..rows * cols).map(|i| ((i as i64 * 31 + salt) % 17 - 8) as f64).collect();
    Matrix::from_vec(data, rows, cols)
}

#[test]
fn poisoned_product_is_caught_and_retried_inline_and_pooled() {
    let n = 128;
    let (a, b) = (filled(n, n, 1), filled(n, n, 2));
    let mut want = Matrix::zeros(n, n);
    naive_gemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, want.view_mut());

    for (threads, parallel_depth) in [(1usize, 0usize), (2, 1)] {
        for retries in [0u32, 1] {
            let cfg = ModgemmConfig {
                threads,
                parallel_depth,
                verify: VerifyMode::Freivalds { rounds: 4, seed: 7 },
                verify_retries: retries,
                ..ModgemmConfig::default()
            };
            let plan = GemmPlan::<f64>::try_new(n, n, n, &cfg).unwrap();
            assert_eq!(plan.parallel_depth(), parallel_depth, "threads {threads}");
            let mut ctx = GemmContext::new();
            let mut c = Matrix::zeros(n, n);

            faults::arm(FaultSite::NonFinite, FaultSpec::always(1));
            let got = plan.try_execute(
                1.0,
                Op::NoTrans,
                a.view(),
                Op::NoTrans,
                b.view(),
                0.0,
                c.view_mut(),
                &mut ctx,
            );
            assert_eq!(faults::fired(FaultSite::NonFinite), 1, "threads {threads}");
            faults::disarm(FaultSite::NonFinite);

            // The poison reached C: with no retry allowed verification
            // fails; with one, the conventional recompute repairs it.
            if retries == 0 {
                assert!(
                    matches!(got, Err(GemmError::VerificationFailed { .. })),
                    "threads {threads}: the poison must survive to verification, got {got:?}"
                );
            } else {
                got.unwrap();
                assert_eq!(c, want, "threads {threads}: the retry must repair the product");
            }
        }
    }
}
