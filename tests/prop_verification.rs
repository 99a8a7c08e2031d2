//! Property tests for the Freivalds verifier: it must accept every
//! correct product (no false alarms, even with Strassen reassociation)
//! and reject corrupted products with overwhelming probability.

use modgemm::core::verify::{verify_gemm, verify_product};
use modgemm::core::{modgemm, ModgemmConfig, Truncation};
use modgemm::mat::gen::random_matrix;
use modgemm::mat::naive::naive_product;
use modgemm::mat::{Matrix, Op};
use modgemm::morton::tiling::TileRange;
use proptest::prelude::*;

fn small_cfg() -> ModgemmConfig {
    ModgemmConfig {
        truncation: Truncation::MinPadding(TileRange::new(4, 16)),
        ..ModgemmConfig::paper()
    }
}

/// A NaN in C — what the non-finite failpoint plants — compares false
/// against every tolerance, so the check must reject it explicitly.
#[test]
fn rejects_nan_corruption() {
    let a: Matrix<f64> = random_matrix(20, 30, 1);
    let b: Matrix<f64> = random_matrix(30, 25, 2);
    let mut c = naive_product(&a, &b);
    assert!(verify_product(a.view(), b.view(), c.view(), 8, 3));
    c.set(7, 11, f64::NAN);
    assert!(!verify_product(a.view(), b.view(), c.view(), 8, 3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn never_rejects_a_correct_product(
        m in 1usize..60,
        k in 1usize..60,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        let a: Matrix<f64> = random_matrix(m, k, seed);
        let b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let mut c: Matrix<f64> = Matrix::zeros(m, n);
        modgemm(1.0, Op::NoTrans, a.view(), Op::NoTrans, b.view(), 0.0, c.view_mut(), &small_cfg());
        prop_assert!(verify_product(a.view(), b.view(), c.view(), 8, seed + 2));
    }

    #[test]
    fn rejects_large_single_entry_corruption(
        m in 4usize..50,
        k in 4usize..50,
        n in 4usize..50,
        i_frac in 0.0f64..1.0,
        j_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let a: Matrix<f64> = random_matrix(m, k, seed);
        let b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let mut c = naive_product(&a, &b);
        let i = ((i_frac * m as f64) as usize).min(m - 1);
        let j = ((j_frac * n as f64) as usize).min(n - 1);
        // A corruption far above the roundoff tolerance.
        c.set(i, j, c.get(i, j) + 1.0);
        // 16 rounds: the probability of all rounds drawing x[j] = 0 is
        // 2^-16; accept that as negligible for a deterministic seed.
        prop_assert!(!verify_product(a.view(), b.view(), c.view(), 16, seed + 2));
    }

    #[test]
    fn verifies_full_gemm_semantics(
        m in 2usize..40,
        k in 2usize..40,
        n in 2usize..40,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let a: Matrix<f64> = random_matrix(m, k, seed);
        let b: Matrix<f64> = random_matrix(k, n, seed + 1);
        let c0: Matrix<f64> = random_matrix(m, n, seed + 2);
        let mut c = c0.clone();
        modgemm(alpha, Op::NoTrans, a.view(), Op::NoTrans, b.view(), beta, c.view_mut(), &small_cfg());
        prop_assert!(verify_gemm(
            alpha, Op::NoTrans, a.view(), Op::NoTrans, b.view(), beta,
            c0.view(), c.view(), 8, seed + 3,
        ));
    }
}
