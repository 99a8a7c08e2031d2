//! The benchmark's own output check: a Freivalds test of `C = A·B`.
//!
//! It is written here, not taken from `modgemm_core::verify`, because that
//! module is code under test. For a random probe vector `x` it compares
//! `A·(B·x)` with `C·x` row by row, against a tolerance scaled by
//! `|A|·(|B|·|x|)`, the magnitude the exact product sums over. A wrong
//! element `c_ij` shifts row `i` of `C·x` by its error times `x_j`, and
//! every `|x_j| ≥ 0.5`, so any error above the tolerance shows. NaN or
//! infinite results fail.

use crate::rng::Rng;

/// Relative tolerance per row. Strassen-Winograd's f64 error on operands
/// in `[-1, 1)` stays orders of magnitude below this at the sizes run here.
const TOL: f64 = 1e-9;
/// Independent probe vectors per check.
const ROUNDS: u64 = 2;

/// `y ← M·x` and `s ← |M|·|x|` for a column-major `rows × cols` matrix.
fn matvec(m: &[f64], rows: usize, x: &[f64], xa: &[f64], y: &mut [f64], s: &mut [f64]) {
    y.fill(0.0);
    s.fill(0.0);
    for (j, col) in m.chunks_exact(rows).enumerate() {
        let (xj, xaj) = (x[j], xa[j]);
        for ((yi, si), &v) in y.iter_mut().zip(s.iter_mut()).zip(col) {
            *yi += v * xj;
            *si += v.abs() * xaj;
        }
    }
}

/// True when the column-major `m × n` matrix `c` equals `a·b` (`a` is
/// `m × k`, `b` is `k × n`, all with tight leading dimensions) to
/// within rounding. `salt` varies the probe vectors between checks.
pub fn product_ok(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    salt: u64,
) -> bool {
    assert_eq!((a.len(), b.len(), c.len()), (m * k, k * n, m * n), "operand lengths");
    let (mut bx, mut bs) = (vec![0.0; k], vec![0.0; k]);
    let (mut abx, mut scale) = (vec![0.0; m], vec![0.0; m]);
    let (mut cx, mut unused) = (vec![0.0; m], vec![0.0; m]);
    for round in 0..ROUNDS {
        let mut rng = Rng::new(salt, 0xF2E1_0000 + round);
        let x: Vec<f64> = (0..n)
            .map(|_| {
                let v = 0.5 + rng.unit();
                if rng.next_u64() & 1 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let xa: Vec<f64> = x.iter().map(|v| v.abs()).collect();
        matvec(b, k, &x, &xa, &mut bx, &mut bs);
        // The scale |A|·(|B|·|x|) bounds |A|·|B·x| from above.
        matvec(a, m, &bx, &bs, &mut abx, &mut scale);
        matvec(c, m, &x, &xa, &mut cx, &mut unused);
        let row_ok = |(&want, (&got, &s)): (&f64, (&f64, &f64))| (want - got).abs() <= TOL * s;
        if !abx.iter().zip(cx.iter().zip(&scale)).all(row_ok) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for j in 0..n {
            for p in 0..k {
                let bpj = b[p + j * k];
                for i in 0..m {
                    c[i + j * m] += a[i + p * m] * bpj;
                }
            }
        }
        c
    }

    fn case(m: usize, k: usize, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::new(11, 0);
        let a = rng.values(m * k);
        let b = rng.values(k * n);
        let c = naive(m, k, n, &a, &b);
        (a, b, c)
    }

    #[test]
    fn accepts_a_correct_product() {
        let (m, k, n) = (37, 53, 29);
        let (a, b, c) = case(m, k, n);
        assert!(product_ok(m, k, n, &a, &b, &c, 1));
    }

    #[test]
    fn accepts_the_library_product() {
        let (m, k, n) = (200, 180, 190);
        let (a, b, _) = case(m, k, n);
        let mut c = vec![f64::NAN; m * n];
        let cfg = modgemm_core::ModgemmConfig::default();
        modgemm_core::blas::try_dgemm(
            modgemm_mat::Op::NoTrans,
            modgemm_mat::Op::NoTrans,
            m,
            n,
            k,
            1.0,
            &a,
            m,
            &b,
            k,
            0.0,
            &mut c,
            m,
            &cfg,
        )
        .expect("library call");
        assert!(product_ok(m, k, n, &a, &b, &c, 2));
    }

    #[test]
    fn catches_corrupted_outputs() {
        let (m, k, n) = (64, 48, 80);
        let (a, b, good) = case(m, k, n);
        type Corruption = (&'static str, fn(&mut Vec<f64>));
        let corruptions: [Corruption; 6] = [
            ("one element off by 1e-3", |c| c[17 + 5 * 64] += 1e-3),
            ("last element off by 1", |c| *c.last_mut().unwrap() -= 1.0),
            ("one NaN", |c| c[3] = f64::NAN),
            ("one infinity", |c| c[100] = f64::INFINITY),
            ("two elements swapped", |c| c.swap(0, 1)),
            ("output never written", |c| c.fill(0.0)),
        ];
        for (what, corrupt) in corruptions {
            let mut c = good.clone();
            corrupt(&mut c);
            assert!(!product_ok(m, k, n, &a, &b, &c, 3), "check missed: {what}");
        }
    }
}
