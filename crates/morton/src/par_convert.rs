//! Multi-threaded Morton conversion.
//!
//! Figure 7 of the paper shows conversion costing 5–15% of total execution
//! time; since tiles are independent, the conversion parallelizes
//! trivially. The pack parallelizes over contiguous chunks of the Morton
//! buffer (each worker owns a disjoint range of tiles); the unpack
//! parallelizes over tile *columns* so each worker owns a disjoint block
//! of destination columns.
//!
//! [`par_to_morton`] and [`par_from_morton`] spawn scoped OS threads per
//! call; they are the standalone conversion kernels the Figure 7
//! measurements time. GEMM execution does not use them: `modgemm-core`
//! lowers conversion into ordinary tasks of its execution graph, built
//! from the same task-granular units ([`crate::convert::pack_tile_range`]
//! and [`crate::convert::unpack_tile_cols_raw`]).

use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::Scalar;

use crate::convert;
use crate::layout::MortonLayout;

/// Minimum per-worker element count below which threading is not worth
/// spawning.
const PAR_THRESHOLD: usize = 64 * 1024;

/// Runs `body(0)`, …, `body(jobs - 1)` on one scoped OS thread per job
/// beyond the caller's own, returning after the last one finishes.
fn scoped_for_each(jobs: usize, body: &(dyn Fn(usize) + Sync)) {
    match jobs {
        0 => {}
        1 => body(0),
        _ => std::thread::scope(|scope| {
            for w in 1..jobs {
                scope.spawn(move || body(w));
            }
            body(0);
        }),
    }
}

/// Workers worth using for `total_elems` under an explicit cap: never
/// more than one per [`PAR_THRESHOLD`] elements, never zero.
fn worker_count_capped(total_elems: usize, max_workers: usize) -> usize {
    max_workers.min(total_elems / PAR_THRESHOLD).max(1)
}

fn worker_count(total_elems: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    worker_count_capped(total_elems, hw)
}

/// A raw base pointer the conversion bodies offset into **disjoint**
/// regions, one per job index.
#[derive(Clone, Copy)]
struct SendPtr<S>(*mut S);
// SAFETY: the pointer is only ever dereferenced through per-job disjoint
// offsets computed from the job index, so concurrent use is race-free.
unsafe impl<S> Send for SendPtr<S> {}
unsafe impl<S> Sync for SendPtr<S> {}

/// Parallel version of [`convert::to_morton`].
#[track_caller]
pub fn par_to_morton<S: Scalar>(src: MatRef<'_, S>, op: Op, layout: &MortonLayout, dst: &mut [S]) {
    pack_capped(worker_count(layout.len()), src, op, layout, dst);
}

/// [`par_to_morton`] with at most `max_workers` threads. Small problems
/// (under `PAR_THRESHOLD` elements per worker) run serially on the
/// calling thread.
#[track_caller]
fn pack_capped<S: Scalar>(
    max_workers: usize,
    src: MatRef<'_, S>,
    op: Op,
    layout: &MortonLayout,
    dst: &mut [S],
) {
    let (lr, lc) = op.apply_dims(src.rows(), src.cols());
    assert_eq!(dst.len(), layout.len(), "destination buffer length mismatch");
    assert!(lr <= layout.rows() && lc <= layout.cols(), "logical matrix does not fit");

    let workers = worker_count_capped(layout.len(), max_workers);
    if workers <= 1 {
        convert::to_morton(src, op, layout, dst);
        return;
    }

    let tile_len = layout.tile_len();
    let tiles = layout.len() / tile_len;
    let tiles_per = tiles.div_ceil(workers);
    let jobs = tiles.div_ceil(tiles_per);
    let base = SendPtr(dst.as_mut_ptr());

    let body = |w: usize| {
        // Capture the whole `SendPtr` (Sync), not its raw-pointer field.
        let base = &base;
        let z0 = w * tiles_per;
        let z1 = ((w + 1) * tiles_per).min(tiles);
        // SAFETY: job `w` owns exactly the Morton tiles `[z0, z1)` —
        // disjoint slices of `dst`.
        let range = unsafe {
            std::slice::from_raw_parts_mut(base.0.add(z0 * tile_len), (z1 - z0) * tile_len)
        };
        convert::pack_tile_range(src, op, layout, range, z0, z1);
    };
    scoped_for_each(jobs, &body);
}

/// Parallel version of [`convert::from_morton`]: workers own disjoint
/// column blocks of the destination.
#[track_caller]
pub fn par_from_morton<S: Scalar>(src: &[S], layout: &MortonLayout, dst: MatMut<'_, S>) {
    unpack_capped(worker_count(layout.len()), src, layout, dst);
}

/// [`par_from_morton`] with at most `max_workers` threads. Small
/// problems run serially on the calling thread.
#[track_caller]
fn unpack_capped<S: Scalar>(
    max_workers: usize,
    src: &[S],
    layout: &MortonLayout,
    mut dst: MatMut<'_, S>,
) {
    let (lr, lc) = dst.dims();
    assert_eq!(src.len(), layout.len(), "source buffer length mismatch");
    assert!(lr <= layout.rows() && lc <= layout.cols(), "destination exceeds padded matrix");

    let workers = worker_count_capped(layout.len(), max_workers);
    if workers <= 1 {
        convert::from_morton(src, layout, dst);
        return;
    }

    let grid = layout.grid();
    let tcs_per = grid.div_ceil(workers);
    let jobs = grid.div_ceil(tcs_per);
    let ld = dst.ld();
    let base = SendPtr(dst.as_mut_ptr());

    let body = |w: usize| {
        // Capture the whole `SendPtr` (Sync), not its raw-pointer field.
        let base = &base;
        let tc0 = w * tcs_per;
        let tc1 = ((w + 1) * tcs_per).min(grid);
        // SAFETY: job `w` owns exactly destination columns
        // `[tc0·tn, tc1·tn)` — disjoint column blocks of `dst` (column
        // stride `ld`).
        unsafe {
            convert::unpack_tile_cols_raw(
                src,
                layout,
                S::ONE,
                S::ZERO,
                base.0,
                ld,
                lr,
                lc,
                tc0,
                tc1,
            );
        }
    };
    scoped_for_each(jobs, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::gen::coordinate_matrix;
    use modgemm_mat::Matrix;

    #[test]
    fn parallel_pack_matches_serial() {
        // Big enough to actually engage multiple workers.
        let m: Matrix<f64> = coordinate_matrix(600, 600);
        let layout = MortonLayout::new(38, 38, 4); // 608x608 padded.
        let mut serial = vec![0.0; layout.len()];
        convert::to_morton(m.view(), Op::NoTrans, &layout, &mut serial);
        let mut par = vec![1.0; layout.len()];
        par_to_morton(m.view(), Op::NoTrans, &layout, &mut par);
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_pack_with_transpose() {
        let m: Matrix<f64> = coordinate_matrix(500, 600);
        let layout = MortonLayout::new(38, 32, 4); // 608x512 padded, holds 600x500.
        let mut serial = vec![0.0; layout.len()];
        convert::to_morton(m.view(), Op::Trans, &layout, &mut serial);
        let mut par = vec![1.0; layout.len()];
        par_to_morton(m.view(), Op::Trans, &layout, &mut par);
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_unpack_matches_serial() {
        let m: Matrix<f64> = coordinate_matrix(600, 600);
        let layout = MortonLayout::new(38, 38, 4);
        let mut buf = vec![0.0; layout.len()];
        convert::to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<f64> = Matrix::zeros(600, 600);
        par_from_morton(&buf, &layout, out.view_mut());
        assert_eq!(out, m);
    }

    #[test]
    fn small_problems_fall_back_to_serial() {
        let m: Matrix<f64> = coordinate_matrix(10, 10);
        let layout = MortonLayout::new(5, 5, 1);
        let mut buf = vec![0.0; layout.len()];
        par_to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<f64> = Matrix::zeros(10, 10);
        par_from_morton(&buf, &layout, out.view_mut());
        assert_eq!(out, m);
    }

    #[test]
    fn worker_cap_matches_serial() {
        let m: Matrix<f64> = coordinate_matrix(600, 555);
        let layout = MortonLayout::new(38, 38, 4); // 608x608, ragged columns.
        let mut serial = vec![0.0; layout.len()];
        convert::to_morton(m.view(), Op::NoTrans, &layout, &mut serial);
        for cap in [1, 2, 3, 16] {
            let mut par = vec![1.0; layout.len()];
            pack_capped(cap, m.view(), Op::NoTrans, &layout, &mut par);
            assert_eq!(serial, par, "pack cap = {cap}");

            let mut out: Matrix<f64> = Matrix::zeros(600, 555);
            unpack_capped(cap, &serial, &layout, out.view_mut());
            assert_eq!(out, m, "unpack cap = {cap}");
        }
    }
}
