//! Conversion between column-major and Morton storage.
//!
//! MODGEMM converts its operands at the interface level (§3.5): the two
//! inputs are packed from column-major into Morton buffers (folding in any
//! requested transposition, so the core algorithm only ever sees `NoTrans`
//! operands), and the result is unpacked back. Padding introduced by the
//! tiling is zero-filled on ingest; the unpack reads only the live region,
//! so the redundant arithmetic performed on the pad is invisible to the
//! caller.
//!
//! The pack walks tiles in **buffer order** (Morton code order), so writes
//! to the destination are perfectly sequential; reads from the column-major
//! source are the strided part. The unpack walks **tile columns**, so each
//! range of them owns a disjoint block of destination columns: that is
//! the unit the GEMM execution graph splits the unpack into, and a single
//! full-range call is [`from_morton`].

use modgemm_mat::view::{MatMut, MatRef, Op};
use modgemm_mat::Scalar;

use crate::layout::{deinterleave2, MortonLayout};

/// Packs `op(src)` into the Morton buffer `dst` described by `layout`,
/// zero-filling the padding.
///
/// `op(src)` must fit inside the padded matrix:
/// `op(src).rows ≤ layout.rows()` and `op(src).cols ≤ layout.cols()`.
///
/// # Panics
/// If `dst.len() != layout.len()` or the logical matrix does not fit.
#[track_caller]
pub fn to_morton<S: Scalar>(src: MatRef<'_, S>, op: Op, layout: &MortonLayout, dst: &mut [S]) {
    assert_eq!(dst.len(), layout.len(), "destination buffer length mismatch");
    let tiles = layout.len() / layout.tile_len();
    pack_tile_range(src, op, layout, dst, 0, tiles);
}

/// Packs Morton tiles `[z0, z1)` of `op(src)` — the task-granular unit
/// the pooled conversion paths and the batch DAG schedule. `dst_range`
/// is exactly those tiles of the full Morton buffer (length
/// `(z1 - z0) · tile_len`); concurrent callers covering disjoint tile
/// ranges therefore write disjoint memory.
///
/// # Panics
/// If the range is out of bounds, `dst_range` has the wrong length, or
/// the logical matrix does not fit the padded one.
#[track_caller]
pub fn pack_tile_range<S: Scalar>(
    src: MatRef<'_, S>,
    op: Op,
    layout: &MortonLayout,
    dst_range: &mut [S],
    z0: usize,
    z1: usize,
) {
    let (lr, lc) = op.apply_dims(src.rows(), src.cols());
    let (tm, tn, grid) = (layout.tile_rows, layout.tile_cols, layout.grid());
    let tile_len = layout.tile_len();
    assert!(z0 <= z1 && z1 * tile_len <= layout.len(), "tile range out of bounds");
    assert_eq!(dst_range.len(), (z1 - z0) * tile_len, "tile range buffer length mismatch");
    assert!(
        lr <= layout.rows() && lc <= layout.cols(),
        "logical {lr}x{lc} does not fit padded {}x{}",
        layout.rows(),
        layout.cols()
    );

    for (i, tile) in dst_range.chunks_exact_mut(tile_len).enumerate() {
        let z = z0 + i;
        let (tr, tc) = deinterleave2(z, layout.depth);
        debug_assert!(tr < grid && tc < grid);
        let row0 = tr * tm;
        let col0 = tc * tn;
        // Live extent of this tile.
        let live_r = lr.saturating_sub(row0).min(tm);
        let live_c = lc.saturating_sub(col0).min(tn);

        if live_r == 0 || live_c == 0 {
            tile.fill(S::ZERO);
            continue;
        }
        match op {
            Op::NoTrans => {
                for jj in 0..live_c {
                    let dst_col = &mut tile[jj * tm..jj * tm + tm];
                    let src_col = &src.col(col0 + jj)[row0..row0 + live_r];
                    dst_col[..live_r].copy_from_slice(src_col);
                    dst_col[live_r..].fill(S::ZERO);
                }
            }
            Op::Trans => {
                for jj in 0..live_c {
                    let dst_col = &mut tile[jj * tm..jj * tm + tm];
                    for (ii, d) in dst_col.iter_mut().enumerate().take(live_r) {
                        // Logical (row0+ii, col0+jj) of op(src) = src(col, row).
                        *d = src.get(col0 + jj, row0 + ii);
                    }
                    dst_col[live_r..].fill(S::ZERO);
                }
            }
        }
        if live_c < tn {
            tile[live_c * tm..].fill(S::ZERO);
        }
    }
}

/// Unpacks the live `dst.rows() × dst.cols()` region from the Morton
/// buffer `src` into the column-major view `dst`, ignoring padding.
///
/// # Panics
/// If `src.len() != layout.len()` or `dst` is larger than the padded
/// matrix.
#[track_caller]
pub fn from_morton<S: Scalar>(src: &[S], layout: &MortonLayout, mut dst: MatMut<'_, S>) {
    let (lr, lc) = dst.dims();
    assert_eq!(src.len(), layout.len(), "source buffer length mismatch");
    assert!(
        lr <= layout.rows() && lc <= layout.cols(),
        "destination {lr}x{lc} exceeds padded {}x{}",
        layout.rows(),
        layout.cols()
    );
    let (ld, grid) = (dst.ld(), layout.grid());
    // SAFETY: `dst` is an exclusive borrow of an `lr × lc` window with
    // leading dimension `ld`, and one call covers every tile column.
    unsafe {
        unpack_tile_cols_raw(src, layout, S::ONE, S::ZERO, dst.as_mut_ptr(), ld, lr, lc, 0, grid)
    }
}

/// Unpacks tile columns `[tc0, tc1)` of the Morton buffer `src` into a
/// raw column-major destination, applying `dst ← α·src + β·dst` over the
/// live region (`β = 0` writes without reading `dst` — BLAS semantics).
/// This is the one unpack routine: the task-granular unit of the GEMM
/// execution graph (each task owns a disjoint tile-column range, hence
/// a disjoint destination column block), and with the full range the
/// body of [`from_morton`].
///
/// `lr × lc` are the logical destination dimensions; `ld` its leading
/// dimension (column stride).
///
/// # Safety
/// `dst` must be valid for writes of an `lr × lc` column-major matrix
/// with leading dimension `ld ≥ lr`, and concurrent callers over the
/// same destination must cover disjoint tile-column ranges.
#[allow(clippy::too_many_arguments)]
pub unsafe fn unpack_tile_cols_raw<S: Scalar>(
    src: &[S],
    layout: &MortonLayout,
    alpha: S,
    beta: S,
    dst: *mut S,
    ld: usize,
    lr: usize,
    lc: usize,
    tc0: usize,
    tc1: usize,
) {
    debug_assert_eq!(src.len(), layout.len());
    debug_assert!(lr <= layout.rows() && lc <= layout.cols());
    debug_assert!(tc0 <= tc1 && tc1 <= layout.grid());
    let (tm, tn) = (layout.tile_rows, layout.tile_cols);
    let grid = layout.grid();
    for tc in tc0..tc1 {
        let col0 = tc * tn;
        if col0 >= lc {
            break;
        }
        let live_c = (lc - col0).min(tn);
        for tr in 0..grid {
            let row0 = tr * tm;
            if row0 >= lr {
                break;
            }
            let live_r = (lr - row0).min(tm);
            let tile0 = layout.tile_offset(tr, tc);
            for jj in 0..live_c {
                let src_col = &src[tile0 + jj * tm..tile0 + jj * tm + live_r];
                // SAFETY (caller contract): this task owns destination
                // columns `[tc0·tn, tc1·tn)` — a disjoint column block.
                let p = dst.add((col0 + jj) * ld + row0);
                if alpha == S::ONE && beta == S::ZERO {
                    std::ptr::copy_nonoverlapping(src_col.as_ptr(), p, live_r);
                } else {
                    let dst_col = std::slice::from_raw_parts_mut(p, live_r);
                    if beta == S::ZERO {
                        for (d, &s) in dst_col.iter_mut().zip(src_col) {
                            *d = alpha * s;
                        }
                    } else {
                        modgemm_mat::addsub::axpby_flat(alpha, src_col, beta, dst_col);
                    }
                }
            }
        }
    }
}

/// Reads the logical element `(i, j)` of a Morton buffer (slow; for tests
/// and diagnostics).
#[track_caller]
pub fn morton_get<S: Scalar>(buf: &[S], layout: &MortonLayout, i: usize, j: usize) -> S {
    buf[layout.elem_offset(i, j)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use modgemm_mat::gen::{coordinate_matrix, random_matrix};
    use modgemm_mat::Matrix;

    fn roundtrip(rows: usize, cols: usize, layout: MortonLayout) {
        let m: Matrix<i64> = coordinate_matrix(rows, cols);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<i64> = Matrix::zeros(rows, cols);
        from_morton(&buf, &layout, out.view_mut());
        assert_eq!(out, m, "{rows}x{cols} via {layout:?}");
    }

    #[test]
    fn roundtrip_exact_fit() {
        roundtrip(8, 8, MortonLayout::new(4, 4, 1));
        roundtrip(12, 20, MortonLayout::new(3, 5, 2));
    }

    #[test]
    fn roundtrip_with_padding() {
        roundtrip(7, 6, MortonLayout::new(4, 4, 1));
        roundtrip(513, 513, MortonLayout::new(33, 33, 4));
        roundtrip(1, 1, MortonLayout::new(4, 4, 2));
    }

    #[test]
    fn padding_is_zero_filled() {
        let m: Matrix<i64> = coordinate_matrix(5, 5);
        let layout = MortonLayout::new(4, 4, 1);
        let mut buf = vec![99i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        for i in 0..8 {
            for j in 0..8 {
                let v = morton_get(&buf, &layout, i, j);
                if i < 5 && j < 5 {
                    assert_eq!(v, m.get(i, j));
                } else {
                    assert_eq!(v, 0, "pad at ({i},{j}) not zeroed");
                }
            }
        }
    }

    #[test]
    fn transpose_is_folded_into_pack() {
        let m: Matrix<i64> = coordinate_matrix(6, 9);
        let layout = MortonLayout::new(5, 4, 1); // 10x8 padded, fits 9x6.
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::Trans, &layout, &mut buf);
        for i in 0..9 {
            for j in 0..6 {
                assert_eq!(morton_get(&buf, &layout, i, j), m.get(j, i), "({i},{j})");
            }
        }
    }

    #[test]
    fn elements_land_at_layout_offsets() {
        let m: Matrix<i64> = coordinate_matrix(8, 8);
        let layout = MortonLayout::new(4, 4, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        // NE quadrant (cols 4..8) occupies the second contiguous quarter.
        assert_eq!(buf[layout.quadrant_len()], m.get(0, 4));
        // SE quadrant begins at 3/4.
        assert_eq!(buf[3 * layout.quadrant_len()], m.get(4, 4));
    }

    #[test]
    fn strided_source_views_work() {
        let base: Matrix<i64> = coordinate_matrix(20, 20);
        let window = base.view().submatrix(3, 5, 7, 9);
        let layout = MortonLayout::new(4, 5, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(window, Op::NoTrans, &layout, &mut buf);
        for i in 0..7 {
            for j in 0..9 {
                assert_eq!(morton_get(&buf, &layout, i, j), base.get(3 + i, 5 + j));
            }
        }
    }

    #[test]
    fn unpack_into_strided_destination() {
        let m: Matrix<i64> = coordinate_matrix(6, 6);
        let layout = MortonLayout::new(3, 3, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut big: Matrix<i64> = Matrix::zeros(10, 10);
        let mut bm = big.view_mut();
        from_morton(&buf, &layout, bm.submatrix_mut(2, 2, 6, 6));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(big.get(2 + i, 2 + j), m.get(i, j));
            }
        }
        assert_eq!(big.get(0, 0), 0);
        assert_eq!(big.get(9, 9), 0);
    }

    #[test]
    fn roundtrip_random_f64() {
        let m: Matrix<f64> = random_matrix(37, 53, 5);
        let layout = MortonLayout::new(10, 14, 2);
        let mut buf = vec![0.0; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
        let mut out: Matrix<f64> = Matrix::zeros(37, 53);
        from_morton(&buf, &layout, out.view_mut());
        assert_eq!(out, m);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_logical_matrix() {
        let m: Matrix<i64> = Matrix::zeros(9, 9);
        let layout = MortonLayout::new(4, 4, 1);
        let mut buf = vec![0i64; layout.len()];
        to_morton(m.view(), Op::NoTrans, &layout, &mut buf);
    }
}
