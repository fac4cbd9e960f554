//! Blocked, parallel matrix multiplication and matrix-vector products.
//!
//! These are the host implementations behind the `MatMul`/`MatVec`
//! graph ops — the same roles cuBLAS plays for the paper's GPU runs.
//!
//! Two dispatch paths, chosen at runtime (`simd::enabled()`):
//!
//! * **Vector** — row panels of `MR = 4` rows; the A panel is packed
//!   k-major through the cache-aligned scratch arena (using the same
//!   blocked transpose as the public [`transpose`] op) and a
//!   register-tiled AVX2 micro-kernel accumulates `MR × NR` tiles of C
//!   with separate mul/add (never FMA).
//! * **Scalar** — the k-blocked i-k-j row kernel (`gemm_row_*`).
//!
//! Both paths produce *bit-identical* C: for every `(i, j)` the
//! accumulation is one continuous ascending-`p` chain of
//! `c += a[i,p] * b[p,j]` (two roundings per term). The register tile
//! preserves the chain by loading C at each k-block start and storing
//! it back after — blocking factors cannot change the association.

use crate::simd;
use crate::tensor::{mix_seed, Storage, Tensor, TensorData, TensorError};
use crate::Shape;
use tfhpc_parallel::par_chunks_mut;

/// Cache-block edge for the k dimension of the scalar row kernel.
const BLOCK: usize = 64;

/// Square tile edge for the blocked transpose (32² f64 = 8 KiB, two
/// tiles in flight fit L1 comfortably).
const TILE: usize = 32;

/// k-extent handled per micro-kernel invocation on the vector path:
/// 256 rows of an 8-wide B column panel is 16 KiB — L1-resident.
#[cfg(target_arch = "x86_64")]
const KC: usize = 256;

/// Rows per C register tile on the vector path.
const MR: usize = 4;

fn mm_shapes(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
) -> Result<(usize, usize, usize), TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "{op}: operands must be rank-2, got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    if a.dtype() != b.dtype() {
        return Err(TensorError::DTypeMismatch {
            op,
            lhs: a.dtype(),
            rhs: b.dtype(),
        });
    }
    Ok((m, k, n))
}

/// `C = A · B` for rank-2 tensors (f32 or f64).
///
/// Parallelized over row panels of `C`; see the module docs for the
/// two dispatch paths and the bit-identity argument.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = mm_shapes("matmul", a, b)?;
    let out_shape = Shape::matrix(m, n);
    match (a.storage(), b.storage()) {
        (Storage::Synthetic { seed: sa }, _) | (_, Storage::Synthetic { seed: sa }) => {
            let sb = b.synthetic_seed().or(a.synthetic_seed()).unwrap_or(0);
            return Ok(Tensor::synthetic(
                a.dtype(),
                out_shape,
                mix_seed(*sa, mix_seed(sb, 0xD0)),
            ));
        }
        _ => {}
    }
    match (a.data()?, b.data()?) {
        (TensorData::F32(av), TensorData::F32(bv)) => {
            let mut c = crate::arena::take_zeroed_f32(m * n);
            #[cfg(target_arch = "x86_64")]
            if simd::enabled() {
                par_chunks_mut(&mut c, (MR * n).max(1), |pi, cpanel| {
                    // SAFETY: enabled() implies AVX2 was detected.
                    unsafe { gemm_panel_f32(pi * MR, av, bv, cpanel, k, n) };
                });
                return c.into_tensor(out_shape);
            }
            par_chunks_mut(&mut c, n.max(1), |row, crow| {
                gemm_row_f32(row, av, bv, crow, k, n);
            });
            c.into_tensor(out_shape)
        }
        (TensorData::F64(av), TensorData::F64(bv)) => {
            let mut c = crate::arena::take_zeroed_f64(m * n);
            #[cfg(target_arch = "x86_64")]
            if simd::enabled() {
                par_chunks_mut(&mut c, (MR * n).max(1), |pi, cpanel| {
                    // SAFETY: enabled() implies AVX2 was detected.
                    unsafe { gemm_panel_f64(pi * MR, av, bv, cpanel, k, n) };
                });
                return c.into_tensor(out_shape);
            }
            par_chunks_mut(&mut c, n.max(1), |row, crow| {
                gemm_row_f64(row, av, bv, crow, k, n);
            });
            c.into_tensor(out_shape)
        }
        (other, _) => Err(TensorError::UnsupportedDType {
            op: "matmul",
            dtype: other.dtype(),
        }),
    }
}

fn gemm_row_f32(row: usize, a: &[f32], b: &[f32], crow: &mut [f32], k: usize, n: usize) {
    let arow = &a[row * k..(row + 1) * k];
    for kb in (0..k).step_by(BLOCK) {
        let kend = (kb + BLOCK).min(k);
        for (kk, &aik) in arow[kb..kend].iter().enumerate() {
            let brow = &b[(kb + kk) * n..(kb + kk) * n + n];
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

fn gemm_row_f64(row: usize, a: &[f64], b: &[f64], crow: &mut [f64], k: usize, n: usize) {
    let arow = &a[row * k..(row + 1) * k];
    for kb in (0..k).step_by(BLOCK) {
        let kend = (kb + BLOCK).min(k);
        for (kk, &aik) in arow[kb..kend].iter().enumerate() {
            let brow = &b[(kb + kk) * n..(kb + kk) * n + n];
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

/// Vector-path GEMM over one row panel (up to `MR` rows starting at
/// `i0`). Packs the A panel k-major via the blocked transpose into
/// cache-aligned arena scratch, then walks k in `KC` blocks and n in
/// register tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panel_f64(i0: usize, a: &[f64], b: &[f64], cpanel: &mut [f64], k: usize, n: usize) {
    use core::arch::x86_64::*;
    let rows = cpanel.len().checked_div(n).unwrap_or(0);
    if rows == 0 {
        return;
    }
    tfhpc_parallel::arena::with_scratch(k * rows * 8, |buf| {
        let apk = buf.as_f64_mut(k * rows);
        // apk[p * rows + r] = A[i0 + r, p] — the same pure permutation
        // as the public `transpose`, tile-blocked for stride-k reads.
        transpose_blocked_f64(&a[i0 * k..(i0 + rows) * k], rows, k, apk);
        let bp = b.as_ptr();
        let cp = cpanel.as_mut_ptr();
        let ap = apk.as_ptr();
        let mut kb = 0usize;
        while kb < k {
            let kend = (kb + KC).min(k);
            let mut jt = 0usize;
            // 4×8 register tile on the full-width interior.
            while rows == MR && jt + 8 <= n {
                let mut c00 = _mm256_loadu_pd(cp.add(jt));
                let mut c01 = _mm256_loadu_pd(cp.add(jt + 4));
                let mut c10 = _mm256_loadu_pd(cp.add(n + jt));
                let mut c11 = _mm256_loadu_pd(cp.add(n + jt + 4));
                let mut c20 = _mm256_loadu_pd(cp.add(2 * n + jt));
                let mut c21 = _mm256_loadu_pd(cp.add(2 * n + jt + 4));
                let mut c30 = _mm256_loadu_pd(cp.add(3 * n + jt));
                let mut c31 = _mm256_loadu_pd(cp.add(3 * n + jt + 4));
                for p in kb..kend {
                    let b0 = _mm256_loadu_pd(bp.add(p * n + jt));
                    let b1 = _mm256_loadu_pd(bp.add(p * n + jt + 4));
                    let arow = ap.add(p * MR);
                    let a0 = _mm256_set1_pd(*arow);
                    c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
                    c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
                    let a1 = _mm256_set1_pd(*arow.add(1));
                    c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
                    c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
                    let a2 = _mm256_set1_pd(*arow.add(2));
                    c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
                    c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
                    let a3 = _mm256_set1_pd(*arow.add(3));
                    c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
                    c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
                }
                _mm256_storeu_pd(cp.add(jt), c00);
                _mm256_storeu_pd(cp.add(jt + 4), c01);
                _mm256_storeu_pd(cp.add(n + jt), c10);
                _mm256_storeu_pd(cp.add(n + jt + 4), c11);
                _mm256_storeu_pd(cp.add(2 * n + jt), c20);
                _mm256_storeu_pd(cp.add(2 * n + jt + 4), c21);
                _mm256_storeu_pd(cp.add(3 * n + jt), c30);
                _mm256_storeu_pd(cp.add(3 * n + jt + 4), c31);
                jt += 8;
            }
            // Edges (short panel or column remainder): same ascending-p
            // chain per element, plain loops.
            for r in 0..rows {
                let crow = cp.add(r * n);
                for p in kb..kend {
                    let aik = *ap.add(p * rows + r);
                    for j in jt..n {
                        *crow.add(j) += aik * *bp.add(p * n + j);
                    }
                }
            }
            kb = kend;
        }
    });
}

/// f32 sibling of [`gemm_panel_f64`]: 4×16 register tile (two 8-lane
/// vectors per row).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panel_f32(i0: usize, a: &[f32], b: &[f32], cpanel: &mut [f32], k: usize, n: usize) {
    use core::arch::x86_64::*;
    let rows = cpanel.len().checked_div(n).unwrap_or(0);
    if rows == 0 {
        return;
    }
    tfhpc_parallel::arena::with_scratch(k * rows * 4, |buf| {
        let apk = buf.as_f32_mut(k * rows);
        transpose_blocked_f32(&a[i0 * k..(i0 + rows) * k], rows, k, apk);
        let bp = b.as_ptr();
        let cp = cpanel.as_mut_ptr();
        let ap = apk.as_ptr();
        let mut kb = 0usize;
        while kb < k {
            let kend = (kb + KC).min(k);
            let mut jt = 0usize;
            while rows == MR && jt + 16 <= n {
                let mut c00 = _mm256_loadu_ps(cp.add(jt));
                let mut c01 = _mm256_loadu_ps(cp.add(jt + 8));
                let mut c10 = _mm256_loadu_ps(cp.add(n + jt));
                let mut c11 = _mm256_loadu_ps(cp.add(n + jt + 8));
                let mut c20 = _mm256_loadu_ps(cp.add(2 * n + jt));
                let mut c21 = _mm256_loadu_ps(cp.add(2 * n + jt + 8));
                let mut c30 = _mm256_loadu_ps(cp.add(3 * n + jt));
                let mut c31 = _mm256_loadu_ps(cp.add(3 * n + jt + 8));
                for p in kb..kend {
                    let b0 = _mm256_loadu_ps(bp.add(p * n + jt));
                    let b1 = _mm256_loadu_ps(bp.add(p * n + jt + 8));
                    let arow = ap.add(p * MR);
                    let a0 = _mm256_set1_ps(*arow);
                    c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
                    c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
                    let a1 = _mm256_set1_ps(*arow.add(1));
                    c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
                    c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
                    let a2 = _mm256_set1_ps(*arow.add(2));
                    c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
                    c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
                    let a3 = _mm256_set1_ps(*arow.add(3));
                    c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
                    c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
                }
                _mm256_storeu_ps(cp.add(jt), c00);
                _mm256_storeu_ps(cp.add(jt + 8), c01);
                _mm256_storeu_ps(cp.add(n + jt), c10);
                _mm256_storeu_ps(cp.add(n + jt + 8), c11);
                _mm256_storeu_ps(cp.add(2 * n + jt), c20);
                _mm256_storeu_ps(cp.add(2 * n + jt + 8), c21);
                _mm256_storeu_ps(cp.add(3 * n + jt), c30);
                _mm256_storeu_ps(cp.add(3 * n + jt + 8), c31);
                jt += 16;
            }
            for r in 0..rows {
                let crow = cp.add(r * n);
                for p in kb..kend {
                    let aik = *ap.add(p * rows + r);
                    for j in jt..n {
                        *crow.add(j) += aik * *bp.add(p * n + j);
                    }
                }
            }
            kb = kend;
        }
    });
}

/// `y = A · x` for a rank-2 `A` and rank-1 `x` (f64 or f32).
///
/// Each output element is the blocked SIMD dot of one A row with `x`
/// (f64 accumulation for both dtypes — the reduction contract of
/// `ops::dot`).
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape().rank() != 2 || x.shape().rank() != 1 {
        return Err(TensorError::InvalidArgument(format!(
            "matvec: want rank-2 · rank-1, got {} · {}",
            a.shape(),
            x.shape()
        )));
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    if x.shape().dim(0) != k {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape().clone(),
            rhs: x.shape().clone(),
        });
    }
    if a.dtype() != x.dtype() {
        return Err(TensorError::DTypeMismatch {
            op: "matvec",
            lhs: a.dtype(),
            rhs: x.dtype(),
        });
    }
    if a.is_synthetic() || x.is_synthetic() {
        let seed = mix_seed(
            a.synthetic_seed().unwrap_or(3),
            mix_seed(x.synthetic_seed().unwrap_or(4), 0xD1),
        );
        return Ok(Tensor::synthetic(a.dtype(), Shape::vector(m), seed));
    }
    match (a.data()?, x.data()?) {
        (TensorData::F64(av), TensorData::F64(xv)) => {
            let mut y = crate::arena::take_f64(m);
            par_chunks_mut(&mut y, 64, |ci, yslice| {
                let base = ci * 64;
                for (i, yo) in yslice.iter_mut().enumerate() {
                    let row = &av[(base + i) * k..(base + i + 1) * k];
                    *yo = simd::dot_f64(row, xv);
                }
            });
            y.into_tensor(Shape::vector(m))
        }
        (TensorData::F32(av), TensorData::F32(xv)) => {
            let mut y = crate::arena::take_f32(m);
            par_chunks_mut(&mut y, 64, |ci, yslice| {
                let base = ci * 64;
                for (i, yo) in yslice.iter_mut().enumerate() {
                    let row = &av[(base + i) * k..(base + i + 1) * k];
                    *yo = simd::dot_f32(row, xv) as f32;
                }
            });
            y.into_tensor(Shape::vector(m))
        }
        (other, _) => Err(TensorError::UnsupportedDType {
            op: "matvec",
            dtype: other.dtype(),
        }),
    }
}

/// Tile-blocked out-of-place transpose: `dst[j·m + i] = src[i·n + j]`
/// for an `m × n` source, walked in `TILE × TILE` tiles so both the
/// row-major reads and the column-major writes stay within a tile's
/// working set. A pure permutation — bit-identical to the naive loop.
fn transpose_blocked_f64(src: &[f64], m: usize, n: usize, dst: &mut [f64]) {
    for ib in (0..m).step_by(TILE) {
        let iend = (ib + TILE).min(m);
        for jb in (0..n).step_by(TILE) {
            let jend = (jb + TILE).min(n);
            for i in ib..iend {
                for j in jb..jend {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

/// f32 sibling of [`transpose_blocked_f64`].
fn transpose_blocked_f32(src: &[f32], m: usize, n: usize, dst: &mut [f32]) {
    for ib in (0..m).step_by(TILE) {
        let iend = (ib + TILE).min(m);
        for jb in (0..n).step_by(TILE) {
            let jend = (jb + TILE).min(n);
            for i in ib..iend {
                for j in jb..jend {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

/// Transpose a rank-2 tensor (synthetic passes through). Tile-blocked —
/// the old implementation *claimed* a blocked copy but walked the full
/// column stride per element; the shared tiled kernel here is also what
/// packs A panels on the matmul vector path.
pub fn transpose(a: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape().rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "transpose on rank-{} tensor",
            a.shape().rank()
        )));
    }
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let out_shape = Shape::matrix(n, m);
    if let Some(seed) = a.synthetic_seed() {
        return Ok(Tensor::synthetic(
            a.dtype(),
            out_shape,
            mix_seed(seed, 0xD7),
        ));
    }
    match a.data()? {
        TensorData::F64(v) => {
            let mut out = crate::arena::take_f64(m * n);
            transpose_blocked_f64(v, m, n, &mut out);
            out.into_tensor(out_shape)
        }
        TensorData::F32(v) => {
            let mut out = crate::arena::take_f32(m * n);
            transpose_blocked_f32(v, m, n, &mut out);
            out.into_tensor(out_shape)
        }
        other => Err(TensorError::UnsupportedDType {
            op: "transpose",
            dtype: other.dtype(),
        }),
    }
}

/// Naive reference multiply used by tests (no blocking, no parallelism).
pub fn matmul_naive_f64(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut c = vec![0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    #[test]
    fn identity_multiply() {
        let eye = Tensor::from_f64([2, 2], vec![1., 0., 0., 1.]).unwrap();
        let a = Tensor::from_f64([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let c = matmul(&eye, &a).unwrap();
        assert_eq!(c.as_f64().unwrap(), a.as_f64().unwrap());
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_f64([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_f64([2, 2], vec![5., 6., 7., 8.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn rectangular_matches_naive() {
        let (m, k, n) = (17, 31, 23);
        let a: Vec<f64> = (0..m * k).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let b: Vec<f64> = (0..k * n).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
        let ta = Tensor::from_f64([m, k], a.clone()).unwrap();
        let tb = Tensor::from_f64([k, n], b.clone()).unwrap();
        let c = matmul(&ta, &tb).unwrap();
        let want = matmul_naive_f64(&a, &b, m, k, n);
        for (x, y) in c.as_f64().unwrap().iter().zip(&want) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn simd_and_scalar_paths_bit_identical() {
        // Shapes hitting the full register tile, the row tail (m % 4),
        // the column tail (n % 8 / n % 16) and a k crossing KC would
        // need k > 256 — covered in tests/simd_parity.rs; here a quick
        // in-crate sweep.
        for (m, k, n) in [(8, 16, 16), (7, 5, 11), (4, 3, 8), (1, 1, 1), (5, 64, 9)] {
            let a: Vec<f64> = (0..m * k).map(|i| ((i * 13) % 31) as f64 - 15.0).collect();
            let b: Vec<f64> = (0..k * n).map(|i| ((i * 17) % 29) as f64 - 14.0).collect();
            let ta = Tensor::from_f64([m, k], a.clone()).unwrap();
            let tb = Tensor::from_f64([k, n], b).unwrap();
            simd::set_forced(Some(false));
            let scalar = matmul(&ta, &tb).unwrap();
            simd::set_forced(Some(true));
            let fast = matmul(&ta, &tb).unwrap();
            simd::set_forced(None);
            let (s, f) = (scalar.as_f64().unwrap(), fast.as_f64().unwrap());
            for i in 0..m * n {
                assert_eq!(s[i].to_bits(), f[i].to_bits(), "({m},{k},{n}) elem {i}");
            }
        }
    }

    #[test]
    fn f32_product() {
        let a = Tensor::from_f32([1, 3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_f32([3, 1], vec![4., 5., 6.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_f32().unwrap(), &[32.0]);
        assert_eq!(c.shape().dims(), &[1, 1]);
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = Tensor::from_f64([2, 3], vec![0.; 6]).unwrap();
        let b = Tensor::from_f64([2, 2], vec![0.; 4]).unwrap();
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Tensor::from_f64([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = Tensor::from_f64([3], vec![1., 0., -1.]).unwrap();
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.as_f64().unwrap(), &[-2., -2.]);
    }

    #[test]
    fn matvec_large_rows_parallel() {
        let m = 301;
        let k = 17;
        let a: Vec<f64> = (0..m * k).map(|i| (i % 5) as f64).collect();
        let x: Vec<f64> = (0..k).map(|i| i as f64 * 0.5).collect();
        let ta = Tensor::from_f64([m, k], a.clone()).unwrap();
        let tx = Tensor::from_f64([k], x.clone()).unwrap();
        let y = matvec(&ta, &tx).unwrap();
        for i in 0..m {
            let want: f64 = (0..k).map(|p| a[i * k + p] * x[p]).sum();
            assert!((y.as_f64().unwrap()[i] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_f64([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.as_f64().unwrap(), &[1., 4., 2., 5., 3., 6.]);
        let tt = transpose(&t).unwrap();
        assert_eq!(tt.as_f64().unwrap(), a.as_f64().unwrap());
        // (AB)^T = B^T A^T
        let b = Tensor::from_f64([3, 2], vec![1., 0., 0., 1., 2., 2.]).unwrap();
        let ab_t = transpose(&matmul(&a, &b).unwrap()).unwrap();
        let bt_at = matmul(&transpose(&b).unwrap(), &transpose(&a).unwrap()).unwrap();
        assert_eq!(ab_t.as_f64().unwrap(), bt_at.as_f64().unwrap());
        // synthetic + errors
        assert!(transpose(&Tensor::synthetic(DType::F32, [8, 4], 1))
            .unwrap()
            .is_synthetic());
        assert!(transpose(&Tensor::zeros(DType::F64, [3])).is_err());
    }

    #[test]
    fn blocked_transpose_crosses_tile_edges() {
        // Dims straddling TILE so interior tiles, row tails and column
        // tails are all exercised against the index definition.
        let (m, n) = (TILE + 5, 2 * TILE + 3);
        let src: Vec<f64> = (0..m * n).map(|i| i as f64).collect();
        let t = transpose(&Tensor::from_f64([m, n], src.clone()).unwrap()).unwrap();
        let tv = t.as_f64().unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(tv[j * m + i].to_bits(), src[i * n + j].to_bits());
            }
        }
    }

    #[test]
    fn synthetic_matmul_metadata_only() {
        let a = Tensor::synthetic(DType::F32, [4096, 4096], 1);
        let b = Tensor::synthetic(DType::F32, [4096, 4096], 2);
        let c = matmul(&a, &b).unwrap();
        assert!(c.is_synthetic());
        assert_eq!(c.shape().dims(), &[4096, 4096]);
        let d = Tensor::from_f32([2, 4096], vec![0.; 2 * 4096]).unwrap();
        let e = matmul(&d, &a).unwrap();
        assert!(e.is_synthetic());
        assert_eq!(e.shape().dims(), &[2, 4096]);
    }
}
