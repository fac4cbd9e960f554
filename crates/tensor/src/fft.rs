//! Cooley–Tukey FFT and the interleaved-tile merge used by the paper's
//! distributed 1-D FFT application.
//!
//! The distributed algorithm (paper Fig. 6) splits the input into `L`
//! interleaving tiles (decimation in time), FFTs each tile
//! independently on a worker, then a merger recombines them with
//! twiddle factors. [`fft_inplace`] is the per-tile transform;
//! [`merge_interleaved`] is the merger's recombination.

use crate::complex::Complex64;
use crate::tensor::{mix_seed, Tensor, TensorError};
use crate::{DType, Shape};
use std::f64::consts::PI;

/// True if `n` is a power of two (and nonzero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
}

/// In-place iterative radix-2 forward FFT (power-of-two length).
pub fn fft_inplace(data: &mut [Complex64]) {
    transform(data, -1.0);
}

/// In-place inverse FFT (includes the 1/N normalization).
pub fn ifft_inplace(data: &mut [Complex64]) {
    transform(data, 1.0);
    let inv = 1.0 / data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(inv);
    }
}

/// A raw pointer wrapper asserting cross-thread transferability for the
/// disjoint-butterfly pattern in [`transform`] (each butterfly index
/// touches a unique pair of elements).
struct ButterflyPtr(*mut Complex64);
unsafe impl Send for ButterflyPtr {}
unsafe impl Sync for ButterflyPtr {}

/// Transforms with at most this many butterflies per stage run inline
/// on the calling thread — below it, per-task overhead dominates.
///
/// Previously this was applied as a *floor on the chunk size*
/// (`default_chunk(..).max(MIN_FFT_CHUNK)`), which silently collapsed
/// mid-sized stages into a single chunk even when the pool had idle
/// workers. It now gates sequential-vs-parallel only; parallel chunk
/// sizing uses [`FFT_CHUNK_FLOOR`].
const MIN_FFT_CHUNK: usize = 8192;

/// Minimum butterflies per parallel chunk once a stage is parallel.
const FFT_CHUNK_FLOOR: usize = 1024;

fn transform(data: &mut [Complex64], sign: f64) {
    let n = data.len();
    assert!(is_pow2(n), "FFT length must be a power of two, got {n}");
    if n == 1 {
        return;
    }
    bit_reverse_permute(data);
    // Every stage performs n/2 independent butterflies; butterfly j
    // lives in block `j / half` (a `len`-sized window) at offset
    // `j % half`, touching elements `start + i` and `start + i + half`.
    // Distinct j never share elements, so the stage parallelizes over j
    // (subject to the caller's intra-op worker limit).
    let n_butterflies = n / 2;
    let sequential = n_butterflies <= MIN_FFT_CHUNK;
    // Chunk edges land on cache-line boundaries (4 complex = 64 bytes)
    // so workers never write-share a line at a seam.
    let chunk =
        tfhpc_parallel::aligned_chunk(n_butterflies, tfhpc_parallel::global_pool().size(), 4)
            .max(FFT_CHUNK_FLOOR);
    let ptr = ButterflyPtr(data.as_mut_ptr());
    let ptr = &ptr;
    // Per-stage twiddle table, sized for the largest stage and drawn
    // from the recycle arena. Entry i is built by the same incremental
    // recurrence (`tw[i] = tw[i-1] * wlen` from `tw[0] = 1`) the old
    // per-block loop multiplied out per butterfly, so values — and
    // therefore transforms — are bit-identical to the block-start
    // path of the old code, while each stage now performs `half`
    // twiddle multiplies instead of `n/2`. (The old mid-chunk
    // `cis(ang·i0)` re-seeding could diverge from the recurrence by an
    // ULP when a chunk boundary fell inside a block; the table makes
    // the twiddles chunking-invariant.)
    let mut twbuf = crate::arena::take_c128(n / 2);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        let tw = &mut twbuf[..half];
        tw[0] = Complex64::ONE;
        for i in 1..half {
            tw[i] = tw[i - 1] * wlen;
        }
        let tw = &twbuf[..half];
        let stage = |lo: usize, hi: usize| {
            let mut j = lo;
            while j < hi {
                let block = j / half;
                let start = block * len;
                let i0 = j % half;
                // Run to the end of this block or of the range.
                let cnt = hi.min((block + 1) * half) - j;
                // SAFETY: butterfly (start+i, start+i+half) pairs are
                // disjoint across j, so the a-run and b-run never
                // overlap; parallel_for joins before `data`'s mutable
                // borrow ends; `tw` is read-only here.
                unsafe {
                    crate::simd::butterflies(
                        ptr.0.add(start + i0),
                        ptr.0.add(start + i0 + half),
                        tw[i0..i0 + cnt].as_ptr(),
                        cnt,
                    );
                }
                j += cnt;
            }
        };
        if sequential {
            stage(0, n_butterflies);
        } else {
            tfhpc_parallel::parallel_for(n_butterflies, chunk, stage);
        }
        len <<= 1;
    }
    twbuf.recycle();
}

/// O(N²) reference DFT used by tests.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (j, x) in input.iter().enumerate() {
                acc += *x * Complex64::cis(-2.0 * PI * (k as f64) * (j as f64) / n as f64);
            }
            acc
        })
        .collect()
}

/// Split `input` into `tiles` interleaving sub-vectors
/// (`tile_l[i] = input[i*tiles + l]`) — the worker-side decimation the
/// paper performs when preparing tile files.
pub fn split_interleaved(input: &[Complex64], tiles: usize) -> Vec<Vec<Complex64>> {
    assert!(tiles > 0 && input.len().is_multiple_of(tiles));
    let m = input.len() / tiles;
    (0..tiles)
        .map(|l| (0..m).map(|i| input[i * tiles + l]).collect())
        .collect()
}

/// Merger-side recombination of per-tile FFTs into the full spectrum.
///
/// Given `X_l = FFT(tile_l)` for `L` power-of-two interleaved tiles of
/// length `M`, computes `FFT(input)` of length `N = L·M` by `log2 L`
/// pairwise decimation-in-time combine passes (total `O(N log L)` —
/// the twiddle-factor merge the paper's merger performs in Python).
pub fn merge_interleaved(sub_ffts: Vec<Vec<Complex64>>) -> Vec<Complex64> {
    let l = sub_ffts.len();
    assert!(is_pow2(l), "tile count must be a power of two, got {l}");
    let mut layer: Vec<Vec<Complex64>> = sub_ffts;
    while layer.len() > 1 {
        // Pair tile i with tile i + half: tile i holds indices ≡ i
        // (mod L), so within the subsequence of stride `half` the
        // "even" positions are tile i and the "odd" ones tile i+half.
        let half = layer.len() / 2;
        let odds = layer.split_off(half);
        layer = layer
            .into_iter()
            .zip(odds)
            .map(|(even, odd)| combine_pair(even, odd))
            .collect();
    }
    layer.into_iter().next().unwrap_or_default()
}

/// One decimation-in-time combine: interleave(even, odd) in time equals
/// this butterfly in frequency.
fn combine_pair(even: Vec<Complex64>, odd: Vec<Complex64>) -> Vec<Complex64> {
    let m = even.len();
    assert_eq!(m, odd.len());
    let n = 2 * m;
    let mut out = vec![Complex64::ZERO; n];
    for k in 0..m {
        let tw = Complex64::cis(-2.0 * PI * k as f64 / n as f64) * odd[k];
        out[k] = even[k] + tw;
        out[k + m] = even[k] - tw;
    }
    out
}

/// FFT over a rank-1 `C128` tensor (dense or synthetic).
pub fn fft_tensor(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.dtype() != DType::C128 || t.shape().rank() != 1 {
        return Err(TensorError::InvalidArgument(format!(
            "fft expects rank-1 c128, got {} {}",
            t.dtype(),
            t.shape()
        )));
    }
    if !is_pow2(t.num_elements()) {
        return Err(TensorError::InvalidArgument(format!(
            "fft length {} is not a power of two",
            t.num_elements()
        )));
    }
    if let Some(seed) = t.synthetic_seed() {
        return Ok(Tensor::synthetic(
            DType::C128,
            t.shape().clone(),
            mix_seed(seed, 0xFF7),
        ));
    }
    let mut data = crate::arena::take_c128(t.num_elements());
    data.copy_from_slice(t.as_c128()?);
    fft_inplace(&mut data);
    let n = data.len();
    data.into_tensor(Shape::vector(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "index {i}: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    (i as f64 * 0.37).sin() + 0.5 * (i as f64 * 1.7).cos(),
                    (i as f64 * 0.11).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        fft_inplace(&mut x);
        for v in &x {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x = signal(n);
            let want = dft_naive(&x);
            let mut got = x.clone();
            fft_inplace(&mut got);
            close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x = signal(128);
        let mut y = x.clone();
        fft_inplace(&mut y);
        ifft_inplace(&mut y);
        close(&y, &x, 1e-10);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x = signal(256);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x;
        fft_inplace(&mut y);
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_inplace(&mut x);
    }

    #[test]
    fn split_merge_reconstructs_full_fft() {
        for tiles in [1usize, 2, 4, 8, 16] {
            let n = 256;
            let x = signal(n);
            let mut want = x.clone();
            fft_inplace(&mut want);

            let sub = split_interleaved(&x, tiles);
            let sub_ffts: Vec<Vec<Complex64>> = sub
                .into_iter()
                .map(|mut t| {
                    fft_inplace(&mut t);
                    t
                })
                .collect();
            let got = merge_interleaved(sub_ffts);
            close(&got, &want, 1e-8);
        }
    }

    #[test]
    fn simd_and_scalar_transforms_bit_identical() {
        // Forward and inverse, across the sequential/parallel length
        // range, the AVX2 butterfly must reproduce the scalar path
        // bit for bit (same twiddle table, same operation order).
        for n in [2usize, 8, 64, 1024, 1 << 15] {
            let x = signal(n);
            let mut scalar_f = x.clone();
            let mut simd_f = x.clone();
            crate::simd::set_forced(Some(false));
            fft_inplace(&mut scalar_f);
            let mut scalar_i = scalar_f.clone();
            ifft_inplace(&mut scalar_i);
            crate::simd::set_forced(Some(true));
            fft_inplace(&mut simd_f);
            let mut simd_i = simd_f.clone();
            ifft_inplace(&mut simd_i);
            crate::simd::set_forced(None);
            for (a, b) in scalar_f
                .iter()
                .zip(&simd_f)
                .chain(scalar_i.iter().zip(&simd_i))
            {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn fft_tensor_dense_and_synthetic() {
        let x = signal(64);
        let t = Tensor::from_c128([64], x.clone()).unwrap();
        let f = fft_tensor(&t).unwrap();
        let mut want = x;
        fft_inplace(&mut want);
        close(f.as_c128().unwrap(), &want, 1e-9);

        let s = Tensor::synthetic(DType::C128, [1 << 24], 5);
        let fs = fft_tensor(&s).unwrap();
        assert!(fs.is_synthetic());
        assert_eq!(fs.num_elements(), 1 << 24);

        let bad = Tensor::from_f64([4], vec![0.; 4]).unwrap();
        assert!(fft_tensor(&bad).is_err());
    }
}
