//! Seeded random tensor generation (`tf.random_uniform` equivalents).

use crate::complex::Complex64;
use crate::tensor::{Tensor, TensorError};
use crate::{DType, Shape};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense tensor with elements uniform in `[0, 1)` (floats) or across
/// the full range (ints); deterministic in `seed`.
pub fn random_uniform(
    dtype: DType,
    shape: impl Into<Shape>,
    seed: u64,
) -> Result<Tensor, TensorError> {
    let shape = shape.into();
    let n = shape.num_elements();
    let mut rng = SmallRng::seed_from_u64(seed);
    match dtype {
        DType::F32 => Tensor::from_f32(shape, (0..n).map(|_| rng.gen::<f32>()).collect()),
        DType::F64 => Tensor::from_f64(shape, (0..n).map(|_| rng.gen::<f64>()).collect()),
        DType::C128 => Tensor::from_c128(
            shape,
            (0..n)
                .map(|_| Complex64::new(rng.gen::<f64>(), rng.gen::<f64>()))
                .collect(),
        ),
        DType::I32 => Tensor::from_i32(shape, (0..n).map(|_| rng.gen::<i32>()).collect()),
        DType::I64 => Tensor::from_i64(shape, (0..n).map(|_| rng.gen::<i64>()).collect()),
        _ => Err(TensorError::UnsupportedDType {
            op: "random_uniform",
            dtype,
        }),
    }
}

/// A random symmetric positive-definite matrix (for CG tests):
/// `A = Bᵀ·B/n + diag(shift)`.
pub fn random_spd(n: usize, seed: u64, shift: f64) -> Tensor {
    let b = random_uniform(DType::F64, [n, n], seed).unwrap();
    let bv = b.as_f64().unwrap();
    let mut a = vec![0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += bv[k * n + i] * bv[k * n + j];
            }
            acc /= n as f64;
            a[i * n + j] = acc;
            a[j * n + i] = acc;
        }
    }
    for i in 0..n {
        a[i * n + i] += shift;
    }
    Tensor::from_f64([n, n], a).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = random_uniform(DType::F64, [100], 7).unwrap();
        let b = random_uniform(DType::F64, [100], 7).unwrap();
        let c = random_uniform(DType::F64, [100], 8).unwrap();
        assert_eq!(a.as_f64().unwrap(), b.as_f64().unwrap());
        assert_ne!(a.as_f64().unwrap(), c.as_f64().unwrap());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let t = random_uniform(DType::F32, [10_000], 3).unwrap();
        for v in t.as_f32().unwrap() {
            assert!((0.0..1.0).contains(v));
        }
        let mean: f32 = t.as_f32().unwrap().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn unsupported_dtype_rejected() {
        assert!(random_uniform(DType::Bool, [2], 0).is_err());
    }

    #[test]
    fn spd_is_symmetric_with_heavy_diagonal() {
        let n = 24;
        let a = random_spd(n, 42, 2.0);
        let av = a.as_f64().unwrap();
        for i in 0..n {
            assert!(av[i * n + i] >= 2.0);
            for j in 0..n {
                assert!((av[i * n + j] - av[j * n + i]).abs() < 1e-12);
            }
        }
    }
}
