//! Elementwise math and reductions over tensors.
//!
//! All dense paths run data-parallel on the host pool; synthetic
//! operands short-circuit into synthetic results with derived seeds so
//! simulation-scale graphs execute the same control flow without
//! materializing payloads.

use crate::complex::Complex64;
use crate::simd;
use crate::tensor::{mix_seed, Storage, Tensor, TensorData, TensorError};
use crate::DType;
use tfhpc_parallel::{default_chunk, par_chunks_mut, parallel_reduce};

// ---- complex chunk kernels ---------------------------------------------
//
// Componentwise complex ops (add/sub, and real `scale`) reuse the
// interleaved-f64 SIMD kernels through the `repr(C)` view; mul/div have
// cross terms and stay scalar (see the bit-identity notes in `simd`).

fn c128_add(x: &[Complex64], y: &[Complex64], o: &mut [Complex64]) {
    simd::add_f64(
        simd::c128_as_f64(x),
        simd::c128_as_f64(y),
        simd::c128_as_f64_mut(o),
    );
}

fn c128_add_lhs(x: &mut [Complex64], y: &[Complex64]) {
    simd::add_lhs_f64(simd::c128_as_f64_mut(x), simd::c128_as_f64(y));
}

fn c128_add_rhs(x: &[Complex64], y: &mut [Complex64]) {
    simd::add_rhs_f64(simd::c128_as_f64(x), simd::c128_as_f64_mut(y));
}

fn c128_sub(x: &[Complex64], y: &[Complex64], o: &mut [Complex64]) {
    simd::sub_f64(
        simd::c128_as_f64(x),
        simd::c128_as_f64(y),
        simd::c128_as_f64_mut(o),
    );
}

fn c128_sub_lhs(x: &mut [Complex64], y: &[Complex64]) {
    simd::sub_lhs_f64(simd::c128_as_f64_mut(x), simd::c128_as_f64(y));
}

fn c128_sub_rhs(x: &[Complex64], y: &mut [Complex64]) {
    simd::sub_rhs_f64(simd::c128_as_f64(x), simd::c128_as_f64_mut(y));
}

fn c128_mul(x: &[Complex64], y: &[Complex64], o: &mut [Complex64]) {
    for i in 0..o.len() {
        o[i] = x[i] * y[i];
    }
}

fn c128_mul_lhs(x: &mut [Complex64], y: &[Complex64]) {
    for (o, &b) in x.iter_mut().zip(y) {
        *o *= b;
    }
}

fn c128_mul_rhs(x: &[Complex64], y: &mut [Complex64]) {
    for (&a, o) in x.iter().zip(y.iter_mut()) {
        *o = a * *o;
    }
}

fn c128_div(x: &[Complex64], y: &[Complex64], o: &mut [Complex64]) {
    for i in 0..o.len() {
        o[i] = x[i] / y[i];
    }
}

fn c128_div_lhs(x: &mut [Complex64], y: &[Complex64]) {
    for (o, &b) in x.iter_mut().zip(y) {
        *o = *o / b;
    }
}

fn c128_div_rhs(x: &[Complex64], y: &mut [Complex64]) {
    for (&a, o) in x.iter().zip(y.iter_mut()) {
        *o = a / *o;
    }
}

fn binary_shape_check(op: &'static str, a: &Tensor, b: &Tensor) -> Result<(), TensorError> {
    if a.shape() != b.shape() {
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
    Ok(())
}

fn synthetic_binary(op_tag: u64, a: &Tensor, b: &Tensor) -> Option<Tensor> {
    let sa = match a.storage() {
        Storage::Synthetic { seed } => Some(*seed),
        Storage::Dense(_) => None,
    };
    let sb = match b.storage() {
        Storage::Synthetic { seed } => Some(*seed),
        Storage::Dense(_) => None,
    };
    if sa.is_none() && sb.is_none() {
        return None;
    }
    let seed = mix_seed(sa.unwrap_or(0x5eed), mix_seed(sb.unwrap_or(0xfeed), op_tag));
    Some(Tensor::synthetic(a.dtype(), a.shape().clone(), seed))
}

macro_rules! zip_elementwise {
    ($name:ident, $op_tag:expr, $f32k:path, $f64k:path, $c128k:path) => {
        /// Elementwise operation over two same-shape, same-dtype
        /// tensors. Each worker chunk runs a runtime-dispatched SIMD
        /// kernel (scalar fallback bit-identical, see `simd`); the
        /// output buffer comes from the thread-local recycle arena.
        pub fn $name(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
            binary_shape_check(stringify!($name), a, b)?;
            if let Some(t) = synthetic_binary($op_tag, a, b) {
                return Ok(t);
            }
            let n = a.num_elements();
            let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
            match (a.data()?, b.data()?) {
                (TensorData::F32(x), TensorData::F32(y)) => {
                    let mut out = crate::arena::take_f32(n);
                    par_chunks_mut(&mut out, chunk, |ci, slice| {
                        let start = ci * chunk;
                        let end = start + slice.len();
                        $f32k(&x[start..end], &y[start..end], slice);
                    });
                    out.into_tensor(a.shape().clone())
                }
                (TensorData::F64(x), TensorData::F64(y)) => {
                    let mut out = crate::arena::take_f64(n);
                    par_chunks_mut(&mut out, chunk, |ci, slice| {
                        let start = ci * chunk;
                        let end = start + slice.len();
                        $f64k(&x[start..end], &y[start..end], slice);
                    });
                    out.into_tensor(a.shape().clone())
                }
                (TensorData::C128(x), TensorData::C128(y)) => {
                    let mut out = crate::arena::take_c128(n);
                    par_chunks_mut(&mut out, chunk, |ci, slice| {
                        let start = ci * chunk;
                        let end = start + slice.len();
                        $c128k(&x[start..end], &y[start..end], slice);
                    });
                    out.into_tensor(a.shape().clone())
                }
                (other, _) => Err(TensorError::UnsupportedDType {
                    op: stringify!($name),
                    dtype: other.dtype(),
                }),
            }
        }
    };
}

zip_elementwise!(add, 0xA0, simd::add_f32, simd::add_f64, c128_add);
zip_elementwise!(sub, 0xA1, simd::sub_f32, simd::sub_f64, c128_sub);
zip_elementwise!(mul, 0xA2, simd::mul_f32, simd::mul_f64, c128_mul);
zip_elementwise!(div, 0xA3, simd::div_f32, simd::div_f64, c128_div);

macro_rules! zip_minmax {
    ($name:ident, $op_tag:expr, $sel:ident) => {
        /// Elementwise min/max over two same-shape real tensors (IEEE
        /// `min`/`max` semantics: a NaN operand yields the other value).
        /// Complex tensors are unordered and rejected. Used by the
        /// `ReduceOp::Min`/`ReduceOp::Max` collective reductions.
        pub fn $name(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
            binary_shape_check(stringify!($name), a, b)?;
            if let Some(t) = synthetic_binary($op_tag, a, b) {
                return Ok(t);
            }
            let n = a.num_elements();
            match (a.data()?, b.data()?) {
                (TensorData::F32(x), TensorData::F32(y)) => {
                    let mut out = crate::arena::take_f32(n);
                    for i in 0..n {
                        out[i] = x[i].$sel(y[i]);
                    }
                    out.into_tensor(a.shape().clone())
                }
                (TensorData::F64(x), TensorData::F64(y)) => {
                    let mut out = crate::arena::take_f64(n);
                    for i in 0..n {
                        out[i] = x[i].$sel(y[i]);
                    }
                    out.into_tensor(a.shape().clone())
                }
                (other, _) => Err(TensorError::UnsupportedDType {
                    op: stringify!($name),
                    dtype: other.dtype(),
                }),
            }
        }
    };
}

zip_minmax!(minimum, 0xA4, min);
zip_minmax!(maximum, 0xA5, max);

/// Sum of N same-shape, same-dtype tensors in one pass over the output
/// (TensorFlow's `AddN`) — no intermediate allocations, unlike folding
/// `add` pairwise.
pub fn add_n(inputs: &[Tensor]) -> Result<Tensor, TensorError> {
    let first = inputs.first().ok_or(TensorError::ShapeMismatch {
        op: "add_n",
        lhs: crate::Shape::scalar(),
        rhs: crate::Shape::scalar(),
    })?;
    for t in &inputs[1..] {
        binary_shape_check("add_n", first, t)?;
    }
    if inputs.len() == 1 {
        return Ok(first.clone());
    }
    if inputs.iter().any(|t| t.is_synthetic()) {
        let seed = inputs.iter().fold(0xA4u64, |acc, t| {
            mix_seed(acc, t.synthetic_seed().unwrap_or(0x5eed))
        });
        return Ok(Tensor::synthetic(
            first.dtype(),
            first.shape().clone(),
            seed,
        ));
    }
    let n = first.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    match first.dtype() {
        DType::F32 => {
            let xs: Vec<&[f32]> = inputs
                .iter()
                .map(|t| t.as_f32())
                .collect::<Result<_, _>>()?;
            let mut out = crate::arena::take_zeroed_f32(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                let end = start + slice.len();
                for x in &xs {
                    simd::add_lhs_f32(slice, &x[start..end]);
                }
            });
            out.into_tensor(first.shape().clone())
        }
        DType::F64 => {
            let xs: Vec<&[f64]> = inputs
                .iter()
                .map(|t| t.as_f64())
                .collect::<Result<_, _>>()?;
            let mut out = crate::arena::take_zeroed_f64(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                let end = start + slice.len();
                for x in &xs {
                    simd::add_lhs_f64(slice, &x[start..end]);
                }
            });
            out.into_tensor(first.shape().clone())
        }
        DType::C128 => {
            let xs: Vec<&[Complex64]> = inputs
                .iter()
                .map(|t| t.as_c128())
                .collect::<Result<_, _>>()?;
            let mut out = crate::arena::take_zeroed_c128(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                let end = start + slice.len();
                for x in &xs {
                    c128_add_lhs(slice, &x[start..end]);
                }
            });
            out.into_tensor(first.shape().clone())
        }
        other => Err(TensorError::UnsupportedDType {
            op: "add_n",
            dtype: other,
        }),
    }
}

/// Elementwise negation.
pub fn neg(a: &Tensor) -> Result<Tensor, TensorError> {
    scale(a, -1.0)
}

/// Multiply every element by a real scalar.
pub fn scale(a: &Tensor, s: f64) -> Result<Tensor, TensorError> {
    if let Storage::Synthetic { seed } = a.storage() {
        return Ok(Tensor::synthetic(
            a.dtype(),
            a.shape().clone(),
            mix_seed(*seed, 0xB0 ^ s.to_bits()),
        ));
    }
    let n = a.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    match a.data()? {
        TensorData::F32(x) => {
            let s32 = s as f32;
            let mut out = crate::arena::take_f32(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::scale_f32(&x[start..start + slice.len()], s32, slice);
            });
            out.into_tensor(a.shape().clone())
        }
        TensorData::F64(x) => {
            let mut out = crate::arena::take_f64(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::scale_f64(&x[start..start + slice.len()], s, slice);
            });
            out.into_tensor(a.shape().clone())
        }
        TensorData::C128(x) => {
            // `Complex64::scale` is componentwise `* s` — exactly the
            // interleaved-f64 scale kernel.
            let mut out = crate::arena::take_c128(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::scale_f64(
                    simd::c128_as_f64(&x[start..start + slice.len()]),
                    s,
                    simd::c128_as_f64_mut(slice),
                );
            });
            out.into_tensor(a.shape().clone())
        }
        other => Err(TensorError::UnsupportedDType {
            op: "scale",
            dtype: other.dtype(),
        }),
    }
}

/// `alpha * x + y` (the BLAS axpy at the heart of CG updates).
pub fn axpy(alpha: f64, x: &Tensor, y: &Tensor) -> Result<Tensor, TensorError> {
    binary_shape_check("axpy", x, y)?;
    if let Some(t) = synthetic_binary(0xB1 ^ alpha.to_bits(), x, y) {
        return Ok(t);
    }
    let n = x.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    match (x.data()?, y.data()?) {
        (TensorData::F64(xv), TensorData::F64(yv)) => {
            let mut out = crate::arena::take_f64(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                let end = start + slice.len();
                simd::axpy_f64(alpha, &xv[start..end], &yv[start..end], slice);
            });
            out.into_tensor(x.shape().clone())
        }
        (TensorData::F32(xv), TensorData::F32(yv)) => {
            let a32 = alpha as f32;
            let mut out = crate::arena::take_f32(n);
            par_chunks_mut(&mut out, chunk, |ci, slice| {
                let start = ci * chunk;
                let end = start + slice.len();
                simd::axpy_f32(a32, &xv[start..end], &yv[start..end], slice);
            });
            out.into_tensor(x.shape().clone())
        }
        (other, _) => Err(TensorError::UnsupportedDType {
            op: "axpy",
            dtype: other.dtype(),
        }),
    }
}

// ---- by-value (forwarding) variants ------------------------------------
//
// Each `*_owned` function computes exactly the same per-element
// expression as its borrowing counterpart — only the destination
// buffer changes — so results are bit-identical. An operand's buffer
// is reused only when `Arc::get_mut` proves the tensor is the sole
// owner; any other live reference (a Variable's stored value, a queued
// tuple, a caller-held feed, a reshape view, the same tensor passed
// twice) keeps the refcount above 1 and forces the allocating path.

macro_rules! zip_elementwise_owned {
    ($name:ident, $borrowed:ident, $op_tag:expr,
     $f32lhs:path, $f64lhs:path, $c128lhs:path,
     $f32rhs:path, $f64rhs:path, $c128rhs:path) => {
        /// By-value variant of the elementwise op: forwards an operand's
        /// buffer when uniquely held, else falls back to allocating
        /// (through the recycle arena), reclaiming the dead operands.
        pub fn $name(mut a: Tensor, mut b: Tensor) -> Result<Tensor, TensorError> {
            binary_shape_check(stringify!($borrowed), &a, &b)?;
            if let Some(t) = synthetic_binary($op_tag, &a, &b) {
                return Ok(t);
            }
            let n = a.num_elements();
            let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
            let into_a = match a.try_unique_data() {
                Some(TensorData::F32(x)) => {
                    let y = b.as_f32()?;
                    par_chunks_mut(x, chunk, |ci, slice| {
                        let start = ci * chunk;
                        $f32lhs(slice, &y[start..start + slice.len()]);
                    });
                    true
                }
                Some(TensorData::F64(x)) => {
                    let y = b.as_f64()?;
                    par_chunks_mut(x, chunk, |ci, slice| {
                        let start = ci * chunk;
                        $f64lhs(slice, &y[start..start + slice.len()]);
                    });
                    true
                }
                Some(TensorData::C128(x)) => {
                    let y = b.as_c128()?;
                    par_chunks_mut(x, chunk, |ci, slice| {
                        let start = ci * chunk;
                        $c128lhs(slice, &y[start..start + slice.len()]);
                    });
                    true
                }
                _ => false,
            };
            if into_a {
                crate::arena::recycle_tensor(b);
                return Ok(a);
            }
            let into_b = match b.try_unique_data() {
                Some(TensorData::F32(y)) => {
                    let x = a.as_f32()?;
                    par_chunks_mut(y, chunk, |ci, slice| {
                        let start = ci * chunk;
                        $f32rhs(&x[start..start + slice.len()], slice);
                    });
                    true
                }
                Some(TensorData::F64(y)) => {
                    let x = a.as_f64()?;
                    par_chunks_mut(y, chunk, |ci, slice| {
                        let start = ci * chunk;
                        $f64rhs(&x[start..start + slice.len()], slice);
                    });
                    true
                }
                Some(TensorData::C128(y)) => {
                    let x = a.as_c128()?;
                    par_chunks_mut(y, chunk, |ci, slice| {
                        let start = ci * chunk;
                        $c128rhs(&x[start..start + slice.len()], slice);
                    });
                    true
                }
                _ => false,
            };
            if into_b {
                crate::arena::recycle_tensor(a);
                return Ok(b);
            }
            let out = $borrowed(&a, &b);
            crate::arena::recycle_tensor(a);
            crate::arena::recycle_tensor(b);
            out
        }
    };
}

zip_elementwise_owned!(
    add_owned,
    add,
    0xA0,
    simd::add_lhs_f32,
    simd::add_lhs_f64,
    c128_add_lhs,
    simd::add_rhs_f32,
    simd::add_rhs_f64,
    c128_add_rhs
);
zip_elementwise_owned!(
    sub_owned,
    sub,
    0xA1,
    simd::sub_lhs_f32,
    simd::sub_lhs_f64,
    c128_sub_lhs,
    simd::sub_rhs_f32,
    simd::sub_rhs_f64,
    c128_sub_rhs
);
zip_elementwise_owned!(
    mul_owned,
    mul,
    0xA2,
    simd::mul_lhs_f32,
    simd::mul_lhs_f64,
    c128_mul_lhs,
    simd::mul_rhs_f32,
    simd::mul_rhs_f64,
    c128_mul_rhs
);
zip_elementwise_owned!(
    div_owned,
    div,
    0xA3,
    simd::div_lhs_f32,
    simd::div_lhs_f64,
    c128_div_lhs,
    simd::div_rhs_f32,
    simd::div_rhs_f64,
    c128_div_rhs
);

/// By-value [`add_n`]: sums into `inputs[0]`'s buffer when it is
/// uniquely held, starting from the same `0 + x₀[i]` the allocating
/// path performs so `-0.0` inputs round-trip identically.
pub fn add_n_owned(mut inputs: Vec<Tensor>) -> Result<Tensor, TensorError> {
    add_n_drain(&mut inputs)
}

/// [`add_n_owned`] over a caller-owned operand list, so the `Vec`'s
/// capacity stays with the caller. Operands the sum consumed are
/// removed (and recycled); any left behind — on an error, or for
/// synthetic operands — are the caller's to drop.
// Spelled as `*o = 0 + *o`, not `+=`: the expression must mirror the
// borrowing kernel term for term to keep the bit-identity argument
// auditable.
#[allow(clippy::assign_op_pattern)]
pub fn add_n_drain(inputs: &mut Vec<Tensor>) -> Result<Tensor, TensorError> {
    let first = inputs.first().ok_or(TensorError::ShapeMismatch {
        op: "add_n",
        lhs: crate::Shape::scalar(),
        rhs: crate::Shape::scalar(),
    })?;
    for t in &inputs[1..] {
        binary_shape_check("add_n", first, t)?;
    }
    if inputs.len() == 1 {
        return Ok(inputs.pop().expect("len checked"));
    }
    if inputs.iter().any(|t| t.is_synthetic()) {
        let seed = inputs.iter().fold(0xA4u64, |acc, t| {
            mix_seed(acc, t.synthetic_seed().unwrap_or(0x5eed))
        });
        let first = &inputs[0];
        return Ok(Tensor::synthetic(
            first.dtype(),
            first.shape().clone(),
            seed,
        ));
    }
    let n = inputs[0].num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    let (head, tail) = inputs.split_at_mut(1);
    let forwarded = match head[0].try_unique_data() {
        Some(TensorData::F32(x0)) => {
            let xs: Vec<&[f32]> = tail.iter().map(|t| t.as_f32()).collect::<Result<_, _>>()?;
            par_chunks_mut(x0, chunk, |ci, slice| {
                let start = ci * chunk;
                for o in slice.iter_mut() {
                    *o = 0f32 + *o;
                }
                for x in &xs {
                    simd::add_lhs_f32(slice, &x[start..start + slice.len()]);
                }
            });
            true
        }
        Some(TensorData::F64(x0)) => {
            let xs: Vec<&[f64]> = tail.iter().map(|t| t.as_f64()).collect::<Result<_, _>>()?;
            par_chunks_mut(x0, chunk, |ci, slice| {
                let start = ci * chunk;
                for o in slice.iter_mut() {
                    *o = 0f64 + *o;
                }
                for x in &xs {
                    simd::add_lhs_f64(slice, &x[start..start + slice.len()]);
                }
            });
            true
        }
        Some(TensorData::C128(x0)) => {
            let xs: Vec<&[Complex64]> =
                tail.iter().map(|t| t.as_c128()).collect::<Result<_, _>>()?;
            par_chunks_mut(x0, chunk, |ci, slice| {
                let start = ci * chunk;
                for o in slice.iter_mut() {
                    *o = Complex64::ZERO + *o;
                }
                for x in &xs {
                    c128_add_lhs(slice, &x[start..start + slice.len()]);
                }
            });
            true
        }
        _ => false,
    };
    if forwarded {
        let out = inputs.swap_remove(0);
        for t in inputs.drain(..) {
            crate::arena::recycle_tensor(t);
        }
        return Ok(out);
    }
    let out = add_n(inputs);
    for t in inputs.drain(..) {
        crate::arena::recycle_tensor(t);
    }
    out
}

/// By-value [`scale`]: scales in place when the buffer is uniquely
/// held.
pub fn scale_owned(mut a: Tensor, s: f64) -> Result<Tensor, TensorError> {
    if let Storage::Synthetic { seed } = a.storage() {
        return Ok(Tensor::synthetic(
            a.dtype(),
            a.shape().clone(),
            mix_seed(*seed, 0xB0 ^ s.to_bits()),
        ));
    }
    let n = a.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    let forwarded = match a.try_unique_data() {
        Some(TensorData::F32(x)) => {
            let s32 = s as f32;
            par_chunks_mut(x, chunk, |_ci, slice| {
                simd::scale_in_f32(slice, s32);
            });
            true
        }
        Some(TensorData::F64(x)) => {
            par_chunks_mut(x, chunk, |_ci, slice| {
                simd::scale_in_f64(slice, s);
            });
            true
        }
        Some(TensorData::C128(x)) => {
            par_chunks_mut(x, chunk, |_ci, slice| {
                simd::scale_in_f64(simd::c128_as_f64_mut(slice), s);
            });
            true
        }
        _ => false,
    };
    if forwarded {
        return Ok(a);
    }
    let out = scale(&a, s);
    crate::arena::recycle_tensor(a);
    out
}

/// By-value [`neg`].
pub fn neg_owned(a: Tensor) -> Result<Tensor, TensorError> {
    scale_owned(a, -1.0)
}

/// By-value [`axpy`]: writes `alpha·x + y` into `y`'s (or `x`'s)
/// buffer when uniquely held.
// `*o = alpha * x[i] + *o`, not `+=`: the expression mirrors the
// borrowing kernel's `alpha * x[i] + y[i]` term for term to keep the
// bit-identity argument auditable.
#[allow(clippy::assign_op_pattern)]
pub fn axpy_owned(alpha: f64, mut x: Tensor, mut y: Tensor) -> Result<Tensor, TensorError> {
    binary_shape_check("axpy", &x, &y)?;
    if let Some(t) = synthetic_binary(0xB1 ^ alpha.to_bits(), &x, &y) {
        return Ok(t);
    }
    let n = x.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    let into_y = match y.try_unique_data() {
        Some(TensorData::F64(yv)) => {
            let xv = x.as_f64()?;
            par_chunks_mut(yv, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::axpy_into_y_f64(alpha, &xv[start..start + slice.len()], slice);
            });
            true
        }
        Some(TensorData::F32(yv)) => {
            let a32 = alpha as f32;
            let xv = x.as_f32()?;
            par_chunks_mut(yv, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::axpy_into_y_f32(a32, &xv[start..start + slice.len()], slice);
            });
            true
        }
        _ => false,
    };
    if into_y {
        crate::arena::recycle_tensor(x);
        return Ok(y);
    }
    let into_x = match x.try_unique_data() {
        Some(TensorData::F64(xv)) => {
            let yv = y.as_f64()?;
            par_chunks_mut(xv, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::axpy_into_x_f64(alpha, slice, &yv[start..start + slice.len()]);
            });
            true
        }
        Some(TensorData::F32(xv)) => {
            let a32 = alpha as f32;
            let yv = y.as_f32()?;
            par_chunks_mut(xv, chunk, |ci, slice| {
                let start = ci * chunk;
                simd::axpy_into_x_f32(a32, slice, &yv[start..start + slice.len()]);
            });
            true
        }
        _ => false,
    };
    if into_x {
        crate::arena::recycle_tensor(y);
        return Ok(x);
    }
    // No uniquely-held operand (both pinned by variables, as in the CG
    // loop): allocate through the recycle arena rather than the system
    // allocator, and reclaim the dead operand handles.
    let out = axpy(alpha, &x, &y);
    crate::arena::recycle_tensor(x);
    crate::arena::recycle_tensor(y);
    out
}

/// Deterministic pseudo-value standing in for a reduction over
/// synthetic data: positive, O(1), and stable in the seed. Scalar
/// reduction results are *materialized* even for synthetic inputs so
/// that driver-side control flow (CG's alpha/beta updates, convergence
/// bookkeeping) can execute at simulation scale.
fn synthetic_scalar_value(seed: u64) -> f64 {
    1.0 + (seed % 1024) as f64 / 1024.0
}

/// Dot product of two same-length float vectors; rank-0 result.
///
/// Synthetic inputs yield a *dense* pseudo-valued scalar (positive,
/// O(1), deterministic in the operand seeds).
pub fn dot(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    binary_shape_check("dot", a, b)?;
    if synthetic_binary(0xC0, a, b).is_some() {
        let seed = mix_seed(
            a.synthetic_seed().unwrap_or(1),
            b.synthetic_seed().unwrap_or(2),
        );
        let v = synthetic_scalar_value(seed);
        return Ok(match a.dtype() {
            DType::F32 => Tensor::scalar_f32(v as f32),
            _ => Tensor::scalar_f64(v),
        });
    }
    let n = a.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    match (a.data()?, b.data()?) {
        (TensorData::F64(x), TensorData::F64(y)) => {
            let s = parallel_reduce(
                n,
                chunk,
                0f64,
                |lo, hi| simd::dot_f64(&x[lo..hi], &y[lo..hi]),
                |p, q| p + q,
            );
            Ok(crate::arena::scalar_f64(s))
        }
        (TensorData::F32(x), TensorData::F32(y)) => {
            // Accumulate in f64 for reproducibility across chunkings.
            let s = parallel_reduce(
                n,
                chunk,
                0f64,
                |lo, hi| simd::dot_f32(&x[lo..hi], &y[lo..hi]),
                |p, q| p + q,
            );
            Ok(crate::arena::scalar_f32(s as f32))
        }
        (other, _) => Err(TensorError::UnsupportedDType {
            op: "dot",
            dtype: other.dtype(),
        }),
    }
}

/// Sum of all elements; rank-0 result of the same dtype family.
pub fn sum(a: &Tensor) -> Result<Tensor, TensorError> {
    if let Storage::Synthetic { seed } = a.storage() {
        let v = synthetic_scalar_value(mix_seed(*seed, 0xC1));
        return Ok(match a.dtype() {
            DType::F32 => Tensor::scalar_f32(v as f32),
            DType::I64 => Tensor::scalar_i64(v as i64),
            _ => Tensor::scalar_f64(v),
        });
    }
    let n = a.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    match a.data()? {
        TensorData::F64(x) => {
            let s = parallel_reduce(
                n,
                chunk,
                0f64,
                |lo, hi| simd::sum_f64(&x[lo..hi]),
                |p, q| p + q,
            );
            Ok(crate::arena::scalar_f64(s))
        }
        TensorData::F32(x) => {
            let s = parallel_reduce(
                n,
                chunk,
                0f64,
                |lo, hi| simd::sum_f32(&x[lo..hi]),
                |p, q| p + q,
            );
            Ok(crate::arena::scalar_f32(s as f32))
        }
        TensorData::I64(x) => {
            let s = parallel_reduce(
                n,
                chunk,
                0i64,
                |lo, hi| x[lo..hi].iter().sum::<i64>(),
                |p, q| p + q,
            );
            Ok(Tensor::scalar_i64(s))
        }
        other => Err(TensorError::UnsupportedDType {
            op: "sum",
            dtype: other.dtype(),
        }),
    }
}

/// Euclidean norm of a float vector; rank-0 f64 result.
pub fn norm2(a: &Tensor) -> Result<Tensor, TensorError> {
    if let Storage::Synthetic { seed } = a.storage() {
        return Ok(Tensor::scalar_f64(synthetic_scalar_value(mix_seed(
            *seed, 0xC2,
        ))));
    }
    let n = a.num_elements();
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    let ssq = match a.data()? {
        TensorData::F64(x) => parallel_reduce(
            n,
            chunk,
            0f64,
            |lo, hi| simd::sumsq_f64(&x[lo..hi]),
            |p, q| p + q,
        ),
        TensorData::F32(x) => parallel_reduce(
            n,
            chunk,
            0f64,
            |lo, hi| simd::sumsq_f32(&x[lo..hi]),
            |p, q| p + q,
        ),
        // |z|² summed as the flat interleaved squares — same value set,
        // blocked association shared bit-for-bit by both dispatch paths.
        TensorData::C128(x) => parallel_reduce(
            n,
            chunk,
            0f64,
            |lo, hi| simd::sumsq_f64(simd::c128_as_f64(&x[lo..hi])),
            |p, q| p + q,
        ),
        other => {
            return Err(TensorError::UnsupportedDType {
                op: "norm2",
                dtype: other.dtype(),
            })
        }
    };
    Ok(crate::arena::scalar_f64(ssq.sqrt()))
}

/// Maximum element of a float tensor; rank-0 f64 result.
pub fn max(a: &Tensor) -> Result<Tensor, TensorError> {
    if let Storage::Synthetic { seed } = a.storage() {
        return Ok(Tensor::scalar_f64(synthetic_scalar_value(mix_seed(
            *seed, 0xC3,
        ))));
    }
    let n = a.num_elements();
    if n == 0 {
        return Err(TensorError::InvalidArgument("max of empty tensor".into()));
    }
    let chunk = default_chunk(n, tfhpc_parallel::global_pool().size());
    let m = match a.data()? {
        TensorData::F64(x) => parallel_reduce(
            n,
            chunk,
            f64::NEG_INFINITY,
            |lo, hi| x[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max),
            f64::max,
        ),
        TensorData::F32(x) => parallel_reduce(
            n,
            chunk,
            f64::NEG_INFINITY,
            |lo, hi| {
                x[lo..hi]
                    .iter()
                    .map(|v| *v as f64)
                    .fold(f64::NEG_INFINITY, f64::max)
            },
            f64::max,
        ),
        other => {
            return Err(TensorError::UnsupportedDType {
                op: "max",
                dtype: other.dtype(),
            })
        }
    };
    Ok(crate::arena::scalar_f64(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t64(v: &[f64]) -> Tensor {
        Tensor::from_f64([v.len()], v.to_vec()).unwrap()
    }

    #[test]
    fn add_sub_mul_div_f64() {
        let a = t64(&[1., 2., 3., 4.]);
        let b = t64(&[4., 3., 2., 1.]);
        assert_eq!(add(&a, &b).unwrap().as_f64().unwrap(), &[5., 5., 5., 5.]);
        assert_eq!(sub(&a, &b).unwrap().as_f64().unwrap(), &[-3., -1., 1., 3.]);
        assert_eq!(mul(&a, &b).unwrap().as_f64().unwrap(), &[4., 6., 6., 4.]);
        assert_eq!(
            div(&a, &b).unwrap().as_f64().unwrap(),
            &[0.25, 2. / 3., 1.5, 4.]
        );
    }

    #[test]
    fn add_f32_and_c128() {
        let a = Tensor::from_f32([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_f32([2], vec![0.5, 0.5]).unwrap();
        assert_eq!(add(&a, &b).unwrap().as_f32().unwrap(), &[1.5, 2.5]);
        let ca = Tensor::from_c128([1], vec![Complex64::new(1.0, 2.0)]).unwrap();
        let cb = Tensor::from_c128([1], vec![Complex64::new(0.0, -2.0)]).unwrap();
        let s = add(&ca, &cb).unwrap();
        assert_eq!(s.as_c128().unwrap()[0], Complex64::new(1.0, 0.0));
    }

    #[test]
    fn shape_and_dtype_mismatch() {
        let a = t64(&[1., 2.]);
        let b = t64(&[1., 2., 3.]);
        assert!(matches!(
            add(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let c = Tensor::from_f32([2], vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            add(&a, &c),
            Err(TensorError::DTypeMismatch { .. })
        ));
    }

    #[test]
    fn scale_and_neg() {
        let a = t64(&[1., -2., 3.]);
        assert_eq!(scale(&a, 2.0).unwrap().as_f64().unwrap(), &[2., -4., 6.]);
        assert_eq!(neg(&a).unwrap().as_f64().unwrap(), &[-1., 2., -3.]);
    }

    #[test]
    fn axpy_matches_formula() {
        let x = t64(&[1., 2., 3.]);
        let y = t64(&[10., 10., 10.]);
        assert_eq!(
            axpy(2.0, &x, &y).unwrap().as_f64().unwrap(),
            &[12., 14., 16.]
        );
    }

    #[test]
    fn dot_and_norm() {
        let a = t64(&[3., 4.]);
        assert_eq!(dot(&a, &a).unwrap().scalar_value_f64().unwrap(), 25.0);
        assert_eq!(norm2(&a).unwrap().scalar_value_f64().unwrap(), 5.0);
    }

    #[test]
    fn dot_large_parallel_consistent() {
        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.25).collect();
        let t = Tensor::from_f64([n], x.clone()).unwrap();
        let expect: f64 = x.iter().map(|v| v * v).sum();
        let got = dot(&t, &t).unwrap().scalar_value_f64().unwrap();
        assert!((got - expect).abs() < 1e-6 * expect.max(1.0));
    }

    #[test]
    fn sum_and_max() {
        let a = t64(&[1., 5., -2.]);
        assert_eq!(sum(&a).unwrap().scalar_value_f64().unwrap(), 4.0);
        assert_eq!(max(&a).unwrap().scalar_value_f64().unwrap(), 5.0);
        let i = Tensor::from_i64([3], vec![1, 2, 3]).unwrap();
        assert_eq!(sum(&i).unwrap().scalar_value_i64().unwrap(), 6);
    }

    #[test]
    fn synthetic_propagates() {
        let a = Tensor::synthetic(DType::F64, [8], 1);
        let b = Tensor::synthetic(DType::F64, [8], 2);
        let c = add(&a, &b).unwrap();
        assert!(c.is_synthetic());
        assert_eq!(c.shape().dims(), &[8]);
        // deterministic seeds
        let c2 = add(&a, &b).unwrap();
        assert_eq!(c.synthetic_seed(), c2.synthetic_seed());
        // different op → different seed
        let d = mul(&a, &b).unwrap();
        assert_ne!(c.synthetic_seed(), d.synthetic_seed());
        // scalar reductions are realized as dense pseudo-values so
        // driver control flow works at simulation scale
        let s = dot(&a, &b).unwrap();
        assert!(!s.is_synthetic());
        assert!(s.shape().is_scalar());
        let v = s.scalar_value_f64().unwrap();
        assert!((1.0..2.0).contains(&v));
        // ... and are deterministic in the operand seeds
        assert_eq!(dot(&a, &b).unwrap().scalar_value_f64().unwrap(), v);
        assert!(!norm2(&a).unwrap().is_synthetic());
        assert!(!sum(&a).unwrap().is_synthetic());
        assert!(!max(&a).unwrap().is_synthetic());
    }

    #[test]
    fn mixed_synthetic_dense_is_synthetic() {
        let a = Tensor::synthetic(DType::F64, [2], 1);
        let b = t64(&[1., 2.]);
        assert!(add(&a, &b).unwrap().is_synthetic());
        assert!(add(&b, &a).unwrap().is_synthetic());
    }

    #[test]
    fn owned_forwards_unique_buffer() {
        let a = t64(&[1., 2., 3.]);
        let b = t64(&[4., 5., 6.]);
        let pa = a.dense_ptr().unwrap();
        let out = add_owned(a, b).unwrap();
        assert_eq!(out.dense_ptr(), Some(pa), "uniquely held lhs reused");
        assert_eq!(out.as_f64().unwrap(), &[5., 7., 9.]);

        // Second operand forwards when the first is shared.
        let a = t64(&[1., 2., 3.]);
        let a_held = a.clone();
        let b = t64(&[4., 5., 6.]);
        let pb = b.dense_ptr().unwrap();
        let out = sub_owned(a, b).unwrap();
        assert_eq!(out.dense_ptr(), Some(pb), "uniquely held rhs reused");
        assert_eq!(out.as_f64().unwrap(), &[-3., -3., -3.]);
        assert_eq!(a_held.as_f64().unwrap(), &[1., 2., 3.]);
    }

    #[test]
    fn owned_copies_when_shared() {
        let a = t64(&[1., 2.]);
        let b = t64(&[3., 4.]);
        let (ha, hb) = (a.clone(), b.clone());
        let out = mul_owned(a, b).unwrap();
        assert_ne!(out.dense_ptr(), ha.dense_ptr());
        assert_ne!(out.dense_ptr(), hb.dense_ptr());
        assert_eq!(ha.as_f64().unwrap(), &[1., 2.]);
        assert_eq!(hb.as_f64().unwrap(), &[3., 4.]);
        assert_eq!(out.as_f64().unwrap(), &[3., 8.]);
    }

    #[test]
    fn owned_same_tensor_twice_never_aliases_wrong() {
        // add(t, t): both operands share one Arc, so neither is
        // uniquely held mid-op; the fallback must produce 2t.
        let t = t64(&[1., 2., 3.]);
        let out = add_owned(t.clone(), t.clone()).unwrap();
        assert_eq!(out.as_f64().unwrap(), &[2., 4., 6.]);
        assert_eq!(t.as_f64().unwrap(), &[1., 2., 3.]);
    }

    #[test]
    fn owned_bit_identical_to_borrowed() {
        let vals: Vec<f64> = (0..257).map(|i| (i as f64).sin() * 1e3).collect();
        let ws: Vec<f64> = (0..257).map(|i| (i as f64).cos() + 0.5).collect();
        let a = Tensor::from_f64([257], vals).unwrap();
        let b = Tensor::from_f64([257], ws).unwrap();
        for (owned, borrowed) in [
            (add_owned(a.clone(), b.clone()), add(&a, &b)),
            (sub_owned(a.clone(), b.clone()), sub(&a, &b)),
            (mul_owned(a.clone(), b.clone()), mul(&a, &b)),
            (div_owned(a.clone(), b.clone()), div(&a, &b)),
        ] {
            let o = owned.unwrap();
            let r = borrowed.unwrap();
            let ob: Vec<u64> = o.as_f64().unwrap().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u64> = r.as_f64().unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, rb);
        }
        let o = axpy_owned(1.75, a.clone(), b.clone()).unwrap();
        let r = axpy(1.75, &a, &b).unwrap();
        assert_eq!(o.as_f64().unwrap(), r.as_f64().unwrap());
        let o = scale_owned(a.clone(), -3.25).unwrap();
        let r = scale(&a, -3.25).unwrap();
        assert_eq!(o.as_f64().unwrap(), r.as_f64().unwrap());
    }

    #[test]
    fn add_n_owned_matches_including_negative_zero() {
        // The allocating path starts each element at literal 0.0, so
        // a -0.0 input yields +0.0 (0.0 + -0.0 == +0.0); the forwarding
        // path must reproduce that exactly.
        let x = t64(&[-0.0, 1.0]);
        let y = t64(&[0.0, 2.0]);
        let naive = add_n(&[x.clone(), y.clone()]).unwrap();
        let px = x.dense_ptr().unwrap();
        let owned = add_n_owned(vec![x, y]).unwrap();
        assert_eq!(owned.dense_ptr(), Some(px), "forwarded into inputs[0]");
        let nb: Vec<u64> = naive
            .as_f64()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let ob: Vec<u64> = owned
            .as_f64()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(nb, ob);
        assert_eq!(owned.as_f64().unwrap()[0].to_bits(), 0f64.to_bits());
    }

    #[test]
    fn owned_synthetic_seeds_match_borrowed() {
        let a = Tensor::synthetic(DType::F64, [8], 1);
        let b = Tensor::synthetic(DType::F64, [8], 2);
        assert_eq!(
            add_owned(a.clone(), b.clone()).unwrap().synthetic_seed(),
            add(&a, &b).unwrap().synthetic_seed()
        );
        assert_eq!(
            add_n_owned(vec![a.clone(), b.clone()])
                .unwrap()
                .synthetic_seed(),
            add_n(&[a.clone(), b.clone()]).unwrap().synthetic_seed()
        );
        assert_eq!(
            scale_owned(a.clone(), 2.0).unwrap().synthetic_seed(),
            scale(&a, 2.0).unwrap().synthetic_seed()
        );
        assert_eq!(
            axpy_owned(0.5, a.clone(), b.clone())
                .unwrap()
                .synthetic_seed(),
            axpy(0.5, &a, &b).unwrap().synthetic_seed()
        );
    }
}
