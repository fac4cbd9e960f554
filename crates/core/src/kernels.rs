//! Kernel execution and cost accounting for the built-in op set.
//!
//! `execute` produces output tensors (running real host math through
//! `tfhpc-tensor`, or propagating synthetic metadata); `cost_of`
//! produces the [`Cost`] record the session charges to the placed
//! device's performance model in simulated runs.

use crate::error::{CoreError, Result};
use crate::op::Op;
use crate::resources::Resources;
use tfhpc_sim::device::{Cost, KernelClass};
use tfhpc_tensor::tensor::mix_seed;
use tfhpc_tensor::{fft, matmul, ops, DType, Tensor};

/// Default Python-tax factor for `py_func` host callbacks: NumPy
/// slice-insertion style merge loops touch memory ~150x slower than
/// `memcpy` (calibrated so the FFT merger costs what §VIII describes).
pub const PY_FUNC_DEFAULT_COST_FACTOR: f64 = 150.0;

/// Cast between float dtypes (f32 <-> f64); identity when same dtype.
pub fn cast(t: &Tensor, to: DType) -> Result<Tensor> {
    if t.dtype() == to {
        return Ok(t.clone());
    }
    if let Some(seed) = t.synthetic_seed() {
        return Ok(Tensor::synthetic(
            to,
            t.shape().clone(),
            mix_seed(seed, 0xCA57),
        ));
    }
    match (t.dtype(), to) {
        (DType::F32, DType::F64) => {
            let v: Vec<f64> = t.as_f32()?.iter().map(|x| *x as f64).collect();
            Ok(Tensor::from_f64(t.shape().clone(), v)?)
        }
        (DType::F64, DType::F32) => {
            let v: Vec<f32> = t.as_f64()?.iter().map(|x| *x as f32).collect();
            Ok(Tensor::from_f32(t.shape().clone(), v)?)
        }
        (DType::I64, DType::F64) => {
            let v: Vec<f64> = t.as_i64()?.iter().map(|x| *x as f64).collect();
            Ok(Tensor::from_f64(t.shape().clone(), v)?)
        }
        (from, to) => Err(CoreError::Invalid(format!(
            "unsupported cast {from} -> {to}"
        ))),
    }
}

fn bytes_of(ts: &[Tensor]) -> f64 {
    ts.iter().map(|t| t.byte_size() as f64).sum()
}

/// Execute `op` on `inputs`, appending its outputs to `out` (the
/// caller's reusable scratch — no per-call `Vec`). Placeholders are
/// resolved by the session (never reach this function).
pub fn execute(
    op: &Op,
    inputs: &[Tensor],
    resources: &Resources,
    run_seed: u64,
    out: &mut Vec<Tensor>,
) -> Result<()> {
    let single = match op {
        Op::Placeholder { .. } => {
            return Err(CoreError::Graph(
                "placeholder reached kernel execution without a feed".into(),
            ))
        }
        Op::Const { value } => value.clone(),
        Op::RandomUniform { dtype, shape, seed } => {
            tfhpc_tensor::rng::random_uniform(*dtype, shape.clone(), mix_seed(*seed, run_seed))?
        }
        Op::VarRead { var } => resources.variable(var)?.read(),
        Op::Assign { var } => resources.variable(var)?.assign(inputs[0].clone())?,
        Op::AssignAdd { var } => resources.variable(var)?.assign_add(&inputs[0])?,
        Op::Add => ops::add(&inputs[0], &inputs[1])?,
        Op::Sub => ops::sub(&inputs[0], &inputs[1])?,
        Op::Mul => ops::mul(&inputs[0], &inputs[1])?,
        Op::Div => ops::div(&inputs[0], &inputs[1])?,
        Op::Neg => ops::neg(&inputs[0])?,
        Op::Scale { factor } => ops::scale(&inputs[0], *factor)?,
        Op::MulScalar => {
            let s = inputs[1].scalar_value_f64()?;
            ops::scale(&inputs[0], s)?
        }
        Op::AddN => {
            if inputs.is_empty() {
                return Err(CoreError::Graph("AddN with no inputs".into()));
            }
            ops::add_n(inputs)?
        }
        Op::MatMul => matmul::matmul(&inputs[0], &inputs[1])?,
        Op::MatVec => matmul::matvec(&inputs[0], &inputs[1])?,
        Op::Dot => ops::dot(&inputs[0], &inputs[1])?,
        Op::Sum => ops::sum(&inputs[0])?,
        Op::Max => ops::max(&inputs[0])?,
        Op::Sqrt => {
            let x = &inputs[0];
            if let Some(seed) = x.synthetic_seed() {
                Tensor::synthetic(x.dtype(), x.shape().clone(), mix_seed(seed, 0x5157))
            } else {
                match x.dtype() {
                    DType::F64 => {
                        let v: Vec<f64> = x.as_f64()?.iter().map(|v| v.sqrt()).collect();
                        Tensor::from_f64(x.shape().clone(), v)?
                    }
                    DType::F32 => {
                        let v: Vec<f32> = x.as_f32()?.iter().map(|v| v.sqrt()).collect();
                        Tensor::from_f32(x.shape().clone(), v)?
                    }
                    other => {
                        return Err(CoreError::Tensor(
                            tfhpc_tensor::TensorError::UnsupportedDType {
                                op: "sqrt",
                                dtype: other,
                            },
                        ))
                    }
                }
            }
        }
        Op::Fft => fft::fft_tensor(&inputs[0])?,
        Op::Reshape { shape } => inputs[0].reshape(shape.clone())?,
        Op::SliceRange { start, end } => inputs[0].slice_range(*start, *end)?,
        Op::SliceRows { start, end } => inputs[0].slice_rows(*start, *end)?,
        Op::ConcatVecs => Tensor::concat_vecs(inputs)?,
        Op::Transpose => matmul::transpose(&inputs[0])?,
        Op::Cast { to } => cast(&inputs[0], *to)?,
        Op::Identity => inputs[0].clone(),
        Op::NoOp => return Ok(()),
        Op::QueueEnqueue { queue } => {
            resources.queue(queue)?.enqueue(inputs.to_vec())?;
            return Ok(());
        }
        Op::QueueDequeue { queue, arity } => {
            let tuple = resources.queue(queue)?.dequeue()?;
            if tuple.len() != *arity {
                return Err(CoreError::Graph(format!(
                    "queue `{queue}` yielded {} tensors, dequeue expects {arity}",
                    tuple.len()
                )));
            }
            out.extend(tuple);
            return Ok(());
        }
        Op::DatasetNext { iterator, arity } => {
            let tuple = resources.iterator(iterator)?.get_next()?;
            if tuple.len() != *arity {
                return Err(CoreError::Graph(format!(
                    "iterator `{iterator}` yielded {} tensors, expected {arity}",
                    tuple.len()
                )));
            }
            out.extend(tuple);
            return Ok(());
        }
        Op::PyFunc { func, outputs, .. } => {
            let produced = func(resources, inputs)?;
            if produced.len() != *outputs {
                return Err(CoreError::Graph(format!(
                    "py_func returned {} outputs, declared {}",
                    produced.len(),
                    outputs
                )));
            }
            out.extend(produced);
            return Ok(());
        }
        Op::Custom(k) => {
            out.extend(k.compute(resources, inputs)?);
            return Ok(());
        }
    };
    out.push(single);
    Ok(())
}

/// Whether [`execute_owned`] has an in-place fast path for `op` —
/// the elementwise family whose output matches an input's shape and
/// dtype, plus pure move-throughs (`Identity`, enqueue). Cost and
/// precision accounting for every op listed here reads only tensor
/// *metadata* (shape + dtype), which is what lets the session compute
/// the charge after the input buffers have been consumed.
pub fn forwardable(op: &Op) -> bool {
    matches!(
        op,
        Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Neg
            | Op::Scale { .. }
            | Op::MulScalar
            | Op::AddN
            | Op::Identity
            | Op::QueueEnqueue { .. }
    )
}

/// Like [`execute`] but consuming the operand scratch: elementwise ops
/// reuse a uniquely-held input buffer instead of allocating a fresh
/// output (TensorFlow's output-buffer forwarding). Every other op
/// delegates to [`execute`]. Operands a kernel did not consume stay
/// in `inputs` for the caller to reclaim. Results are bit-identical to the borrowing path — the
/// in-place kernels evaluate the same per-element expressions with the
/// same chunking, only the destination differs.
pub fn execute_owned(
    op: &Op,
    inputs: &mut Vec<Tensor>,
    resources: &Resources,
    run_seed: u64,
    out: &mut Vec<Tensor>,
) -> Result<()> {
    let single = match op {
        Op::Add | Op::Sub | Op::Mul | Op::Div if inputs.len() == 2 => {
            let b = inputs.pop().expect("len checked");
            let a = inputs.pop().expect("len checked");
            match op {
                Op::Add => ops::add_owned(a, b)?,
                Op::Sub => ops::sub_owned(a, b)?,
                Op::Mul => ops::mul_owned(a, b)?,
                Op::Div => ops::div_owned(a, b)?,
                _ => unreachable!("matched above"),
            }
        }
        Op::Neg if inputs.len() == 1 => ops::neg_owned(inputs.pop().expect("len checked"))?,
        Op::Scale { factor } if inputs.len() == 1 => {
            ops::scale_owned(inputs.pop().expect("len checked"), *factor)?
        }
        Op::MulScalar if inputs.len() == 2 => {
            let s = inputs[1].scalar_value_f64()?;
            inputs.truncate(1);
            ops::scale_owned(inputs.pop().expect("len checked"), s)?
        }
        Op::AddN if !inputs.is_empty() => ops::add_n_drain(inputs)?,
        Op::Identity if inputs.len() == 1 => inputs.pop().expect("len checked"),
        Op::QueueEnqueue { queue } => {
            // The tuple leaves with the scratch's allocation.
            resources.queue(queue)?.enqueue(std::mem::take(inputs))?;
            return Ok(());
        }
        _ => return execute(op, inputs, resources, run_seed, out),
    };
    out.push(single);
    Ok(())
}

/// The fused form of `MulScalar(v, s)` / `Scale{factor}(v)` feeding an
/// `Add`/`Sub` with `y`: `Some(alpha)` when `y ± s·v` may run as one
/// [`ops::axpy_owned`]`(alpha, v, y)` pass and stay bit-identical to
/// the two kernels it replaces, `None` when the pair must run as
/// itself. `producer_inputs` are the producer's operands (`[v, s]` or
/// `[v]`).
///
/// The one-pass form needs dense f32/f64 operands of one dtype and
/// shape (synthetic operands derive their seeds per op; other dtypes
/// have no axpy kernel). A NaN scalar is excluded because the `Sub`
/// form negates it — `(-s)·v` carries the flipped sign bit into the
/// result where `y − s·v` would not. Everything else rounds alike: the
/// SIMD twins never contract to FMA, `s·v` is one rounding either way,
/// and `(-s)·v = -(s·v)` exactly for non-NaN `s`.
pub fn fused_axpy_alpha(
    producer: &Op,
    producer_inputs: &[Tensor],
    y: &Tensor,
    subtract: bool,
) -> Option<f64> {
    let v = producer_inputs.first()?;
    let s = match producer {
        Op::Scale { factor } => *factor,
        Op::MulScalar => producer_inputs.get(1)?.scalar_value_f64().ok()?,
        _ => return None,
    };
    let fusable = !s.is_nan()
        && matches!(v.dtype(), DType::F32 | DType::F64)
        && v.dtype() == y.dtype()
        && v.shape() == y.shape()
        && !v.is_synthetic()
        && !y.is_synthetic();
    fusable.then_some(if subtract { -s } else { s })
}

/// Bytes of output `op` will produce given `inputs`, for the session's
/// pre-dispatch device-memory feasibility check. Returns 0 for ops
/// whose output size cannot be known without running them (dequeues,
/// py_funcs, custom kernels) — the session re-checks those against the
/// actual outputs after execution.
pub fn infer_output_bytes(op: &Op, inputs: &[Tensor]) -> u64 {
    let elem = |t: &Tensor| t.dtype().size_bytes() as u64;
    let first = |inputs: &[Tensor]| inputs.first().map(|t| t.byte_size() as u64).unwrap_or(0);
    match op {
        Op::Const { value } => value.byte_size() as u64,
        Op::RandomUniform { dtype, shape, .. } => {
            (shape.num_elements() * dtype.size_bytes()) as u64
        }
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Neg
        | Op::Scale { .. }
        | Op::MulScalar
        | Op::AddN
        | Op::Sqrt
        | Op::Fft
        | Op::Assign { .. }
        | Op::AssignAdd { .. }
        | Op::Identity
        | Op::Reshape { .. }
        | Op::Transpose => first(inputs),
        Op::MatMul => match (inputs.first(), inputs.get(1)) {
            (Some(a), Some(b)) if a.shape().rank() == 2 && b.shape().rank() == 2 => {
                (a.shape().dims()[0] * b.shape().dims()[1]) as u64 * elem(a)
            }
            _ => 0,
        },
        Op::MatVec => match inputs.first() {
            Some(a) if a.shape().rank() == 2 => a.shape().dims()[0] as u64 * elem(a),
            _ => 0,
        },
        Op::Dot | Op::Sum | Op::Max => inputs.first().map(elem).unwrap_or(8),
        Op::SliceRange { start, end } => {
            (end.saturating_sub(*start)) as u64 * inputs.first().map(elem).unwrap_or(0)
        }
        Op::SliceRows { start, end } => match inputs.first() {
            Some(a) if a.shape().rank() == 2 => {
                (end.saturating_sub(*start) * a.shape().dims()[1]) as u64 * elem(a)
            }
            _ => 0,
        },
        Op::ConcatVecs => inputs.iter().map(|t| t.byte_size() as u64).sum(),
        Op::Cast { to } => inputs
            .first()
            .map(|t| (t.shape().num_elements() * to.size_bytes()) as u64)
            .unwrap_or(0),
        // Reference-like or size-unknown: VarRead returns an existing
        // (Arc-shared) value; the rest are covered by the post-check.
        _ => 0,
    }
}

/// Device cost of one execution of `op` given its inputs and outputs.
pub fn cost_of(op: &Op, inputs: &[Tensor], outputs: &[Tensor]) -> Cost {
    let io_bytes = bytes_of(inputs) + bytes_of(outputs);
    match op {
        Op::MatMul => {
            let (m, k) = match inputs[0].shape().dims() {
                [m, k] => (*m as f64, *k as f64),
                _ => (0.0, 0.0),
            };
            let n = inputs[1].shape().dims().get(1).copied().unwrap_or(0) as f64;
            Cost {
                flops: 2.0 * m * k * n,
                bytes: io_bytes,
                class: KernelClass::Gemm,
            }
        }
        Op::MatVec => Cost {
            flops: 2.0 * inputs[0].num_elements() as f64,
            bytes: io_bytes,
            class: KernelClass::Blas1,
        },
        Op::Dot => Cost {
            flops: 2.0 * inputs[0].num_elements() as f64,
            bytes: io_bytes,
            class: KernelClass::Blas1,
        },
        Op::Fft => {
            let n = inputs[0].num_elements() as f64;
            Cost {
                flops: 5.0 * n * n.max(2.0).log2(),
                bytes: io_bytes,
                class: KernelClass::Fft,
            }
        }
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::AddN | Op::AssignAdd { .. } => Cost {
            flops: inputs.iter().map(|t| t.num_elements() as f64).sum(),
            bytes: io_bytes,
            class: KernelClass::Blas1,
        },
        Op::Neg | Op::Scale { .. } | Op::MulScalar | Op::Sqrt | Op::Sum | Op::Max => Cost {
            flops: inputs[0].num_elements() as f64,
            bytes: io_bytes,
            class: KernelClass::Blas1,
        },
        Op::RandomUniform { .. } => Cost {
            flops: outputs
                .first()
                .map(|t| t.num_elements() as f64)
                .unwrap_or(0.0)
                * 8.0,
            bytes: bytes_of(outputs),
            class: KernelClass::Elementwise,
        },
        Op::Assign { .. }
        | Op::SliceRange { .. }
        | Op::SliceRows { .. }
        | Op::ConcatVecs
        | Op::Transpose
        | Op::Cast { .. } => Cost::bytes(io_bytes),
        // Reads and identities hand out references, not copies.
        Op::VarRead { .. } | Op::Identity => Cost::zero(),
        Op::PyFunc {
            host_cost_factor, ..
        } => Cost::bytes(bytes_of(inputs) * host_cost_factor),
        Op::Custom(k) => k.cost(inputs),
        // Queues, datasets, reshape and control ops are charged
        // elsewhere (transfers) or are free metadata ops.
        _ => Cost::zero(),
    }
}

/// [`cost_of`] for ops accepted by [`forwardable`], computed from the
/// inputs alone so the session can charge the cost *before* moving the
/// inputs into [`execute_owned`]. Bit-exact with
/// `cost_of(op, inputs, outputs)`: every forwardable op either produces
/// no output (enqueue), is charged zero (`Identity`), or produces one
/// output with the dtype and shape of `inputs[0]`.
pub fn forward_cost(op: &Op, inputs: &[Tensor]) -> Cost {
    debug_assert!(forwardable(op));
    match op {
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::AddN => Cost {
            flops: inputs.iter().map(|t| t.num_elements() as f64).sum(),
            bytes: bytes_of(inputs) + inputs.first().map(|t| t.byte_size() as f64).unwrap_or(0.0),
            class: KernelClass::Blas1,
        },
        Op::Neg | Op::Scale { .. } | Op::MulScalar => Cost {
            flops: inputs[0].num_elements() as f64,
            bytes: bytes_of(inputs) + inputs[0].byte_size() as f64,
            class: KernelClass::Blas1,
        },
        // Identity hands out a reference; enqueues are charged at the
        // queue. Both are `Cost::zero()` in `cost_of` too.
        _ => Cost::zero(),
    }
}

/// Whether the op computes in double precision (drives the DP peak).
/// For forwardable ops the outputs' dtypes are drawn from the inputs',
/// so `is_double_precision(inputs, &[])` is exact.
pub fn is_double_precision(inputs: &[Tensor], outputs: &[Tensor]) -> bool {
    inputs
        .iter()
        .chain(outputs.iter())
        .any(|t| matches!(t.dtype(), DType::F64 | DType::C128))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_tensor::Shape;

    fn r() -> std::sync::Arc<Resources> {
        Resources::new()
    }

    /// [`super::execute`] into a fresh output list.
    fn execute(op: &Op, inputs: &[Tensor], res: &Resources, seed: u64) -> Result<Vec<Tensor>> {
        let mut out = Vec::new();
        super::execute(op, inputs, res, seed, &mut out)?;
        Ok(out)
    }

    #[test]
    fn arithmetic_kernels_execute() {
        let res = r();
        let a = Tensor::from_f64([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_f64([2], vec![3.0, 4.0]).unwrap();
        let out = execute(&Op::Add, &[a.clone(), b.clone()], &res, 0).unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[4.0, 6.0]);
        let out = execute(&Op::Dot, &[a, b], &res, 0).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 11.0);
    }

    #[test]
    fn random_differs_per_run_seed() {
        let res = r();
        let op = Op::RandomUniform {
            dtype: DType::F64,
            shape: Shape::vector(4),
            seed: 7,
        };
        let a = execute(&op, &[], &res, 1).unwrap();
        let b = execute(&op, &[], &res, 2).unwrap();
        let a2 = execute(&op, &[], &res, 1).unwrap();
        assert_ne!(a[0].as_f64().unwrap(), b[0].as_f64().unwrap());
        assert_eq!(a[0].as_f64().unwrap(), a2[0].as_f64().unwrap());
    }

    #[test]
    fn variable_kernels_mutate_store() {
        let res = r();
        res.create_variable("v", Tensor::scalar_f64(10.0));
        execute(
            &Op::AssignAdd { var: "v".into() },
            &[Tensor::scalar_f64(5.0)],
            &res,
            0,
        )
        .unwrap();
        let out = execute(&Op::VarRead { var: "v".into() }, &[], &res, 0).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 15.0);
    }

    #[test]
    fn queue_kernels_roundtrip() {
        let res = r();
        res.create_queue("q", 4);
        execute(
            &Op::QueueEnqueue { queue: "q".into() },
            &[Tensor::scalar_i64(1), Tensor::scalar_i64(2)],
            &res,
            0,
        )
        .unwrap();
        let out = execute(
            &Op::QueueDequeue {
                queue: "q".into(),
                arity: 2,
            },
            &[],
            &res,
            0,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        res.queue("q").unwrap().close();
        assert!(matches!(
            execute(
                &Op::QueueDequeue {
                    queue: "q".into(),
                    arity: 2
                },
                &[],
                &res,
                0
            ),
            Err(CoreError::QueueClosed(_))
        ));
    }

    #[test]
    fn matmul_cost_is_2mkn_gemm() {
        let a = Tensor::synthetic(DType::F32, [128, 64], 1);
        let b = Tensor::synthetic(DType::F32, [64, 32], 2);
        let c = Tensor::synthetic(DType::F32, [128, 32], 3);
        let cost = cost_of(&Op::MatMul, &[a, b], &[c]);
        assert_eq!(cost.flops, 2.0 * 128.0 * 64.0 * 32.0);
        assert_eq!(cost.class, KernelClass::Gemm);
    }

    #[test]
    fn fft_cost_is_5nlogn() {
        let x = Tensor::synthetic(DType::C128, [1024], 1);
        let cost = cost_of(&Op::Fft, std::slice::from_ref(&x), std::slice::from_ref(&x));
        assert_eq!(cost.flops, 5.0 * 1024.0 * 10.0);
        assert_eq!(cost.class, KernelClass::Fft);
    }

    #[test]
    fn pyfunc_cost_scales_with_factor() {
        let x = Tensor::zeros(DType::F64, [1000]);
        let mk = |factor| Op::PyFunc {
            func: std::sync::Arc::new(|_, i| Ok(i.to_vec())),
            label: "merge".into(),
            outputs: 1,
            host_cost_factor: factor,
        };
        let free = cost_of(&mk(0.0), std::slice::from_ref(&x), &[]);
        let taxed = cost_of(&mk(150.0), std::slice::from_ref(&x), &[]);
        assert_eq!(free.bytes, 0.0);
        assert_eq!(taxed.bytes, 8000.0 * 150.0);
    }

    #[test]
    fn precision_detection() {
        let f32s = [Tensor::zeros(DType::F32, [2])];
        let f64s = [Tensor::zeros(DType::F64, [2])];
        assert!(!is_double_precision(&f32s, &[]));
        assert!(is_double_precision(&f64s, &[]));
        assert!(is_double_precision(&[Tensor::zeros(DType::C128, [2])], &[]));
    }

    #[test]
    fn slice_and_concat_kernels() {
        let res = r();
        let v = Tensor::from_f64([6], vec![0., 1., 2., 3., 4., 5.]).unwrap();
        let out = execute(
            &Op::SliceRange { start: 2, end: 5 },
            std::slice::from_ref(&v),
            &res,
            0,
        )
        .unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[2., 3., 4.]);
        let m = Tensor::from_f64([3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let out = execute(&Op::SliceRows { start: 1, end: 2 }, &[m], &res, 0).unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[3., 4.]);
        let a = Tensor::from_f64([2], vec![1., 2.]).unwrap();
        let b = Tensor::from_f64([3], vec![3., 4., 5.]).unwrap();
        let out = execute(&Op::ConcatVecs, &[a, b], &res, 0).unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[1., 2., 3., 4., 5.]);
        // Out-of-range slices error rather than panic.
        assert!(execute(&Op::SliceRange { start: 4, end: 9 }, &[v], &res, 0).is_err());
    }

    #[test]
    fn cast_kernels_convert_precision() {
        let res = r();
        let f32s = Tensor::from_f32([3], vec![1.5, -2.0, 0.25]).unwrap();
        let out = execute(
            &Op::Cast { to: DType::F64 },
            std::slice::from_ref(&f32s),
            &res,
            0,
        )
        .unwrap();
        assert_eq!(out[0].dtype(), DType::F64);
        assert_eq!(out[0].as_f64().unwrap(), &[1.5, -2.0, 0.25]);
        // Round trip through f64 -> f32 is lossless for representables.
        let back = execute(&Op::Cast { to: DType::F32 }, &out, &res, 0).unwrap();
        assert_eq!(back[0].as_f32().unwrap(), f32s.as_f32().unwrap());
        // Same-dtype cast is the identity.
        let same = execute(&Op::Cast { to: DType::F32 }, &[f32s], &res, 0).unwrap();
        assert_eq!(same[0].dtype(), DType::F32);
        // Unsupported pair errors.
        let c = Tensor::zeros(DType::C128, [2]);
        assert!(execute(&Op::Cast { to: DType::F32 }, &[c], &res, 0).is_err());
        // Synthetic passes through with the new dtype.
        let s = Tensor::synthetic(DType::F32, [4, 4], 9);
        let out = execute(&Op::Cast { to: DType::F64 }, &[s], &res, 0).unwrap();
        assert!(out[0].is_synthetic());
        assert_eq!(out[0].dtype(), DType::F64);
    }

    #[test]
    fn synthetic_inputs_stay_synthetic_through_kernels() {
        let res = r();
        let a = Tensor::synthetic(DType::F32, [64, 64], 1);
        let b = Tensor::synthetic(DType::F32, [64, 64], 2);
        let out = execute(&Op::MatMul, &[a, b], &res, 0).unwrap();
        assert!(out[0].is_synthetic());
        let out = execute(&Op::Sqrt, &out, &res, 0).unwrap();
        assert!(out[0].is_synthetic());
    }
}
