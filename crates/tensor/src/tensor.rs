//! The [`Tensor`] value type: shape + dtype + (dense | synthetic) storage.

use crate::complex::Complex64;
use crate::dtype::DType;
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// Materialized tensor contents, one vector per element type.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Complex double precision.
    C128(Vec<Complex64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// Bytes.
    U8(Vec<u8>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl TensorData {
    /// The dtype of this buffer.
    pub fn dtype(&self) -> DType {
        match self {
            TensorData::F32(_) => DType::F32,
            TensorData::F64(_) => DType::F64,
            TensorData::C128(_) => DType::C128,
            TensorData::I32(_) => DType::I32,
            TensorData::I64(_) => DType::I64,
            TensorData::U8(_) => DType::U8,
            TensorData::Bool(_) => DType::Bool,
        }
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::F64(v) => v.len(),
            TensorData::C128(v) => v.len(),
            TensorData::I32(v) => v.len(),
            TensorData::I64(v) => v.len(),
            TensorData::U8(v) => v.len(),
            TensorData::Bool(v) => v.len(),
        }
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reinterpret a slice of plain-old-data elements as its underlying
/// bytes, in host (little-endian) order — the same convention as the
/// packed proto encoders.
fn pod_bytes<T: Copy>(v: &[T]) -> &[u8] {
    // SAFETY: every element type passed here (`f32`/`f64`/`i32`/`i64`/
    // `u8`/`bool`/`#[repr(C)] Complex64`) has no padding and every bit
    // pattern of the buffer is a valid byte, so the reinterpretation is
    // sound for the buffer's exact length in bytes.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

/// Where a tensor's payload lives.
#[derive(Debug, Clone)]
pub enum Storage {
    /// Real, materialized elements (cheaply clonable via `Arc`).
    Dense(Arc<TensorData>),
    /// Metadata-only payload for simulation-scale runs: the elements are
    /// notionally pseudo-random with this seed but never materialized.
    Synthetic {
        /// Seed identifying the notional contents; ops mix seeds so
        /// identical computations yield identical synthetic results.
        seed: u64,
    },
}

/// Errors from tensor construction and math.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the attempted op.
    ShapeMismatch {
        /// Description of the op.
        op: &'static str,
        /// Left/expected shape.
        lhs: Shape,
        /// Right/actual shape.
        rhs: Shape,
    },
    /// Operand dtypes are incompatible for the attempted op.
    DTypeMismatch {
        /// Description of the op.
        op: &'static str,
        /// Left dtype.
        lhs: DType,
        /// Right dtype.
        rhs: DType,
    },
    /// The op is not defined for this dtype.
    UnsupportedDType {
        /// Description of the op.
        op: &'static str,
        /// The offending dtype.
        dtype: DType,
    },
    /// Attempted to read element values out of a synthetic tensor.
    SyntheticValue,
    /// Element count does not match the declared shape.
    LengthMismatch {
        /// Elements provided.
        provided: usize,
        /// Elements required by the shape.
        expected: usize,
    },
    /// Free-form invalid argument.
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: shape mismatch {lhs} vs {rhs}")
            }
            TensorError::DTypeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: dtype mismatch {lhs} vs {rhs}")
            }
            TensorError::UnsupportedDType { op, dtype } => {
                write!(f, "{op}: unsupported dtype {dtype}")
            }
            TensorError::SyntheticValue => {
                write!(f, "cannot extract values from a synthetic tensor")
            }
            TensorError::LengthMismatch { provided, expected } => {
                write!(f, "buffer has {provided} elements, shape needs {expected}")
            }
            TensorError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// An immutable n-dimensional array (the paper's `tf.Tensor`).
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Shape,
    dtype: DType,
    storage: Storage,
}

impl Tensor {
    // ---- constructors ----------------------------------------------------

    fn dense(shape: Shape, data: TensorData) -> Result<Tensor, TensorError> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                provided: data.len(),
                expected: shape.num_elements(),
            });
        }
        Ok(Tensor {
            dtype: data.dtype(),
            shape,
            storage: Storage::Dense(Arc::new(data)),
        })
    }

    /// Dense tensor over an existing payload box (the arena's pooled
    /// buffers come back with their `Arc`).
    pub(crate) fn from_payload(
        shape: Shape,
        payload: Arc<TensorData>,
    ) -> Result<Tensor, TensorError> {
        if payload.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                provided: payload.len(),
                expected: shape.num_elements(),
            });
        }
        Ok(Tensor {
            dtype: payload.dtype(),
            shape,
            storage: Storage::Dense(payload),
        })
    }

    /// Dense f32 tensor from a buffer.
    pub fn from_f32(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::F32(data))
    }

    /// Dense f64 tensor from a buffer.
    pub fn from_f64(shape: impl Into<Shape>, data: Vec<f64>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::F64(data))
    }

    /// Dense complex tensor from a buffer.
    pub fn from_c128(shape: impl Into<Shape>, data: Vec<Complex64>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::C128(data))
    }

    /// Dense i32 tensor from a buffer.
    pub fn from_i32(shape: impl Into<Shape>, data: Vec<i32>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::I32(data))
    }

    /// Dense i64 tensor from a buffer.
    pub fn from_i64(shape: impl Into<Shape>, data: Vec<i64>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::I64(data))
    }

    /// Dense u8 tensor from a buffer.
    pub fn from_u8(shape: impl Into<Shape>, data: Vec<u8>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::U8(data))
    }

    /// Dense bool tensor from a buffer.
    pub fn from_bool(shape: impl Into<Shape>, data: Vec<bool>) -> Result<Tensor, TensorError> {
        Tensor::dense(shape.into(), TensorData::Bool(data))
    }

    /// Rank-0 f64 tensor.
    pub fn scalar_f64(v: f64) -> Tensor {
        Tensor::dense(Shape::scalar(), TensorData::F64(vec![v])).unwrap()
    }

    /// Rank-0 f32 tensor.
    pub fn scalar_f32(v: f32) -> Tensor {
        Tensor::dense(Shape::scalar(), TensorData::F32(vec![v])).unwrap()
    }

    /// Rank-0 i64 tensor.
    pub fn scalar_i64(v: i64) -> Tensor {
        Tensor::dense(Shape::scalar(), TensorData::I64(vec![v])).unwrap()
    }

    /// All-zeros dense tensor of the given dtype.
    pub fn zeros(dtype: DType, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.num_elements();
        let data = match dtype {
            DType::F32 => TensorData::F32(vec![0.0; n]),
            DType::F64 => TensorData::F64(vec![0.0; n]),
            DType::C128 => TensorData::C128(vec![Complex64::ZERO; n]),
            DType::I32 => TensorData::I32(vec![0; n]),
            DType::I64 => TensorData::I64(vec![0; n]),
            DType::U8 => TensorData::U8(vec![0; n]),
            DType::Bool => TensorData::Bool(vec![false; n]),
        };
        Tensor::dense(shape, data).unwrap()
    }

    /// Dense f64 tensor filled with `v`.
    pub fn full_f64(shape: impl Into<Shape>, v: f64) -> Tensor {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor::dense(shape, TensorData::F64(vec![v; n])).unwrap()
    }

    /// Metadata-only tensor for simulation-scale runs.
    pub fn synthetic(dtype: DType, shape: impl Into<Shape>, seed: u64) -> Tensor {
        Tensor {
            shape: shape.into(),
            dtype,
            storage: Storage::Synthetic { seed },
        }
    }

    // ---- accessors --------------------------------------------------------

    /// This tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// This tensor's element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// Payload size in bytes (what a transfer of this tensor moves).
    pub fn byte_size(&self) -> usize {
        self.num_elements() * self.dtype.size_bytes()
    }

    /// True for metadata-only tensors.
    pub fn is_synthetic(&self) -> bool {
        matches!(self.storage, Storage::Synthetic { .. })
    }

    /// The synthetic seed, if metadata-only.
    pub fn synthetic_seed(&self) -> Option<u64> {
        match self.storage {
            Storage::Synthetic { seed } => Some(seed),
            Storage::Dense(_) => None,
        }
    }

    /// The storage backing this tensor.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Visit this tensor's identity bytes — dtype tag, shape dims, and
    /// the raw host-endian payload (the dense element buffer, or the
    /// generator seed for synthetic tensors) — as borrowed chunks,
    /// without serializing. Transports use this to checksum a tensor's
    /// wire payload with zero allocation; two tensors that visit the
    /// same byte stream carry the same logical value.
    #[inline]
    pub fn visit_payload_bytes(&self, mut f: impl FnMut(&[u8])) {
        // Pack dtype + rank + dims into one stack buffer, padded to a
        // multiple of 8 bytes, so the common low-rank case costs a
        // single visit and the checksum's word-at-a-time path covers
        // the whole header; small payloads are fused into the same
        // buffer (per-chunk and per-byte costs dominate on small
        // tensors — scalars are most of a CG step's wire traffic).
        const MAX_INLINE_DIMS: usize = 8;
        const INLINE_PAYLOAD: usize = 64;
        let dims = self.shape.dims();
        let seed_bytes;
        let payload: &[u8] = match &self.storage {
            Storage::Synthetic { seed } => {
                seed_bytes = seed.to_le_bytes();
                &seed_bytes
            }
            Storage::Dense(data) => match &**data {
                TensorData::F32(v) => pod_bytes(v),
                TensorData::F64(v) => pod_bytes(v),
                TensorData::C128(v) => pod_bytes(v),
                TensorData::I32(v) => pod_bytes(v),
                TensorData::I64(v) => pod_bytes(v),
                TensorData::U8(v) => v,
                TensorData::Bool(v) => pod_bytes(v),
            },
        };
        if dims.len() <= MAX_INLINE_DIMS {
            // Build the buffer out of whole u64 stores: the checksum
            // reads it back as u64 words immediately, and matching
            // store/load widths avoids store-forwarding stalls.
            let mut hdr = [0u64; 1 + MAX_INLINE_DIMS + INLINE_PAYLOAD / 8];
            hdr[0] = (self.dtype as u64) | ((dims.len() as u64) << 8);
            for (i, &d) in dims.iter().enumerate() {
                hdr[1 + i] = d as u64;
            }
            let hlen = 8 * (1 + dims.len());
            if payload.len() <= INLINE_PAYLOAD {
                // SAFETY: `hdr` has INLINE_PAYLOAD spare bytes past
                // `hlen` and `payload` fits them; regions are disjoint.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        payload.as_ptr(),
                        (hdr.as_mut_ptr() as *mut u8).add(hlen),
                        payload.len(),
                    );
                }
                f(&pod_bytes(&hdr)[..hlen + payload.len()]);
            } else {
                f(&pod_bytes(&hdr)[..hlen]);
                f(payload);
            }
        } else {
            f(&[self.dtype as u8, 0xFF, 0, 0, 0, 0, 0, 0]);
            f(&(dims.len() as u64).to_le_bytes());
            for &d in dims {
                f(&(d as u64).to_le_bytes());
            }
            f(payload);
        }
    }

    /// The dense payload, or `SyntheticValue` error.
    pub fn data(&self) -> Result<&TensorData, TensorError> {
        match &self.storage {
            Storage::Dense(d) => Ok(d),
            Storage::Synthetic { .. } => Err(TensorError::SyntheticValue),
        }
    }

    /// Mutable access to the dense payload, only when this tensor is
    /// the *sole* owner of its buffer (`Arc` refcount 1). Any other
    /// live reference — a `Variable`'s stored value, a queued tuple, a
    /// caller-held feed, a `reshape` view — keeps the refcount above 1
    /// and makes this return `None`, which is exactly the safety rule
    /// buffer forwarding relies on.
    pub fn try_unique_data(&mut self) -> Option<&mut TensorData> {
        match &mut self.storage {
            Storage::Dense(d) => Arc::get_mut(d),
            Storage::Synthetic { .. } => None,
        }
    }

    /// Consume the tensor and take its payload box, only when this
    /// tensor is the *sole* owner (no other strong or weak reference) —
    /// the by-value sibling of [`Tensor::try_unique_data`]. Used by the
    /// buffer arena to reclaim a dead tensor's allocations (the element
    /// buffer *and* its `Arc` box) for the next kernel output instead
    /// of freeing them.
    pub fn into_unique_payload(self) -> Option<Arc<TensorData>> {
        match self.storage {
            Storage::Dense(mut d) => Arc::get_mut(&mut d).is_some().then_some(d),
            Storage::Synthetic { .. } => None,
        }
    }

    /// Address identity of the dense buffer (`None` for synthetic).
    /// Two tensors with equal `dense_ptr` share storage — used by tests
    /// asserting that forwarding never aliases a still-referenced
    /// buffer.
    pub fn dense_ptr(&self) -> Option<usize> {
        match &self.storage {
            Storage::Dense(d) => Some(Arc::as_ptr(d) as usize),
            Storage::Synthetic { .. } => None,
        }
    }

    /// View as `&[f32]`.
    pub fn as_f32(&self) -> Result<&[f32], TensorError> {
        match self.data()? {
            TensorData::F32(v) => Ok(v),
            other => Err(TensorError::UnsupportedDType {
                op: "as_f32",
                dtype: other.dtype(),
            }),
        }
    }

    /// View as `&[f64]`.
    pub fn as_f64(&self) -> Result<&[f64], TensorError> {
        match self.data()? {
            TensorData::F64(v) => Ok(v),
            other => Err(TensorError::UnsupportedDType {
                op: "as_f64",
                dtype: other.dtype(),
            }),
        }
    }

    /// View as `&[Complex64]`.
    pub fn as_c128(&self) -> Result<&[Complex64], TensorError> {
        match self.data()? {
            TensorData::C128(v) => Ok(v),
            other => Err(TensorError::UnsupportedDType {
                op: "as_c128",
                dtype: other.dtype(),
            }),
        }
    }

    /// View as `&[i64]`.
    pub fn as_i64(&self) -> Result<&[i64], TensorError> {
        match self.data()? {
            TensorData::I64(v) => Ok(v),
            other => Err(TensorError::UnsupportedDType {
                op: "as_i64",
                dtype: other.dtype(),
            }),
        }
    }

    /// View as `&[i32]`.
    pub fn as_i32(&self) -> Result<&[i32], TensorError> {
        match self.data()? {
            TensorData::I32(v) => Ok(v),
            other => Err(TensorError::UnsupportedDType {
                op: "as_i32",
                dtype: other.dtype(),
            }),
        }
    }

    /// View as `&[u8]`.
    pub fn as_u8(&self) -> Result<&[u8], TensorError> {
        match self.data()? {
            TensorData::U8(v) => Ok(v),
            other => Err(TensorError::UnsupportedDType {
                op: "as_u8",
                dtype: other.dtype(),
            }),
        }
    }

    /// Extract a rank-0 f64 value (accepts f32/f64/i32/i64 scalars).
    pub fn scalar_value_f64(&self) -> Result<f64, TensorError> {
        if !self.shape.is_scalar() && self.num_elements() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "scalar_value_f64 on tensor of shape {}",
                self.shape
            )));
        }
        Ok(match self.data()? {
            TensorData::F64(v) => v[0],
            TensorData::F32(v) => v[0] as f64,
            TensorData::I64(v) => v[0] as f64,
            TensorData::I32(v) => v[0] as f64,
            other => {
                return Err(TensorError::UnsupportedDType {
                    op: "scalar_value_f64",
                    dtype: other.dtype(),
                })
            }
        })
    }

    /// Extract a rank-0 i64 value.
    pub fn scalar_value_i64(&self) -> Result<i64, TensorError> {
        if self.num_elements() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "scalar_value_i64 on tensor of shape {}",
                self.shape
            )));
        }
        Ok(match self.data()? {
            TensorData::I64(v) => v[0],
            TensorData::I32(v) => v[0] as i64,
            other => {
                return Err(TensorError::UnsupportedDType {
                    op: "scalar_value_i64",
                    dtype: other.dtype(),
                })
            }
        })
    }

    // ---- structural ops ---------------------------------------------------

    /// Same payload under a new, element-count-compatible shape.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if !self.shape.reshape_compatible(&shape) {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.shape.clone(),
                rhs: shape,
            });
        }
        Ok(Tensor {
            shape,
            dtype: self.dtype,
            storage: self.storage.clone(),
        })
    }

    /// Copy rows `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::InvalidArgument(format!(
                "slice_rows on rank-{} tensor",
                self.shape.rank()
            )));
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if start > end || end > rows {
            return Err(TensorError::InvalidArgument(format!(
                "slice_rows range {start}..{end} out of {rows} rows"
            )));
        }
        let out_shape = Shape::matrix(end - start, cols);
        match &self.storage {
            Storage::Synthetic { seed } => Ok(Tensor::synthetic(
                self.dtype,
                out_shape,
                mix_seed(*seed, start as u64 ^ (end as u64) << 20),
            )),
            Storage::Dense(d) => {
                let data = match d.as_ref() {
                    TensorData::F32(v) => TensorData::F32(v[start * cols..end * cols].to_vec()),
                    TensorData::F64(v) => TensorData::F64(v[start * cols..end * cols].to_vec()),
                    TensorData::C128(v) => TensorData::C128(v[start * cols..end * cols].to_vec()),
                    TensorData::I32(v) => TensorData::I32(v[start * cols..end * cols].to_vec()),
                    TensorData::I64(v) => TensorData::I64(v[start * cols..end * cols].to_vec()),
                    TensorData::U8(v) => TensorData::U8(v[start * cols..end * cols].to_vec()),
                    TensorData::Bool(v) => TensorData::Bool(v[start * cols..end * cols].to_vec()),
                };
                Tensor::dense(out_shape, data)
            }
        }
    }

    /// Copy elements `[start, end)` of a rank-1 tensor.
    pub fn slice_range(&self, start: usize, end: usize) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "slice_range on rank-{} tensor",
                self.shape.rank()
            )));
        }
        let as_matrix = self.reshape(Shape::matrix(self.shape.dim(0), 1))?;
        let sliced = as_matrix.slice_rows(start, end)?;
        sliced.reshape(Shape::vector(end - start))
    }

    /// Concatenate rank-1 tensors of one dtype. Any synthetic part
    /// makes the result synthetic (seed derived from all parts).
    pub fn concat_vecs(parts: &[Tensor]) -> Result<Tensor, TensorError> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of nothing".into()))?;
        let dtype = first.dtype();
        let total: usize = parts.iter().map(|p| p.num_elements()).sum();
        for p in parts {
            if p.shape().rank() != 1 {
                return Err(TensorError::InvalidArgument(
                    "concat_vecs expects rank-1 parts".into(),
                ));
            }
            if p.dtype() != dtype {
                return Err(TensorError::DTypeMismatch {
                    op: "concat_vecs",
                    lhs: dtype,
                    rhs: p.dtype(),
                });
            }
        }
        if parts.iter().any(|p| p.is_synthetic()) {
            let seed = parts.iter().fold(0xC047u64, |acc, p| {
                mix_seed(acc, p.synthetic_seed().unwrap_or(p.num_elements() as u64))
            });
            return Ok(Tensor::synthetic(dtype, Shape::vector(total), seed));
        }
        match dtype {
            DType::F64 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_f64()?);
                }
                Tensor::from_f64(Shape::vector(total), out)
            }
            DType::F32 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_f32()?);
                }
                Tensor::from_f32(Shape::vector(total), out)
            }
            DType::C128 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_c128()?);
                }
                Tensor::from_c128(Shape::vector(total), out)
            }
            other => Err(TensorError::UnsupportedDType {
                op: "concat_vecs",
                dtype: other,
            }),
        }
    }

    /// Approximate elementwise equality for float tensors (tests).
    pub fn all_close(&self, other: &Tensor, tol: f64) -> bool {
        if self.shape != other.shape || self.dtype != other.dtype {
            return false;
        }
        match (self.data(), other.data()) {
            (Ok(TensorData::F32(a)), Ok(TensorData::F32(b))) => a
                .iter()
                .zip(b)
                .all(|(x, y)| ((x - y).abs() as f64) <= tol * (1.0 + x.abs() as f64)),
            (Ok(TensorData::F64(a)), Ok(TensorData::F64(b))) => a
                .iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs())),
            (Ok(TensorData::C128(a)), Ok(TensorData::C128(b))) => a
                .iter()
                .zip(b)
                .all(|(x, y)| (*x - *y).abs() <= tol * (1.0 + x.abs())),
            _ => false,
        }
    }
}

/// Mix two seeds (splitmix64 finalizer) for synthetic-result derivation.
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bytes_distinguish_values_and_cover_every_byte() {
        let t = Tensor::from_f64([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let collect = |t: &Tensor| {
            let mut bytes = Vec::new();
            t.visit_payload_bytes(|c| bytes.extend_from_slice(c));
            bytes
        };
        let a = collect(&t);
        // padded header (dtype + rank + one dim) + 4×8 payload bytes
        assert_eq!(a.len(), 8 + 8 + t.byte_size());
        assert_eq!(a, collect(&t.clone()));
        // Any value, shape, or dtype change must alter the stream.
        let b = collect(&Tensor::from_f64([4], vec![1.0, 2.0, 3.0, 5.0]).unwrap());
        assert_ne!(a, b);
        let c = collect(&Tensor::from_f64([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        assert_ne!(a, c);
        let d = collect(&Tensor::from_i64([4], vec![1, 2, 3, 4]).unwrap());
        assert_ne!(a, d);
        // Synthetic tensors visit their seed, not materialized data.
        let s1 = collect(&Tensor::synthetic(DType::F64, [4], 7));
        let s2 = collect(&Tensor::synthetic(DType::F64, [4], 8));
        assert_ne!(s1, s2);
    }

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_f64([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.dtype(), DType::F64);
        assert_eq!(t.shape().dims(), &[2, 3]);
        assert_eq!(t.byte_size(), 48);
        assert_eq!(t.as_f64().unwrap()[4], 5.0);
    }

    #[test]
    fn length_mismatch_rejected() {
        let e = Tensor::from_f32([2, 2], vec![1.0]).unwrap_err();
        assert_eq!(
            e,
            TensorError::LengthMismatch {
                provided: 1,
                expected: 4
            }
        );
    }

    #[test]
    fn zeros_all_dtypes() {
        for dt in [
            DType::F32,
            DType::F64,
            DType::C128,
            DType::I32,
            DType::I64,
            DType::U8,
            DType::Bool,
        ] {
            let t = Tensor::zeros(dt, [3]);
            assert_eq!(t.dtype(), dt);
            assert_eq!(t.num_elements(), 3);
        }
    }

    #[test]
    fn scalars() {
        assert_eq!(Tensor::scalar_f64(2.5).scalar_value_f64().unwrap(), 2.5);
        assert_eq!(Tensor::scalar_i64(-3).scalar_value_i64().unwrap(), -3);
        assert_eq!(Tensor::scalar_f32(1.5).scalar_value_f64().unwrap(), 1.5);
    }

    #[test]
    fn synthetic_blocks_value_access() {
        let t = Tensor::synthetic(DType::F32, [1024, 1024], 7);
        assert!(t.is_synthetic());
        assert_eq!(t.synthetic_seed(), Some(7));
        assert_eq!(t.byte_size(), 4 << 20);
        assert_eq!(t.as_f32(), Err(TensorError::SyntheticValue));
        assert!(t.scalar_value_f64().is_err());
        assert_eq!(
            Tensor::synthetic(DType::F64, [], 3).scalar_value_f64(),
            Err(TensorError::SyntheticValue)
        );
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::from_f32([2, 3], vec![0.; 6]).unwrap();
        let r = t.reshape([6]).unwrap();
        assert_eq!(r.shape().dims(), &[6]);
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn slice_rows_copies_window() {
        let t = Tensor::from_f64([3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.as_f64().unwrap(), &[3., 4., 5., 6.]);
        assert!(t.slice_rows(2, 1).is_err());
        assert!(t.slice_rows(0, 4).is_err());
    }

    #[test]
    fn slice_rows_synthetic_derives_seed() {
        let t = Tensor::synthetic(DType::F64, [4, 8], 99);
        let a = t.slice_rows(0, 2).unwrap();
        let b = t.slice_rows(2, 4).unwrap();
        assert!(a.is_synthetic());
        assert_ne!(a.synthetic_seed(), b.synthetic_seed());
        assert_eq!(a.shape().dims(), &[2, 8]);
    }

    #[test]
    fn all_close_detects_difference() {
        let a = Tensor::from_f64([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_f64([2], vec![1.0, 2.0 + 1e-12]).unwrap();
        let c = Tensor::from_f64([2], vec![1.0, 3.0]).unwrap();
        assert!(a.all_close(&b, 1e-9));
        assert!(!a.all_close(&c, 1e-9));
    }

    #[test]
    fn mix_seed_spreads() {
        let s1 = mix_seed(1, 2);
        let s2 = mix_seed(1, 3);
        let s3 = mix_seed(2, 2);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
    }
}
