//! Thread-local recycle pools for tensor output buffers.
//!
//! The forwarding paths (`*_owned` ops) reuse a uniquely-held operand's
//! buffer in place — but when *no* operand is uniquely held (the CG
//! loop's `axpy(alpha, p, x)` where both `p` and `x` are pinned by
//! variables), the old fallback silently allocated a fresh `Vec` every
//! call. This arena closes that gap: dead tensors reclaimed by the
//! executor (or any caller) donate their payloads here, and allocating
//! kernel paths draw from the pool instead of the system allocator.
//!
//! What is pooled is the whole uniquely-owned payload — the element
//! `Vec` *inside its `Arc<TensorData>` box* — so a recycled buffer
//! becomes the next tensor without allocating either. Scalars (`dot`,
//! `sum` results) ride the same pools as one-element buffers, and
//! never take a buffer of more than [`SMALL_ELEMS`] elements.
//!
//! Complementary to `tfhpc_parallel::arena`, which hands out 64-byte
//! *aligned scratch* that never escapes a kernel; buffers here become
//! tensor payloads and must be droppable anywhere.
//!
//! Pools are thread-local (kernel outputs are allocated on the op's
//! calling thread, so there is no cross-thread contention) and bounded,
//! so one huge transform cannot pin memory forever.

use crate::complex::Complex64;
use crate::tensor::{TensorData, TensorError};
use crate::{Shape, Tensor};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Per-dtype cap on pooled buffers; beyond this, donations are dropped.
const MAX_POOL_VECS: usize = 8;
/// Buffers above this many bytes are never pooled.
const MAX_POOL_BYTES: usize = 64 << 20;
/// A request for at most this many elements (a reduction's scalar)
/// only takes a pooled buffer that is itself this small: a `dot`
/// result held in a variable must not pin a vector's megabytes, nor
/// take that vector out of the pool on every step.
const SMALL_ELEMS: usize = 8;

/// Every pooled payload is uniquely owned: strong count 1, no weak.
type Pool = Vec<Arc<TensorData>>;

thread_local! {
    /// One pool per pooled dtype, indexed by [`Pooled::POOL`].
    static POOLS: RefCell<[Pool; 3]> =
        const { RefCell::new([Vec::new(), Vec::new(), Vec::new()]) };
}

/// An element type with a pool: ties `T` to its `TensorData` variant.
pub trait Pooled: Copy + Default + 'static {
    #[doc(hidden)]
    const POOL: usize;
    #[doc(hidden)]
    fn wrap(v: Vec<Self>) -> TensorData;
    #[doc(hidden)]
    fn vec(d: &TensorData) -> Option<&Vec<Self>>;
    #[doc(hidden)]
    fn vec_mut(d: &mut TensorData) -> Option<&mut Vec<Self>>;
}

macro_rules! pooled {
    ($t:ty, $variant:ident, $pool:expr) => {
        impl Pooled for $t {
            const POOL: usize = $pool;
            fn wrap(v: Vec<Self>) -> TensorData {
                TensorData::$variant(v)
            }
            fn vec(d: &TensorData) -> Option<&Vec<Self>> {
                match d {
                    TensorData::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn vec_mut(d: &mut TensorData) -> Option<&mut Vec<Self>> {
                match d {
                    TensorData::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

pooled!(f32, F32, 0);
pooled!(f64, F64, 1);
pooled!(Complex64, C128, 2);

/// A uniquely-owned output buffer of `T`s, already inside the `Arc` box
/// it will live in as a tensor. Dereferences to the element slice.
pub struct Buf<T: Pooled> {
    payload: Arc<TensorData>,
    _elem: PhantomData<T>,
}

impl<T: Pooled> Deref for Buf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        T::vec(&self.payload).expect("buffer holds its own element type")
    }
}

impl<T: Pooled> DerefMut for Buf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        Arc::get_mut(&mut self.payload)
            .and_then(T::vec_mut)
            .expect("pooled payloads are uniquely owned")
    }
}

impl<T: Pooled> Buf<T> {
    /// The buffer as a dense tensor of `shape` (element counts must
    /// agree, as for `Tensor::from_f64`).
    pub fn into_tensor(self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        Tensor::from_payload(shape.into(), self.payload)
    }

    /// Return an unused buffer (kernel scratch) to this thread's pool.
    pub fn recycle(self) {
        give(self.payload);
    }
}

fn take<T: Pooled>(n: usize, zeroed: bool) -> Buf<T> {
    let pooled = POOLS.with(|p| {
        let pool = &mut p.borrow_mut()[T::POOL];
        let cap = |a: &Arc<TensorData>| T::vec(a).map_or(0, Vec::capacity);
        // Smallest pooled buffer whose capacity fits, so big blocks stay
        // available for big requests; small requests see small buffers
        // only.
        let limit = if n <= SMALL_ELEMS {
            SMALL_ELEMS
        } else {
            usize::MAX
        };
        let mut best: Option<usize> = None;
        for (i, a) in pool.iter().enumerate() {
            let fits = (n..=limit).contains(&cap(a));
            if fits && best.is_none_or(|j| cap(a) < cap(&pool[j])) {
                best = Some(i);
            }
        }
        best.map(|i| pool.swap_remove(i))
    });
    let payload = match pooled {
        Some(mut payload) => {
            let v = Arc::get_mut(&mut payload)
                .and_then(T::vec_mut)
                .expect("pooled payloads are uniquely owned");
            if zeroed {
                v.clear();
            }
            // Without `zeroed`, stale contents are fine: callers of the
            // non-zeroed form overwrite every element before reading any.
            v.resize(n, T::default());
            payload
        }
        None => Arc::new(T::wrap(vec![T::default(); n])),
    };
    Buf {
        payload,
        _elem: PhantomData,
    }
}

fn give(payload: Arc<TensorData>) {
    let (pool, bytes) = match &*payload {
        TensorData::F32(v) => (f32::POOL, v.capacity() * 4),
        TensorData::F64(v) => (f64::POOL, v.capacity() * 8),
        TensorData::C128(v) => (Complex64::POOL, v.capacity() * 16),
        _ => return,
    };
    if bytes == 0 || bytes > MAX_POOL_BYTES {
        return;
    }
    POOLS.with(|p| {
        let pool = &mut p.borrow_mut()[pool];
        if pool.len() < MAX_POOL_VECS {
            pool.push(payload);
        }
    });
}

/// An f64 output buffer of length `n`; contents are *unspecified* (the
/// caller must overwrite every element). Zero-filled only when freshly
/// allocated.
pub fn take_f64(n: usize) -> Buf<f64> {
    take(n, false)
}

/// An f64 buffer of length `n`, guaranteed zero-filled (for accumulator
/// outputs like `add_n` that start from `0.0`).
pub fn take_zeroed_f64(n: usize) -> Buf<f64> {
    take(n, true)
}

/// An f32 output buffer of length `n`; contents unspecified.
pub fn take_f32(n: usize) -> Buf<f32> {
    take(n, false)
}

/// An f32 buffer of length `n`, guaranteed zero-filled.
pub fn take_zeroed_f32(n: usize) -> Buf<f32> {
    take(n, true)
}

/// A complex output buffer of length `n`; contents unspecified.
pub fn take_c128(n: usize) -> Buf<Complex64> {
    take(n, false)
}

/// A complex buffer of length `n`, guaranteed zero-filled.
pub fn take_zeroed_c128(n: usize) -> Buf<Complex64> {
    take(n, true)
}

/// A rank-0 f64 tensor whose one-element payload comes from the pool.
pub fn scalar_f64(v: f64) -> Tensor {
    let mut b = take_f64(1);
    b[0] = v;
    b.into_tensor(Shape::scalar())
        .expect("one element fills a scalar")
}

/// A rank-0 f32 tensor whose one-element payload comes from the pool.
pub fn scalar_f32(v: f32) -> Tensor {
    let mut b = take_f32(1);
    b[0] = v;
    b.into_tensor(Shape::scalar())
        .expect("one element fills a scalar")
}

/// Reclaim a dead tensor's payload into the pool, if this was the sole
/// owner of a poolable dense payload. Safe to call on any tensor — a
/// shared, synthetic, or non-float payload is simply dropped.
pub fn recycle_tensor(t: Tensor) {
    if let Some(payload) = t.into_unique_payload() {
        give(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_payload_is_reused_with_its_box() {
        // Donate an oversized buffer, then a smaller request must
        // reuse the same allocation *and* the same `Arc` box.
        let t = Tensor::from_f64([100], vec![7.5f64; 100]).unwrap();
        let ptr = t.as_f64().unwrap().as_ptr() as usize;
        let arc = t.dense_ptr().unwrap();
        recycle_tensor(t);
        let got = take_f64(64);
        assert_eq!(got.len(), 64);
        assert_eq!(got.as_ptr() as usize, ptr, "pool did not recycle");
        let t = got.into_tensor([64]).unwrap();
        assert_eq!(t.dense_ptr().unwrap(), arc, "payload box was not reused");
    }

    #[test]
    fn zeroed_take_clears_stale_contents() {
        recycle_tensor(Tensor::from_f64([32], vec![3.25f64; 32]).unwrap());
        let got = take_zeroed_f64(32);
        assert!(got.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn smallest_fitting_buffer_wins_and_scalars_ride_the_pool() {
        recycle_tensor(Tensor::from_f32([256], vec![0.0; 256]).unwrap());
        let small = Tensor::from_f32([8], vec![0.0; 8]).unwrap();
        let ptr = small.as_f32().unwrap().as_ptr() as usize;
        recycle_tensor(small);
        let s = scalar_f32(1.5);
        assert_eq!(s.as_f32().unwrap().as_ptr() as usize, ptr);
        assert_eq!(s.scalar_value_f64().unwrap(), 1.5);
        assert!(s.shape().is_scalar());
        // The large buffer is still there for a large request.
        assert!(take_f32(200).len() == 200);
    }

    #[test]
    fn scalars_leave_large_pooled_buffers_alone() {
        // A dead 1M-element vector is pooled; a `dot` result must not
        // ride (and pin) its 8 MB.
        let big = Tensor::from_f64([1 << 20], vec![1.0; 1 << 20]).unwrap();
        let ptr = big.as_f64().unwrap().as_ptr() as usize;
        recycle_tensor(big);
        let x = Tensor::from_f64([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let rho = crate::ops::dot(&x, &x).unwrap();
        assert_eq!(rho.scalar_value_f64().unwrap(), 30.0);
        assert_ne!(rho.as_f64().unwrap().as_ptr() as usize, ptr);
        // The vector's buffer is still there for the next vector.
        assert_eq!(take_f64(1 << 20).as_ptr() as usize, ptr);
        // A dead scalar is what the next scalar reuses.
        let ptr = rho.as_f64().unwrap().as_ptr() as usize;
        recycle_tensor(rho);
        assert_eq!(scalar_f64(2.0).as_f64().unwrap().as_ptr() as usize, ptr);
    }

    #[test]
    fn scratch_buffers_return_through_recycle() {
        let mut b = take_c128(16);
        b[3] = Complex64::new(1.0, -1.0);
        let ptr = b.as_ptr() as usize;
        b.recycle();
        assert_eq!(take_c128(16).as_ptr() as usize, ptr);
    }

    #[test]
    fn recycle_tensor_reclaims_unique_payloads_only() {
        let t = Tensor::from_f64([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let ptr = t.as_f64().unwrap().as_ptr() as usize;
        recycle_tensor(t);
        let reclaimed = take_f64(4);
        assert_eq!(reclaimed.as_ptr() as usize, ptr);

        // A shared tensor must NOT be reclaimed.
        let a = Tensor::from_f64([4], vec![9.0; 4]).unwrap();
        let ptr = a.as_f64().unwrap().as_ptr() as usize;
        let b = a.clone();
        recycle_tensor(a);
        let fresh = take_f64(4);
        assert_ne!(fresh.as_ptr() as usize, ptr);
        assert_eq!(b.as_f64().unwrap()[0], 9.0);
    }
}
