//! Tensor shapes: dimension lists with row-major stride math.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Ranks up to this are stored inline; a tensor handle of such a shape
/// copies without touching the allocator.
const INLINE_RANK: usize = 4;

#[derive(Clone)]
enum Dims {
    Inline { len: u8, dims: [usize; INLINE_RANK] },
    Heap(Vec<usize>),
}

/// The shape of a tensor: an ordered list of dimension sizes.
///
/// Rank 0 is a scalar, rank 1 a vector, rank 2 a matrix — exactly the
/// tensor taxonomy the paper describes. Equality, hashing and
/// formatting are over the logical dimension list, whichever way it is
/// stored.
#[derive(Clone)]
pub struct Shape {
    dims: Dims,
}

impl Shape {
    /// Shape from a dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        let dims = dims.into();
        if dims.len() <= INLINE_RANK {
            Shape::from_slice(&dims)
        } else {
            Shape {
                dims: Dims::Heap(dims),
            }
        }
    }

    fn from_slice(dims: &[usize]) -> Self {
        if dims.len() > INLINE_RANK {
            return Shape {
                dims: Dims::Heap(dims.to_vec()),
            };
        }
        let mut inline = [0; INLINE_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: Dims::Inline {
                len: dims.len() as u8,
                dims: inline,
            },
        }
    }

    /// The rank-0 scalar shape.
    pub fn scalar() -> Self {
        Shape::from_slice(&[])
    }

    /// A rank-1 shape of length `n`.
    pub fn vector(n: usize) -> Self {
        Shape::from_slice(&[n])
    }

    /// A rank-2 shape `rows x cols`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::from_slice(&[rows, cols])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        match &self.dims {
            Dims::Inline { len, dims } => &dims[..*len as usize],
            Dims::Heap(dims) => dims,
        }
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Total element count (1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.dims().iter().product()
    }

    /// True for rank-0 shapes.
    pub fn is_scalar(&self) -> bool {
        self.dims().is_empty()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-index; panics if out of range.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let strides = self.strides();
        index
            .iter()
            .zip(self.dims())
            .zip(&strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of range for dim of size {d}");
                i * s
            })
            .sum()
    }

    /// Whether `self` can be reshaped into `other` (same element count).
    pub fn reshape_compatible(&self, other: &Shape) -> bool {
        self.num_elements() == other.num_elements()
    }
}

impl fmt::Display for Shape {
    /// Renders like `[3, 4]` / `[]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shape").field("dims", &self.dims()).finish()
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::from_slice(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from_slice(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert!(s.is_scalar());
        assert_eq!(s.to_string(), "[]");
    }

    #[test]
    fn matrix_strides_row_major() {
        let s = Shape::matrix(3, 4);
        assert_eq!(s.strides(), vec![4, 1]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[1, 0]), 4);
        assert_eq!(s.offset(&[2, 3]), 11);
        assert_eq!(s.num_elements(), 12);
    }

    #[test]
    fn rank3_strides() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_bounds_checked() {
        Shape::matrix(2, 2).offset(&[2, 0]);
    }

    #[test]
    fn reshape_compat() {
        assert!(Shape::matrix(6, 4).reshape_compatible(&Shape::new([2, 12])));
        assert!(!Shape::matrix(6, 4).reshape_compatible(&Shape::vector(23)));
    }

    #[test]
    fn inline_and_heap_shapes_agree() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &Shape| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // Rank 4 is the last inline rank, rank 5 the first on the heap.
        for dims in [vec![], vec![7], vec![2, 3, 4, 5], vec![2, 3, 4, 5, 6]] {
            let a = Shape::new(dims.clone());
            let b = Shape::from(dims.as_slice());
            assert_eq!(a.dims(), dims.as_slice());
            assert_eq!(a, b);
            assert_eq!(hash(&a), hash(&b));
            assert_eq!(hash(&a), {
                let mut h = DefaultHasher::new();
                dims.hash(&mut h);
                h.finish()
            });
            assert_eq!(format!("{a:?}"), format!("Shape {{ dims: {dims:?} }}"));
            assert_eq!(a.clone().strides().len(), dims.len());
        }
        assert_ne!(Shape::vector(3), Shape::matrix(3, 1));
    }

    #[test]
    fn display_matrix() {
        assert_eq!(Shape::matrix(3, 4).to_string(), "[3, 4]");
    }
}
