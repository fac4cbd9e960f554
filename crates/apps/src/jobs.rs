//! Canonical serving-request step graphs.
//!
//! The serving plane admits thousands of small job requests per run.
//! Each request is one *step* of a paper application — a CG iteration
//! kernel, a tile matmul, an FFT stage, a STREAM triad — expressed as
//! a canonical graph per `(kind, size)` with all request-specific data
//! arriving through placeholder feeds. Canonical construction is what
//! makes the shared plan cache and the batcher work: every request of
//! the same `(kind, size)` fingerprints to the same graph, so its
//! execution plan is built once and compatible requests coalesce into
//! one dispatch.
//!
//! Feeds come in two flavours, matching the two app modes: dense
//! seeded tensors (real mode — results are actual numerics) and
//! synthetic tensors (simulated mode — kernels propagate metadata and
//! charge modeled time).

use std::sync::Arc;
use tfhpc_core::{Graph, NodeId};
use tfhpc_sim::fnv::Fnv1a;
use tfhpc_sim::SeededStream;
use tfhpc_tensor::{Complex64, DType, Shape, Tensor, TensorData};

/// Which application's step a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestKind {
    /// One CG inner step: `q = A·p`, `α = pᵀq` (matvec + dot).
    Cg,
    /// One tile product: `C = A·B`.
    Matmul,
    /// One 1-D complex FFT stage.
    Fft,
    /// One STREAM triad: `a = b + 3·c`.
    Stream,
}

impl RequestKind {
    /// Stable lowercase name (metric labels, JSON reports).
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Cg => "cg",
            RequestKind::Matmul => "matmul",
            RequestKind::Fft => "fft",
            RequestKind::Stream => "stream",
        }
    }
}

/// A request's shape class: the step kind and its problem size
/// (matrix/vector dimension; FFT sizes must be powers of two).
/// Two requests with equal specs are *compatible*: same canonical
/// graph, same plan, batchable into one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestSpec {
    /// Step kind.
    pub kind: RequestKind,
    /// Problem size `n`.
    pub size: usize,
}

/// A built canonical step graph: placeholders to feed (in order) and
/// nodes to fetch.
pub struct StepGraph {
    /// The canonical graph.
    pub graph: Arc<Graph>,
    /// Placeholder nodes, in [`RequestSpec::feeds`] order.
    pub placeholders: Vec<NodeId>,
    /// Fetch nodes.
    pub fetches: Vec<NodeId>,
}

impl RequestSpec {
    /// Shorthand constructor.
    pub fn new(kind: RequestKind, size: usize) -> RequestSpec {
        RequestSpec { kind, size }
    }

    /// Build the canonical step graph for this spec. Identical specs
    /// build byte-identical graphs (and therefore share cached plans).
    pub fn build(&self) -> StepGraph {
        let n = self.size;
        let mut g = Graph::new();
        let (placeholders, fetches) = match self.kind {
            RequestKind::Cg => {
                let a = g.placeholder(DType::F64, Some(Shape::matrix(n, n)));
                let p = g.placeholder(DType::F64, Some(Shape::vector(n)));
                let q = g.matvec(a, p);
                let alpha = g.dot(p, q);
                (vec![a, p], vec![q, alpha])
            }
            RequestKind::Matmul => {
                let a = g.placeholder(DType::F32, Some(Shape::matrix(n, n)));
                let b = g.placeholder(DType::F32, Some(Shape::matrix(n, n)));
                let c = g.matmul(a, b);
                (vec![a, b], vec![c])
            }
            RequestKind::Fft => {
                let x = g.placeholder(DType::C128, Some(Shape::vector(n)));
                let y = g.fft(x);
                (vec![x], vec![y])
            }
            RequestKind::Stream => {
                let b = g.placeholder(DType::F64, Some(Shape::vector(n)));
                let c = g.placeholder(DType::F64, Some(Shape::vector(n)));
                let scaled = g.scale(c, 3.0);
                let triad = g.add(b, scaled);
                (vec![b, c], vec![triad])
            }
        };
        StepGraph {
            graph: Arc::new(g),
            placeholders,
            fetches,
        }
    }

    /// Deterministic feed tensors for one request, in placeholder
    /// order. `synthetic` selects metadata-only payloads (simulated
    /// serving); otherwise dense values are drawn from a splitmix64
    /// stream of `seed`, so a request's numerics are a pure function
    /// of `(spec, seed)`.
    pub fn feeds(&self, seed: u64, synthetic: bool) -> Vec<Tensor> {
        let n = self.size;
        let shapes: Vec<(DType, Shape)> = match self.kind {
            RequestKind::Cg => vec![
                (DType::F64, Shape::matrix(n, n)),
                (DType::F64, Shape::vector(n)),
            ],
            RequestKind::Matmul => vec![
                (DType::F32, Shape::matrix(n, n)),
                (DType::F32, Shape::matrix(n, n)),
            ],
            RequestKind::Fft => vec![(DType::C128, Shape::vector(n))],
            RequestKind::Stream => vec![
                (DType::F64, Shape::vector(n)),
                (DType::F64, Shape::vector(n)),
            ],
        };
        let mut stream = SeededStream::substream(seed, 0x0004_A0B5);
        shapes
            .into_iter()
            .enumerate()
            .map(|(i, (dtype, shape))| {
                if synthetic {
                    Tensor::synthetic(dtype, shape, seed.rotate_left(i as u32) ^ i as u64)
                } else {
                    dense_tensor(dtype, shape, &mut stream)
                }
            })
            .collect()
    }
}

fn dense_tensor(dtype: DType, shape: Shape, stream: &mut SeededStream) -> Tensor {
    let n = shape.num_elements();
    let data = match dtype {
        DType::F32 => TensorData::F32((0..n).map(|_| stream.unit() as f32).collect()),
        DType::F64 => TensorData::F64((0..n).map(|_| stream.unit()).collect()),
        DType::C128 => TensorData::C128(
            (0..n)
                .map(|_| Complex64::new(stream.unit(), stream.unit()))
                .collect(),
        ),
        other => panic!("no dense feed generator for {other:?}"),
    };
    match data {
        TensorData::F32(v) => Tensor::from_f32(shape, v).expect("shape matches"),
        TensorData::F64(v) => Tensor::from_f64(shape, v).expect("shape matches"),
        TensorData::C128(v) => Tensor::from_c128(shape, v).expect("shape matches"),
        _ => unreachable!(),
    }
}

/// Order-sensitive FNV-1a digest of a result tensor list — the compact
/// value the serving plane stores per completed job (keeping thousands
/// of results resident would defeat the load generator's scale).
/// Dense payloads fold their exact bits; synthetic tensors fold their
/// metadata + seed. Bit-identical results ⇒ equal digests.
pub fn digest_tensors(tensors: &[Tensor]) -> u64 {
    let mut h = Fnv1a::default();
    let mut fold = |v: u64| h.eat_u64(v);
    for t in tensors {
        fold(t.dtype() as u64);
        for &d in t.shape().dims() {
            fold(d as u64);
        }
        match t.data() {
            Ok(TensorData::F32(v)) => v.iter().for_each(|x| fold(x.to_bits() as u64)),
            Ok(TensorData::F64(v)) => v.iter().for_each(|x| fold(x.to_bits())),
            Ok(TensorData::C128(v)) => v.iter().for_each(|x| {
                fold(x.re.to_bits());
                fold(x.im.to_bits());
            }),
            Ok(TensorData::I32(v)) => v.iter().for_each(|x| fold(*x as u64)),
            Ok(TensorData::I64(v)) => v.iter().for_each(|x| fold(*x as u64)),
            Ok(TensorData::U8(v)) => v.iter().for_each(|x| fold(*x as u64)),
            Ok(TensorData::Bool(v)) => v.iter().for_each(|x| fold(*x as u64)),
            Err(_) => fold(t.synthetic_seed().unwrap_or(0)),
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_specs_build_identical_graphs() {
        for spec in [
            RequestSpec::new(RequestKind::Cg, 16),
            RequestSpec::new(RequestKind::Matmul, 8),
            RequestSpec::new(RequestKind::Fft, 32),
            RequestSpec::new(RequestKind::Stream, 64),
        ] {
            let a = spec.build();
            let b = spec.build();
            assert_eq!(
                tfhpc_core::graph_to_bytes(&a.graph).unwrap(),
                tfhpc_core::graph_to_bytes(&b.graph).unwrap(),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn feeds_are_deterministic_and_digests_detect_changes() {
        let spec = RequestSpec::new(RequestKind::Stream, 32);
        let f1 = spec.feeds(9, false);
        let f2 = spec.feeds(9, false);
        assert_eq!(digest_tensors(&f1), digest_tensors(&f2));
        let f3 = spec.feeds(10, false);
        assert_ne!(digest_tensors(&f1), digest_tensors(&f3));
        // Synthetic feeds digest their metadata.
        let s1 = spec.feeds(9, true);
        let s2 = spec.feeds(9, true);
        assert_eq!(digest_tensors(&s1), digest_tensors(&s2));
    }

    #[test]
    fn every_kind_runs_end_to_end() {
        use tfhpc_core::{DeviceCtx, Resources, Session, SessionOptions};
        for spec in [
            RequestSpec::new(RequestKind::Cg, 8),
            RequestSpec::new(RequestKind::Matmul, 4),
            RequestSpec::new(RequestKind::Fft, 16),
            RequestSpec::new(RequestKind::Stream, 8),
        ] {
            let built = spec.build();
            let sess = Session::with_options(
                Arc::clone(&built.graph),
                Resources::new(),
                DeviceCtx::real(0),
                SessionOptions::sequential(),
            );
            let feeds: Vec<_> = built
                .placeholders
                .iter()
                .copied()
                .zip(spec.feeds(3, false))
                .collect();
            let out = sess.run(&built.fetches, &feeds).unwrap();
            assert_eq!(out.len(), built.fetches.len(), "{spec:?}");
            assert_ne!(digest_tensors(&out), 0);
        }
    }
}
