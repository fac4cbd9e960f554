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

/// Dense values drawn in element order, bit for bit what `unit()` gives.
fn dense_tensor(dtype: DType, shape: Shape, stream: &mut SeededStream) -> Tensor {
    let n = shape.num_elements();
    match dtype {
        DType::F64 => {
            let mut v = vec![0.0; n];
            stream.fill_unit(&mut v);
            Tensor::from_f64(shape, v)
        }
        DType::F32 => Tensor::from_f32(shape, drawn(stream, n, |[x]| *x as f32)),
        DType::C128 => {
            Tensor::from_c128(shape, drawn(stream, n, |[re, im]| Complex64::new(*re, *im)))
        }
        other => panic!("no dense feed generator for {other:?}"),
    }
    .expect("shape matches")
}

/// `n` values, each made from `PER` consecutive draws staged on the stack.
fn drawn<const PER: usize, T>(
    stream: &mut SeededStream,
    n: usize,
    make: impl Fn(&[f64; PER]) -> T,
) -> Vec<T> {
    let mut buf = [0.0; 256];
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        let draws = &mut buf[..(PER * (n - v.len())).min(256 / PER * PER)];
        stream.fill_unit(draws);
        v.extend(draws.as_chunks::<PER>().0.iter().map(&make));
    }
    v
}

/// Order-sensitive digest of a result tensor list — the compact value
/// the serving plane stores per completed job (keeping thousands of
/// results resident would defeat the load generator's scale). One
/// [`Fnv1a::eat_word`] step, a bijection in state and word, folds each
/// of the dtype, the dims, the element bits (re, im apart) or the seed.
pub fn digest_tensors(tensors: &[Tensor]) -> u64 {
    let mut h = Fnv1a::default();
    let mut fold = |v: u64| h.eat_word(v);
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

    /// The dense feeds, element by element, against the sequential
    /// draws of their substream: F32 rounds each draw, C128 takes them
    /// in (re, im) order. Every consumer regenerates feeds with the
    /// same function, so only this pins their values.
    #[test]
    fn dense_feeds_are_the_sequential_draws() {
        let bytes = |t: &Tensor| {
            let mut b = Vec::new();
            t.visit_payload_bytes(|c| b.extend_from_slice(c));
            b
        };
        for kind in [
            RequestKind::Cg,
            RequestKind::Matmul,
            RequestKind::Fft,
            RequestKind::Stream,
        ] {
            for n in [1, 7, 8, 9, 48] {
                let (sq, vec) = (vec![n, n], vec![n]);
                let layout = match kind {
                    RequestKind::Cg => vec![(DType::F64, sq), (DType::F64, vec)],
                    RequestKind::Matmul => vec![(DType::F32, sq.clone()), (DType::F32, sq)],
                    RequestKind::Fft => vec![(DType::C128, vec)],
                    RequestKind::Stream => vec![(DType::F64, vec.clone()), (DType::F64, vec)],
                };
                for seed in 0..8 {
                    let feeds = RequestSpec::new(kind, n).feeds(seed, false);
                    let mut s = SeededStream::substream(seed, 0x0004_A0B5);
                    let want: Vec<Tensor> = layout
                        .iter()
                        .map(|&(dtype, ref dims)| {
                            let (dims, len) = (dims.clone(), dims.iter().product());
                            match dtype {
                                DType::F32 => Tensor::from_f32(
                                    dims,
                                    (0..len).map(|_| s.unit() as f32).collect(),
                                ),
                                DType::F64 => {
                                    Tensor::from_f64(dims, (0..len).map(|_| s.unit()).collect())
                                }
                                _ => {
                                    let draw = |_| {
                                        let re = s.unit();
                                        Complex64::new(re, s.unit())
                                    };
                                    Tensor::from_c128(dims, (0..len).map(draw).collect())
                                }
                            }
                            .unwrap()
                        })
                        .collect();
                    assert_eq!(feeds.len(), want.len());
                    for (got, want) in feeds.iter().zip(&want) {
                        assert_eq!(bytes(got), bytes(want), "{kind:?} n {n} seed {seed}");
                    }
                }
            }
        }
    }

    /// Any one flipped bit, any swap of two unequal words, and the
    /// same bits under another shape or dtype all move the digest.
    #[test]
    fn digests_see_every_bit_order_shape_and_dtype() {
        // A tensor of `dtype` whose element bits are `words`, a complex
        // element taking two.
        let make = |dtype: DType, words: &[u64]| match dtype {
            DType::F32 => {
                let v = words.iter().map(|&w| f32::from_bits(w as u32)).collect();
                Tensor::from_f32(vec![words.len()], v).unwrap()
            }
            DType::F64 => {
                let v = words.iter().map(|&w| f64::from_bits(w)).collect();
                Tensor::from_f64(vec![words.len()], v).unwrap()
            }
            _ => {
                let v = words
                    .chunks_exact(2)
                    .map(|p| Complex64::new(f64::from_bits(p[0]), f64::from_bits(p[1])))
                    .collect();
                Tensor::from_c128(vec![words.len() / 2], v).unwrap()
            }
        };
        let digest = |t: Tensor| digest_tensors(&[t]);
        for (dtype, width) in [(DType::F32, 32), (DType::F64, 64), (DType::C128, 64)] {
            let words: Vec<u64> = (1..=6u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - width))
                .collect();
            let base = digest(make(dtype, &words));
            for i in 0..words.len() {
                for b in 0..width {
                    let mut w = words.clone();
                    w[i] ^= 1 << b;
                    assert_ne!(digest(make(dtype, &w)), base, "{dtype:?} word {i} bit {b}");
                }
                for j in i + 1..words.len() {
                    let mut w = words.clone();
                    w.swap(i, j);
                    assert_ne!(digest(make(dtype, &w)), base, "{dtype:?} swap {i} {j}");
                    // Two flips among the sign and exponent bits (the top
                    // 12 of an f64 word, the top 9 of an f32 word).
                    let top = if width == 32 { 9 } else { 12 };
                    for bi in width - top..width {
                        for bj in width - top..width {
                            let mut w = words.clone();
                            w[i] ^= 1 << bi;
                            w[j] ^= 1 << bj;
                            let d = digest(make(dtype, &w));
                            assert_ne!(d, base, "{dtype:?} word {i} bit {bi}, word {j} bit {bj}");
                        }
                    }
                }
            }
            // Every element negated: an even number of sign flips.
            let sign = 1u64 << (width - 1);
            let negated: Vec<u64> = words.iter().map(|w| w ^ sign).collect();
            assert_ne!(digest(make(dtype, &negated)), base, "{dtype:?} negated");
            let t = make(dtype, &words);
            let n = t.num_elements();
            assert_ne!(
                digest(t.reshape(vec![1, n]).unwrap()),
                base,
                "{dtype:?} shape"
            );
        }
        // +0.0 turned -0.0 twice, and a conjugated pair of c128 elements.
        let zeros = [0.0f64, 0.0, 1.5, -2.0].map(f64::to_bits);
        let signed = [-0.0f64, -0.0, 1.5, -2.0].map(f64::to_bits);
        assert_ne!(
            digest(make(DType::F64, &zeros)),
            digest(make(DType::F64, &signed))
        );
        let conj = [0.0f64, -0.0, 1.5, 2.0].map(f64::to_bits);
        assert_ne!(
            digest(make(DType::C128, &zeros)),
            digest(make(DType::C128, &conj))
        );
        // The same element words under another dtype.
        let words: Vec<u64> = (1..=6).map(|i| (i as f64 / 7.0).to_bits()).collect();
        let as_f64 = digest(make(DType::F64, &words));
        assert_ne!(as_f64, digest(make(DType::C128, &words)));
        let as_i64 = Tensor::from_i64(vec![6], words.iter().map(|&w| w as i64).collect());
        assert_ne!(as_f64, digest(as_i64.unwrap()));
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
