//! Graph optimization passes (a Grappler-lite).
//!
//! §II of the paper lists graph-level optimization as a core advantage
//! of deferred execution: "TensorFlow can use information of the
//! dataflow graph to optimize execution, for instance merging
//! subsequent operations to avoid data movement". This module provides
//! the classic passes over our graph IR:
//!
//! * **constant folding** — pure ops whose inputs are all constants are
//!   evaluated at optimization time and replaced by `Const` nodes;
//! * **common-subexpression elimination** — structurally identical pure
//!   ops with the same inputs and placement collapse to one node;
//! * **identity elimination** — `Identity` nodes on the same device as
//!   their producer are bypassed (cross-device identities are kept:
//!   they anchor transfers);
//! * **arithmetic simplification** — `x*1`, `scale(x, 1.0)`, `neg(neg x)`.
//!
//! Passes rewrite into a fresh [`Graph`] and return a mapping from old
//! to new [`NodeId`]s so callers can translate their fetch handles.

use crate::device::Placement;
use crate::error::Result;
use crate::graph::{Graph, NodeId};
use crate::kernels;
use crate::op::Op;
use crate::resources::Resources;
use std::collections::HashMap;

/// Statistics of one optimization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Constant-folded nodes.
    pub folded: usize,
    /// Nodes removed by CSE.
    pub deduplicated: usize,
    /// Bypassed same-device identities.
    pub identities_removed: usize,
    /// Arithmetic rewrites applied.
    pub simplified: usize,
    /// Nodes in / out.
    pub nodes_before: usize,
    /// Nodes after optimization (reachable rewrite).
    pub nodes_after: usize,
}

/// Result of optimizing a graph.
pub struct Optimized {
    /// The rewritten graph.
    pub graph: Graph,
    /// Old node id → new node id.
    pub mapping: HashMap<NodeId, NodeId>,
    /// What the passes did.
    pub stats: OptimizeStats,
}

impl Optimized {
    /// Translate an old fetch handle.
    pub fn remap(&self, old: NodeId) -> NodeId {
        self.mapping[&old]
    }
}

/// Whether an op is pure (safe to fold/deduplicate/reorder).
fn is_pure(op: &Op) -> bool {
    matches!(
        op,
        Op::Const { .. }
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Neg
            | Op::Scale { .. }
            | Op::MulScalar
            | Op::AddN
            | Op::MatMul
            | Op::MatVec
            | Op::Dot
            | Op::Sum
            | Op::Max
            | Op::Sqrt
            | Op::Fft
            | Op::Reshape { .. }
            | Op::SliceRange { .. }
            | Op::SliceRows { .. }
            | Op::ConcatVecs
            | Op::Transpose
            | Op::Cast { .. }
            | Op::Identity
    )
}

/// A structural signature for CSE (op kind + static attrs).
fn signature(op: &Op) -> Option<String> {
    if !is_pure(op) {
        return None;
    }
    Some(match op {
        Op::Scale { factor } => format!("Scale:{}", factor.to_bits()),
        Op::Reshape { shape } => format!("Reshape:{shape}"),
        Op::SliceRange { start, end } => format!("SliceRange:{start}:{end}"),
        Op::SliceRows { start, end } => format!("SliceRows:{start}:{end}"),
        Op::Cast { to } => format!("Cast:{to}"),
        // Consts are handled by value identity elsewhere; don't merge.
        Op::Const { .. } => return None,
        other => other.name().to_string(),
    })
}

/// Run all passes and then dead-code-eliminate everything not needed
/// for `fetches` (stateful nodes reachable from the fetches are kept;
/// orphaned constants left behind by folding are dropped).
pub fn optimize_for(graph: &Graph, fetches: &[NodeId]) -> Result<Optimized> {
    let first = optimize(graph)?;
    let roots: Vec<NodeId> = fetches.iter().map(|f| first.mapping[f]).collect();
    let needed = first.graph.required_for(&roots);
    let keep: std::collections::HashSet<NodeId> = needed.into_iter().collect();

    let mut pruned = Graph::new();
    let mut remap2: HashMap<NodeId, NodeId> = HashMap::new();
    for node in first.graph.nodes() {
        if !keep.contains(&node.id) {
            continue;
        }
        let inputs = node
            .inputs
            .iter()
            .map(|(src, idx)| (remap2[src], *idx))
            .collect();
        let controls = node.control_inputs.iter().map(|c| remap2[c]).collect();
        let new_id = pruned.with_device(node.device, |g| {
            g.add_node(node.op.clone(), inputs, controls)
        })?;
        remap2.insert(node.id, new_id);
    }
    let mapping: HashMap<NodeId, NodeId> = first
        .mapping
        .iter()
        .filter(|(_, mid)| remap2.contains_key(mid))
        .map(|(old, mid)| (*old, remap2[mid]))
        .collect();
    let mut stats = first.stats.clone();
    stats.nodes_after = pruned.len();
    Ok(Optimized {
        graph: pruned,
        mapping,
        stats,
    })
}

/// Run all passes over `graph`.
pub fn optimize(graph: &Graph) -> Result<Optimized> {
    let scratch = Resources::new();
    let mut out = Graph::new();
    let mut mapping: HashMap<NodeId, NodeId> = HashMap::new();
    // (signature, new input ids, device) -> new node id
    type CseKey = (String, Vec<(usize, usize)>, Placement);
    let mut cse: HashMap<CseKey, NodeId> = HashMap::new();
    let mut stats = OptimizeStats {
        nodes_before: graph.len(),
        ..Default::default()
    };

    for node in graph.nodes() {
        let new_inputs: Vec<(NodeId, usize)> = node
            .inputs
            .iter()
            .map(|(src, idx)| (mapping[src], *idx))
            .collect();
        let new_controls: Vec<NodeId> = node.control_inputs.iter().map(|c| mapping[c]).collect();

        // Identity elimination: bypass same-device pass-throughs with
        // no control obligations of their own.
        if matches!(node.op, Op::Identity) && new_controls.is_empty() {
            let (src, idx) = new_inputs[0];
            let producer = out.node(src);
            let same_device = producer.device == node.device
                || node.device == Placement::Auto
                || producer.device == Placement::Auto;
            if *idx_usable(&producer.op, idx) && same_device {
                mapping.insert(node.id, src);
                stats.identities_removed += 1;
                continue;
            }
        }

        // Arithmetic simplification: neg(neg(x)) and scale-by-1.
        if let Op::Scale { factor } = &node.op {
            if *factor == 1.0 && new_controls.is_empty() {
                mapping.insert(node.id, new_inputs[0].0);
                stats.simplified += 1;
                continue;
            }
        }
        if matches!(node.op, Op::Neg) && new_controls.is_empty() {
            let (src, _) = new_inputs[0];
            if matches!(out.node(src).op, Op::Neg) {
                let inner = out.node(src).inputs[0].0;
                mapping.insert(node.id, inner);
                stats.simplified += 1;
                continue;
            }
        }

        // Constant folding: pure op, every input a Const, no controls.
        let foldable = is_pure(&node.op)
            && !matches!(node.op, Op::Const { .. })
            && !node.inputs.is_empty()
            && new_controls.is_empty()
            && new_inputs
                .iter()
                .all(|(src, _)| matches!(out.node(*src).op, Op::Const { .. }));
        if foldable {
            let inputs: Vec<tfhpc_tensor::Tensor> = new_inputs
                .iter()
                .map(|(src, _)| match &out.node(*src).op {
                    Op::Const { value } => value.clone(),
                    _ => unreachable!("checked const"),
                })
                .collect();
            let mut outputs = Vec::new();
            kernels::execute(&node.op, &inputs, &scratch, 0, &mut outputs)?;
            if outputs.len() == 1 {
                let folded = out.with_device(node.device, |g| {
                    g.add_node(
                        Op::Const {
                            value: outputs.remove(0),
                        },
                        vec![],
                        vec![],
                    )
                })?;
                mapping.insert(node.id, folded);
                stats.folded += 1;
                continue;
            }
        }

        // CSE: reuse an identical pure node.
        if new_controls.is_empty() {
            if let Some(sig) = signature(&node.op) {
                let key = (
                    sig,
                    new_inputs.iter().map(|(n, i)| (n.index(), *i)).collect(),
                    node.device,
                );
                if let Some(existing) = cse.get(&key) {
                    mapping.insert(node.id, *existing);
                    stats.deduplicated += 1;
                    continue;
                }
                let new_id = out.with_device(node.device, |g| {
                    g.add_node(node.op.clone(), new_inputs, new_controls)
                })?;
                cse.insert(key, new_id);
                mapping.insert(node.id, new_id);
                continue;
            }
        }

        // Default: copy through (preserving the placement request).
        let new_id = out.with_device(node.device, |g| {
            g.add_node(node.op.clone(), new_inputs, new_controls)
        })?;
        mapping.insert(node.id, new_id);
    }

    stats.nodes_after = out.len();
    Ok(Optimized {
        graph: out,
        mapping,
        stats,
    })
}

/// Output index validity helper (multi-output producers can't be
/// bypassed through taps referencing outputs > 0).
fn idx_usable(op: &Op, idx: usize) -> &'static bool {
    const T: bool = true;
    const F: bool = false;
    if op.n_outputs() == 1 && idx == 0 {
        &T
    } else {
        &F
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceCtx;
    use crate::session::Session;
    use std::sync::Arc;
    use tfhpc_tensor::Tensor;

    fn run_both(g: &Graph, fetch: NodeId) -> (f64, f64, OptimizeStats) {
        let sess = Session::new(
            Arc::new(clone_via_serde(g)),
            Resources::new(),
            DeviceCtx::real(0),
        );
        let original = sess.run(&[fetch], &[]).unwrap()[0]
            .scalar_value_f64()
            .unwrap();
        let opt = optimize(g).unwrap();
        let new_fetch = opt.remap(fetch);
        let sess2 = Session::new(Arc::new(opt.graph), Resources::new(), DeviceCtx::real(0));
        let optimized = sess2.run(&[new_fetch], &[]).unwrap()[0]
            .scalar_value_f64()
            .unwrap();
        (original, optimized, opt.stats)
    }

    fn clone_via_serde(g: &Graph) -> Graph {
        crate::serialize::graph_from_bytes(&crate::serialize::graph_to_bytes(g).unwrap()).unwrap()
    }

    #[test]
    fn folds_constant_subgraphs() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(2.0));
        let b = g.constant(Tensor::scalar_f64(3.0));
        let c = g.add(a, b);
        let d = g.mul(c, c);
        let (orig, opt, stats) = run_both(&g, d);
        assert_eq!(orig, 25.0);
        assert_eq!(opt, 25.0);
        assert_eq!(stats.folded, 2); // add and mul both folded
    }

    #[test]
    fn cse_merges_identical_ops() {
        let mut g = Graph::new();
        let p = g.placeholder(tfhpc_tensor::DType::F64, None);
        let n1 = g.neg(p);
        let n2 = g.neg(p);
        let s = g.add(n1, n2);
        let opt = optimize(&g).unwrap();
        assert_eq!(opt.stats.deduplicated, 1);
        // Both negs map to the same new node.
        assert_eq!(opt.remap(n1), opt.remap(n2));
        // Still computes -2x.
        let sess = Session::new(Arc::new(opt.graph), Resources::new(), DeviceCtx::real(0));
        let out = sess
            .run(
                &[opt.mapping[&s]],
                &[(opt.mapping[&p], Tensor::scalar_f64(4.0))],
            )
            .unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), -8.0);
    }

    #[test]
    fn removes_same_device_identities() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(7.0));
        let i1 = g.identity(a);
        let i2 = g.identity(i1);
        let n = g.neg(i2);
        let (orig, opt, stats) = run_both(&g, n);
        assert_eq!(orig, opt);
        assert_eq!(stats.identities_removed, 2);
    }

    #[test]
    fn keeps_cross_device_identity_anchor() {
        let mut g = Graph::new();
        let a = g.with_device(Placement::Cpu, |g| g.constant(Tensor::scalar_f64(1.0)));
        let moved = g.with_device(Placement::Gpu(0), |g| g.identity(a));
        let opt = optimize(&g).unwrap();
        // The transfer anchor survives.
        assert_ne!(opt.remap(moved), opt.remap(a));
    }

    #[test]
    fn simplifies_neg_neg_and_scale_one() {
        let mut g = Graph::new();
        let p = g.placeholder(tfhpc_tensor::DType::F64, None);
        let nn = {
            let n = g.neg(p);
            g.neg(n)
        };
        let s1 = g.scale(nn, 1.0);
        let opt = optimize(&g).unwrap();
        assert_eq!(opt.stats.simplified, 2);
        assert_eq!(opt.remap(s1), opt.remap(p));
    }

    #[test]
    fn stateful_ops_never_fold() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        let bump = g.assign_add("v", a);
        let opt = optimize(&g).unwrap();
        assert_eq!(opt.stats.folded, 0);
        assert!(matches!(
            opt.graph.node(opt.remap(bump)).op,
            Op::AssignAdd { .. }
        ));
    }

    #[test]
    fn random_ops_never_fold_or_merge() {
        // Two random_uniform nodes must stay distinct (fresh samples).
        let mut g = Graph::new();
        let r1 = g.random_uniform(tfhpc_tensor::DType::F64, [2], 1);
        let r2 = g.random_uniform(tfhpc_tensor::DType::F64, [2], 1);
        let opt = optimize(&g).unwrap();
        assert_ne!(opt.remap(r1), opt.remap(r2));
        assert_eq!(opt.stats.folded, 0);
    }

    #[test]
    fn large_chain_folds_to_single_const() {
        let mut g = Graph::new();
        let mut cur = g.constant(Tensor::scalar_f64(0.0));
        for _ in 0..50 {
            let one = g.constant(Tensor::scalar_f64(1.0));
            cur = g.add(cur, one);
        }
        let opt = optimize_for(&g, &[cur]).unwrap();
        assert_eq!(opt.stats.folded, 50);
        // 101 nodes collapse to one constant.
        assert_eq!(opt.stats.nodes_after, 1);
        let fetch = opt.remap(cur);
        let sess = Session::new(Arc::new(opt.graph), Resources::new(), DeviceCtx::real(0));
        let out = sess.run(&[fetch], &[]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 50.0);
    }
}
