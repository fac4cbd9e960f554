//! The dataflow graph and its builder API.
//!
//! Mirrors TensorFlow's deferred-execution (Graph) mode: you first
//! *construct* a graph of tensor-valued nodes, then execute (parts of)
//! it through a [`crate::session::Session`]. Nodes carry an optional
//! device pin (`tf.device()`), data inputs and control dependencies.

use crate::device::Placement;
use crate::error::{CoreError, Result};
use crate::op::Op;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfhpc_tensor::{DType, Shape, Tensor};

/// Identifier of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One node: an op application with inputs and placement.
pub struct NodeDef {
    /// Node id.
    pub id: NodeId,
    /// Unique node name.
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Data inputs (each an output-0 reference of another node; for
    /// multi-output producers an explicit output index is encoded).
    pub inputs: Vec<(NodeId, usize)>,
    /// Control dependencies: nodes that must run before this one.
    pub control_inputs: Vec<NodeId>,
    /// Requested placement.
    pub device: Placement,
}

/// A dataflow graph under construction (append-only).
pub struct Graph {
    nodes: Vec<NodeDef>,
    default_device: Vec<Placement>,
    name_seq: u64,
    /// Mutation counter: bumped by every structural change so cached
    /// execution plans keyed on it invalidate (TF's "graph version").
    generation: AtomicU64,
    /// Process-unique id, used as the plan-cache fingerprint fallback
    /// for graphs that cannot be serialized (e.g. `py_func` closures).
    uid: u64,
}

/// Next [`Graph::uid`]; never reused within a process.
static GRAPH_UID: AtomicU64 = AtomicU64::new(1);

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Graph {
        Graph {
            nodes: Vec::new(),
            default_device: vec![Placement::Auto],
            name_seq: 0,
            generation: AtomicU64::new(0),
            uid: GRAPH_UID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Process-unique graph id. Unlike the content fingerprint, two
    /// identically-built graphs have *different* uids — this is only
    /// the identity of last resort for unserializable graphs.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Current mutation generation. A [`crate::session::Session`]
    /// stamps this into every cached execution plan; a mismatch at
    /// lookup time means the graph changed and the plan is rebuilt.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Force every cached execution plan over this graph stale.
    /// Structural mutators call this automatically; it is public for
    /// out-of-band changes (and for tests exercising invalidation on a
    /// graph already shared behind an `Arc`).
    pub fn invalidate_plans(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// All nodes, in creation order (a valid topological order).
    pub fn nodes(&self) -> &[NodeDef] {
        &self.nodes
    }

    /// Node definition by id.
    pub fn node(&self, id: NodeId) -> &NodeDef {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Find a node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// Enter a `tf.device()` scope: nodes added inside `f` default to
    /// `device`.
    pub fn with_device<R>(&mut self, device: Placement, f: impl FnOnce(&mut Graph) -> R) -> R {
        self.default_device.push(device);
        let r = f(self);
        self.default_device.pop();
        r
    }

    fn fresh_name(&mut self, op: &Op) -> String {
        self.name_seq += 1;
        format!("{}_{}", op.name(), self.name_seq)
    }

    /// Add a node with explicit inputs/controls. Inputs must predate
    /// the node (the builder API guarantees acyclicity).
    pub fn add_node(
        &mut self,
        op: Op,
        inputs: Vec<(NodeId, usize)>,
        control_inputs: Vec<NodeId>,
    ) -> Result<NodeId> {
        let id = NodeId(self.nodes.len());
        for (input, out_idx) in &inputs {
            if input.0 >= id.0 {
                return Err(CoreError::Graph(format!(
                    "input {} does not precede new node {}",
                    input.0, id.0
                )));
            }
            let producer = &self.nodes[input.0];
            if *out_idx >= producer.op.n_outputs() {
                return Err(CoreError::Graph(format!(
                    "node {} output {} requested but `{}` has {} outputs",
                    producer.name,
                    out_idx,
                    producer.op.name(),
                    producer.op.n_outputs()
                )));
            }
        }
        for c in &control_inputs {
            if c.0 >= id.0 {
                return Err(CoreError::Graph(
                    "control input does not precede node".into(),
                ));
            }
        }
        let name = self.fresh_name(&op);
        let device = *self.default_device.last().unwrap();
        self.nodes.push(NodeDef {
            id,
            name,
            op,
            inputs,
            control_inputs,
            device,
        });
        self.invalidate_plans();
        Ok(id)
    }

    fn unary(&mut self, op: Op, a: NodeId) -> NodeId {
        self.add_node(op, vec![(a, 0)], vec![]).expect("builder")
    }

    fn binary(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        self.add_node(op, vec![(a, 0), (b, 0)], vec![])
            .expect("builder")
    }

    // ---- sources ---------------------------------------------------------

    /// `tf.placeholder`.
    pub fn placeholder(&mut self, dtype: DType, shape: Option<Shape>) -> NodeId {
        self.add_node(Op::Placeholder { dtype, shape }, vec![], vec![])
            .expect("builder")
    }

    /// `tf.constant`.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.add_node(Op::Const { value }, vec![], vec![])
            .expect("builder")
    }

    /// `tf.random_uniform`.
    pub fn random_uniform(&mut self, dtype: DType, shape: impl Into<Shape>, seed: u64) -> NodeId {
        self.add_node(
            Op::RandomUniform {
                dtype,
                shape: shape.into(),
                seed,
            },
            vec![],
            vec![],
        )
        .expect("builder")
    }

    // ---- variables -------------------------------------------------------

    /// Read variable `var`.
    pub fn var_read(&mut self, var: &str) -> NodeId {
        self.add_node(Op::VarRead { var: var.into() }, vec![], vec![])
            .expect("builder")
    }

    /// `var.assign(value)`.
    pub fn assign(&mut self, var: &str, value: NodeId) -> NodeId {
        self.add_node(Op::Assign { var: var.into() }, vec![(value, 0)], vec![])
            .expect("builder")
    }

    /// `var.assign_add(value)`.
    pub fn assign_add(&mut self, var: &str, value: NodeId) -> NodeId {
        self.add_node(Op::AssignAdd { var: var.into() }, vec![(value, 0)], vec![])
            .expect("builder")
    }

    // ---- math ------------------------------------------------------------

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Add, a, b)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Sub, a, b)
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Mul, a, b)
    }

    /// Elementwise `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Div, a, b)
    }

    /// `-a`.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Neg, a)
    }

    /// `factor * a` with a static scalar.
    pub fn scale(&mut self, a: NodeId, factor: f64) -> NodeId {
        self.unary(Op::Scale { factor }, a)
    }

    /// `s * a` with a runtime rank-0 scalar `s`.
    pub fn mul_scalar(&mut self, a: NodeId, s: NodeId) -> NodeId {
        self.binary(Op::MulScalar, a, s)
    }

    /// Sum of same-shaped tensors.
    pub fn add_n(&mut self, xs: &[NodeId]) -> NodeId {
        self.add_node(Op::AddN, xs.iter().map(|x| (*x, 0)).collect(), vec![])
            .expect("builder")
    }

    /// `tf.matmul`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::MatMul, a, b)
    }

    /// Matrix-vector product.
    pub fn matvec(&mut self, a: NodeId, x: NodeId) -> NodeId {
        self.binary(Op::MatVec, a, x)
    }

    /// Dot product.
    pub fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Dot, a, b)
    }

    /// Scalar sum reduction.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Sum, a)
    }

    /// Scalar max reduction.
    pub fn max(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Max, a)
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Sqrt, a)
    }

    /// 1-D complex FFT.
    pub fn fft(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Fft, a)
    }

    /// Reshape to `shape`.
    pub fn reshape(&mut self, a: NodeId, shape: impl Into<Shape>) -> NodeId {
        self.unary(
            Op::Reshape {
                shape: shape.into(),
            },
            a,
        )
    }

    /// Copy elements `[start, end)` of a rank-1 tensor.
    pub fn slice_range(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        self.unary(Op::SliceRange { start, end }, a)
    }

    /// Copy rows `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        self.unary(Op::SliceRows { start, end }, a)
    }

    /// Concatenate rank-1 tensors.
    pub fn concat_vecs(&mut self, xs: &[NodeId]) -> NodeId {
        self.add_node(Op::ConcatVecs, xs.iter().map(|x| (*x, 0)).collect(), vec![])
            .expect("builder")
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Transpose, a)
    }

    /// Cast to another float dtype.
    pub fn cast(&mut self, a: NodeId, to: DType) -> NodeId {
        self.unary(Op::Cast { to }, a)
    }

    /// Identity (device-transfer anchor).
    pub fn identity(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Identity, a)
    }

    /// Group control dependencies into one no-output node.
    pub fn group(&mut self, deps: &[NodeId]) -> NodeId {
        self.add_node(Op::NoOp, vec![], deps.to_vec())
            .expect("builder")
    }

    // ---- queues / datasets -----------------------------------------------

    /// Enqueue a tuple into queue `queue`.
    pub fn queue_enqueue(&mut self, queue: &str, values: &[NodeId]) -> NodeId {
        self.add_node(
            Op::QueueEnqueue {
                queue: queue.into(),
            },
            values.iter().map(|v| (*v, 0)).collect(),
            vec![],
        )
        .expect("builder")
    }

    /// Dequeue a tuple of `arity` tensors from queue `queue`; returns
    /// one NodeId per component.
    pub fn queue_dequeue(&mut self, queue: &str, arity: usize) -> Vec<NodeId> {
        let node = self
            .add_node(
                Op::QueueDequeue {
                    queue: queue.into(),
                    arity,
                },
                vec![],
                vec![],
            )
            .expect("builder");
        // Components are accessed through Identity taps on each output.
        (0..arity)
            .map(|i| {
                self.add_node(Op::Identity, vec![(node, i)], vec![])
                    .expect("builder")
            })
            .collect()
    }

    /// Next element of iterator `iterator` (arity components).
    pub fn dataset_next(&mut self, iterator: &str, arity: usize) -> Vec<NodeId> {
        let node = self
            .add_node(
                Op::DatasetNext {
                    iterator: iterator.into(),
                    arity,
                },
                vec![],
                vec![],
            )
            .expect("builder");
        (0..arity)
            .map(|i| {
                self.add_node(Op::Identity, vec![(node, i)], vec![])
                    .expect("builder")
            })
            .collect()
    }

    /// Host callback with `outputs` outputs (`tf.py_func`).
    ///
    /// `host_cost_factor` models the Python tax (see [`Op::PyFunc`]);
    /// the paper-calibrated default for NumPy-style merge loops is
    /// [`crate::kernels::PY_FUNC_DEFAULT_COST_FACTOR`].
    pub fn py_func(
        &mut self,
        label: &str,
        inputs: &[NodeId],
        outputs: usize,
        host_cost_factor: f64,
        func: Arc<crate::op::PyFuncBody>,
    ) -> Vec<NodeId> {
        let node = self
            .add_node(
                Op::PyFunc {
                    func,
                    label: label.into(),
                    outputs,
                    host_cost_factor,
                },
                inputs.iter().map(|i| (*i, 0)).collect(),
                vec![],
            )
            .expect("builder");
        (0..outputs)
            .map(|i| {
                self.add_node(Op::Identity, vec![(node, i)], vec![])
                    .expect("builder")
            })
            .collect()
    }

    /// Custom kernel node.
    pub fn custom(
        &mut self,
        kernel: Arc<dyn crate::op::OpKernel>,
        inputs: &[NodeId],
        controls: &[NodeId],
    ) -> NodeId {
        self.add_node(
            Op::Custom(kernel),
            inputs.iter().map(|i| (*i, 0)).collect(),
            controls.to_vec(),
        )
        .expect("builder")
    }

    /// Append a fully-specified node (GraphDef deserialization path).
    pub(crate) fn push_raw(
        &mut self,
        name: String,
        op: Op,
        inputs: Vec<(NodeId, usize)>,
        control_inputs: Vec<NodeId>,
        device: Placement,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeDef {
            id,
            name,
            op,
            inputs,
            control_inputs,
            device,
        });
        self.invalidate_plans();
        id
    }

    /// Add a control dependency `before -> after` post hoc.
    pub fn add_control(&mut self, after: NodeId, before: NodeId) -> Result<()> {
        if before.0 >= after.0 {
            return Err(CoreError::Graph(
                "control edge must point from earlier to later node".into(),
            ));
        }
        self.nodes[after.0].control_inputs.push(before);
        self.invalidate_plans();
        Ok(())
    }

    /// The set of nodes needed to produce `fetches` (reverse reachability
    /// over data + control edges), as a sorted id list.
    pub fn required_for(&self, fetches: &[NodeId]) -> Vec<NodeId> {
        let mut needed = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = fetches.iter().map(|f| f.0).collect();
        while let Some(i) = stack.pop() {
            if needed[i] {
                continue;
            }
            needed[i] = true;
            let n = &self.nodes[i];
            for (inp, _) in &n.inputs {
                stack.push(inp.0);
            }
            for c in &n.control_inputs {
                stack.push(c.0);
            }
        }
        (0..self.nodes.len())
            .filter(|i| needed[*i])
            .map(NodeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(2.0));
        let b = g.constant(Tensor::scalar_f64(3.0));
        let c = g.add(a, b);
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(c).inputs, vec![(a, 0), (b, 0)]);
        assert_eq!(g.node(c).op.name(), "Add");
    }

    #[test]
    fn device_scopes_nest() {
        let mut g = Graph::new();
        let outer = g.constant(Tensor::scalar_f64(1.0));
        let (inner_cpu, inner_gpu) = g.with_device(Placement::Cpu, |g| {
            let c = g.constant(Tensor::scalar_f64(2.0));
            let gpu = g.with_device(Placement::Gpu(0), |g| g.constant(Tensor::scalar_f64(3.0)));
            (c, gpu)
        });
        let after = g.constant(Tensor::scalar_f64(4.0));
        assert_eq!(g.node(outer).device, Placement::Auto);
        assert_eq!(g.node(inner_cpu).device, Placement::Cpu);
        assert_eq!(g.node(inner_gpu).device, Placement::Gpu(0));
        assert_eq!(g.node(after).device, Placement::Auto);
    }

    #[test]
    fn required_for_prunes_unreachable() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        let _unused = g.constant(Tensor::scalar_f64(9.0));
        let b = g.neg(a);
        let needed = g.required_for(&[b]);
        assert_eq!(needed, vec![a, b]);
    }

    #[test]
    fn required_for_includes_control_deps() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        let side = g.assign("v", a);
        let b = g.neg(a);
        g.add_control(b, side).unwrap();
        let needed = g.required_for(&[b]);
        assert!(needed.contains(&side));
    }

    #[test]
    fn multi_output_taps() {
        let mut g = Graph::new();
        let parts = g.queue_dequeue("q", 3);
        assert_eq!(parts.len(), 3);
        // Each tap references a distinct output index of the dequeue.
        let dq = g.find("QueueDequeue_1").unwrap();
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(g.node(*p).inputs, vec![(dq, i)]);
        }
    }

    #[test]
    fn bad_output_index_rejected() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        let err = g.add_node(Op::Identity, vec![(a, 5)], vec![]).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)));
    }

    #[test]
    fn names_unique() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        let b = g.constant(Tensor::scalar_f64(2.0));
        assert_ne!(g.node(a).name, g.node(b).name);
        assert_eq!(g.find(&g.node(b).name.clone()), Some(b));
        assert_eq!(g.find("nope"), None);
    }
}
