//! Graph operations: the op vocabulary of the framework.

use crate::error::Result;
use crate::resources::Resources;
use std::sync::Arc;
use tfhpc_sim::device::Cost;
use tfhpc_tensor::{DType, Shape, Tensor};

/// Host-callback type for [`Op::PyFunc`].
pub type PyFuncBody = dyn Fn(&Resources, &[Tensor]) -> Result<Vec<Tensor>> + Send + Sync;

/// A custom operation kernel — the extension mechanism used by the
/// distributed runtime (Send/Recv) and by applications (`py_func`-style
/// host callbacks).
pub trait OpKernel: Send + Sync {
    /// Kernel name for diagnostics and timelines.
    fn name(&self) -> &str;
    /// Execute: consume input tensors, produce outputs.
    fn compute(&self, resources: &Resources, inputs: &[Tensor]) -> Result<Vec<Tensor>>;
    /// Modeled device cost (defaults to zero — pure control/host ops).
    fn cost(&self, _inputs: &[Tensor]) -> Cost {
        Cost::zero()
    }
    /// Whether a GPU kernel exists for this op.
    fn gpu_capable(&self) -> bool {
        false
    }
}

/// The built-in operation set.
///
/// This is the op vocabulary the paper's four applications need, plus
/// the framework ops (variables, queues, datasets) that make the
/// data-driven formulation possible.
#[derive(Clone)]
pub enum Op {
    /// Graph input fed at `Session::run` time.
    Placeholder {
        /// Expected element type.
        dtype: DType,
        /// Expected shape, if constrained.
        shape: Option<Shape>,
    },
    /// Embedded constant.
    Const {
        /// The constant value.
        value: Tensor,
    },
    /// `tf.random_uniform`.
    RandomUniform {
        /// Element type.
        dtype: DType,
        /// Output shape.
        shape: Shape,
        /// Graph-level seed.
        seed: u64,
    },
    /// Read a `tf.Variable`'s current value.
    VarRead {
        /// Variable name in the resource manager.
        var: String,
    },
    /// `var <- input`, returns the new value.
    Assign {
        /// Variable name.
        var: String,
    },
    /// `var <- var + input`, returns the new value (the STREAM op).
    AssignAdd {
        /// Variable name.
        var: String,
    },
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Negation.
    Neg,
    /// Multiply by a compile-time scalar.
    Scale {
        /// The scalar factor.
        factor: f64,
    },
    /// Multiply a tensor by a runtime rank-0 scalar (second input) —
    /// the CG update `alpha * p`.
    MulScalar,
    /// Sum of N same-shaped inputs.
    AddN,
    /// Dense matrix multiply.
    MatMul,
    /// Dense matrix-vector multiply.
    MatVec,
    /// Vector dot product (rank-0 output).
    Dot,
    /// Sum-reduce to a scalar.
    Sum,
    /// Max-reduce to a scalar.
    Max,
    /// Elementwise square root.
    Sqrt,
    /// 1-D complex FFT.
    Fft,
    /// Reshape to a static shape.
    Reshape {
        /// Target shape.
        shape: Shape,
    },
    /// Copy elements `[start, end)` of a rank-1 tensor.
    SliceRange {
        /// First element.
        start: usize,
        /// One past the last element.
        end: usize,
    },
    /// Copy rows `[start, end)` of a rank-2 tensor.
    SliceRows {
        /// First row.
        start: usize,
        /// One past the last row.
        end: usize,
    },
    /// Concatenate N rank-1 tensors.
    ConcatVecs,
    /// Transpose a rank-2 tensor.
    Transpose,
    /// Cast a float tensor to another float dtype (the paper's apps mix
    /// f32 tiles with f64 solvers).
    Cast {
        /// Target element type.
        to: DType,
    },
    /// Pass-through (device-transfer anchor).
    Identity,
    /// No output; groups control dependencies.
    NoOp,
    /// Push a tuple into a named FIFO queue.
    QueueEnqueue {
        /// Queue name.
        queue: String,
    },
    /// Pop a tuple from a named FIFO queue (one output per component).
    QueueDequeue {
        /// Queue name.
        queue: String,
        /// Number of tensors per queue element.
        arity: usize,
    },
    /// Pull the next element from a named dataset iterator.
    DatasetNext {
        /// Iterator name.
        iterator: String,
        /// Number of tensors per element.
        arity: usize,
    },
    /// Host-side callback (the `tf.py_func` escape hatch the paper uses
    /// for FFT merging and reducer logic).
    PyFunc {
        /// The callback.
        func: Arc<PyFuncBody>,
        /// Label for timelines.
        label: String,
        /// Number of outputs.
        outputs: usize,
        /// Modeled slowdown versus native memory bandwidth: input bytes
        /// are charged as `bytes * factor` of host memory traffic. The
        /// paper's FFT merge is throttled by exactly this Python tax
        /// (§VIII); 0 makes the callback free.
        host_cost_factor: f64,
    },
    /// Fully custom kernel.
    Custom(Arc<dyn OpKernel>),
}

impl Op {
    /// Op name as it appears in GraphDefs and timelines.
    pub fn name(&self) -> &str {
        match self {
            Op::Placeholder { .. } => "Placeholder",
            Op::Const { .. } => "Const",
            Op::RandomUniform { .. } => "RandomUniform",
            Op::VarRead { .. } => "VarRead",
            Op::Assign { .. } => "Assign",
            Op::AssignAdd { .. } => "AssignAdd",
            Op::Add => "Add",
            Op::Sub => "Sub",
            Op::Mul => "Mul",
            Op::Div => "Div",
            Op::Neg => "Neg",
            Op::Scale { .. } => "Scale",
            Op::MulScalar => "MulScalar",
            Op::AddN => "AddN",
            Op::MatMul => "MatMul",
            Op::MatVec => "MatVec",
            Op::Dot => "Dot",
            Op::Sum => "Sum",
            Op::Max => "Max",
            Op::Sqrt => "Sqrt",
            Op::Fft => "FFT",
            Op::Reshape { .. } => "Reshape",
            Op::SliceRange { .. } => "SliceRange",
            Op::SliceRows { .. } => "SliceRows",
            Op::ConcatVecs => "ConcatVecs",
            Op::Transpose => "Transpose",
            Op::Cast { .. } => "Cast",
            Op::Identity => "Identity",
            Op::NoOp => "NoOp",
            Op::QueueEnqueue { .. } => "QueueEnqueue",
            Op::QueueDequeue { .. } => "QueueDequeue",
            Op::DatasetNext { .. } => "DatasetNext",
            Op::PyFunc { .. } => "PyFunc",
            Op::Custom(k) => k.name(),
        }
    }

    /// Number of output tensors this op produces.
    pub fn n_outputs(&self) -> usize {
        match self {
            Op::NoOp | Op::QueueEnqueue { .. } => 0,
            Op::QueueDequeue { arity, .. } | Op::DatasetNext { arity, .. } => *arity,
            Op::PyFunc { outputs, .. } => *outputs,
            _ => 1,
        }
    }

    /// Whether a GPU kernel exists (drives simple placement).
    pub fn gpu_capable(&self) -> bool {
        match self {
            Op::Add
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
            | Op::Identity
            | Op::Reshape { .. }
            | Op::SliceRange { .. }
            | Op::SliceRows { .. }
            | Op::ConcatVecs
            | Op::RandomUniform { .. }
            | Op::VarRead { .. }
            | Op::Assign { .. }
            | Op::AssignAdd { .. } => true,
            Op::Custom(k) => k.gpu_capable(),
            _ => false,
        }
    }

    /// Whether the op can block on external progress (queue ops waiting
    /// for space/items) or consumes from a shared ordered stream
    /// (dataset iterators). Runs containing such ops execute on the
    /// sequential path: a blocking kernel must not tie up inter-op pool
    /// workers, and stream consumption order must stay deterministic.
    /// `PyFunc` and `Custom` kernels run arbitrary host code (the dist
    /// Send/Recv kernels and app reducers block on remote queues), so
    /// they are conservatively treated as blocking too.
    pub fn may_block(&self) -> bool {
        matches!(
            self,
            Op::QueueEnqueue { .. }
                | Op::QueueDequeue { .. }
                | Op::DatasetNext { .. }
                | Op::PyFunc { .. }
                | Op::Custom(_)
        )
    }

    /// Whether the op has side effects (must not be pruned and must
    /// execute even if its outputs are unused).
    pub fn stateful(&self) -> bool {
        matches!(
            self,
            Op::Assign { .. }
                | Op::AssignAdd { .. }
                | Op::QueueEnqueue { .. }
                | Op::QueueDequeue { .. }
                | Op::DatasetNext { .. }
                | Op::PyFunc { .. }
                | Op::Custom(_)
        )
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Op::{}", self.name())
    }
}
