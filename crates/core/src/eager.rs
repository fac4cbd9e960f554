//! Eager execution — the imperative mode §II notes "will likely become
//! the default execution mode in future releases of TensorFlow" (and
//! the model PyTorch, §VII, is built on).
//!
//! An [`EagerContext`] executes ops immediately against a resource
//! manager and device context — no graph, no session. The same kernels
//! and the same cost accounting run underneath, so eager code is
//! virtual-time-accurate on simulated clusters too; what it gives up is
//! exactly what the paper credits to deferred execution: whole-graph
//! optimization and auto-parallelization.

use crate::device::{DeviceCtx, Placement};
use crate::error::Result;
use crate::kernels;
use crate::op::Op;
use crate::resources::Resources;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfhpc_tensor::{DType, Shape, Tensor};

/// Immediate-mode executor.
pub struct EagerContext {
    resources: Arc<Resources>,
    devices: DeviceCtx,
    default_device: Placement,
    op_counter: AtomicU64,
}

impl EagerContext {
    /// Eager context over a resource manager and device context.
    pub fn new(resources: Arc<Resources>, devices: DeviceCtx) -> EagerContext {
        EagerContext {
            resources,
            devices,
            default_device: Placement::Auto,
            op_counter: AtomicU64::new(0),
        }
    }

    /// Host-only context for quick interactive use.
    pub fn cpu() -> EagerContext {
        EagerContext::new(Resources::new(), DeviceCtx::real(0))
    }

    /// The resource manager (variables persist across calls).
    pub fn resources(&self) -> &Arc<Resources> {
        &self.resources
    }

    /// Pin subsequent ops to `device` (eager `tf.device`).
    pub fn set_device(&mut self, device: Placement) {
        self.default_device = device;
    }

    /// Execute one op immediately, charging device time in sim mode.
    pub fn execute(&self, op: &Op, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let placement = self
            .devices
            .resolve(self.default_device, op.gpu_capable())?;
        // Input residency: eager inputs live on the host between calls,
        // so GPU ops pay the staging both ways (the per-op transfer
        // overhead deferred graphs avoid by chaining on-device).
        if self.devices.sim.is_some() {
            let in_bytes: u64 = inputs.iter().map(|t| t.byte_size() as u64).sum();
            self.devices
                .charge_transfer(Placement::Cpu, placement, in_bytes);
        }
        let seed = self.op_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut outputs = Vec::new();
        kernels::execute(op, inputs, &self.resources, seed, &mut outputs)?;
        let cost = kernels::cost_of(op, inputs, &outputs);
        let dp = kernels::is_double_precision(inputs, &outputs);
        self.devices.charge_kernel(placement, &cost, dp);
        if self.devices.sim.is_some() {
            let out_bytes: u64 = outputs.iter().map(|t| t.byte_size() as u64).sum();
            self.devices
                .charge_transfer(placement, Placement::Cpu, out_bytes);
        }
        Ok(outputs)
    }

    fn one(&self, op: &Op, inputs: &[Tensor]) -> Result<Tensor> {
        Ok(self.execute(op, inputs)?.remove(0))
    }

    // ---- the imperative op surface ----------------------------------------

    /// `a + b`.
    pub fn add(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.one(&Op::Add, &[a.clone(), b.clone()])
    }

    /// `a - b`.
    pub fn sub(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.one(&Op::Sub, &[a.clone(), b.clone()])
    }

    /// Elementwise `a * b`.
    pub fn mul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.one(&Op::Mul, &[a.clone(), b.clone()])
    }

    /// `a · b` matrix product.
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.one(&Op::MatMul, &[a.clone(), b.clone()])
    }

    /// Dot product.
    pub fn dot(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.one(&Op::Dot, &[a.clone(), b.clone()])
    }

    /// 1-D FFT.
    pub fn fft(&self, a: &Tensor) -> Result<Tensor> {
        self.one(&Op::Fft, std::slice::from_ref(a))
    }

    /// Fresh uniform sample.
    pub fn random_uniform(&self, dtype: DType, shape: impl Into<Shape>) -> Result<Tensor> {
        self.one(
            &Op::RandomUniform {
                dtype,
                shape: shape.into(),
                seed: 0x0EA6E4,
            },
            &[],
        )
    }

    /// Create or overwrite a variable.
    pub fn variable(&self, name: &str, init: Tensor) {
        self.resources.create_variable(name, init);
    }

    /// Read a variable.
    pub fn read(&self, name: &str) -> Result<Tensor> {
        self.one(&Op::VarRead { var: name.into() }, &[])
    }

    /// `var += value`.
    pub fn assign_add(&self, name: &str, value: &Tensor) -> Result<Tensor> {
        self.one(
            &Op::AssignAdd { var: name.into() },
            std::slice::from_ref(value),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn imperative_arithmetic() {
        let ctx = EagerContext::cpu();
        let a = Tensor::from_f64([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_f64([2], vec![3.0, 4.0]).unwrap();
        let c = ctx.add(&a, &b).unwrap();
        let d = ctx.mul(&c, &c).unwrap();
        assert_eq!(d.as_f64().unwrap(), &[16.0, 36.0]);
        assert_eq!(ctx.dot(&a, &b).unwrap().scalar_value_f64().unwrap(), 11.0);
    }

    #[test]
    fn variables_persist_across_calls() {
        let ctx = EagerContext::cpu();
        ctx.variable("acc", Tensor::scalar_f64(0.0));
        for _ in 0..4 {
            ctx.assign_add("acc", &Tensor::scalar_f64(2.5)).unwrap();
        }
        assert_eq!(ctx.read("acc").unwrap().scalar_value_f64().unwrap(), 10.0);
    }

    #[test]
    fn random_resamples_every_call() {
        let ctx = EagerContext::cpu();
        let a = ctx.random_uniform(DType::F64, [8]).unwrap();
        let b = ctx.random_uniform(DType::F64, [8]).unwrap();
        assert_ne!(a.as_f64().unwrap(), b.as_f64().unwrap());
    }

    #[test]
    fn eager_matches_graph_mode_result() {
        // Same computation, both modes, same answer.
        let a = Tensor::from_f64([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_f64([2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let ctx = EagerContext::cpu();
        let eager = ctx.matmul(&a, &b).unwrap();

        let mut g = crate::graph::Graph::new();
        let ca = g.constant(a);
        let cb = g.constant(b);
        let cc = g.matmul(ca, cb);
        let sess = crate::session::Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(0));
        let graph = sess.run(&[cc], &[]).unwrap().remove(0);
        assert_eq!(eager.as_f64().unwrap(), graph.as_f64().unwrap());
    }

    #[test]
    fn eager_pays_per_op_transfers_in_sim() {
        // Paper's §II rationale for graph mode: eager chains move data
        // host<->device on every op. Verify the modeled penalty exists.
        use tfhpc_sim::des::Sim;
        use tfhpc_sim::platform;
        use tfhpc_sim::topology::ClusterSim;

        let elapsed = Arc::new(Mutex::new((0.0f64, 0.0f64)));
        let e2 = Arc::clone(&elapsed);
        let sim = Sim::new();
        {
            let sim2 = Arc::clone(&sim);
            sim.spawn("eager-vs-graph", move || {
                let cluster = Arc::new(ClusterSim::new(&sim2, platform::tegner_k80(), 1));
                let devices = DeviceCtx::simulated(Arc::clone(&cluster), 0, vec![0]);
                let me = tfhpc_sim::des::current().unwrap();
                let a = Tensor::synthetic(DType::F32, [2048, 2048], 1);

                // Eager: three chained multiplies, host round trip each.
                let ctx = EagerContext::new(Resources::new(), devices.clone());
                let t0 = me.now();
                let x = ctx.matmul(&a, &a).unwrap();
                let y = ctx.matmul(&x, &a).unwrap();
                let _ = ctx.matmul(&y, &a).unwrap();
                let eager_t = me.now() - t0;

                // Graph: the same chain stays on-device.
                let mut g = crate::graph::Graph::new();
                let ca = g.constant(a);
                let x = g.matmul(ca, ca);
                let y = g.matmul(x, ca);
                let z = g.matmul(y, ca);
                let sess = crate::session::Session::new(Arc::new(g), Resources::new(), devices);
                let t1 = me.now();
                sess.run(&[z], &[]).unwrap();
                let graph_t = me.now() - t1;
                *e2.lock() = (eager_t, graph_t);
            });
        }
        sim.run();
        let (eager_t, graph_t) = *elapsed.lock();
        assert!(
            eager_t > graph_t,
            "eager {eager_t}s should exceed graph {graph_t}s"
        );
    }
}
