//! Send/Recv rendezvous — the primitive TensorFlow's distributed
//! runtime inserts at cross-task graph edges (§II-B's C++ runtime
//! "handling communication across the network").
//!
//! A rendezvous channel matches [`send`]`(key, tensor)` against [`recv`]`(key)`
//! across tasks: the value is transferred over the cluster's modeled
//! transport and handed to the receiver, whichever side arrives first.
//! Keys follow TensorFlow's convention of naming producer, consumer and
//! edge, so the same graph edge used twice (two steps) gets two
//! distinct keys via the step counter.

use crate::cluster_spec::TaskKey;
use crate::server::Server;
use std::sync::Arc;
use tfhpc_core::{CoreError, OpKernel, Resources, Result};
use tfhpc_tensor::Tensor;

/// A rendezvous key: one logical tensor handoff.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RendezvousKey {
    /// Producing task.
    pub src: TaskKey,
    /// Consuming task.
    pub dst: TaskKey,
    /// Edge name (tensor name in the producing graph).
    pub edge: String,
    /// Step counter distinguishing successive executions.
    pub step: u64,
}

impl RendezvousKey {
    /// Build a key.
    pub fn new(src: TaskKey, dst: TaskKey, edge: &str, step: u64) -> RendezvousKey {
        RendezvousKey {
            src,
            dst,
            edge: edge.to_string(),
            step,
        }
    }

    /// The queue name backing this key on the consumer.
    fn channel(&self) -> String {
        format!(
            "rendezvous:{}->{};{};{}",
            self.src, self.dst, self.edge, self.step
        )
    }
}

/// One graph edge's rendezvous identity with the channel-name prefix
/// (`rendezvous:src->dst;edge;`) formatted once at construction.
/// Per-step channel names append only the step counter, so kernels
/// firing every step skip the repeated `TaskKey` Display formatting
/// that [`RendezvousKey::channel`] pays.
#[derive(Debug, Clone)]
pub struct RendezvousEdge {
    /// Producing task.
    pub src: TaskKey,
    /// Consuming task.
    pub dst: TaskKey,
    /// Edge name (tensor name in the producing graph).
    pub edge: String,
    /// Precomputed channel prefix — everything but the step counter.
    prefix: String,
}

impl RendezvousEdge {
    /// Build an edge, formatting the channel prefix once.
    pub fn new(src: TaskKey, dst: TaskKey, edge: &str) -> RendezvousEdge {
        let prefix = format!("rendezvous:{src}->{dst};{edge};");
        RendezvousEdge {
            src,
            dst,
            edge: edge.to_string(),
            prefix,
        }
    }

    /// The channel name for one step (prefix + step digits).
    fn channel(&self, step: u64) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(self.prefix.len() + 20);
        s.push_str(&self.prefix);
        let _ = write!(s, "{step}");
        s
    }

    /// [`send`] for this edge at `step`.
    pub fn send(
        &self,
        worker: &Arc<Server>,
        step: u64,
        value: Tensor,
        gpu: Option<usize>,
    ) -> Result<()> {
        send_channel(
            worker,
            &self.src,
            &self.dst,
            &self.channel(step),
            value,
            gpu,
        )
    }

    /// [`recv`] for this edge at `step`.
    pub fn recv(&self, worker: &Arc<Server>, step: u64, gpu: Option<usize>) -> Result<Tensor> {
        let channel = self.channel(step);
        let q = recv_queue_channel(worker, &self.dst, &channel)?;
        let tuple = q.dequeue()?;
        let tuple = verify_recv(worker, &channel, tuple)?;
        note_recv_channel(&channel);
        finish_recv(worker, tuple, gpu)
    }
}

/// Send `value` to the consumer named in `key`. Charges the transfer
/// (src residency `gpu`) and never blocks beyond transport time: the
/// rendezvous buffers one value per key.
pub fn send(
    worker: &Arc<Server>,
    key: &RendezvousKey,
    value: Tensor,
    gpu: Option<usize>,
) -> Result<()> {
    send_channel(worker, &key.src, &key.dst, &key.channel(), value, gpu)
}

/// [`send`] body over a pre-formatted channel name. The value is
/// framed with a CRC32C trailer before it lands in the consumer's
/// buffer; a corruption window active at send time fails verification
/// and `Server::call` retransmits from the pristine copy, unless the
/// consumer's breaker is open.
fn send_channel(
    worker: &Arc<Server>,
    src: &TaskKey,
    dst: &TaskKey,
    channel: &str,
    value: Tensor,
    gpu: Option<usize>,
) -> Result<()> {
    if worker.key != *src {
        return Err(CoreError::Invalid(format!(
            "send of {channel} from wrong task {}",
            worker.key
        )));
    }
    worker.call("rendezvous_send", Some(dst), || {
        let cluster = worker.try_cluster()?;
        if let Some(reason) = cluster.death_reason(dst) {
            return Err(CoreError::Unavailable(format!(
                "consumer {dst} is down: {reason}"
            )));
        }
        let route = worker.route_to(&cluster.server(dst)?)?;
        let peer = &route.peer;
        route.charge_transfer(worker, gpu, peer, None, value.byte_size() as u64);
        let verified = crate::wire::transfer(
            worker,
            &route,
            channel,
            &[worker.node, peer.node],
            std::slice::from_ref(&value),
        )?;
        let q = peer.resources.get_or_create_queue(channel, 1);
        q.enqueue(verified)?;
        tfhpc_obs::global()
            .counter("tfhpc_rendezvous_sends_total")
            .inc();
        let tr = tfhpc_obs::trace::global();
        if tr.is_enabled() {
            tr.flow_start(channel, tfhpc_obs::flow_id(channel));
        }
        Ok(())
    })
}

/// Receive the tensor for `key`, blocking until the producer sent it.
pub fn recv(worker: &Arc<Server>, key: &RendezvousKey, gpu: Option<usize>) -> Result<Tensor> {
    let channel = key.channel();
    let q = recv_queue_channel(worker, &key.dst, &channel)?;
    let tuple = q.dequeue()?;
    let tuple = verify_recv(worker, &channel, tuple)?;
    note_recv_channel(&channel);
    finish_recv(worker, tuple, gpu)
}

/// [`recv`] with a deadline: waits at most `timeout_s` (virtual
/// seconds under the DES, wall seconds otherwise). On expiry, returns
/// `Unavailable` when the producer is marked dead in the cluster (the
/// value will never arrive — callers may retry against a restarted
/// producer), else `DeadlineExceeded` (the producer may just be slow).
pub fn recv_deadline(
    worker: &Arc<Server>,
    key: &RendezvousKey,
    gpu: Option<usize>,
    timeout_s: f64,
) -> Result<Tensor> {
    let channel = key.channel();
    let q = recv_queue_channel(worker, &key.dst, &channel)?;
    match q.dequeue_timeout(timeout_s) {
        Ok(tuple) => {
            let tuple = verify_recv(worker, &channel, tuple)?;
            note_recv_channel(&channel);
            finish_recv(worker, tuple, gpu)
        }
        Err(CoreError::DeadlineExceeded(msg)) if worker.cluster().is_dead(&key.src) => Err(
            CoreError::Unavailable(format!("producer {} is down; {msg}", key.src)),
        ),
        Err(e) => Err(e),
    }
}

/// The consumer-side queue for a channel (validates the caller is the
/// consumer; the receiver always parks on its *own* queue).
fn recv_queue_channel(
    worker: &Arc<Server>,
    dst: &TaskKey,
    channel: &str,
) -> Result<Arc<tfhpc_core::FifoQueue>> {
    if worker.key != *dst {
        return Err(CoreError::Invalid(format!(
            "recv of {channel} on wrong task {}",
            worker.key
        )));
    }
    Ok(worker.resources.get_or_create_queue(channel, 1))
}

/// Verify a dequeued rendezvous tuple on the consumer side: the frame
/// check runs as a `Server::call`, so a corruption window active at
/// delivery time is ridden out by retransmitting from the buffered
/// pristine tuple instead of popping the queue again.
fn verify_recv(worker: &Arc<Server>, channel: &str, tuple: Vec<Tensor>) -> Result<Vec<Tensor>> {
    worker.call("rendezvous_recv", None, || {
        // Consumer-side landing check on the consumer's own link (the
        // producer job is not recoverable from the channel string;
        // rendezvous links are intra-job in practice).
        let own_link = worker.route_to(worker)?;
        crate::wire::transfer(worker, &own_link, channel, &[worker.node], &tuple)
    })
}

/// Count a completed receive and close its trace flow (the arrow from
/// the producer's send to this dequeue in the trace viewer).
fn note_recv_channel(channel: &str) {
    tfhpc_obs::global()
        .counter("tfhpc_rendezvous_recvs_total")
        .inc();
    let tr = tfhpc_obs::trace::global();
    if tr.is_enabled() {
        tr.flow_end(channel, tfhpc_obs::flow_id(channel));
    }
}

/// Unwrap a rendezvous tuple and land it on the consumer's GPU.
fn finish_recv(worker: &Arc<Server>, tuple: Vec<Tensor>, gpu: Option<usize>) -> Result<Tensor> {
    let value = tuple
        .into_iter()
        .next()
        .ok_or_else(|| CoreError::Invalid("empty rendezvous message".into()))?;
    if let Some(g) = gpu {
        // Land the tensor on the consumer's GPU.
        worker.devices.charge_transfer(
            tfhpc_core::Placement::Cpu,
            tfhpc_core::Placement::Gpu(g),
            value.byte_size() as u64,
        );
    }
    Ok(value)
}

/// Graph kernel sending its single input through the rendezvous (the
/// `_Send` node TensorFlow splits cross-device edges into). The edge's
/// channel prefix is formatted once at construction; each step only
/// appends the counter — key construction stays off the hot loop.
pub struct SendKernel {
    /// Local server.
    pub server: Arc<Server>,
    /// The rendezvous edge (this task → consumer).
    pub edge: RendezvousEdge,
    /// Source GPU residency.
    pub gpu: Option<usize>,
    /// Per-execution step counter.
    step: std::sync::atomic::AtomicU64,
}

impl SendKernel {
    /// Build a `_Send` kernel.
    pub fn new(server: Arc<Server>, dst: TaskKey, edge: &str, gpu: Option<usize>) -> SendKernel {
        let edge = RendezvousEdge::new(server.key.clone(), dst, edge);
        SendKernel {
            server,
            edge,
            gpu,
            step: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl OpKernel for SendKernel {
    fn name(&self) -> &str {
        "_Send"
    }

    fn compute(&self, _res: &Resources, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let step = self.step.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.edge
            .send(&self.server, step, inputs[0].clone(), self.gpu)?;
        Ok(vec![])
    }
}

/// Graph kernel receiving one tensor from the rendezvous (`_Recv`),
/// with the channel prefix precomputed like [`SendKernel`]'s.
pub struct RecvKernel {
    /// Local server.
    pub server: Arc<Server>,
    /// The rendezvous edge (producer → this task).
    pub edge: RendezvousEdge,
    /// Destination GPU residency.
    pub gpu: Option<usize>,
    step: std::sync::atomic::AtomicU64,
}

impl RecvKernel {
    /// Build a `_Recv` kernel.
    pub fn new(server: Arc<Server>, src: TaskKey, edge: &str, gpu: Option<usize>) -> RecvKernel {
        let edge = RendezvousEdge::new(src, server.key.clone(), edge);
        RecvKernel {
            server,
            edge,
            gpu,
            step: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl OpKernel for RecvKernel {
    fn name(&self) -> &str {
        "_Recv"
    }

    fn compute(&self, _res: &Resources, _inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let step = self.step.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(vec![self.edge.recv(&self.server, step, self.gpu)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_spec::ClusterSpec;
    use crate::server::TfCluster;
    use tfhpc_core::Graph;
    use tfhpc_sim::net::Protocol;

    fn pair() -> (Arc<TfCluster>, Arc<Server>, Arc<Server>) {
        let spec = ClusterSpec::new([
            ("a".to_string(), vec!["a:1".to_string()]),
            ("b".to_string(), vec!["b:1".to_string()]),
        ]);
        let c = TfCluster::new(spec, Protocol::Rdma, None);
        let a = c.start_server(TaskKey::new("a", 0), 0, vec![]);
        let b = c.start_server(TaskKey::new("b", 0), 1, vec![]);
        (c, a, b)
    }

    #[test]
    fn send_then_recv() {
        let (_c, a, b) = pair();
        let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "x", 0);
        send(&a, &key, Tensor::scalar_f64(5.0), None).unwrap();
        let got = recv(&b, &key, None).unwrap();
        assert_eq!(got.scalar_value_f64().unwrap(), 5.0);
    }

    #[test]
    fn recv_blocks_until_send() {
        let (_c, a, b) = pair();
        let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "y", 3);
        let (k2, b2) = (key.clone(), Arc::clone(&b));
        let h = std::thread::spawn(move || recv(&b2, &k2, None).unwrap());
        // The receiver parks on its own channel queue.
        let q = b.resources.get_or_create_queue(&key.channel(), 1);
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while q.parked().0 == 0 {
            assert!(std::time::Instant::now() < give_up, "receiver never parked");
            std::thread::yield_now();
        }
        send(&a, &key, Tensor::scalar_f64(9.0), None).unwrap();
        assert_eq!(h.join().unwrap().scalar_value_f64().unwrap(), 9.0);
    }

    #[test]
    fn steps_keep_values_separate() {
        let (_c, a, b) = pair();
        for step in 0..3u64 {
            let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "z", step);
            send(&a, &key, Tensor::scalar_i64(step as i64), None).unwrap();
        }
        // Receive out of order: each step's value is its own.
        for step in [2u64, 0, 1] {
            let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "z", step);
            let got = recv(&b, &key, None).unwrap();
            assert_eq!(got.scalar_value_i64().unwrap(), step as i64);
        }
    }

    #[test]
    fn recv_deadline_times_out_then_succeeds() {
        let (_c, a, b) = pair();
        let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "slow", 0);
        let err = recv_deadline(&b, &key, None, 0.02).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded(_)), "{err}");
        send(&a, &key, Tensor::scalar_f64(4.0), None).unwrap();
        let got = recv_deadline(&b, &key, None, 0.02).unwrap();
        assert_eq!(got.scalar_value_f64().unwrap(), 4.0);
    }

    #[test]
    fn recv_deadline_reports_dead_producer_as_unavailable() {
        let (c, a, b) = pair();
        let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "gone", 0);
        c.mark_dead(&a.key, "crashed");
        let err = recv_deadline(&b, &key, None, 0.02).unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)), "{err}");
        // And sending *to* a dead consumer fails fast.
        c.mark_dead(&b.key, "crashed too");
        let err = send(&a, &key, Tensor::scalar_f64(0.0), None).unwrap_err();
        assert!(matches!(err, CoreError::Unavailable(_)), "{err}");
    }

    #[test]
    fn wrong_task_rejected() {
        let (_c, a, b) = pair();
        let key = RendezvousKey::new(a.key.clone(), b.key.clone(), "w", 0);
        assert!(send(&b, &key, Tensor::scalar_f64(0.0), None).is_err());
        assert!(recv(&a, &key, None).is_err());
    }

    #[test]
    fn send_recv_kernels_split_a_graph_edge() {
        let (_c, a, b) = pair();
        // Producer graph on task a: c = 21, send(c).
        let mut ga = Graph::new();
        let c = ga.constant(Tensor::scalar_f64(21.0));
        let send_k: Arc<dyn OpKernel> = Arc::new(SendKernel::new(
            Arc::clone(&a),
            b.key.clone(),
            "edge0",
            None,
        ));
        let send_node = ga.custom(send_k, &[c], &[]);
        // Consumer graph on task b: recv -> double.
        let mut gb = Graph::new();
        let recv_k: Arc<dyn OpKernel> = Arc::new(RecvKernel::new(
            Arc::clone(&b),
            a.key.clone(),
            "edge0",
            None,
        ));
        let r = gb.custom(recv_k, &[], &[]);
        let doubled = gb.scale(r, 2.0);

        let sa = a.session(Arc::new(ga));
        let sb = b.session(Arc::new(gb));
        // Run both steps twice: the step counter separates executions.
        for _ in 0..2 {
            sa.run_no_fetch(&[send_node], &[]).unwrap();
            let out = sb.run(&[doubled], &[]).unwrap();
            assert_eq!(out[0].scalar_value_f64().unwrap(), 42.0);
        }
    }
}
