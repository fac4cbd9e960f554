//! All-reduce collectives — the Horovod-style algorithms §VIII points
//! to as the fix for the parameter-server model's scalability limits
//! ("Uber's Horovod and Cray's Machine Learning Plugin ... enable ...
//! MPI like interfaces ... for functions such as allreduce without
//! needing the use of dedicated servers").
//!
//! Three algorithms move the bytes; all obey the **fixed
//! reduction-order contract** of [`crate::reducer::canonical_reduce`]
//! (canonical binomial order over worker indices), so for identical
//! inputs every algorithm — and the central queue-pair reducer —
//! produces bit-identical results:
//!
//! * [`ring_all_reduce`] — reduce-scatter + all-gather over a ring.
//!   `2(P−1)` steps of `~n/P`-element messages per worker: per-worker
//!   traffic `~2n` independent of P, bandwidth-optimal for large
//!   payloads. To keep the canonical combine order (a rotation of the
//!   ring visits workers out of index order), in-flight messages carry
//!   the *aligned binomial partial blocks* of the contributions folded
//!   so far instead of one opaque accumulator — at most
//!   `⌈log2 P⌉ + 1` chunk-sized partials per hop, the classic
//!   reproducible-allreduce carry-save representation.
//! * [`tree_all_reduce`] — binomial reduce to `group[0]` + binomial
//!   broadcast. `2⌈log2 P⌉` full-payload message rounds: latency-
//!   optimal for small payloads, where the per-message α dominates.
//! * [`rhd_all_reduce`] — recursive halving-doubling (Rabenseifner):
//!   vector-halving reduce-scatter with distance doubling, then a
//!   mirrored all-gather. `2 log2 P` rounds moving `~2n` bytes total:
//!   bandwidth-optimal with log-latency for power-of-two groups.
//!
//! [`all_reduce_auto`] picks among them per call from payload size,
//! group size and the active link's measured α/β profile (the
//! `bench_transport` sweep maps the actual crossover points).
//!
//! Every collective send is verified through the wire integrity plane
//! ([`crate::wire`]): an injected corruption window surfaces as
//! transient `DataLoss` and `Server::call` retransmits from the
//! sender's pristine copy.

use crate::cluster_spec::TaskKey;
use crate::membership::Membership;
use crate::reducer::ReduceOp;
use crate::server::Server;
use std::sync::Arc;
use tfhpc_core::{CoreError, Result};
use tfhpc_tensor::{ops, Tensor};

/// Balanced chunk boundaries: `n` elements into `parts` ranges.
fn chunk_bounds(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

fn ring_queue(step_kind: &str, to: usize) -> String {
    format!("ring.{step_kind}.{to}")
}

/// One partial reduction over the aligned worker-index block
/// `[start, start+len)` — the carry-save unit the canonical ring ships.
struct Block {
    start: usize,
    len: usize,
    t: Tensor,
}

/// The partial blocks accumulated for one chunk, kept sorted by start
/// and carry-merged: whenever two adjacent blocks form a canonical
/// binomial node (`[a, a+2^k)` + `[a+2^k, min(a+2^{k+1}, P))` with `a`
/// aligned to `2^{k+1}`), they are combined lower-index-block first —
/// exactly the order [`crate::reducer::canonical_reduce`] uses.
struct Blockset(Vec<Block>);

impl Blockset {
    fn leaf(worker: usize, t: Tensor) -> Blockset {
        Blockset(vec![Block {
            start: worker,
            len: 1,
            t,
        }])
    }

    fn absorb(&mut self, incoming: Vec<Block>, p: usize, op: ReduceOp) -> Result<()> {
        self.0.extend(incoming);
        self.0.sort_by_key(|b| b.start);
        loop {
            let mut merged = false;
            let mut i = 0;
            while i + 1 < self.0.len() {
                let (a, la) = (self.0[i].start, self.0[i].len);
                let (b, lb) = (self.0[i + 1].start, self.0[i + 1].len);
                let sibling = b == a + la
                    && la.is_power_of_two()
                    && a % (2 * la) == 0
                    && b + lb == (a + 2 * la).min(p);
                if sibling {
                    let hi = self.0.remove(i + 1);
                    let combined = op.combine(&self.0[i].t, &hi.t)?;
                    self.0[i].len = la + lb;
                    self.0[i].t = combined;
                    merged = true;
                } else {
                    i += 1;
                }
            }
            if !merged {
                return Ok(());
            }
        }
    }

    /// Wire encoding: `[meta, t_0, ..., t_{k-1}]` with `meta` an i64
    /// tensor of `(start, len)` pairs in block order.
    fn into_tuple(self) -> Result<Vec<Tensor>> {
        let mut meta = Vec::with_capacity(self.0.len() * 2);
        for b in &self.0 {
            meta.push(b.start as i64);
            meta.push(b.len as i64);
        }
        let mut tuple = Vec::with_capacity(self.0.len() + 1);
        tuple.push(Tensor::from_i64([meta.len()], meta)?);
        tuple.extend(self.0.into_iter().map(|b| b.t));
        Ok(tuple)
    }

    fn blocks_from_tuple(tuple: Vec<Tensor>) -> Result<Vec<Block>> {
        let mut it = tuple.into_iter();
        let meta = it
            .next()
            .ok_or_else(|| CoreError::Invalid("empty ring message".into()))?
            .as_i64()?
            .to_vec();
        let mut blocks = Vec::with_capacity(meta.len() / 2);
        for (pair, t) in meta.chunks_exact(2).zip(it) {
            blocks.push(Block {
                start: pair[0] as usize,
                len: pair[1] as usize,
                t,
            });
        }
        Ok(blocks)
    }

    fn into_root(self, p: usize) -> Result<Tensor> {
        let mut it = self.0.into_iter();
        match (it.next(), it.next()) {
            (Some(b), None) if b.start == 0 && b.len == p => Ok(b.t),
            _ => Err(CoreError::Invalid(
                "ring reduce-scatter did not converge to the root block".into(),
            )),
        }
    }
}

/// Send `tuple` into `queue` on `peer`, paying the modeled transfer and
/// verifying through the wire integrity plane. A corruption window
/// surfaces as transient `DataLoss`; `Server::call` retransmits from
/// the pristine copy, re-charging the wire each time like a real
/// retransmitting transport.
fn verified_send(
    worker: &Arc<Server>,
    peer: &Arc<Server>,
    what: &str,
    queue: &str,
    cap: usize,
    gpu: Option<usize>,
    tuple: Vec<Tensor>,
) -> Result<()> {
    // Receiver-side queue (created on demand so arrival order between
    // group members does not matter).
    let q = peer.resources.get_or_create_queue(queue, cap);
    let bytes: u64 = tuple.iter().map(|t| t.byte_size() as u64).sum();
    worker.call(what, Some(&peer.key), || {
        let route = worker.route_to(peer)?;
        route.charge_transfer(worker, gpu, peer, None, bytes);
        let verified =
            crate::wire::transfer(worker, &route, what, &[worker.node, peer.node], &tuple)?;
        q.enqueue(verified)
    })
}

/// Participate in a ring all-reduce (sum) over `group`.
///
/// `my` is this worker's index in `group`; `value` must be a rank-1
/// tensor of identical length on every participant. Blocks until the
/// reduction completes; returns the full reduced vector, bit-identical
/// to the central reducer's canonical fold.
pub fn ring_all_reduce(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my: usize,
    value: Tensor,
    gpu: Option<usize>,
) -> Result<Tensor> {
    ring_all_reduce_op(worker, group, my, value, gpu, ReduceOp::Sum)
}

/// [`ring_all_reduce`] with an explicit reduction operator.
pub fn ring_all_reduce_op(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my: usize,
    value: Tensor,
    gpu: Option<usize>,
    op: ReduceOp,
) -> Result<Tensor> {
    let p = group.len();
    if p == 0 || my >= p {
        return Err(CoreError::Invalid(format!(
            "bad ring membership: {my} of {p}"
        )));
    }
    if value.shape().rank() != 1 {
        return Err(CoreError::Invalid(
            "ring_all_reduce expects rank-1 tensors".into(),
        ));
    }
    if p == 1 {
        return Ok(value);
    }
    let n = value.num_elements();
    let bounds = chunk_bounds(n, p);
    let empty = |idx: usize| bounds[idx].0 == bounds[idx].1;
    let right = (my + 1) % p;
    let cluster = worker.cluster();
    let right_server = cluster.server(&group[right])?;

    // My queue must exist before my left neighbour pushes into it.
    worker
        .resources
        .get_or_create_queue(&ring_queue("rs", my), 2);
    worker
        .resources
        .get_or_create_queue(&ring_queue("ag", my), 2);

    let mut chunks: Vec<Tensor> = bounds
        .iter()
        .map(|(s, e)| value.slice_range(*s, *e))
        .collect::<std::result::Result<_, _>>()?;
    let mut sets: Vec<Option<Blockset>> = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| (!empty(i)).then(|| Blockset::leaf(my, c.clone())))
        .collect();

    let send = |kind: &str, tuple: Vec<Tensor>| -> Result<()> {
        verified_send(
            worker,
            &right_server,
            "ring_all_reduce",
            &ring_queue(kind, right),
            2,
            gpu,
            tuple,
        )
    };
    let recv = |kind: &str| -> Result<Vec<Tensor>> {
        worker
            .resources
            .get_or_create_queue(&ring_queue(kind, my), 2)
            .dequeue()
    };

    // Phase 1 — reduce-scatter: after P−1 steps, chunk (my+1) mod P
    // holds the full canonical fold at this worker. Zero-length chunks
    // (P > n) move no messages at all: both endpoints compute the same
    // bounds, so neither sends nor waits.
    for step in 0..p - 1 {
        let send_idx = (my + p - step) % p;
        let recv_idx = (my + p - step - 1) % p;
        if !empty(send_idx) {
            let outgoing = sets[send_idx]
                .take()
                .ok_or_else(|| CoreError::Invalid("ring chunk sent twice".into()))?;
            send("rs", outgoing.into_tuple()?)?;
        }
        if !empty(recv_idx) {
            let incoming = Blockset::blocks_from_tuple(recv("rs")?)?;
            let mine = sets[recv_idx]
                .as_mut()
                .ok_or_else(|| CoreError::Invalid("ring chunk received twice".into()))?;
            mine.absorb(incoming, p, op)?;
        }
    }
    let done = (my + 1) % p;
    if !empty(done) {
        chunks[done] = sets[done]
            .take()
            .ok_or_else(|| CoreError::Invalid("ring finished chunk missing".into()))?
            .into_root(p)?;
    }

    // Phase 2 — all-gather: circulate the finished chunks.
    for step in 0..p - 1 {
        let send_idx = (my + 1 + p - step) % p;
        let recv_idx = (my + p - step) % p;
        if !empty(send_idx) {
            send("ag", vec![chunks[send_idx].clone()])?;
        }
        if !empty(recv_idx) {
            chunks[recv_idx] = recv("ag")?
                .into_iter()
                .next()
                .ok_or_else(|| CoreError::Invalid("empty ring message".into()))?;
        }
    }

    Tensor::concat_vecs(&chunks).map_err(CoreError::from)
}

/// Participate in a binomial-tree all-reduce over `group`: reduce to
/// `group[0]` in `⌈log2 P⌉` rounds, then binomial broadcast back.
/// Latency-optimal: `2⌈log2 P⌉` full-payload messages on the critical
/// path versus the ring's `2(P−1)`. Works for any group size; result
/// is bit-identical to the central reducer's canonical fold (each tree
/// combine *is* a canonical binomial node, lower-index subtree first).
pub fn tree_all_reduce(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my: usize,
    value: Tensor,
    gpu: Option<usize>,
    op: ReduceOp,
) -> Result<Tensor> {
    let p = group.len();
    if p == 0 || my >= p {
        return Err(CoreError::Invalid(format!(
            "bad tree membership: {my} of {p}"
        )));
    }
    if value.shape().rank() != 1 {
        return Err(CoreError::Invalid(
            "tree_all_reduce expects rank-1 tensors".into(),
        ));
    }
    if p == 1 {
        return Ok(value);
    }
    let cluster = worker.cluster();
    let send_to = |peer_idx: usize, queue: String, t: Tensor| -> Result<()> {
        let peer = cluster.server(&group[peer_idx])?;
        verified_send(worker, &peer, "tree_all_reduce", &queue, 2, gpu, vec![t])
    };
    let recv_on = |queue: String| -> Result<Tensor> {
        worker
            .resources
            .get_or_create_queue(&queue, 2)
            .dequeue()?
            .into_iter()
            .next()
            .ok_or_else(|| CoreError::Invalid("empty tree message".into()))
    };

    // Reduce phase. Round k pairs `w` (receiver, `w % 2^{k+1} == 0`)
    // with `w + 2^k` (sender); the sender's accumulator covers worker
    // block `[w+2^k, min(w+2^{k+1}, P))`, so `combine(mine, theirs)`
    // forms exactly the canonical binomial node. Per-round queues pin
    // the pairing: a grandchild finishing early can never be mistaken
    // for a child's message.
    let mut acc = value;
    let mut k = 0;
    while (1 << k) < p {
        let bit = 1usize << k;
        if my.is_multiple_of(bit << 1) {
            if my + bit < p {
                let incoming = recv_on(format!("tree.red.{my}.{k}"))?;
                acc = op.combine(&acc, &incoming)?;
            }
        } else {
            // `my`'s lowest set bit is k: ship the subtree sum upward
            // and wait for the broadcast.
            send_to(my - bit, format!("tree.red.{}.{k}", my - bit), acc)?;
            acc = recv_on(format!("tree.bc.{my}"))?;
            // Forward down my own subtree (rounds below k, mirrored).
            for j in (0..k).rev() {
                let child = my + (1 << j);
                if child < p {
                    send_to(child, format!("tree.bc.{child}"), acc.clone())?;
                }
            }
            return Ok(acc);
        }
        k += 1;
    }
    // Root: broadcast down the full tree.
    for j in (0..k).rev() {
        let child = 1usize << j;
        if child < p {
            send_to(child, format!("tree.bc.{child}"), acc.clone())?;
        }
    }
    Ok(acc)
}

/// Participate in a recursive halving-doubling all-reduce
/// (Rabenseifner's algorithm) over `group`, which must be a power-of-
/// two size: `log2 P` vector-halving exchange rounds (reduce-scatter)
/// followed by `log2 P` mirrored vector-doubling rounds (all-gather).
/// Total traffic `~2n` per worker like the ring, but only `2 log2 P`
/// message latencies. Bit-identical to the canonical fold: round-`k`
/// partners hold the two halves of a canonical binomial node and
/// combine lower-index-block first. Zero-length segments (`P > n`)
/// move no messages.
pub fn rhd_all_reduce(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my: usize,
    value: Tensor,
    gpu: Option<usize>,
    op: ReduceOp,
) -> Result<Tensor> {
    let p = group.len();
    if p == 0 || my >= p {
        return Err(CoreError::Invalid(format!(
            "bad rhd membership: {my} of {p}"
        )));
    }
    if !p.is_power_of_two() {
        return Err(CoreError::InvalidArgument(format!(
            "rhd_all_reduce requires a power-of-two group, got {p}"
        )));
    }
    if value.shape().rank() != 1 {
        return Err(CoreError::Invalid(
            "rhd_all_reduce expects rank-1 tensors".into(),
        ));
    }
    if p == 1 {
        return Ok(value);
    }
    let rounds = p.trailing_zeros() as usize;
    let cluster = worker.cluster();
    let exchange = |phase: &str,
                    k: usize,
                    partner: usize,
                    t: Option<Tensor>,
                    want_len: usize|
     -> Result<Option<Tensor>> {
        if let Some(t) = t {
            let peer = cluster.server(&group[partner])?;
            verified_send(
                worker,
                &peer,
                "rhd_all_reduce",
                &format!("rhd.{phase}.{partner}.{k}"),
                1,
                gpu,
                vec![t],
            )?;
        }
        if want_len == 0 {
            return Ok(None);
        }
        worker
            .resources
            .get_or_create_queue(&format!("rhd.{phase}.{my}.{k}"), 1)
            .dequeue()?
            .into_iter()
            .next()
            .map(Some)
            .ok_or_else(|| CoreError::Invalid("empty rhd message".into()))
    };

    // Reduce-scatter: at round k my segment is [lo, hi) (shared with
    // the partner, since it depends only on bits < k of the index);
    // keep one half, ship the other, combine in worker-block order.
    let n = value.num_elements();
    let mut acc = value;
    let (mut lo, mut hi) = (0usize, n);
    let mut parents: Vec<(usize, usize)> = Vec::with_capacity(rounds);
    for k in 0..rounds {
        let bit = 1usize << k;
        let partner = my ^ bit;
        parents.push((lo, hi));
        let mid = lo + (hi - lo).div_ceil(2);
        let (keep_lo, keep_hi, send_lo, send_hi) = if my & bit == 0 {
            (lo, mid, mid, hi)
        } else {
            (mid, hi, lo, mid)
        };
        let outgoing = (send_hi > send_lo)
            .then(|| acc.slice_range(send_lo - lo, send_hi - lo))
            .transpose()?;
        let kept = acc.slice_range(keep_lo - lo, keep_hi - lo)?;
        let incoming = exchange("rs", k, partner, outgoing, keep_hi - keep_lo)?;
        acc = match incoming {
            Some(theirs) if my & bit == 0 => op.combine(&kept, &theirs)?,
            Some(theirs) => op.combine(&theirs, &kept)?,
            None => kept,
        };
        lo = keep_lo;
        hi = keep_hi;
    }

    // All-gather: mirror the rounds; partners own the two halves of
    // the round's parent segment and swap them.
    let mut segments: Vec<Tensor> = vec![acc];
    let mut seg_lo = lo;
    for k in (0..rounds).rev() {
        let bit = 1usize << k;
        let partner = my ^ bit;
        let (plo, phi) = parents[k];
        let mid = plo + (phi - plo).div_ceil(2);
        let mine_is_lower = my & bit == 0;
        let (theirs_lo, theirs_hi) = if mine_is_lower {
            (mid, phi)
        } else {
            (plo, mid)
        };
        let outgoing = (hi > lo)
            .then(|| {
                if segments.len() == 1 {
                    Ok(segments[0].clone())
                } else {
                    Tensor::concat_vecs(&segments)
                }
            })
            .transpose()?;
        let incoming = exchange("ag", k, partner, outgoing, theirs_hi - theirs_lo)?;
        if let Some(theirs) = incoming {
            if theirs_lo < seg_lo {
                segments.insert(0, theirs);
                seg_lo = theirs_lo;
            } else {
                segments.push(theirs);
            }
        }
        lo = plo;
        hi = phi;
    }
    Tensor::concat_vecs(&segments).map_err(CoreError::from)
}

/// Which algorithm an all-reduce call used or should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllReduceAlgo {
    /// Bandwidth-optimal ring (any group size).
    Ring,
    /// Latency-optimal binomial tree (any group size).
    Tree,
    /// Recursive halving-doubling (power-of-two groups).
    Rhd,
}

impl AllReduceAlgo {
    /// Metrics/bench label.
    pub fn name(self) -> &'static str {
        match self {
            AllReduceAlgo::Ring => "ring",
            AllReduceAlgo::Tree => "tree",
            AllReduceAlgo::Rhd => "rhd",
        }
    }
}

/// The active link's measured latency/bandwidth profile: `alpha_s` per
/// message plus `beta_s_per_byte` per payload byte, probed from the
/// uncontended transfer model between the group's first two members
/// (every member probes the same canonical pair, so all members select
/// the same algorithm). Real-mode (un-simulated) clusters fall back to
/// Verbs-class constants.
pub fn link_profile(worker: &Arc<Server>, group: &[TaskKey]) -> (f64, f64) {
    const REAL_ALPHA_S: f64 = 2.0e-5;
    const REAL_BETA_S_PER_BYTE: f64 = 1.0 / 6.6e9;
    let profile = || -> Result<(f64, f64)> {
        let cluster = worker.try_cluster()?;
        let sim = cluster
            .sim
            .as_ref()
            .ok_or_else(|| CoreError::Unavailable("real mode".into()))?;
        let (a, b) = match group {
            [a, b, ..] => (cluster.server(a)?, cluster.server(b)?),
            _ => return Err(CoreError::Invalid("degenerate group".into())),
        };
        let path = sim.path(
            a.loc(None),
            b.loc(None),
            cluster.wire_protocol(&a.key.job, &b.key.job),
        );
        const PROBE_BYTES: u64 = 1 << 20;
        let alpha = path.uncontended_seconds(0);
        let beta = (path.uncontended_seconds(PROBE_BYTES) - alpha) / PROBE_BYTES as f64;
        Ok((alpha, beta.max(0.0)))
    };
    profile().unwrap_or((REAL_ALPHA_S, REAL_BETA_S_PER_BYTE))
}

/// Select the fastest all-reduce algorithm for `payload_bytes` over a
/// group of `p` members on a link with the given `(alpha, beta)`
/// profile, using the textbook cost models (documented in DESIGN.md §
/// "Transport & collectives"). Deterministic: ties prefer
/// Tree → RHD → Ring.
pub fn select_all_reduce(
    p: usize,
    payload_bytes: u64,
    alpha_s: f64,
    beta_s_per_byte: f64,
) -> AllReduceAlgo {
    if p <= 1 {
        return AllReduceAlgo::Tree;
    }
    let n = payload_bytes as f64;
    let logp = (usize::BITS - (p - 1).leading_zeros()) as f64; // ceil(log2 p)
    let pf = p as f64;
    let tree = 2.0 * logp * (alpha_s + n * beta_s_per_byte);
    let ring = 2.0 * (pf - 1.0) * (alpha_s + n / pf * beta_s_per_byte);
    let mut best = (tree, AllReduceAlgo::Tree);
    if p.is_power_of_two() {
        let rhd = 2.0 * logp * alpha_s + 2.0 * n * beta_s_per_byte * (pf - 1.0) / pf;
        if rhd < best.0 {
            best = (rhd, AllReduceAlgo::Rhd);
        }
    }
    if ring < best.0 {
        best = (ring, AllReduceAlgo::Ring);
    }
    best.1
}

/// Forced algorithm from `TFHPC_COLLECTIVE` (`auto`/`ring`/`tree`/
/// `rhd`); unset or `auto` keeps the cost-model choice, malformed is a
/// loud error per the env-knob contract.
fn env_collective() -> Result<Option<AllReduceAlgo>> {
    let Some(raw) = tfhpc_core::env::env_str("TFHPC_COLLECTIVE")? else {
        return Ok(None);
    };
    match raw.to_ascii_lowercase().as_str() {
        "auto" => Ok(None),
        "ring" => Ok(Some(AllReduceAlgo::Ring)),
        "tree" => Ok(Some(AllReduceAlgo::Tree)),
        "rhd" => Ok(Some(AllReduceAlgo::Rhd)),
        _ => Err(CoreError::InvalidArgument(format!(
            "TFHPC_COLLECTIVE=`{raw}` is not one of auto/ring/tree/rhd"
        ))),
    }
}

/// Run one all-reduce with an explicit algorithm.
pub fn all_reduce(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my: usize,
    value: Tensor,
    gpu: Option<usize>,
    op: ReduceOp,
    algo: AllReduceAlgo,
) -> Result<Tensor> {
    match algo {
        AllReduceAlgo::Ring => ring_all_reduce_op(worker, group, my, value, gpu, op),
        AllReduceAlgo::Tree => tree_all_reduce(worker, group, my, value, gpu, op),
        AllReduceAlgo::Rhd => rhd_all_reduce(worker, group, my, value, gpu, op),
    }
}

/// All-reduce with automatic algorithm selection from payload size,
/// group size and the active link's α/β profile ([`select_all_reduce`];
/// `TFHPC_COLLECTIVE` forces a choice). All candidates obey the fixed
/// reduction-order contract, so the selection never changes the bits —
/// only the schedule. The choice is exported as
/// `tfhpc_collective_selected_total{algo=...}`.
pub fn all_reduce_auto(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my: usize,
    value: Tensor,
    gpu: Option<usize>,
    op: ReduceOp,
) -> Result<Tensor> {
    let algo = match env_collective()? {
        Some(forced) => forced,
        None => {
            let (alpha, beta) = link_profile(worker, group);
            select_all_reduce(group.len(), value.byte_size() as u64, alpha, beta)
        }
    };
    tfhpc_obs::global()
        .counter_with("tfhpc_collective_selected_total", &[("algo", algo.name())])
        .inc();
    all_reduce(worker, group, my, value, gpu, op, algo)
}

/// Tuning for [`ring_all_reduce_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientRingOptions {
    /// Total seconds a member waits on one ring receive before
    /// declaring the round stalled and sweeping the membership table.
    pub recv_timeout_s: f64,
    /// How many times the ring may re-form over survivors before the
    /// reduction gives up with `DeadlineExceeded`.
    pub max_reforms: usize,
}

impl Default for ResilientRingOptions {
    fn default() -> Self {
        ResilientRingOptions {
            recv_timeout_s: 1.0,
            max_reforms: 2,
        }
    }
}

fn resilient_queue(round: usize, step_kind: &str, to: usize) -> String {
    format!("ring.r{round}.{step_kind}.{to}")
}

/// One attempt at a full ring round over `members` (round-scoped
/// queues). While parked on a receive, the member keeps heartbeating
/// `membership` in short ticks so a stalled ring never makes *healthy*
/// members look silent — only the actual straggler misses deadlines.
#[allow(clippy::too_many_arguments)]
fn resilient_round(
    worker: &Arc<Server>,
    members: &[TaskKey],
    my: usize,
    my_key: &TaskKey,
    round: usize,
    value: &Tensor,
    gpu: Option<usize>,
    membership: &Membership,
    opts: &ResilientRingOptions,
) -> Result<Tensor> {
    let p = members.len();
    if p == 1 {
        return Ok(value.clone());
    }
    let n = value.num_elements();
    let bounds = chunk_bounds(n, p);
    let right = (my + 1) % p;
    let cluster = worker.try_cluster()?;
    let right_server = cluster.server(&members[right])?;
    // Capacity 2p: a member can run at most a phase ahead of a slow
    // neighbour, so sends never block (only receives can stall).
    let cap = 2 * p;
    worker
        .resources
        .get_or_create_queue(&resilient_queue(round, "rs", my), cap);
    worker
        .resources
        .get_or_create_queue(&resilient_queue(round, "ag", my), cap);

    let mut chunks: Vec<Tensor> = bounds
        .iter()
        .map(|(s, e)| value.slice_range(*s, *e))
        .collect::<std::result::Result<_, _>>()?;

    let tick = membership.period_s().max(1e-4);
    let send = |kind: &str, chunk: Tensor| -> Result<()> {
        membership.beat(my_key, tfhpc_obs::now_seconds());
        let q = right_server
            .resources
            .get_or_create_queue(&resilient_queue(round, kind, right), cap);
        let route = worker.route_to(&right_server)?;
        route.charge_transfer(worker, gpu, &right_server, None, chunk.byte_size() as u64);
        q.enqueue(vec![chunk])
    };
    let recv = |kind: &str| -> Result<Tensor> {
        let q = worker
            .resources
            .get_or_create_queue(&resilient_queue(round, kind, my), cap);
        let mut waited = 0.0;
        let tuple = loop {
            membership.beat(my_key, tfhpc_obs::now_seconds());
            match q.dequeue_timeout(tick) {
                Ok(tuple) => break tuple,
                Err(CoreError::DeadlineExceeded(_)) => {
                    waited += tick;
                    if waited + 1e-12 >= opts.recv_timeout_s {
                        return Err(CoreError::DeadlineExceeded(format!(
                            "ring round {round}: no chunk after {waited:.6}s"
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        };
        tuple
            .into_iter()
            .next()
            .ok_or_else(|| CoreError::Invalid("empty ring message".into()))
    };

    for step in 0..p - 1 {
        let send_idx = (my + p - step) % p;
        let recv_idx = (my + p - step - 1) % p;
        send("rs", chunks[send_idx].clone())?;
        let incoming = recv("rs")?;
        chunks[recv_idx] = ops::add(&chunks[recv_idx], &incoming)?;
    }
    for step in 0..p - 1 {
        let send_idx = (my + 1 + p - step) % p;
        let recv_idx = (my + p - step) % p;
        send("ag", chunks[send_idx].clone())?;
        chunks[recv_idx] = recv("ag")?;
    }
    Tensor::concat_vecs(&chunks).map_err(CoreError::from)
}

/// [`ring_all_reduce`] with straggler mitigation through the membership
/// plane.
///
/// Every participant calls this with the same `group` and `membership`.
/// When a receive stalls past `opts.recv_timeout_s`, the stalled member
/// sweeps the membership deadlines: members whose heartbeats went
/// silent are declared `Dead` and ejected, and the ring *re-forms over
/// the survivors* on round-scoped queues. An ejected member observes
/// its own verdict and returns `Aborted` — its contribution is dropped
/// from the reduction, which is the degradation (not correctness-
/// preserving averaging) mode of Horovod-style elastic collectives.
///
/// Returns the reduced tensor together with the member set it was
/// reduced over.
pub fn ring_all_reduce_resilient(
    worker: &Arc<Server>,
    group: &[TaskKey],
    my_key: &TaskKey,
    value: Tensor,
    gpu: Option<usize>,
    membership: &Membership,
    opts: &ResilientRingOptions,
) -> Result<(Tensor, Vec<TaskKey>)> {
    if value.shape().rank() != 1 {
        return Err(CoreError::Invalid(
            "ring_all_reduce expects rank-1 tensors".into(),
        ));
    }
    let now = tfhpc_obs::now_seconds();
    for k in group {
        membership.join(k, now);
    }
    let mut survivors: Vec<TaskKey> = group
        .iter()
        .filter(|k| !membership.is_dead(k))
        .cloned()
        .collect();
    let mut round = 0;
    let mut reforms = 0;
    loop {
        if membership.is_dead(my_key) {
            return Err(CoreError::Aborted(format!(
                "{my_key} ejected from ring by the failure detector"
            )));
        }
        let my = survivors
            .iter()
            .position(|k| k == my_key)
            .ok_or_else(|| CoreError::Invalid(format!("{my_key} is not a ring member")))?;
        match resilient_round(
            worker, &survivors, my, my_key, round, &value, gpu, membership, opts,
        ) {
            Ok(t) => return Ok((t, survivors)),
            Err(CoreError::DeadlineExceeded(what)) => {
                // Deadline-sweep the detector, then drop every member
                // it has declared dead. State (not edge) based, so all
                // stalled survivors converge on the same next ring.
                membership.sweep(tfhpc_obs::now_seconds());
                if membership.is_dead(my_key) {
                    return Err(CoreError::Aborted(format!(
                        "{my_key} ejected from ring by the failure detector"
                    )));
                }
                let next: Vec<TaskKey> = survivors
                    .iter()
                    .filter(|k| !membership.is_dead(k))
                    .cloned()
                    .collect();
                if next.len() == survivors.len() {
                    return Err(CoreError::DeadlineExceeded(format!(
                        "ring stalled with no detectable failure: {what}"
                    )));
                }
                reforms += 1;
                if reforms > opts.max_reforms {
                    return Err(CoreError::DeadlineExceeded(format!(
                        "ring re-formed {} times without completing",
                        reforms - 1
                    )));
                }
                tfhpc_obs::global()
                    .counter("tfhpc_ring_reforms_total")
                    .inc();
                survivors = next;
                round += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_spec::ClusterSpec;
    use crate::server::TfCluster;
    use tfhpc_sim::net::Protocol;

    fn workers(p: usize) -> (Arc<TfCluster>, Vec<Arc<Server>>) {
        let spec = ClusterSpec::new([(
            "worker".to_string(),
            (0..p).map(|i| format!("n{i}:8888")).collect(),
        )]);
        let c = TfCluster::new(spec, Protocol::Rdma, None);
        let servers = (0..p)
            .map(|i| c.start_server(TaskKey::new("worker", i), i, vec![0]))
            .collect();
        (c, servers)
    }

    fn group(p: usize) -> Vec<TaskKey> {
        (0..p).map(|i| TaskKey::new("worker", i)).collect()
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        assert_eq!(chunk_bounds(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(chunk_bounds(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(chunk_bounds(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
    }

    fn run_ring(p: usize, n: usize) {
        let (_c, servers) = workers(p);
        let g = group(p);
        let mut handles = Vec::new();
        for (i, s) in servers.into_iter().enumerate() {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let v: Vec<f64> = (0..n).map(|k| (i * n + k) as f64).collect();
                let t = Tensor::from_f64([n], v).unwrap();
                ring_all_reduce(&s, &g, i, t, None).unwrap()
            }));
        }
        let results: Vec<Tensor> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Expected sum at element k: sum_i (i*n + k).
        let base: f64 = (0..p).map(|i| (i * n) as f64).sum();
        for r in &results {
            let rv = r.as_f64().unwrap();
            assert_eq!(rv.len(), n);
            for (k, x) in rv.iter().enumerate() {
                assert_eq!(*x, base + (p * k) as f64, "element {k}");
            }
        }
    }

    #[test]
    fn two_worker_ring() {
        run_ring(2, 8);
    }

    #[test]
    fn four_worker_ring_uneven_chunks() {
        run_ring(4, 10); // 10 % 4 != 0
    }

    #[test]
    fn eight_worker_ring() {
        run_ring(8, 64);
    }

    /// Run `algo` on `p` threads over length-`n` payloads and check
    /// every member's result is bit-identical to the central
    /// reducer's canonical fold of the same leaves.
    fn run_algo(algo: AllReduceAlgo, p: usize, n: usize, op: ReduceOp) {
        let (_c, servers) = workers(p);
        let g = group(p);
        let leaf = move |i: usize| {
            let v: Vec<f64> = (0..n)
                .map(|k| {
                    ((i * n + k) as f64)
                        * if (i + k).is_multiple_of(3) {
                            -1.5
                        } else {
                            0.25
                        }
                })
                .collect();
            Tensor::from_f64([n], v).unwrap()
        };
        let expected = crate::reducer::canonical_reduce(op, (0..p).map(leaf).collect())
            .unwrap()
            .as_f64()
            .unwrap()
            .to_vec();
        let mut handles = Vec::new();
        for (i, s) in servers.into_iter().enumerate() {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                all_reduce(&s, &g, i, leaf(i), None, op, algo).unwrap()
            }));
        }
        for h in handles {
            let r = h.join().unwrap();
            let bits: Vec<u64> = r.as_f64().unwrap().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = expected.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, want, "{}: p={p} n={n} {}", algo.name(), op.name());
        }
    }

    #[test]
    fn tree_matches_central_reducer() {
        for p in [2, 3, 5, 8] {
            run_algo(AllReduceAlgo::Tree, p, 7, ReduceOp::Sum);
        }
    }

    #[test]
    fn rhd_matches_central_reducer() {
        for p in [2, 4, 8] {
            run_algo(AllReduceAlgo::Rhd, p, 10, ReduceOp::Sum);
        }
    }

    #[test]
    fn ring_matches_central_reducer() {
        for p in [2, 3, 4, 6] {
            run_algo(AllReduceAlgo::Ring, p, 9, ReduceOp::Sum);
        }
    }

    #[test]
    fn min_max_parity_across_algorithms() {
        for op in [ReduceOp::Min, ReduceOp::Max] {
            run_algo(AllReduceAlgo::Ring, 5, 11, op);
            run_algo(AllReduceAlgo::Tree, 5, 11, op);
            run_algo(AllReduceAlgo::Rhd, 4, 11, op);
        }
    }

    #[test]
    fn more_workers_than_elements() {
        // P > n: some ring chunks and RHD segments are empty; no
        // zero-length messages may be exchanged (they would wedge the
        // empty-skip protocol on the peer side).
        run_algo(AllReduceAlgo::Ring, 6, 2, ReduceOp::Sum);
        run_algo(AllReduceAlgo::Ring, 4, 1, ReduceOp::Sum);
        run_algo(AllReduceAlgo::Rhd, 8, 3, ReduceOp::Sum);
        run_algo(AllReduceAlgo::Tree, 6, 2, ReduceOp::Sum);
    }

    #[test]
    fn rhd_rejects_non_power_of_two() {
        let (_c, servers) = workers(3);
        let t = Tensor::from_f64([4], vec![0.0; 4]).unwrap();
        let err = rhd_all_reduce(&servers[0], &group(3), 0, t, None, ReduceOp::Sum).unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn auto_selects_by_size_and_matches() {
        // Small payloads on a latency-heavy link → tree; large → ring
        // or RHD. Either way the bits must match the canonical fold.
        run_algo_auto(4, 2);
        run_algo_auto(4, 4096);
    }

    fn run_algo_auto(p: usize, n: usize) {
        let (_c, servers) = workers(p);
        let g = group(p);
        let leaf = move |i: usize| {
            let v: Vec<f64> = (0..n).map(|k| (i * n + k) as f64).collect();
            Tensor::from_f64([n], v).unwrap()
        };
        let expected = crate::reducer::canonical_reduce(ReduceOp::Sum, (0..p).map(leaf).collect())
            .unwrap()
            .as_f64()
            .unwrap()
            .to_vec();
        let mut handles = Vec::new();
        for (i, s) in servers.into_iter().enumerate() {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                all_reduce_auto(&s, &g, i, leaf(i), None, ReduceOp::Sum).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().as_f64().unwrap(), &expected[..]);
        }
    }

    #[test]
    fn selection_cost_model_crossover() {
        // Verbs-class profile: 20 µs latency, ~6.6 GB/s.
        let (a, b) = (2.0e-5, 1.0 / 6.6e9);
        // Power-of-two groups: RHD dominates tree outright (same
        // latency term, smaller bandwidth term) and beats the ring's
        // 2(P−1) latencies everywhere — tiny or huge.
        assert_eq!(select_all_reduce(8, 64, a, b), AllReduceAlgo::Rhd);
        assert_eq!(select_all_reduce(8, 64 << 20, a, b), AllReduceAlgo::Rhd);
        // Non-power-of-two small → tree (latency-optimal), large →
        // ring (bandwidth-optimal).
        assert_eq!(select_all_reduce(6, 64, a, b), AllReduceAlgo::Tree);
        assert_eq!(select_all_reduce(6, 64 << 20, a, b), AllReduceAlgo::Ring);
    }

    #[test]
    fn single_worker_is_identity() {
        let (_c, servers) = workers(1);
        let t = Tensor::from_f64([3], vec![1.0, 2.0, 3.0]).unwrap();
        let r = ring_all_reduce(&servers[0], &group(1), 0, t.clone(), None).unwrap();
        assert_eq!(r.as_f64().unwrap(), t.as_f64().unwrap());
    }

    #[test]
    fn bad_membership_rejected() {
        let (_c, servers) = workers(2);
        let t = Tensor::from_f64([2], vec![0.0, 0.0]).unwrap();
        assert!(ring_all_reduce(&servers[0], &group(2), 5, t.clone(), None).is_err());
        let m = Tensor::zeros(tfhpc_tensor::DType::F64, [2, 2]);
        assert!(ring_all_reduce(&servers[0], &group(2), 0, m, None).is_err());
    }

    type RingResult = Result<(Tensor, Vec<TaskKey>)>;

    #[test]
    fn straggler_is_ejected_and_ring_reforms_in_sim() {
        let sim = tfhpc_sim::des::Sim::new();
        let (_c, servers) = workers(3);
        let g = group(3);
        let m = Arc::new(Membership::new(0.01, 0.05));
        let opts = ResilientRingOptions {
            recv_timeout_s: 0.1,
            max_reforms: 2,
        };
        let results: Arc<parking_lot::Mutex<Vec<Option<RingResult>>>> =
            Arc::new(parking_lot::Mutex::new(vec![None, None, None]));
        for (i, s) in servers.iter().enumerate() {
            let s = Arc::clone(s);
            let g2 = g.clone();
            let m2 = Arc::clone(&m);
            let opts2 = opts.clone();
            let results2 = Arc::clone(&results);
            sim.spawn(&format!("w{i}"), move || {
                let me = tfhpc_sim::des::current().unwrap();
                if i == 2 {
                    // The straggler: frozen for a full virtual second
                    // before it even reaches the collective.
                    me.advance(1.0);
                }
                let v: Vec<f64> = (0..6).map(|k| (i * 10 + k) as f64).collect();
                let t = Tensor::from_f64([6], v).unwrap();
                let r = ring_all_reduce_resilient(&s, &g2, &g2[i], t, None, &m2, &opts2);
                results2.lock()[i] = Some(r);
            });
        }
        sim.run();
        let results = results.lock();
        // Workers 0 and 1 eject the straggler and reduce over the
        // survivor pair, bit-exactly.
        let expected: Vec<f64> = (0..6).map(|k| (k + (10 + k)) as f64).collect();
        for r in results.iter().take(2) {
            let (t, survivors) = r.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(t.as_f64().unwrap(), &expected[..]);
            assert_eq!(survivors, &g[..2]);
        }
        // The straggler observes its own verdict.
        let err = results[2].as_ref().unwrap().as_ref().unwrap_err();
        assert!(matches!(err, CoreError::Aborted(_)), "{err}");
        assert!(m.is_dead(&g[2]));
    }

    #[test]
    fn straggler_is_ejected_in_real_threads() {
        let (_c, servers) = workers(3);
        let g = group(3);
        // Generous wall-clock margins so a descheduled CI thread is
        // not mistaken for the straggler.
        let m = Arc::new(Membership::new(0.02, 0.6));
        let opts = ResilientRingOptions {
            recv_timeout_s: 0.8,
            max_reforms: 2,
        };
        let mut handles = Vec::new();
        for (i, s) in servers.into_iter().enumerate() {
            let g2 = g.clone();
            let m2 = Arc::clone(&m);
            let opts2 = opts.clone();
            handles.push(std::thread::spawn(move || {
                if i == 2 {
                    std::thread::sleep(std::time::Duration::from_millis(3000));
                }
                let t = Tensor::from_f64([4], vec![i as f64; 4]).unwrap();
                ring_all_reduce_resilient(&s, &g2, &g2[i], t, None, &m2, &opts2)
            }));
        }
        let results: Vec<RingResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in results.iter().take(2) {
            let (t, survivors) = r.as_ref().unwrap();
            assert_eq!(t.as_f64().unwrap(), &[1.0; 4]);
            assert_eq!(survivors.len(), 2);
        }
        let err = results[2].as_ref().unwrap_err();
        assert!(matches!(err, CoreError::Aborted(_)), "{err}");
    }

    #[test]
    fn resilient_ring_matches_plain_ring_when_healthy() {
        let (_c, servers) = workers(4);
        let g = group(4);
        let m = Arc::new(Membership::new(0.05, 5.0));
        let opts = ResilientRingOptions::default();
        let mut handles = Vec::new();
        for (i, s) in servers.into_iter().enumerate() {
            let g2 = g.clone();
            let m2 = Arc::clone(&m);
            let opts2 = opts.clone();
            handles.push(std::thread::spawn(move || {
                let v: Vec<f64> = (0..10).map(|k| (i * 10 + k) as f64).collect();
                let t = Tensor::from_f64([10], v).unwrap();
                ring_all_reduce_resilient(&s, &g2, &g2[i], t, None, &m2, &opts2)
            }));
        }
        let expected: Vec<f64> = (0..10)
            .map(|k| (0..4).map(|i| (i * 10 + k) as f64).sum())
            .collect();
        for h in handles {
            let (t, survivors) = h.join().unwrap().unwrap();
            assert_eq!(t.as_f64().unwrap(), &expected[..]);
            assert_eq!(survivors.len(), 4);
        }
    }
}
