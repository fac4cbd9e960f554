//! Checksummed wire verification for inter-task tensor movement.
//!
//! Every tensor crossing a staged-copy link is verified with a CRC32C
//! over its payload bytes; zero-copy links skip the software checksum
//! in steady state (see [`crate::transport`]) but share the corrupted-
//! window slow path below. Two paths compute the staged check:
//!
//! * **Fast path** (no corruption window active on any node the
//!   transfer touches): sender and receiver each checksum the tensor's
//!   raw storage bytes in place via
//!   [`Tensor::visit_payload_bytes`] — no frame materialization, no
//!   proto encode/decode, zero allocation — and the receiver keeps the
//!   sender's buffer on match. This is the steady-state cost of the
//!   integrity plane, and what `bench_runtime --check` gates at
//!   `INTEGRITY_GATE_PCT_OF_FLOOR` = 18 % of the CG step's kernel
//!   floor.
//! * **Slow path** (a `LinkCorrupt` window from the injected
//!   [`FaultPlan`](tfhpc_sim::fault::FaultPlan) is active at the
//!   current virtual instant): the tensor is round-tripped through a
//!   sealed [`tfhpc_proto::frame`] and a deterministic bit (derived
//!   from the plan's per-instant entropy, never the wall clock) is
//!   flipped in the in-flight copy so verification genuinely fails.
//!   The failure is counted as a detection + requested retransmission
//!   and surfaced as *transient* `DataLoss`: the caller's
//!   `Server::call` re-runs the transfer from the sender's pristine
//!   copy, exactly like a retransmitting transport. Since each
//!   backoff advances the virtual clock, the corruption window
//!   eventually closes and the pristine bytes decode bit-exactly.
//!
//! The two paths agree on delivered bytes: the framed round-trip is
//! bit-exact on success (pinned by the chaos suite), so returning the
//! sender's tensors on the fast path is observationally identical.

use crate::server::Server;
use crate::transport::{Route, Transport};
use tfhpc_core::{CoreError, Result, TensorProto};
use tfhpc_proto::{frame, Message};
use tfhpc_tensor::Tensor;

/// CRC32C over a tensor's payload bytes (dtype, dims, raw storage),
/// computed in place with zero allocation. This is the checksum both
/// endpoints of a fast-path transfer compare; the bench harness calls
/// it directly to price the integrity plane.
#[inline]
pub fn payload_crc(t: &Tensor) -> u32 {
    let mut crc = 0u32;
    t.visit_payload_bytes(|chunk| crc = frame::crc32c_append(crc, chunk));
    crc
}

/// Verify `tensors` as they traverse the wire across `nodes` (the
/// endpoints the transfer touches, in path order) under `route`'s
/// transport and the fault plan it resolved.
/// Returns the delivered tensors — bit-exact when verification passes
/// — or transient [`CoreError::DataLoss`] after counting the
/// detection and the requested retransmission on `server`'s
/// resources.
///
/// Staged-copy links pay the software CRC on the fast path; zero-copy
/// links only walk the registered pages (the NIC's link-layer check
/// is modeled as free). Corruption windows are transport-independent:
/// both fall back to the framed slow path, where the injected bit
/// flip is detected and retransmitted.
pub(crate) fn transfer(
    server: &Server,
    route: &Route,
    what: &str,
    nodes: &[usize],
    tensors: &[Tensor],
) -> Result<Vec<Tensor>> {
    let now = tfhpc_sim::des::current().map(|p| p.now()).unwrap_or(0.0);
    // Bind the plan together with the corrupt node so the slow path
    // can't be entered without the plan that scheduled it.
    let corrupt = route.plan.as_ref().and_then(|p| {
        nodes
            .iter()
            .copied()
            .find(|n| p.link_corrupt_at(*n, now))
            .map(|n| (p, n))
    });

    let Some((plan, node)) = corrupt else {
        match route.transport {
            // Fast path, staged-copy: checksum the raw storage at both
            // endpoints and deliver the sender's buffer on match. The
            // mismatch arm is unreachable without injection (same
            // bytes hashed twice) but keeps the detection accounting
            // uniform with the framed path.
            Transport::StagedCopy => {
                for t in tensors {
                    if payload_crc(t) != payload_crc(t) {
                        server.resources.note_corruption();
                        server.resources.note_retransmit();
                        return Err(CoreError::link_data_loss(format!(
                            "{what}: payload checksum failed in flight (t={now:.6})"
                        )));
                    }
                }
            }
            // Fast path, zero-copy: one-sided handoff from the
            // sender's registered buffer — walk the pages (the cost
            // of registration/pinning) but never hash them.
            Transport::ZeroCopy => {
                let mut registered = 0usize;
                for t in tensors {
                    t.visit_payload_bytes(|chunk| registered += chunk.len());
                }
                std::hint::black_box(registered);
            }
        }
        return Ok(tensors.to_vec());
    };

    // Slow path: a corruption window is active on the route, so the
    // transfer must materialize real frames for the injected bit-flip
    // to land in.
    let mut out = Vec::with_capacity(tensors.len());
    for t in tensors {
        let mut framed = TensorProto(t.clone())
            .to_framed_bytes()
            .map_err(CoreError::from)?;
        frame::flip_bit(&mut framed, plan.corruption_entropy(node, now));
        match frame::open(&framed) {
            Ok(payload) => out.push(TensorProto::decode(payload).map_err(CoreError::from)?.0),
            Err(_) => {
                server.resources.note_corruption();
                server.resources.note_retransmit();
                return Err(CoreError::link_data_loss(format!(
                    "{what}: frame checksum failed in flight (t={now:.6})"
                )));
            }
        }
    }
    Ok(out)
}
