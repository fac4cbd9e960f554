//! Pluggable transport models for the rendezvous/wire plane — the
//! paper's Fig. 7 axis (gRPC vs MPI vs Verbs RDMA) made selectable
//! per link instead of baked into the cluster protocol.
//!
//! Two models move a tensor between tasks:
//!
//! * [`Transport::StagedCopy`] — the gRPC-style path `wire.rs` has
//!   always modeled: serialize → frame → copy at each endpoint, with a
//!   CRC32C integrity check over the payload. On an RDMA cluster this
//!   is the "RPC on Verbs" configuration ("RPC Considered Harmful"):
//!   the wire itself runs at Verbs speed but both endpoints still pay
//!   a staging copy, charged at the platform's `serialize_gbs`.
//! * [`Transport::ZeroCopy`] — a one-sided RDMA-style handoff: the
//!   payload moves from the sender's registered buffer straight into
//!   the receiver's, with no endpoint staging and no software
//!   checksum (the NIC's link-layer check is modeled as free on the
//!   happy path). The DES charge always uses [`Protocol::Rdma`] costs
//!   regardless of the cluster protocol, and the fast-path integrity
//!   walk touches the registered pages without hashing them.
//!
//! Injected corruption windows are transport-independent: both models
//! fall back to the framed slow path in [`crate::wire`], detect the
//! bit flip, and retransmit — a zero-copy NIC still detects link
//! errors, it just never pays the software CRC in steady state.
//!
//! Selection, most-specific wins:
//! 1. a per-link override on the [`ClusterSpec`](crate::ClusterSpec)
//!    (`with_link_transport`),
//! 2. the spec-wide default (`with_default_transport`),
//! 3. the `TFHPC_TRANSPORT` env knob (resolved at cluster creation;
//!    strict parsing per the env-knob contract),
//! 4. the cluster protocol's natural default: Verbs RDMA links are
//!    zero-copy, gRPC/MPI links are staged-copy.
//!
//! The defaults reproduce the pre-transport modeled numbers exactly:
//! a `Protocol::Rdma` cluster already charged Verbs wire costs, and a
//! `Protocol::Grpc`/`Mpi` cluster already included its staging in the
//! path model.

use crate::server::{Server, TfCluster};
use std::sync::Arc;
use tfhpc_core::{CoreError, Result};
use tfhpc_sim::fault::FaultPlan;
use tfhpc_sim::net::Protocol;

/// How bytes cross one inter-task link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// Two-sided RPC: serialize → frame → copy at each endpoint, with
    /// a software CRC32C integrity check (gRPC-style).
    StagedCopy,
    /// One-sided registered-buffer handoff at Verbs costs, with no
    /// endpoint staging and no software checksum (RDMA-style).
    ZeroCopy,
}

impl Transport {
    /// Metrics/bench label.
    pub fn name(self) -> &'static str {
        match self {
            Transport::StagedCopy => "staged",
            Transport::ZeroCopy => "zerocopy",
        }
    }

    /// The natural transport for a cluster protocol: Verbs RDMA links
    /// hand off zero-copy, gRPC/MPI links stage through RPC buffers.
    pub fn default_for(protocol: Protocol) -> Transport {
        match protocol {
            Protocol::Rdma => Transport::ZeroCopy,
            Protocol::Grpc | Protocol::Mpi => Transport::StagedCopy,
        }
    }

    /// The DES cost model this transport charges on a cluster running
    /// `cluster_protocol`: zero-copy always moves at Verbs costs;
    /// staged-copy moves at the cluster protocol's costs (its staging
    /// surcharge on Verbs wires is added separately by
    /// `Route::charge_transfer`).
    pub fn wire_protocol(self, cluster_protocol: Protocol) -> Protocol {
        match self {
            Transport::ZeroCopy => Protocol::Rdma,
            Transport::StagedCopy => cluster_protocol,
        }
    }

    /// Parse a knob value (`staged`/`zerocopy`, with `staged-copy` /
    /// `zero-copy` aliases).
    pub fn parse(raw: &str) -> Result<Transport> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "staged" | "staged-copy" | "stagedcopy" => Ok(Transport::StagedCopy),
            "zerocopy" | "zero-copy" => Ok(Transport::ZeroCopy),
            _ => Err(CoreError::InvalidArgument(format!(
                "TFHPC_TRANSPORT=`{raw}` is not one of staged/zerocopy/auto"
            ))),
        }
    }
}

/// The `TFHPC_TRANSPORT` knob: unset or `auto` keeps per-link
/// resolution, otherwise forces one transport cluster-wide. Malformed
/// values are a loud error per the env-knob contract.
pub fn env_transport() -> Result<Option<Transport>> {
    match tfhpc_core::env::env_str("TFHPC_TRANSPORT")? {
        None => Ok(None),
        Some(raw) if raw.eq_ignore_ascii_case("auto") => Ok(None),
        Some(raw) => Transport::parse(&raw).map(Some),
    }
}

/// What one attempt of a remote op resolved, once: the cluster, the
/// fault plan installed at that instant, the peer and the transport on
/// the link to it. A route lives for one attempt and is never stored —
/// a restart, a death mark or a new plan is seen by the next message.
pub struct Route {
    pub(crate) cluster: Arc<TfCluster>,
    pub(crate) plan: Option<Arc<FaultPlan>>,
    /// The task at the far end.
    pub peer: Arc<Server>,
    /// Transport on the (direction-independent) link to `peer`.
    pub transport: Transport,
}

impl Route {
    /// The route from `from` to `peer`; `Aborted` when `peer` belongs
    /// to a newer generation. On host threads a superseded incarnation
    /// can resolve its peer after a gang restart re-registered it, and
    /// must not reach the new generation's queues.
    pub(crate) fn new(
        cluster: Arc<TfCluster>,
        plan: Option<Arc<FaultPlan>>,
        from: &Server,
        peer: Arc<Server>,
    ) -> Result<Route> {
        if peer.epoch() > from.epoch() {
            return Err(CoreError::Aborted(format!(
                "task {} generation {} superseded by generation {}",
                from.key,
                from.epoch(),
                peer.epoch()
            )));
        }
        let transport = cluster.transport_for(&from.key.job, &peer.key.job);
        Ok(Route {
            cluster,
            plan,
            peer,
            transport,
        })
    }

    /// Charge the wire+staging cost of moving `bytes` from `src` to
    /// `dst` — this route's two ends, in either order — under the
    /// link's transport (no-op in real mode). Returns modeled seconds.
    ///
    /// Zero-copy links move at Verbs costs whatever the cluster
    /// protocol; staged-copy links move at the cluster protocol's
    /// costs, and on a Verbs wire additionally pay the RPC staging
    /// copy at both endpoints (`2·bytes / serialize_gbs`) — the
    /// "RPC on RDMA" configuration whose loss to one-sided transfer
    /// `bench_transport` measures.
    pub fn charge_transfer(
        &self,
        src: &Server,
        src_gpu: Option<usize>,
        dst: &Server,
        dst_gpu: Option<usize>,
        bytes: u64,
    ) -> f64 {
        let cluster = &self.cluster;
        let Some(sim) = &cluster.sim else { return 0.0 };
        let transport = self.transport;
        let wire_proto = transport.wire_protocol(cluster.protocol);
        let labels = [("protocol", wire_proto.name())];
        let reg = tfhpc_obs::global();
        reg.counter_with("tfhpc_link_bytes_total", &labels)
            .add(bytes);
        reg.counter_with("tfhpc_link_messages_total", &labels).inc();
        reg.counter_with(
            "tfhpc_transport_bytes_total",
            &[("transport", transport.name())],
        )
        .add(bytes);
        let path = sim.path(src.loc(src_gpu), dst.loc(dst_gpu), wire_proto);
        let mut t = path.transfer(bytes);
        let me = tfhpc_sim::des::current();
        if transport == Transport::StagedCopy && cluster.protocol == Protocol::Rdma {
            let staging = 2.0 * bytes as f64 / (sim.platform.net.serialize_gbs * 1e9);
            if let Some(me) = &me {
                me.advance(staging);
            }
            t += staging;
        }
        // An active straggler window on either endpoint stretches the
        // effective wire time: the extra stall is charged to the
        // caller's clock, exactly like a delay spike but multiplicative.
        if let Some(plan) = &self.plan {
            let now = me.as_ref().map_or(0.0, |p| p.now());
            let factor = plan
                .straggler_factor(src.node, now)
                .max(plan.straggler_factor(dst.node, now));
            if factor > 1.0 {
                if let Some(me) = &me {
                    me.advance(t * (factor - 1.0));
                }
                return t * factor;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_defaults() {
        assert_eq!(Transport::default_for(Protocol::Rdma), Transport::ZeroCopy);
        assert_eq!(
            Transport::default_for(Protocol::Grpc),
            Transport::StagedCopy
        );
        assert_eq!(Transport::default_for(Protocol::Mpi), Transport::StagedCopy);
    }

    #[test]
    fn zero_copy_always_charges_verbs() {
        for p in [Protocol::Grpc, Protocol::Mpi, Protocol::Rdma] {
            assert_eq!(Transport::ZeroCopy.wire_protocol(p), Protocol::Rdma);
            assert_eq!(Transport::StagedCopy.wire_protocol(p), p);
        }
    }

    #[test]
    fn knob_parsing_is_strict() {
        assert_eq!(Transport::parse("staged").unwrap(), Transport::StagedCopy);
        assert_eq!(
            Transport::parse(" Zero-Copy ").unwrap(),
            Transport::ZeroCopy
        );
        assert!(matches!(
            Transport::parse("carrier-pigeon"),
            Err(CoreError::InvalidArgument(_))
        ));
    }
}
