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

use tfhpc_core::{CoreError, Result};
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
    /// `charge_transfer_to`).
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
