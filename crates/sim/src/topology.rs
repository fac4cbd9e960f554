//! Instantiated cluster topology: nodes, NUMA islands, PCIe slots,
//! NICs and inter-island links as shared DES resources, plus the
//! path-building logic that turns a (source, destination, protocol)
//! triple into a [`TransferModel`].
//!
//! The layout follows the paper's Fig. 9: the NIC and the I/O hub hang
//! off island 0, so traffic from GPUs on island 1 crosses the
//! inter-island (QPI) link — one of the contention sources behind
//! Kebnekaise's sub-optimal matmul scaling.

use crate::des::{Sim, SimResource};
use crate::net::{PathStage, Protocol, TransferModel};
use crate::pfs::PfsSim;
use crate::platform::Platform;
use std::sync::Arc;

/// Where a tensor (or task) lives: a node, and optionally a GPU slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Node index within the cluster.
    pub node: usize,
    /// GPU slot within the node, or `None` for host memory.
    pub gpu: Option<usize>,
}

impl Loc {
    /// Host memory of `node`.
    pub fn host(node: usize) -> Loc {
        Loc { node, gpu: None }
    }

    /// GPU `gpu` of `node`.
    pub fn gpu(node: usize, gpu: usize) -> Loc {
        Loc {
            node,
            gpu: Some(gpu),
        }
    }
}

/// Per-node instantiated resources.
pub struct NodeSim {
    /// PCIe slot links (shared by `gpus_per_pcie` engines each).
    pub pcie: Vec<SimResource>,
    /// Per-GPU kernel streams (serialize kernel launches per engine).
    pub gpu_stream: Vec<SimResource>,
    /// InfiniBand NIC, transmit side.
    pub nic_tx: SimResource,
    /// InfiniBand NIC, receive side.
    pub nic_rx: SimResource,
    /// Ethernet management NIC (gRPC fallback on Tegner), tx.
    pub eth_tx: SimResource,
    /// Ethernet management NIC, rx.
    pub eth_rx: SimResource,
    /// Inter-island (QPI/UPI) link.
    pub qpi: SimResource,
}

/// A simulated cluster: N identical nodes of one platform preset.
pub struct ClusterSim {
    /// The DES this cluster lives in.
    pub sim: Arc<Sim>,
    /// Static platform description.
    pub platform: Platform,
    /// Instantiated per-node resources.
    pub nodes: Vec<NodeSim>,
    /// Shared parallel file system.
    pub pfs: PfsSim,
}

impl ClusterSim {
    /// Build a cluster of `n_nodes` nodes on `sim`.
    pub fn new(sim: &Arc<Sim>, platform: Platform, n_nodes: usize) -> ClusterSim {
        let spec = &platform.node;
        let n_pcie = spec.gpus_per_node.div_ceil(spec.gpus_per_pcie.max(1));
        let nodes = (0..n_nodes)
            .map(|n| NodeSim {
                pcie: (0..n_pcie)
                    .map(|s| sim.resource(&format!("n{n}.pcie{s}")))
                    .collect(),
                gpu_stream: (0..spec.gpus_per_node)
                    .map(|g| sim.resource(&format!("n{n}.gpu{g}.stream")))
                    .collect(),
                nic_tx: sim.resource(&format!("n{n}.ib.tx")),
                nic_rx: sim.resource(&format!("n{n}.ib.rx")),
                eth_tx: sim.resource(&format!("n{n}.eth.tx")),
                eth_rx: sim.resource(&format!("n{n}.eth.rx")),
                qpi: sim.resource(&format!("n{n}.qpi")),
            })
            .collect();
        let pfs = PfsSim::new(sim, &platform.pfs, n_nodes);
        ClusterSim {
            sim: Arc::clone(sim),
            platform,
            nodes,
            pfs,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The PCIe slot resource serving GPU slot `g` on `node`.
    pub fn pcie_for(&self, node: usize, g: usize) -> &SimResource {
        let slot = g / self.platform.node.gpus_per_pcie.max(1);
        &self.nodes[node].pcie[slot]
    }

    /// The kernel-stream resource of GPU `g` on `node`.
    pub fn stream_for(&self, node: usize, g: usize) -> &SimResource {
        &self.nodes[node].gpu_stream[g]
    }

    fn staging_stage(&self, loc: Loc) -> Option<PathStage> {
        loc.gpu.map(|g| PathStage {
            resource: Some(self.pcie_for(loc.node, g).clone()),
            gbs: self.platform.node.pcie_gbs,
            label: "pcie",
        })
    }

    /// QPI hop if `loc`'s endpoint sits on a non-I/O island.
    fn qpi_stage(&self, loc: Loc) -> Option<PathStage> {
        let island = match loc.gpu {
            Some(g) => self.platform.node.gpu_island(g),
            None => self.platform.node.io_island(),
        };
        (island != self.platform.node.io_island()).then(|| PathStage {
            resource: Some(self.nodes[loc.node].qpi.clone()),
            gbs: self.platform.node.qpi_gbs,
            label: "qpi",
        })
    }

    /// Build the transfer path from `src` to `dst` under `proto`.
    ///
    /// * RDMA paths are pipelined (rate = min stage bandwidth).
    /// * MPI/gRPC paths are store-and-forward; the wire crossing is
    ///   split into tx/rx halves at twice the wire rate so both NICs
    ///   see contention while the uncontended per-byte cost stays
    ///   `1/rate`.
    pub fn path(&self, src: Loc, dst: Loc, proto: Protocol) -> TransferModel {
        let net = &self.platform.net;
        let same_node = src.node == dst.node;
        let mut stages: Vec<PathStage> = Vec::new();
        let serialize = PathStage {
            resource: None,
            gbs: net.serialize_gbs,
            label: "serialize",
        };
        let mpi_copy = PathStage {
            resource: None,
            gbs: net.mpi_copy_gbs,
            label: "mpi-copy",
        };
        let memcpy = PathStage {
            resource: None,
            gbs: self.platform.node.memcpy_gbs,
            label: "memcpy",
        };

        // Source-side GPU staging (no GPUDirect on either system).
        if let Some(s) = self.staging_stage(src) {
            stages.push(s);
        }
        if !same_node {
            if let Some(q) = self.qpi_stage(src) {
                stages.push(q);
            }
        }

        let (latency, pipelined) = match proto {
            Protocol::Rdma => {
                if !same_node {
                    stages.push(PathStage {
                        resource: Some(self.nodes[src.node].nic_tx.clone()),
                        gbs: net.ib_gbs,
                        label: "ib-tx",
                    });
                    stages.push(PathStage {
                        resource: Some(self.nodes[dst.node].nic_rx.clone()),
                        gbs: net.ib_gbs,
                        label: "ib-rx",
                    });
                } else {
                    stages.push(memcpy.clone());
                }
                (net.rdma_lat_s, true)
            }
            Protocol::Mpi => {
                stages.push(mpi_copy.clone());
                if !same_node {
                    stages.push(PathStage {
                        resource: Some(self.nodes[src.node].nic_tx.clone()),
                        gbs: net.ib_gbs * 2.0,
                        label: "ib-tx",
                    });
                    stages.push(PathStage {
                        resource: Some(self.nodes[dst.node].nic_rx.clone()),
                        gbs: net.ib_gbs * 2.0,
                        label: "ib-rx",
                    });
                } else {
                    stages.push(memcpy.clone());
                }
                stages.push(mpi_copy);
                (net.mpi_lat_s, false)
            }
            Protocol::Grpc => {
                stages.push(serialize.clone());
                if !same_node {
                    stages.push(PathStage {
                        resource: Some(self.nodes[src.node].eth_tx.clone()),
                        gbs: net.grpc_wire_gbs * 2.0,
                        label: "grpc-tx",
                    });
                    stages.push(PathStage {
                        resource: Some(self.nodes[dst.node].eth_rx.clone()),
                        gbs: net.grpc_wire_gbs * 2.0,
                        label: "grpc-rx",
                    });
                } else {
                    stages.push(memcpy.clone());
                }
                stages.push(serialize);
                (net.grpc_lat_s, false)
            }
        };

        if !same_node {
            if let Some(q) = self.qpi_stage(dst) {
                stages.push(q);
            }
        }
        if let Some(s) = self.staging_stage(dst) {
            stages.push(s);
        }

        TransferModel {
            latency_s: latency,
            pipelined,
            stages,
            counter: Some(match proto {
                Protocol::Rdma => "bytes.rdma",
                Protocol::Mpi => "bytes.mpi",
                Protocol::Grpc => "bytes.grpc",
            }),
        }
    }

    /// One-line topology description (Fig. 9 stand-in).
    pub fn describe_topology(&self) -> String {
        let n = &self.platform.node;
        format!(
            "{}: {} nodes x [{} islands, {} x {} (mem {} GB), {} GPUs/PCIe slot @ {} GB/s, NIC+I/O on island {}, QPI {} GB/s]",
            self.platform.label,
            self.nodes.len(),
            n.islands,
            n.gpus_per_node,
            n.gpu.name,
            n.gpu.mem_bytes >> 30,
            n.gpus_per_pcie,
            n.pcie_gbs,
            n.io_island(),
            n.qpi_gbs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;

    fn mk(platform: Platform, nodes: usize) -> (Arc<Sim>, ClusterSim) {
        let sim = Sim::new();
        let cluster = ClusterSim::new(&sim, platform, nodes);
        (sim, cluster)
    }

    #[test]
    fn rdma_host_to_host_near_line_rate() {
        let (_s, c) = mk(platform::tegner_k420(), 2);
        let m = c.path(Loc::host(0), Loc::host(1), Protocol::Rdma);
        let bytes = 128u64 << 20;
        let mbs = bytes as f64 / m.uncontended_seconds(bytes) / 1e6;
        // Paper: >6 GB/s on Tegner host-to-host RDMA.
        assert!(mbs > 6000.0, "host RDMA = {mbs} MB/s");
    }

    #[test]
    fn rdma_gpu_saturates_at_pcie_staging() {
        let (_s, c) = mk(platform::tegner_k420(), 2);
        let m = c.path(Loc::gpu(0, 0), Loc::gpu(1, 0), Protocol::Rdma);
        let bytes = 128u64 << 20;
        let mbs = bytes as f64 / m.uncontended_seconds(bytes) / 1e6;
        // Paper: saturates ~1300 MB/s on K420 nodes.
        assert!((1100.0..1500.0).contains(&mbs), "gpu RDMA = {mbs} MB/s");
    }

    #[test]
    fn mpi_gpu_much_slower_than_rdma() {
        let (_s, c) = mk(platform::tegner_k420(), 2);
        let mpi = c.path(Loc::gpu(0, 0), Loc::gpu(1, 0), Protocol::Mpi);
        let bytes = 128u64 << 20;
        let mbs = bytes as f64 / mpi.uncontended_seconds(bytes) / 1e6;
        // Paper: ~318 MB/s on Tegner GPU over MPI.
        assert!((200.0..450.0).contains(&mbs), "gpu MPI = {mbs} MB/s");
    }

    #[test]
    fn grpc_is_slowest_on_tegner() {
        let (_s, c) = mk(platform::tegner_k420(), 2);
        let bytes = 128u64 << 20;
        let t = |p| {
            let m = c.path(Loc::gpu(0, 0), Loc::gpu(1, 0), p);
            bytes as f64 / m.uncontended_seconds(bytes) / 1e6
        };
        let (grpc, mpi, rdma) = (t(Protocol::Grpc), t(Protocol::Mpi), t(Protocol::Rdma));
        assert!(grpc < mpi && mpi < rdma, "{grpc} {mpi} {rdma}");
    }

    #[test]
    fn kebnekaise_gpu_rdma_around_2300() {
        let (_s, c) = mk(platform::kebnekaise_k80(), 2);
        let m = c.path(Loc::gpu(0, 0), Loc::gpu(1, 0), Protocol::Rdma);
        let bytes = 128u64 << 20;
        let mbs = bytes as f64 / m.uncontended_seconds(bytes) / 1e6;
        // Paper: saturates below ~2300 MB/s.
        assert!((2000.0..2500.0).contains(&mbs), "keb gpu RDMA = {mbs} MB/s");
    }

    #[test]
    fn island1_gpu_paths_include_qpi() {
        let (_s, c) = mk(platform::kebnekaise_k80(), 2);
        // GPU 3 sits on island 1; its internode path must cross QPI.
        let m = c.path(Loc::gpu(0, 3), Loc::host(1), Protocol::Rdma);
        assert!(m.stages.iter().any(|s| s.label == "qpi"));
        // GPU 0 sits on island 0; no QPI hop.
        let m0 = c.path(Loc::gpu(0, 0), Loc::host(1), Protocol::Rdma);
        assert!(!m0.stages.iter().any(|s| s.label == "qpi"));
    }

    #[test]
    fn k80_engines_share_pcie_slot() {
        let (_s, c) = mk(platform::kebnekaise_k80(), 1);
        assert_eq!(c.nodes[0].pcie.len(), 2); // 4 engines, 2 slots
        assert!(std::ptr::eq(
            c.pcie_for(0, 0) as *const _,
            c.pcie_for(0, 1) as *const _
        ));
        let (_s2, t) = mk(platform::tegner_k420(), 1);
        assert_eq!(t.nodes[0].pcie.len(), 1);
    }

    #[test]
    fn same_node_paths_skip_nic() {
        let (_s, c) = mk(platform::kebnekaise_k80(), 1);
        let m = c.path(Loc::gpu(0, 0), Loc::gpu(0, 1), Protocol::Rdma);
        assert!(m.stages.iter().all(|s| !s.label.starts_with("ib")));
        // Still bounded by PCIe staging.
        let bytes = 64u64 << 20;
        let gbs = bytes as f64 / m.uncontended_seconds(bytes) / 1e9;
        assert!(gbs <= c.platform.node.pcie_gbs * 1.01);
    }

    #[test]
    fn describe_topology_mentions_layout() {
        let (_s, c) = mk(platform::kebnekaise_k80(), 2);
        let d = c.describe_topology();
        assert!(d.contains("Kebnekaise"));
        assert!(d.contains("2 islands"));
        assert!(d.contains("GK210"));
    }
}
