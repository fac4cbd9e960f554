//! # tfhpc-slurm
//!
//! A simulated Slurm workload manager — the batch-scheduling substrate
//! the paper's Cluster Resolver contribution targets (§III). Provides:
//!
//! * a node inventory with partitions and GPU GRES,
//! * job allocation with Slurm's *plane*, *block* and *cyclic* task
//!   distributions (the paper's resolver supports the default plane
//!   distribution),
//! * `scontrol show hostnames`-style hostlist expansion/compression,
//! * per-task environment generation (`SLURM_PROCID`,
//!   `CUDA_VISIBLE_DEVICES`, ...) including the GPU-visibility masking
//!   the paper's resolver performs when several TensorFlow instances
//!   share a node.

pub mod hostlist;

use std::collections::BTreeMap;
use tfhpc_sim::platform::Platform;

/// One compute node known to the scheduler.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Hostname, e.g. `t01n01`.
    pub name: String,
    /// Number of GPUs (GRES) on the node.
    pub gpus: usize,
    /// CPU cores on the node.
    pub cpus: usize,
}

/// Task placement policy across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Fill each node before moving on.
    Block,
    /// Round-robin tasks over nodes one at a time.
    Cyclic,
    /// Slurm plane distribution: blocks of `plane_size` tasks placed on
    /// consecutive nodes, cycling — the default the paper's resolver
    /// supports.
    Plane(usize),
}

/// A job request (the interesting subset of `sbatch`/`srun` flags).
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Number of nodes to allocate.
    pub nodes: usize,
    /// Total tasks to launch.
    pub ntasks: usize,
    /// Task distribution policy.
    pub distribution: Distribution,
    /// GPUs to bind per task (`--gres=gpu:N` style).
    pub gpus_per_task: usize,
}

/// One launched task within an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAssignment {
    /// Global rank (`SLURM_PROCID`).
    pub rank: usize,
    /// Index of the node within the allocation (`SLURM_NODEID`).
    pub node_index: usize,
    /// Hostname of the node.
    pub hostname: String,
    /// Rank within the node (`SLURM_LOCALID`).
    pub local_rank: usize,
    /// GPU ids exposed to the task (`CUDA_VISIBLE_DEVICES`).
    pub gpu_ids: Vec<usize>,
}

/// A granted allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Job id.
    pub job_id: u64,
    /// Allocated node hostnames, in order.
    pub hosts: Vec<String>,
    /// Task placements.
    pub tasks: Vec<TaskAssignment>,
}

/// Scheduler errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlurmError {
    /// Not enough free nodes in the partition.
    InsufficientNodes {
        /// Nodes requested.
        requested: usize,
        /// Nodes currently free.
        free: usize,
    },
    /// A task asked for more GPUs than its node could provide.
    InsufficientGpus {
        /// Hostname of the node.
        node: String,
        /// GPUs needed on the node.
        needed: usize,
        /// GPUs present.
        present: usize,
    },
    /// Request was internally inconsistent.
    BadRequest(String),
}

impl std::fmt::Display for SlurmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlurmError::InsufficientNodes { requested, free } => {
                write!(f, "requested {requested} nodes, {free} free")
            }
            SlurmError::InsufficientGpus {
                node,
                needed,
                present,
            } => write!(f, "node {node}: need {needed} GPUs, has {present}"),
            SlurmError::BadRequest(s) => write!(f, "bad request: {s}"),
        }
    }
}

impl std::error::Error for SlurmError {}

/// The simulated workload manager for one partition.
#[derive(Debug)]
pub struct SlurmCluster {
    partition: String,
    nodes: Vec<NodeInfo>,
    busy: Vec<bool>,
    next_job_id: u64,
    active: BTreeMap<u64, Vec<usize>>,
}

impl SlurmCluster {
    /// Build a cluster with the given nodes.
    pub fn new(partition: &str, nodes: Vec<NodeInfo>) -> SlurmCluster {
        let busy = vec![false; nodes.len()];
        SlurmCluster {
            partition: partition.to_string(),
            nodes,
            busy,
            next_job_id: 1000,
            active: BTreeMap::new(),
        }
    }

    /// Build a cluster of `n_nodes` matching a simulated platform's
    /// node type (hostnames `t01n01`, `t01n02`, ... like Tegner's).
    pub fn for_platform(platform: &Platform, n_nodes: usize) -> SlurmCluster {
        let nodes = (0..n_nodes)
            .map(|i| NodeInfo {
                name: format!("t01n{:02}", i + 1),
                gpus: platform.node.gpus_per_node,
                cpus: 24,
            })
            .collect();
        SlurmCluster::new(&platform.label.replace(' ', "-").to_lowercase(), nodes)
    }

    /// Partition name.
    pub fn partition(&self) -> &str {
        &self.partition
    }

    /// Nodes currently free.
    pub fn free_nodes(&self) -> usize {
        self.busy.iter().filter(|b| !**b).count()
    }

    /// Allocate nodes and place tasks (`salloc` + `srun` in one step).
    pub fn submit(&mut self, req: &JobRequest) -> Result<Allocation, SlurmError> {
        if req.nodes == 0 || req.ntasks == 0 {
            return Err(SlurmError::BadRequest(
                "nodes and ntasks must be positive".into(),
            ));
        }
        if req.ntasks < req.nodes {
            return Err(SlurmError::BadRequest(format!(
                "{} tasks cannot span {} nodes",
                req.ntasks, req.nodes
            )));
        }
        let free: Vec<usize> = (0..self.nodes.len()).filter(|i| !self.busy[*i]).collect();
        if free.len() < req.nodes {
            return Err(SlurmError::InsufficientNodes {
                requested: req.nodes,
                free: free.len(),
            });
        }
        let chosen = &free[..req.nodes];
        let placements = place_tasks(req.ntasks, req.nodes, req.distribution);

        // GPU binding: local ranks on a node get disjoint GPU id ranges.
        let mut tasks = Vec::with_capacity(req.ntasks);
        let mut local_count = vec![0usize; req.nodes];
        for (rank, &node_index) in placements.iter().enumerate() {
            let node = &self.nodes[chosen[node_index]];
            let local_rank = local_count[node_index];
            local_count[node_index] += 1;
            let gpu_lo = local_rank * req.gpus_per_task;
            let gpu_hi = gpu_lo + req.gpus_per_task;
            if req.gpus_per_task > 0 && gpu_hi > node.gpus {
                return Err(SlurmError::InsufficientGpus {
                    node: node.name.clone(),
                    needed: gpu_hi,
                    present: node.gpus,
                });
            }
            tasks.push(TaskAssignment {
                rank,
                node_index,
                hostname: node.name.clone(),
                local_rank,
                gpu_ids: (gpu_lo..gpu_hi).collect(),
            });
        }

        let job_id = self.next_job_id;
        self.next_job_id += 1;
        for &i in chosen {
            self.busy[i] = true;
        }
        self.active.insert(job_id, chosen.to_vec());
        Ok(Allocation {
            job_id,
            hosts: chosen.iter().map(|&i| self.nodes[i].name.clone()).collect(),
            tasks,
        })
    }

    /// Release a job's nodes (`scancel` / job completion).
    pub fn release(&mut self, job_id: u64) {
        if let Some(nodes) = self.active.remove(&job_id) {
            for i in nodes {
                self.busy[i] = false;
            }
        }
    }

    /// `scontrol show hostnames <compressed>` — expand a hostlist.
    pub fn scontrol_show_hostnames(compressed: &str) -> Vec<String> {
        hostlist::expand(compressed)
    }

    /// The compressed `SLURM_JOB_NODELIST` for an allocation.
    pub fn nodelist(alloc: &Allocation) -> String {
        hostlist::compress(&alloc.hosts)
    }

    /// Environment a task would see under Slurm, as key/value pairs.
    pub fn task_env(alloc: &Allocation, rank: usize) -> Vec<(String, String)> {
        let t = &alloc.tasks[rank];
        let cuda = t
            .gpu_ids
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(",");
        vec![
            ("SLURM_JOB_ID".into(), alloc.job_id.to_string()),
            ("SLURM_PROCID".into(), t.rank.to_string()),
            ("SLURM_NTASKS".into(), alloc.tasks.len().to_string()),
            ("SLURM_NODEID".into(), t.node_index.to_string()),
            ("SLURM_LOCALID".into(), t.local_rank.to_string()),
            ("SLURM_JOB_NODELIST".into(), Self::nodelist(alloc)),
            ("SLURM_JOB_NUM_NODES".into(), alloc.hosts.len().to_string()),
            ("CUDA_VISIBLE_DEVICES".into(), cuda),
        ]
    }
}

/// Map each task rank to a node index per the distribution policy.
fn place_tasks(ntasks: usize, nodes: usize, dist: Distribution) -> Vec<usize> {
    match dist {
        Distribution::Block => {
            // Even split, remainder to the earliest nodes.
            let base = ntasks / nodes;
            let extra = ntasks % nodes;
            let mut out = Vec::with_capacity(ntasks);
            for node in 0..nodes {
                let count = base + usize::from(node < extra);
                out.extend(std::iter::repeat_n(node, count));
            }
            out
        }
        Distribution::Cyclic => (0..ntasks).map(|r| r % nodes).collect(),
        Distribution::Plane(p) => {
            let p = p.max(1);
            (0..ntasks).map(|r| (r / p) % nodes).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfhpc_sim::platform;

    fn cluster(n: usize, gpus: usize) -> SlurmCluster {
        SlurmCluster::new(
            "gpu",
            (0..n)
                .map(|i| NodeInfo {
                    name: format!("t01n{:02}", i + 1),
                    gpus,
                    cpus: 24,
                })
                .collect(),
        )
    }

    #[test]
    fn block_distribution_fills_nodes() {
        assert_eq!(place_tasks(4, 2, Distribution::Block), vec![0, 0, 1, 1]);
        assert_eq!(place_tasks(5, 2, Distribution::Block), vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn cyclic_distribution_round_robins() {
        assert_eq!(place_tasks(5, 2, Distribution::Cyclic), vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn plane_distribution_blocks_cycle() {
        // plane=2 over 2 nodes, 8 tasks: 0,0,1,1,0,0,1,1
        assert_eq!(
            place_tasks(8, 2, Distribution::Plane(2)),
            vec![0, 0, 1, 1, 0, 0, 1, 1]
        );
    }

    #[test]
    fn submit_assigns_local_ranks_and_gpus() {
        let mut c = cluster(2, 4);
        let alloc = c
            .submit(&JobRequest {
                nodes: 2,
                ntasks: 8,
                distribution: Distribution::Plane(4),
                gpus_per_task: 1,
            })
            .unwrap();
        assert_eq!(alloc.hosts.len(), 2);
        assert_eq!(alloc.tasks.len(), 8);
        // Ranks 0..4 on node 0 with GPUs 0..4 respectively.
        for r in 0..4 {
            assert_eq!(alloc.tasks[r].node_index, 0);
            assert_eq!(alloc.tasks[r].local_rank, r);
            assert_eq!(alloc.tasks[r].gpu_ids, vec![r]);
        }
        for r in 4..8 {
            assert_eq!(alloc.tasks[r].node_index, 1);
            assert_eq!(alloc.tasks[r].gpu_ids, vec![r - 4]);
        }
    }

    #[test]
    fn oversubscribed_gpus_rejected() {
        let mut c = cluster(1, 2);
        let err = c
            .submit(&JobRequest {
                nodes: 1,
                ntasks: 3,
                distribution: Distribution::Block,
                gpus_per_task: 1,
            })
            .unwrap_err();
        assert!(matches!(err, SlurmError::InsufficientGpus { .. }));
    }

    #[test]
    fn nodes_become_busy_and_release() {
        let mut c = cluster(2, 1);
        let req = JobRequest {
            nodes: 2,
            ntasks: 2,
            distribution: Distribution::Block,
            gpus_per_task: 0,
        };
        let a = c.submit(&req).unwrap();
        assert_eq!(c.free_nodes(), 0);
        assert!(matches!(
            c.submit(&req),
            Err(SlurmError::InsufficientNodes { .. })
        ));
        c.release(a.job_id);
        assert_eq!(c.free_nodes(), 2);
        assert!(c.submit(&req).is_ok());
    }

    #[test]
    fn task_env_matches_slurm_conventions() {
        let mut c = cluster(2, 2);
        let alloc = c
            .submit(&JobRequest {
                nodes: 2,
                ntasks: 4,
                distribution: Distribution::Plane(2),
                gpus_per_task: 1,
            })
            .unwrap();
        let env: std::collections::HashMap<_, _> =
            SlurmCluster::task_env(&alloc, 3).into_iter().collect();
        assert_eq!(env["SLURM_PROCID"], "3");
        assert_eq!(env["SLURM_NTASKS"], "4");
        assert_eq!(env["SLURM_NODEID"], "1");
        assert_eq!(env["SLURM_LOCALID"], "1");
        assert_eq!(env["CUDA_VISIBLE_DEVICES"], "1");
        assert_eq!(env["SLURM_JOB_NODELIST"], "t01n[01-02]");
    }

    #[test]
    fn for_platform_matches_table1_gpus() {
        let c = SlurmCluster::for_platform(&platform::kebnekaise_k80(), 3);
        assert_eq!(c.free_nodes(), 3);
        assert_eq!(c.nodes[0].gpus, 4);
    }

    #[test]
    fn bad_requests_rejected() {
        let mut c = cluster(2, 1);
        assert!(matches!(
            c.submit(&JobRequest {
                nodes: 0,
                ntasks: 1,
                distribution: Distribution::Block,
                gpus_per_task: 0
            }),
            Err(SlurmError::BadRequest(_))
        ));
        assert!(matches!(
            c.submit(&JobRequest {
                nodes: 2,
                ntasks: 1,
                distribution: Distribution::Block,
                gpus_per_task: 0
            }),
            Err(SlurmError::BadRequest(_))
        ));
    }
}
