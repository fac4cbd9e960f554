//! Table I — number of TensorFlow instances per node for each node
//! type, plus GPU memory, derived from the platform presets and checked
//! against a live resolver run.

use tfhpc_dist::{launch, JobSpec, LaunchConfig};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::all_platforms;

pub fn run() {
    println!("== Table I: TensorFlow instances per node ==");
    println!(
        "{:<20} {:>12} {:>24}",
        "Type of Node", "GPU Memory", "No. processes per node"
    );
    println!("{}", "-".repeat(60));
    for p in all_platforms() {
        let per_engine_gb = p.node.gpu.mem_bytes >> 30;
        let mem = match p.label {
            "Tegner K80" | "Kebnekaise K80" => format!("{per_engine_gb}GB x2"),
            _ => format!("{per_engine_gb}GB"),
        };
        println!(
            "{:<20} {:>12} {:>24}",
            p.label, mem, p.node.tf_instances_per_node
        );

        // Cross-check: resolve a 2-node worker job and confirm the
        // co-location the resolver produces matches the preset.
        let workers = 2 * p.node.tf_instances_per_node;
        let cfg = LaunchConfig::simulated(
            p.clone(),
            vec![JobSpec::new("worker", workers, 1)],
            Protocol::Rdma,
        );
        let out = launch(&cfg, |_| Ok(())).expect("resolver launch");
        let nodes_used = out
            .resolved
            .tasks
            .iter()
            .map(|t| t.node_index)
            .max()
            .unwrap()
            + 1;
        assert_eq!(
            nodes_used, 2,
            "{}: resolver placed {workers} tasks on {nodes_used} nodes",
            p.label
        );
    }
    println!("\n(resolver cross-check passed: plane distribution fills each node type as Table I)");
}
