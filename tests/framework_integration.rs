//! Cross-crate framework integration: Slurm → resolver → servers,
//! GraphDef round-trips executed on fresh sessions, distributed queue
//! plumbing, timelines, and the virtual-time accounting of full runs.

use std::sync::Arc;
use tfhpc_core::{
    graph_from_bytes, graph_to_bytes, DeviceCtx, Graph, OpKernel, Resources, Result, Session,
};
use tfhpc_dist::{launch, resolve, JobSpec, LaunchConfig, TaskKey};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{kebnekaise_k80, tegner_k420};
use tfhpc_slurm::{Distribution, JobRequest, SlurmCluster};
use tfhpc_tensor::{DType, Tensor};

#[test]
fn slurm_to_resolver_pipeline_matches_paper_listing2() {
    // Allocate 3 nodes, lay out 1 ps + 2 workers: the paper's Listing 2.
    let mut slurm = SlurmCluster::for_platform(&tegner_k420(), 3);
    let alloc = slurm
        .submit(&JobRequest {
            nodes: 3,
            ntasks: 3,
            distribution: Distribution::Plane(1),
            gpus_per_task: 0,
        })
        .unwrap();
    let resolved = resolve(
        &alloc,
        &[JobSpec::new("ps", 1, 0), JobSpec::new("worker", 2, 1)],
        1,
    )
    .unwrap();
    assert_eq!(
        resolved.spec.job_tasks("ps").unwrap(),
        &["t01n01:8888".to_string()]
    );
    assert_eq!(
        resolved.spec.job_tasks("worker").unwrap(),
        &["t01n02:8888".to_string(), "t01n03:8888".to_string()]
    );
    // scontrol expansion round-trips the nodelist.
    let nodelist = SlurmCluster::nodelist(&alloc);
    assert_eq!(
        SlurmCluster::scontrol_show_hostnames(&nodelist),
        alloc.hosts
    );
}

#[test]
fn graphdef_roundtrip_executes_on_new_session() {
    let mut g = Graph::new();
    let p = g.placeholder(DType::F64, None);
    let w = g.var_read("w");
    let wx = g.mul(w, p);
    let bump = g.assign_add("w", wx);
    let bytes = graph_to_bytes(&g).unwrap();

    let g2 = graph_from_bytes(&bytes).unwrap();
    let sess = Session::new(Arc::new(g2), Resources::new(), DeviceCtx::real(0));
    sess.resources()
        .create_variable("w", Tensor::from_f64([2], vec![1.0, 2.0]).unwrap());
    let out = sess
        .run(
            &[bump],
            &[(p, Tensor::from_f64([2], vec![3.0, 3.0]).unwrap())],
        )
        .unwrap();
    // w + w*p = [1,2] + [3,6] = [4,8]
    assert_eq!(out[0].as_f64().unwrap(), &[4.0, 8.0]);
}

#[test]
fn remote_queue_pipeline_across_launched_tasks() {
    // A producer job feeds a consumer job through a remote FIFO queue.
    let cfg = LaunchConfig::simulated(
        tegner_k420(),
        vec![JobSpec::new("sink", 1, 0), JobSpec::new("source", 3, 1)],
        Protocol::Rdma,
    );
    let total = Arc::new(parking_lot::Mutex::new(0.0f64));
    let total2 = Arc::clone(&total);
    let launched = launch(&cfg, move |ctx| {
        if ctx.job() == "sink" {
            let q = ctx.server.resources.create_queue("data", 4);
            let mut sum = 0.0;
            for _ in 0..6 {
                sum += q.dequeue()?[0].scalar_value_f64()?;
            }
            *total2.lock() = sum;
            Ok(())
        } else {
            for k in 0..2 {
                let v = (ctx.index() * 10 + k) as f64;
                ctx.server.remote_enqueue(
                    &TaskKey::new("sink", 0),
                    "data",
                    vec![Tensor::scalar_f64(v)],
                    Some(0),
                )?;
            }
            Ok(())
        }
    })
    .unwrap();
    // 0+1 + 10+11 + 20+21 = 63
    assert_eq!(*total.lock(), 63.0);
    // Six GPU-resident 8-byte sends still take nonzero virtual time.
    assert!(launched.elapsed_s > 0.0);
}

#[test]
fn virtual_time_orders_runs_by_transfer_size() {
    // Bigger payloads must take longer virtual time under the same path.
    let time_for = |mb: u64| {
        let cfg = LaunchConfig::simulated(
            tegner_k420(),
            vec![JobSpec::new("sink", 1, 0), JobSpec::new("source", 1, 1)],
            Protocol::Rdma,
        );
        launch(&cfg, move |ctx| {
            if ctx.job() == "sink" {
                let q = ctx.server.resources.create_queue("data", 2);
                q.dequeue()?;
                Ok(())
            } else {
                let t = Tensor::synthetic(DType::F64, [(mb << 20) as usize / 8], 1);
                ctx.server
                    .remote_enqueue(&TaskKey::new("sink", 0), "data", vec![t], Some(0))?;
                Ok(())
            }
        })
        .unwrap()
        .elapsed_s
    };
    let small = time_for(2);
    let large = time_for(64);
    assert!(large > small * 4.0, "2MB {small}s vs 64MB {large}s");
}

#[test]
fn timeline_spans_simulated_ops() {
    let cfg = LaunchConfig::simulated(
        kebnekaise_k80(),
        vec![JobSpec::new("worker", 1, 1)],
        Protocol::Rdma,
    );
    let timeline = Arc::new(tfhpc_obs::Tracer::new());
    timeline.enable();
    let tl2 = Arc::clone(&timeline);
    launch(&cfg, move |ctx| {
        let mut g = Graph::new();
        let a = g.random_uniform(DType::F32, [64, 64], 1);
        let b = g.random_uniform(DType::F32, [64, 64], 2);
        let c = g.with_device(tfhpc_core::Placement::Gpu(0), |g| g.matmul(a, b));
        let mut sess = ctx.server.session(Arc::new(g));
        sess.set_tracer(Arc::clone(&tl2));
        sess.run(&[c], &[])?;
        Ok(())
    })
    .unwrap();
    let events = timeline.snapshot();
    assert!(events.iter().any(|e| e.name.starts_with("MatMul")));
    // GPU op events carry the simulated device name.
    let mm = events
        .iter()
        .find(|e| e.name.starts_with("MatMul"))
        .unwrap();
    assert!(mm.track.contains("GK210"), "device = {}", mm.track);
    let json = timeline.to_chrome_json();
    assert!(json.contains("traceEvents"));
}

/// A session's own tracer takes its op spans instead of the global
/// one — also when switched off.
#[test]
fn session_tracer_takes_precedence_over_the_global_one() {
    // A kernel name no other test of this binary runs: they share the
    // global tracer while it is enabled here.
    struct Probe;
    impl OpKernel for Probe {
        fn name(&self) -> &str {
            "TracerProbe"
        }
        fn compute(&self, _: &Resources, _: &[Tensor]) -> Result<Vec<Tensor>> {
            Ok(vec![])
        }
    }
    let probes = |t: &tfhpc_obs::Tracer| {
        let is_probe = |e: &&tfhpc_obs::TraceEvent| e.name.starts_with("TracerProbe");
        t.snapshot().iter().filter(is_probe).count()
    };
    let mut g = Graph::new();
    let probe = g.custom(Arc::new(Probe), &[], &[]);
    let mut sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(0));
    let global = tfhpc_obs::trace::global();
    global.enable();
    sess.run_no_fetch(&[probe], &[]).unwrap();
    assert_eq!(probes(global), 1, "no session tracer: the global one");

    let private = Arc::new(tfhpc_obs::Tracer::new());
    private.enable();
    sess.set_tracer(Arc::clone(&private));
    sess.run_no_fetch(&[probe], &[]).unwrap();
    assert_eq!((probes(&private), probes(global)), (1, 1));
    assert_eq!(private.snapshot()[0].track, "/cpu:0");

    private.disable();
    sess.run_no_fetch(&[probe], &[]).unwrap();
    global.disable();
    assert_eq!((probes(&private), probes(global)), (1, 1));
}

/// Real-mode tasks are free-running threads: the worker's first remote
/// variable op may land before the ps body has created the variable.
/// That is a brief stall, not `NotFound`.
#[test]
fn real_mode_worker_rides_out_late_variable_creation() {
    let jobs = vec![JobSpec::new("ps", 1, 0), JobSpec::new("worker", 1, 0)];
    let cfg = LaunchConfig::real(tegner_k420(), jobs, Protocol::Grpc);
    let ps = TaskKey::new("ps", 0);
    let ps2 = ps.clone();
    let out = launch(&cfg, move |ctx| {
        if ctx.job() == "ps" {
            std::thread::sleep(std::time::Duration::from_millis(50));
            let one = Tensor::scalar_f64(1.0);
            ctx.server.resources.create_variable("acc", one);
            return Ok(());
        }
        let two = Tensor::scalar_f64(2.0);
        ctx.server
            .remote_assign_add(&ps2, "acc", &two, None, None)?;
        let read = ctx.server.remote_var_read(&ps2, "acc", None)?;
        assert_eq!(read.scalar_value_f64()?, 3.0);
        ctx.server.remote_assign(&ps2, "acc", &two, None, None)
    })
    .unwrap();
    let acc = out.cluster.server(&ps).unwrap().resources.variable("acc");
    assert_eq!(acc.unwrap().read().scalar_value_f64().unwrap(), 2.0);
}

#[test]
fn gpu_visibility_masks_are_disjoint_per_node() {
    let cfg = LaunchConfig::simulated(
        kebnekaise_k80(),
        vec![JobSpec::new("worker", 8, 1)],
        Protocol::Rdma,
    );
    let masks = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let masks2 = Arc::clone(&masks);
    let launched = launch(&cfg, move |ctx| {
        masks2.lock().push((ctx.server.node, ctx.gpu_ids.clone()));
        Ok(())
    })
    .unwrap();
    assert_eq!(launched.resolved.tasks.len(), 8);
    let masks = masks.lock();
    for node in 0..2 {
        let mut gpus: Vec<usize> = masks
            .iter()
            .filter(|(n, _)| *n == node)
            .flat_map(|(_, g)| g.clone())
            .collect();
        gpus.sort_unstable();
        assert_eq!(gpus, vec![0, 1, 2, 3], "node {node} GPU masking");
    }
}
