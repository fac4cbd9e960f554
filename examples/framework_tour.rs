//! Tour of the framework tooling beyond the four applications: the
//! graph optimizer (§II's "optimize execution" claim) and the
//! tfdbg-style debugger (§II-B).
//!
//! Run with: `cargo run --release --example framework_tour`

use std::sync::Arc;
use tfhpc::core::{optimize_for, Debugger, DeviceCtx, Graph, Resources, Session};
use tfhpc::tensor::{DType, Tensor};

fn main() {
    // ---- 1. Graph optimizer -------------------------------------------------
    let mut g = Graph::new();
    let x = g.placeholder(DType::F64, None);
    let two = g.constant(Tensor::scalar_f64(2.0));
    let three = g.constant(Tensor::scalar_f64(3.0));
    let six = g.mul(two, three); // foldable
    let nx = g.neg(x);
    let nnx = g.neg(nx); // simplifies to x
    let y1 = g.mul(six, nnx);
    let y2 = g.mul(six, nnx); // CSE duplicate
    let out = g.add(y1, y2);
    let opt = optimize_for(&g, &[out]).expect("optimize");
    println!(
        "optimizer: {} nodes -> {} (folded {}, CSE {}, simplified {})",
        opt.stats.nodes_before,
        opt.stats.nodes_after,
        opt.stats.folded,
        opt.stats.deduplicated,
        opt.stats.simplified
    );
    let fetch = opt.remap(out);
    let fed = opt.remap(x);
    let sess = Session::new(Arc::new(opt.graph), Resources::new(), DeviceCtx::real(0));
    let v = sess
        .run(&[fetch], &[(fed, Tensor::scalar_f64(5.0))])
        .unwrap();
    println!(
        "optimized graph: 6*x + 6*x at x=5 -> {}",
        v[0].scalar_value_f64().unwrap()
    );
    assert_eq!(v[0].scalar_value_f64().unwrap(), 60.0);

    // ---- 2. tfdbg-style debugger -------------------------------------------
    let mut g = Graph::new();
    let a = g.constant(Tensor::from_f64([3], vec![1.0, 0.0, 4.0]).unwrap());
    let b = g.constant(Tensor::from_f64([3], vec![0.5, 0.0, 2.0]).unwrap());
    let q = g.div(a, b); // 0/0 -> NaN at index 1
    let mut sess = Session::new(Arc::new(g), Resources::new(), DeviceCtx::real(0));
    let dbg = Arc::new(Debugger::new());
    sess.set_debugger(Arc::clone(&dbg));
    sess.run(&[q], &[]).unwrap();
    let bad = dbg.first_nonfinite().expect("has_inf_or_nan should fire");
    println!(
        "debugger: node `{}` produced {} non-finite element(s) (min {:?}, max {:?})",
        bad.node, bad.nonfinite, bad.min, bad.max
    );

    println!("ok: optimizer and debugger both work.");
}
