//! `launch` reads the `TFHPC_HEARTBEAT_*` knobs strictly. A test binary
//! of its own: a malformed process-global variable must not be seen by
//! a neighbouring test's launch.

use tfhpc_core::CoreError;
use tfhpc_dist::{launch, JobSpec, LaunchConfig, SupervisorConfig};
use tfhpc_sim::{net::Protocol, platform::tegner_k420};

/// Launch two idle tasks; `Ok` is the detector's death timeout, if on.
fn launched(supervisor: SupervisorConfig) -> Result<Option<f64>, CoreError> {
    let jobs = vec![JobSpec::new("worker", 2, 0)];
    let cfg = LaunchConfig::simulated(tegner_k420(), jobs, Protocol::Grpc);
    let out = launch(&cfg.with_supervisor(supervisor), |_ctx| Ok(()))?;
    Ok(out.membership.map(|m| m.timeout_s()))
}

#[test]
fn heartbeat_knobs_are_read_strictly_at_launch() {
    let default = SupervisorConfig::default();
    let explicit = default.clone().with_heartbeats(0.05, 0.2);
    assert_eq!(default.heartbeat_period_s, 0.05);
    // Unset: detection off unless the config switches it on.
    assert_eq!(launched(default.clone()).unwrap(), None);
    assert_eq!(launched(explicit.clone()).unwrap(), Some(0.2));
    // Malformed: loud, whatever the config says.
    for (key, value) in [
        ("TFHPC_HEARTBEAT_TIMEOUT", "abc"),
        ("TFHPC_HEARTBEAT_PERIOD", "-1"),
    ] {
        std::env::set_var(key, value);
        for sup in [&default, &explicit] {
            let err = launched(sup.clone()).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidArgument(m) if m.contains(key)),
                "{err}"
            );
        }
        std::env::remove_var(key);
    }
    // The knobs alone switch detection on; the config's own values win.
    std::env::set_var("TFHPC_HEARTBEAT_PERIOD", "0.02");
    std::env::set_var("TFHPC_HEARTBEAT_TIMEOUT", "5.0");
    assert_eq!(launched(default).unwrap(), Some(5.0));
    assert_eq!(launched(explicit).unwrap(), Some(0.2));
}
