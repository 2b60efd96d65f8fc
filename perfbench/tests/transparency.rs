//! The traced run must not change what the program does: on every
//! workload, a pass through the span-recording wrappers has the same
//! schedule digest and work counters as an unwrapped pass, and its
//! spans attribute the whole window time.

use cloudqc_perfbench::trace::{attribute, Recorder};
use cloudqc_perfbench::workload::{run_pass, Kind, Scale, Setup};
use std::sync::Arc;

fn check(kind: Kind) {
    let setup = Setup::new(kind, 7, Scale::Tiny);
    let plain = run_pass(&setup, None).expect("untraced pass");
    let recorder = Arc::new(Recorder::default());
    let traced = run_pass(&setup, Some(Arc::clone(&recorder))).expect("traced pass");
    assert!(plain.completed > 0);
    assert_eq!(
        plain.digest, traced.digest,
        "the wrappers changed the schedule"
    );
    assert_eq!(plain.jct, traced.jct);
    assert_eq!(plain.counters, traced.counters);
    assert_eq!(plain.window_ns.len(), traced.window_ns.len());

    let parts = attribute(&recorder.take()).expect("every span sits in a window");
    assert_eq!(parts.closure_error(), 0.0);
    assert_eq!(
        parts.placement_call_ns.len() as u64,
        plain.counters.cache.misses
    );
    assert_eq!(
        !parts.routing_call_ns.is_empty(),
        kind == Kind::FleetFailover
    );
}

#[test]
fn paper_batch_is_unchanged_by_tracing() {
    check(Kind::PaperBatch);
}

#[test]
fn poisson_stream_is_unchanged_by_tracing() {
    check(Kind::PoissonStream);
}

#[test]
fn fleet_failover_is_unchanged_by_tracing() {
    check(Kind::FleetFailover);
}
