//! Multi-tenant orchestration integration tests: conservation,
//! queueing, and variant behaviour under contention.

use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudBuilder};
use cloudqc::core::batch::{job_metric, order_jobs};
use cloudqc::core::config::BatchWeights;
use cloudqc::core::placement::{CloudQcBfsPlacement, CloudQcPlacement, PlacementAlgorithm};
use cloudqc::core::runtime::{AdmissionPolicy, RunReport, ServiceBuilder};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::Workload;
use cloudqc::sim::Tick;

fn batch(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect()
}

/// Runs `jobs` as one batch (all arriving at t = 0) under `admission`;
/// every job must be placed and complete.
fn run_batch(
    jobs: &[Circuit],
    cloud: &Cloud,
    placement: &dyn PlacementAlgorithm,
    admission: AdmissionPolicy,
    seed: u64,
) -> RunReport {
    let report = ServiceBuilder::new(cloud, placement, &CloudQcScheduler, seed)
        .admission(admission)
        .build_orchestrator()
        .run(&Workload::batch(jobs.to_vec()))
        .unwrap_or_else(|e| panic!("{}: {e}", placement.name()));
    assert!(report.rejected.is_empty(), "{:?}", report.rejected);
    report
}

#[test]
fn every_job_completes_exactly_once_under_contention() {
    // 8 jobs × up to 127 qubits on a 400-qubit cloud: heavy queueing.
    let cloud = CloudBuilder::paper_default(1).build();
    let jobs = batch(&[
        "ghz_n127",
        "qugan_n71",
        "knn_n67",
        "adder_n64",
        "cat_n65",
        "bv_n70",
        "qugan_n39",
        "qft_n29",
    ]);
    let run = run_batch(
        &jobs,
        &cloud,
        &CloudQcPlacement::default(),
        AdmissionPolicy::default(),
        3,
    );
    assert_eq!(run.outcomes.len(), jobs.len());
    let mut seen = vec![false; jobs.len()];
    for o in &run.outcomes {
        assert!(!seen[o.job], "job {} completed twice", o.job);
        seen[o.job] = true;
        assert!(o.finished_at >= o.admitted_at);
        assert!(o.finished_at <= run.makespan);
        assert!(o.completion_time.as_ticks() > 0);
    }
    assert!(seen.iter().all(|&s| s));
    // Outcomes are reported in job order, and the makespan is the
    // last finish.
    assert!(run.outcomes.iter().enumerate().all(|(i, o)| o.job == i));
    assert_eq!(
        run.makespan,
        run.outcomes.iter().map(|o| o.finished_at).max().unwrap()
    );
}

#[test]
fn jct_includes_queueing_delay() {
    // A cloud that can hold only one job at a time.
    let cloud = CloudBuilder::new(4)
        .computing_qubits(10)
        .ring_topology()
        .build();
    let jobs = batch(&["ghz_n30", "ghz_n30", "ghz_n30"]);
    let run = run_batch(
        &jobs,
        &cloud,
        &CloudQcPlacement::default(),
        AdmissionPolicy::Backfill,
        5,
    );
    let mut admitted: Vec<Tick> = run.outcomes.iter().map(|o| o.admitted_at).collect();
    admitted.sort();
    // With 30-qubit jobs on a 40-qubit cloud, jobs serialize: at most
    // one admission at t = 0.
    assert_eq!(admitted[0], Tick::ZERO);
    assert!(admitted[1] > Tick::ZERO);
    assert!(admitted[2] >= admitted[1]);
    // And completion time from arrival strictly exceeds the service
    // time for the queued jobs.
    let max_jct = run
        .outcomes
        .iter()
        .map(|o| o.completion_time)
        .max()
        .unwrap();
    assert!(max_jct >= admitted[2]);
}

#[test]
fn all_three_variants_complete_the_same_batch() {
    let cloud = CloudBuilder::paper_default(7).build();
    let jobs = batch(&["qugan_n39", "qft_n29", "adder_n64", "knn_n67"]);
    for (name, run) in [
        (
            "CloudQC",
            run_batch(
                &jobs,
                &cloud,
                &CloudQcPlacement::default(),
                AdmissionPolicy::default(),
                9,
            ),
        ),
        (
            "CloudQC-BFS",
            run_batch(
                &jobs,
                &cloud,
                &CloudQcBfsPlacement::default(),
                AdmissionPolicy::default(),
                9,
            ),
        ),
        (
            "CloudQC-FIFO",
            run_batch(
                &jobs,
                &cloud,
                &CloudQcPlacement::default(),
                AdmissionPolicy::Backfill,
                9,
            ),
        ),
    ] {
        assert_eq!(run.outcomes.len(), 4, "{name}");
        assert!(run.makespan > Tick::ZERO, "{name}");
    }
}

#[test]
fn metric_ordering_prefers_dense_wide_deep_jobs() {
    let jobs = batch(&["bv_n70", "qft_n63", "ghz_n127", "vqe_n4"]);
    let w = BatchWeights::default();
    let order = order_jobs(&jobs, &w);
    // qft_n63 has by far the highest density; vqe_n4 is tiny.
    assert_eq!(order[0], 1);
    assert_eq!(order[3], 3);
    // Metric is consistent with the ordering.
    for pair in order.windows(2) {
        assert!(job_metric(&jobs[pair[0]], &w) >= job_metric(&jobs[pair[1]], &w));
    }
}

#[test]
fn batch_outcome_is_deterministic() {
    let cloud = CloudBuilder::paper_default(21).build();
    let jobs = batch(&["qugan_n39", "ising_n34", "bv_n70"]);
    let go = || {
        run_batch(
            &jobs,
            &cloud,
            &CloudQcPlacement::default(),
            AdmissionPolicy::default(),
            31,
        )
    };
    assert_eq!(go(), go());
}
