//! Tests of the paper's two multi-tenant execution modes, run through
//! `Orchestrator::run` and checked on its `RunReport`. Batch mode
//! (§VI.D) is a `Workload::batch` under the default priority-aware
//! backfill, which orders jobs by the Eq. 11 metric; its FIFO baseline
//! is the same batch under `AdmissionPolicy::Backfill`. The
//! incoming-job mode (§V.B) is a `Workload::trace` of arrivals under
//! `AdmissionPolicy::Backfill`.

mod tests {
    use crate::error::PlacementError;
    use crate::placement::{CloudQcBfsPlacement, CloudQcPlacement};
    use crate::runtime::{AdmissionPolicy, Orchestrator, ServiceBuilder};
    use crate::schedule::CloudQcScheduler;
    use crate::workload::Workload;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_circuit::Circuit;
    use cloudqc_cloud::CloudBuilder;
    use cloudqc_sim::Tick;

    fn small_batch() -> Vec<Circuit> {
        vec![
            catalog::by_name("vqe_n4").unwrap(),
            catalog::by_name("qft_n29").unwrap(),
            catalog::by_name("ghz_n40").unwrap(),
        ]
    }

    #[test]
    fn every_job_completes_exactly_once() {
        let cloud = CloudBuilder::paper_default(2).build();
        let placement = CloudQcPlacement::default();
        let run = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 3)
            .run(&Workload::batch(small_batch()))
            .unwrap();
        assert_eq!(run.outcomes.len(), 3);
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.job, i);
            assert!(o.finished_at >= o.admitted_at);
            assert!(o.completion_time.as_ticks() > 0);
        }
        assert_eq!(
            run.makespan,
            run.outcomes.iter().map(|o| o.finished_at).max().unwrap()
        );
    }

    #[test]
    fn contention_forces_queueing() {
        // A cloud too small for both jobs at once: the second must wait
        // for the first to release qubits.
        let cloud = CloudBuilder::new(3)
            .computing_qubits(10)
            .line_topology()
            .build();
        let batch = vec![
            catalog::by_name("ghz_n25").unwrap(),
            catalog::by_name("ghz_n25").unwrap(),
        ];
        let placement = CloudQcPlacement::default();
        let run = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 1)
            .admission(AdmissionPolicy::Backfill)
            .build_orchestrator()
            .run(&Workload::batch(batch))
            .unwrap();
        assert!(run.rejected.is_empty());
        let (a, b) = (&run.outcomes[0], &run.outcomes[1]);
        let (first, second) = if a.admitted_at <= b.admitted_at {
            (a, b)
        } else {
            (b, a)
        };
        assert_eq!(first.admitted_at, Tick::ZERO);
        assert!(second.admitted_at >= first.finished_at);
    }

    #[test]
    fn impossible_job_is_an_error() {
        let cloud = CloudBuilder::new(2).computing_qubits(5).build();
        let batch = vec![catalog::by_name("ghz_n40").unwrap()];
        let placement = CloudQcPlacement::default();
        let err = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 0)
            .run(&Workload::batch(batch))
            .unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
    }

    #[test]
    fn deterministic_for_seed() {
        let cloud = CloudBuilder::paper_default(5).build();
        let placement = CloudQcBfsPlacement::default();
        let workload = Workload::batch(small_batch());
        let run = |s| {
            let run = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, s)
                .run(&workload)
                .unwrap();
            assert!(run.rejected.is_empty());
            run
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn utilization_is_a_sane_fraction() {
        let cloud = CloudBuilder::paper_default(13).build();
        let batch = small_batch();
        let placement = CloudQcPlacement::default();
        let run = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 4)
            .run(&Workload::batch(batch.clone()))
            .unwrap();
        assert!(run.rejected.is_empty());
        let u = run.utilization(cloud.total_computing_capacity());
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        // Qubit counts recorded per job.
        for (o, c) in run.outcomes.iter().zip(&batch) {
            assert_eq!(o.qubits, c.num_qubits());
        }
    }

    #[test]
    fn incoming_mode_respects_arrivals() {
        let cloud = CloudBuilder::paper_default(11).build();
        let jobs = [
            (catalog::by_name("qugan_n39").unwrap(), Tick::new(0)),
            (catalog::by_name("ising_n34").unwrap(), Tick::new(5_000)),
            (catalog::by_name("bv_n70").unwrap(), Tick::new(9_000)),
        ];
        let placement = CloudQcPlacement::default();
        let run = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 3)
            .admission(AdmissionPolicy::Backfill)
            .build_orchestrator()
            .run(&Workload::trace(jobs.iter().cloned()))
            .unwrap();
        assert_eq!(run.outcomes.len(), 3);
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.arrived_at, jobs[i].1);
            assert!(
                o.admitted_at >= o.arrived_at,
                "job {i} admitted before arrival"
            );
            assert_eq!(
                o.completion_time.as_ticks(),
                o.finished_at - o.arrived_at,
                "job {i} JCT from its own arrival"
            );
        }
    }

    #[test]
    fn incoming_mode_queues_under_contention() {
        // Jobs arrive faster than the tiny cloud can drain them.
        let cloud = CloudBuilder::new(3)
            .computing_qubits(10)
            .line_topology()
            .build();
        let circuit = catalog::by_name("ghz_n25").unwrap();
        let jobs = (0..3).map(|i| (circuit.clone(), Tick::new(i * 10)));
        let placement = CloudQcPlacement::default();
        let run = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 5)
            .admission(AdmissionPolicy::Backfill)
            .build_orchestrator()
            .run(&Workload::trace(jobs))
            .unwrap();
        assert!(run.rejected.is_empty());
        // 25-qubit jobs on a 30-qubit cloud serialize: each next job is
        // admitted no earlier than the previous one finishes.
        let mut by_arrival = run.outcomes.clone();
        by_arrival.sort_by_key(|o| o.arrived_at);
        for pair in by_arrival.windows(2) {
            assert!(pair[1].admitted_at >= pair[0].finished_at);
        }
    }

    #[test]
    fn fifo_and_metric_can_differ() {
        let cloud = CloudBuilder::new(4)
            .computing_qubits(15)
            .ring_topology()
            .build();
        // One dense job and two light ones; under contention the
        // admission order (hence at least admission times) differs.
        let batch = Workload::batch(vec![
            catalog::by_name("ghz_n30").unwrap(),
            catalog::by_name("qft_n29").unwrap(),
            catalog::by_name("ghz_n30").unwrap(),
        ]);
        let placement = CloudQcPlacement::default();
        let fifo = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 2)
            .admission(AdmissionPolicy::Backfill)
            .build_orchestrator()
            .run(&batch)
            .unwrap();
        let metric = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, 2)
            .run(&batch)
            .unwrap();
        assert!(fifo.rejected.is_empty() && metric.rejected.is_empty());
        assert_eq!(fifo.outcomes.len(), metric.outcomes.len());
        // The dense qft job leads under the metric ordering.
        assert_eq!(metric.outcomes[1].admitted_at, Tick::ZERO);
    }
}
