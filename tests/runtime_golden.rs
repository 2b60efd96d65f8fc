//! Golden seed-equivalence for the unified runtime.
//!
//! The pinned schedules (batch / FIFO / incoming tests below) use the
//! runtime's placement seeding: each job's placement seed is the run
//! seed XORed with its circuit's structural fingerprint, so repeated
//! shapes share placement-cache entries. Any drift in these means the
//! orchestrator, placement pipeline, or executor changed observable
//! behaviour.
//!
//! The A/B tests below additionally pin that the placement cache and
//! the per-QPU-pair sharded front layer are *pure* optimizations:
//! enabling or disabling the cache, or running a scheduler through
//! [`GlobalFront`] (which hides its purity and so forces the global
//! front layer with every allocation round run, none elided), leaves
//! seeded schedules byte-identical.

mod common;

use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::CloudBuilder;
use cloudqc::core::placement::PlacementAlgorithm;
use cloudqc::core::placement::{CloudQcBfsPlacement, CloudQcPlacement, RandomPlacement};
use cloudqc::core::runtime::{AdmissionPolicy, Orchestrator, RunReport, ServiceBuilder};
use cloudqc::core::schedule::{
    AverageScheduler, CloudQcScheduler, GreedyScheduler, RandomScheduler, Scheduler,
};
use cloudqc::core::workload::Workload;
use cloudqc::core::Executor;
use cloudqc::sim::Tick;
use common::GlobalFront;

fn batch(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog circuit"))
        .collect()
}

fn big_batch() -> Vec<Circuit> {
    batch(&[
        "ghz_n127",
        "qugan_n71",
        "knn_n67",
        "adder_n64",
        "cat_n65",
        "bv_n70",
        "qugan_n39",
        "qft_n29",
    ])
}

#[test]
fn batch_mode_reproduces_pinned_outcomes() {
    let cloud = CloudBuilder::paper_default(1).build();
    let jobs = big_batch();
    let expected: [(u64, [u64; 8]); 3] = [
        (3, [2252, 21162, 40158, 12332, 7772, 5773, 18257, 48944]),
        (7, [2230, 39072, 24883, 10311, 7144, 5900, 18758, 39718]),
        (42, [2612, 20138, 37860, 10451, 7660, 6243, 18354, 54024]),
    ];
    let placement = CloudQcPlacement::default();
    for (seed, times) in expected {
        let run = Orchestrator::new(&cloud, &placement, &CloudQcScheduler, seed)
            .run(&Workload::batch(jobs.clone()))
            .unwrap();
        let got: Vec<u64> = run
            .outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks())
            .collect();
        assert_eq!(got, times, "batch metric ordering, seed {seed}");
        assert_eq!(
            run.makespan.as_ticks(),
            *times.iter().max().unwrap(),
            "seed {seed}"
        );
    }
}

#[test]
fn fifo_contended_batch_reproduces_pinned_outcomes() {
    // A cloud that serializes these 30-qubit jobs: queueing delay is
    // part of the golden times. The three jobs share one fingerprint,
    // hence one placement seed, so they are placed identically
    // whenever the free vector recurs.
    let cloud = CloudBuilder::new(4)
        .computing_qubits(10)
        .ring_topology()
        .build();
    let jobs = batch(&["ghz_n30", "ghz_n30", "ghz_n30"]);
    let expected: [(u64, [u64; 3]); 2] = [(5, [643, 1486, 2129]), (11, [894, 1688, 2482])];
    let placement = CloudQcPlacement::default();
    for (seed, times) in expected {
        let run = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .admission(AdmissionPolicy::Backfill)
            .build_orchestrator()
            .run(&Workload::batch(jobs.clone()))
            .unwrap();
        let got: Vec<u64> = run
            .outcomes
            .iter()
            .map(|o| o.completion_time.as_ticks())
            .collect();
        assert_eq!(got, times, "batch FIFO, seed {seed}");
    }
}

#[test]
fn incoming_mode_reproduces_pinned_outcomes() {
    let cloud = CloudBuilder::paper_default(11).build();
    let jobs: Vec<(Circuit, Tick)> = [
        ("qugan_n39", 0u64),
        ("ising_n34", 5_000),
        ("bv_n70", 9_000),
        ("qft_n29", 9_000),
        ("knn_n67", 15_000),
    ]
    .iter()
    .map(|&(n, t)| (catalog::by_name(n).unwrap(), Tick::new(t)))
    .collect();
    let expected: [(u64, [(u64, u64); 5]); 2] = [
        (
            3,
            [
                (0, 8574),
                (5000, 397),
                (9000, 3431),
                (9000, 30381),
                (15000, 17920),
            ],
        ),
        (
            13,
            [
                (0, 8440),
                (5000, 397),
                (9000, 3331),
                (9000, 31279),
                (15000, 18320),
            ],
        ),
    ];
    let placement = CloudQcBfsPlacement::default();
    for (seed, records) in expected {
        let run = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
            .admission(AdmissionPolicy::Backfill)
            .build_orchestrator()
            .run(&Workload::trace(jobs.iter().cloned()))
            .unwrap();
        let got: Vec<(u64, u64)> = run
            .outcomes
            .iter()
            .map(|o| (o.admitted_at.as_ticks(), o.completion_time.as_ticks()))
            .collect();
        assert_eq!(got, records.to_vec(), "incoming mode, seed {seed}");
    }
}

/// Everything observable about a run except the new performance
/// counters (which legitimately differ between the A/B arms).
fn observable(report: &RunReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &report.outcomes,
        &report.rejected,
        report.makespan,
        &report.final_free_computing,
        &report.final_free_communication,
    )
}

/// A contended open-arrival workload of repeated shapes: jobs queue
/// behind each other, so waiting jobs are re-placed across admission
/// rounds — the placement cache's hot path.
fn contended_setup() -> (cloudqc::cloud::Cloud, Workload) {
    let cloud = CloudBuilder::new(4)
        .computing_qubits(30)
        .communication_qubits(3)
        .ring_topology()
        .build();
    let pool = batch(&["ghz_n25", "qft_n29", "ghz_n25", "qugan_n39"]);
    (cloud, Workload::poisson(&pool, 16, 500.0, 13))
}

#[test]
fn cached_and_uncached_placement_are_byte_identical() {
    // The placement cache (signature: exact free vector + per job
    // seed) memoizes a deterministic function, so enabling it must
    // not move a single tick.
    let (cloud, workload) = contended_setup();
    let placement = CloudQcPlacement::default();
    for seed in [3u64, 7, 42] {
        let run = |cached: bool| {
            ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                .admission(AdmissionPolicy::Backfill)
                .placement_cache(cached)
                .build_orchestrator()
                .run(&workload)
                .expect("contended run completes")
        };
        let cached = run(true);
        let uncached = run(false);
        assert_eq!(observable(&cached), observable(&uncached), "seed {seed}");
        assert_eq!(cached.outcomes.len(), workload.len());
        let stats = cached.placement_cache;
        assert!(stats.misses > 0, "cache was never consulted");
        assert_eq!(uncached.placement_cache.hits, 0);
        assert_eq!(uncached.placement_cache.misses, 0);
        // Repeated shapes over a recurring free vector must actually
        // hit, or the A/B proves nothing.
        assert!(stats.hits > 0, "no cache hits");
    }
}

#[test]
fn sharded_and_global_front_layers_are_byte_identical_in_runtime() {
    // The per-QPU-pair sharded front layer only changes *which* shards
    // an allocation round scans, never what it grants: runtime-level
    // schedules must not move a tick, while the work counters show the
    // sharded arm scanning strictly fewer requests per round.
    let (cloud, workload) = contended_setup();
    let placement = CloudQcPlacement::default();
    for seed in [5u64, 11] {
        let run = |scheduler: &dyn Scheduler| {
            Orchestrator::new(&cloud, &placement, scheduler, seed)
                .run(&workload)
                .expect("contended run completes")
        };
        let sharded = run(&CloudQcScheduler);
        let global = run(&GlobalFront(&CloudQcScheduler));
        assert_eq!(observable(&sharded), observable(&global), "seed {seed}");
        assert_eq!(sharded.event_batches, global.event_batches);
        assert!(
            sharded.allocation.requests_scanned < global.allocation.requests_scanned,
            "sharding should scan fewer requests: {:?} vs {:?}",
            sharded.allocation,
            global.allocation
        );
        assert!(sharded.allocation.rounds > 0);
    }
    // Path reservation keeps a pure scheduler on the global layer, where
    // settled rounds are elided: check that elision against the
    // never-elided wrapper, the only difference between the two arms.
    for seed in [5u64, 11] {
        let run = |scheduler: &dyn Scheduler| {
            ServiceBuilder::new(&cloud, &placement, scheduler, seed)
                .path_reservation(true)
                .build_orchestrator()
                .run(&workload)
                .expect("contended run completes")
        };
        let elided = run(&CloudQcScheduler);
        let unelided = run(&GlobalFront(&CloudQcScheduler));
        assert_eq!(observable(&elided), observable(&unelided), "seed {seed}");
        assert_eq!(elided.event_batches, unelided.event_batches);
        assert!(
            elided.allocation.rounds < unelided.allocation.rounds,
            "settled rounds should be elided: {:?} vs {:?}",
            elided.allocation,
            unelided.allocation
        );
    }
}

#[test]
fn sharded_and_global_front_layers_are_byte_identical_in_executor() {
    // The executor-level A/B, under the bench's contention profile
    // (scarce pairs, low EPR success, random placements), across every
    // scheduler. For the pure schedulers this exercises the dirty-shard
    // fast path and the barren-round elision against the global,
    // never-elided layer; the random scheduler is impure, so it runs
    // the global layer on both arms (eliding shards would shift its
    // RNG stream).
    let cloud = CloudBuilder::new(6)
        .computing_qubits(40)
        .communication_qubits(2)
        .epr_success_prob(0.2)
        .ring_topology()
        .build();
    let jobs = batch(&["qugan_n39", "knn_n67", "adder_n64", "qft_n29"]);
    let placed: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let p = RandomPlacement
                .place(c, &cloud, &cloud.status(), i as u64)
                .expect("placement succeeds");
            (c, p)
        })
        .collect();
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(CloudQcScheduler),
        Box::new(GreedyScheduler),
        Box::new(AverageScheduler),
        Box::new(RandomScheduler),
    ];
    for scheduler in &schedulers {
        for seed in [1u64, 9, 27] {
            let run = |scheduler: &dyn Scheduler| {
                let mut exec = Executor::new(&cloud, scheduler, seed);
                let ids: Vec<usize> = placed.iter().map(|(c, p)| exec.add_job(c, p)).collect();
                exec.run_to_completion();
                let results: Vec<_> = ids
                    .into_iter()
                    .map(|id| exec.job_result(id).expect("job finished"))
                    .collect();
                (results, exec.now(), exec.comm_free().to_vec())
            };
            assert_eq!(
                run(scheduler.as_ref()),
                run(&GlobalFront(scheduler.as_ref())),
                "{} seed {seed}",
                scheduler.name()
            );
        }
    }
}

#[test]
fn two_epoch_service_with_shared_cache_matches_independent_runs() {
    // The service-layer golden: driving the same workload through two
    // epochs of one resident Service (whose placement cache persists
    // across epochs) must produce *exactly* the per-job completion
    // times of two independent Orchestrator::run calls — cache reuse
    // may only change speed, never outcomes — while the warm epoch
    // proves the cache actually carried over (hit-rate > 0).
    let (cloud, workload) = contended_setup();
    let placement = CloudQcPlacement::default();
    for seed in [3u64, 7, 42] {
        let builder = || {
            ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                .admission(AdmissionPolicy::Backfill)
        };
        let solo = builder()
            .build_orchestrator()
            .run(&workload)
            .expect("independent run completes");
        let mut svc = builder().build();
        svc.submit_workload(&workload);
        let epoch1 = svc.drive().expect("epoch 1 completes");
        svc.submit_workload(&workload);
        let epoch2 = svc.drive().expect("epoch 2 completes");
        assert_eq!(observable(&epoch1), observable(&solo), "seed {seed}");
        assert_eq!(observable(&epoch2), observable(&solo), "seed {seed}");
        // Warm-epoch cache hit-rate > 0: the persistent cache answered
        // admission lookups epoch 1 already paid for.
        assert!(
            epoch2.placement_cache.hit_rate() > 0.0,
            "seed {seed}: warm epoch never hit the shared cache: {:?}",
            epoch2.placement_cache
        );
        assert!(
            epoch2.placement_cache.misses < epoch1.placement_cache.misses,
            "seed {seed}: warm epoch should miss less: {:?} vs {:?}",
            epoch2.placement_cache,
            epoch1.placement_cache
        );
        // The streaming report saw both epochs.
        let report = svc.report();
        assert_eq!(report.epochs, 2);
        assert_eq!(report.completed, 2 * solo.outcomes.len() as u64);
        assert_eq!(
            report.placement_cache.hits,
            epoch1.placement_cache.hits + epoch2.placement_cache.hits
        );
    }
}

#[test]
fn continuous_clock_over_drained_boundary_matches_epoch_mode() {
    // The continuous-clock golden: epoch mode is the degenerate case of
    // the continuous service. Whenever the cloud fully drains between
    // two workloads, one continuous run over their concatenation (the
    // second offset to arrive after quiescence) must reproduce two
    // epoch drives *byte-identically* — same admission instants, same
    // placements, same EPR rounds, same completion ticks — modulo the
    // frame shift: continuous records carry lifetime clocks and global
    // job indices, so epoch 2's records reappear shifted by the
    // boundary time and the first workload's job count.
    let (cloud, w1) = contended_setup();
    let placement = CloudQcPlacement::default();
    let pool = batch(&["qft_n29", "ghz_n25", "qugan_n39"]);
    let w2 = Workload::poisson(&pool, 12, 400.0, 29);
    let shift_back = |mut r: cloudqc::core::runtime::JobRecord, jobs: usize, base: u64| {
        r.job -= jobs;
        r.arrived_at = Tick::new(r.arrived_at.as_ticks() - base);
        r.admitted_at = Tick::new(r.admitted_at.as_ticks() - base);
        r.finished_at = Tick::new(r.finished_at.as_ticks() - base);
        r
    };
    for seed in [3u64, 7, 42] {
        let builder = || {
            ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, seed)
                .admission(AdmissionPolicy::Backfill)
        };
        // Epoch face: two drives, each a fresh clock-0 era.
        let mut epochs = builder().build();
        epochs.submit_workload(&w1);
        let e1 = epochs.drive().expect("epoch 1 completes");
        epochs.submit_workload(&w2);
        let e2 = epochs.drive().expect("epoch 2 completes");
        // Continuous face: same engine, never reset; the second
        // workload is submitted in lifetime coordinates.
        let mut cont = builder().build();
        cont.submit_workload(&w1);
        let c1 = cont.drive_to_quiescence().expect("window 1 completes");
        assert!(c1.quiescent, "seed {seed}: cloud must drain at boundary");
        let base = cont.now().as_ticks();
        cont.submit_workload(&w2.clone().offset_arrivals(base));
        let c2 = cont.drive_to_quiescence().expect("window 2 completes");
        // Window 1 shares epoch 1's frame exactly (base 0); epoch
        // reports sort outcomes by job index, windows by completion.
        let mut got1 = c1.outcomes.clone();
        got1.sort_by_key(|r| r.job);
        assert_eq!(got1, e1.outcomes, "seed {seed}: boundary window");
        let mut got2: Vec<_> = c2
            .outcomes
            .iter()
            .map(|r| shift_back(r.clone(), w1.len(), base))
            .collect();
        got2.sort_by_key(|r| r.job);
        assert_eq!(got2, e2.outcomes, "seed {seed}: continuous epoch 2");
        assert!(c1.rejected.is_empty() && c2.rejected.is_empty());
        assert!(e1.rejected.is_empty() && e2.rejected.is_empty());
        assert_eq!(
            cont.now(),
            epochs.now(),
            "seed {seed}: both faces park the lifetime clock at the same tick"
        );
    }
}
