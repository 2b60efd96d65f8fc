//! The three workloads, driven window by window through the public API
//! with default knobs only.
//!
//! Jobs are made lazily: each one is cloned from a prototype circuit
//! when its window submits it, so the process's memory is the
//! program's, not a pre-built job list's.

use crate::trace::{Layer, Recorder, TracedPlacement, TracedRouting};
use cloudqc::circuit::generators::catalog;
use cloudqc::circuit::Circuit;
use cloudqc::cloud::{Cloud, CloudBuilder};
use cloudqc::core::placement::{CacheStats, CloudQcPlacement, PlacementAlgorithm};
use cloudqc::core::runtime::{
    CheapestPlacement, Fleet, FleetBuilder, RoutingPolicy, Service, ServiceBuilder, WindowReport,
};
use cloudqc::core::schedule::CloudQcScheduler;
use cloudqc::core::workload::{poisson_arrivals, WorkloadJob};
use cloudqc::core::AllocStats;
use cloudqc::sim::series::BatchStats;
use cloudqc::sim::Tick;
use std::sync::Arc;
use std::time::Instant;

/// The paper's "Mixed" multi-tenant pool (§VI.D).
const MIXED_POOL: [&str; 6] = [
    "knn_n129",
    "qugan_n111",
    "qugan_n71",
    "qft_n63",
    "multiplier_n45",
    "multiplier_n75",
];

/// The cycle of small and medium shapes stream and fleet jobs follow.
/// With six equally frequent shapes the median JCT would sit exactly on
/// the gap between the third- and fourth-fastest shape and jump between
/// them from seed to seed; a second `qugan_n39` puts it inside that
/// shape's cluster instead.
const STREAM_POOL: [&str; 7] = [
    "qft_n29",
    "ghz_n40",
    "qugan_n39",
    "bv_n70",
    "ising_n34",
    "knn_n67",
    "qugan_n39",
];

/// Fixed topology seeds of the stream's cloud and the fleet's three
/// backends, so the run seed varies the arrivals, tenants and placement
/// seeds only: topology draws made the simulated JCTs swing more from
/// seed to seed than the arrivals do.
const TOPOLOGY_SEEDS: [u64; 3] = [1, 2, 3];

/// Fleet tenants, drawn uniformly from this table: shares 3:1:1.
const TENANT_DRAW: [usize; 5] = [0, 0, 0, 1, 2];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's batch mode: batches of Mixed circuits on one
    /// service, each arriving when the previous one drains.
    PaperBatch,
    /// An open-loop Poisson stream of small jobs on one service.
    PoissonStream,
    /// A three-backend fleet with placement-probe routing and a
    /// mid-run backend failure and recovery.
    FleetFailover,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperBatch, Kind::PoissonStream, Kind::FleetFailover];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperBatch => "paper_batch",
            Kind::PoissonStream => "poisson_stream",
            Kind::FleetFailover => "fleet_failover",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// How much work one pass does: `Full` is the measured size, `Tiny` is
/// for the benchmark's own tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A workload's shape: job count (batch count for `PaperBatch`), mean
/// inter-arrival, and the simulated control-window length.
///
/// Window lengths keep the window-time percentiles inside one cluster
/// of windows rather than on the edge between two, where they would
/// jump from seed to seed. On the stream and the fleet most windows see
/// no arrival, so the median is a quiet window and p99 falls among the
/// windows with a cold place. On the batch, admission windows are rarer
/// than 1%, so p99 is a busy event-loop window. Every full pass drives
/// more than 2000 windows.
struct Shape {
    jobs: usize,
    mean_interarrival: f64,
    window_ticks: u64,
}

const BATCH_SIZE: usize = 20;

fn shape(kind: Kind, scale: Scale) -> Shape {
    let tiny = scale == Scale::Tiny;
    match kind {
        Kind::PaperBatch => Shape {
            jobs: if tiny { 1 } else { 5 },
            mean_interarrival: 0.0,
            window_ticks: 100,
        },
        // The stream's p99 window is one of its few hundred cold places,
        // so the seed decides which one it is. The more cold places it
        // rests on, the less it moves: over ten seeds its spread was 0.39
        // at 1000 jobs, and 4000 jobs give it twice the cold places of 2000.
        Kind::PoissonStream => Shape {
            jobs: if tiny { 8 } else { 4_000 },
            mean_interarrival: 8_000.0,
            window_ticks: 2_000,
        },
        // At a mean gap of 3000 ticks the preferred backend never drained
        // on some seeds and kept every job it ran, so peak RSS split into
        // two groups by seed; at 4500 it drains now and then.
        Kind::FleetFailover => Shape {
            jobs: if tiny { 8 } else { 2_400 },
            mean_interarrival: 4_500.0,
            window_ticks: 1_000,
        },
    }
}

/// SplitMix64: the benchmark's own seeded draws (circuit picks and
/// tenants), independent of the program's generators.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Everything a pass needs before it drives anything: the clouds, the
/// circuit prototypes, and the seeded input schedule. Building it (plus
/// the service or fleet from it) is what `setup_s` times.
pub struct Setup {
    kind: Kind,
    seed: u64,
    shape: Shape,
    clouds: Vec<Cloud>,
    prototypes: Vec<Circuit>,
    /// Stream and fleet: each job's arrival tick.
    arrivals: Vec<Tick>,
    /// Per job: its prototype index (for `PaperBatch`, batch-major).
    picks: Vec<usize>,
    /// Fleet: each job's tenant.
    tenants: Vec<usize>,
}

impl Setup {
    pub fn new(kind: Kind, seed: u64, scale: Scale) -> Setup {
        let shape = shape(kind, scale);
        let pool: &[&str] = match kind {
            Kind::PaperBatch => &MIXED_POOL,
            Kind::PoissonStream | Kind::FleetFailover => &STREAM_POOL,
        };
        let prototypes = pool
            .iter()
            .map(|name| catalog::by_name(name).expect("pool circuits are in the catalog"))
            .collect();
        let mut draw = Draw(seed);
        let clouds = match kind {
            Kind::PaperBatch => vec![CloudBuilder::paper_default(seed).build()],
            Kind::PoissonStream => vec![CloudBuilder::paper_default(TOPOLOGY_SEEDS[0]).build()],
            Kind::FleetFailover => TOPOLOGY_SEEDS
                .iter()
                .map(|&topology| CloudBuilder::paper_default(topology).build())
                .collect(),
        };
        let (arrivals, picks, tenants) = match kind {
            Kind::PaperBatch => {
                // Each batch is a seeded shuffle of a stratified deck:
                // every shape three times plus two that rotate with the
                // batch number, so batch mixes (and with them the
                // simulated JCTs) do not swing from seed to seed.
                let mut picks = Vec::with_capacity(shape.jobs * BATCH_SIZE);
                for batch in 0..shape.jobs {
                    let mut deck: Vec<usize> = (0..BATCH_SIZE)
                        .map(|i| if i < 3 * pool.len() { i } else { 2 * batch + i } % pool.len())
                        .collect();
                    for i in (1..deck.len()).rev() {
                        deck.swap(i, draw.below(i + 1));
                    }
                    picks.extend(deck);
                }
                (Vec::new(), picks, Vec::new())
            }
            Kind::PoissonStream | Kind::FleetFailover => {
                let arrivals = poisson_arrivals(shape.jobs, shape.mean_interarrival, seed);
                let picks = (0..shape.jobs).map(|i| i % pool.len()).collect();
                let tenants = if kind == Kind::FleetFailover {
                    (0..shape.jobs)
                        .map(|_| TENANT_DRAW[draw.below(TENANT_DRAW.len())])
                        .collect()
                } else {
                    Vec::new()
                };
                (arrivals, picks, tenants)
            }
        };
        Setup {
            kind,
            seed,
            shape,
            clouds,
            prototypes,
            arrivals,
            picks,
            tenants,
        }
    }

    /// Builds the service or fleet the pass drives, with default knobs.
    /// With a recorder, the routing policy is wrapped here; the
    /// placement algorithm arrives already wrapped.
    pub fn build<'s>(
        &'s self,
        placement: &'s dyn PlacementAlgorithm,
        recorder: Option<&Arc<Recorder>>,
    ) -> Target<'s> {
        let builder =
            |cloud: &'s Cloud| ServiceBuilder::new(cloud, placement, &CloudQcScheduler, self.seed);
        match self.kind {
            Kind::PaperBatch | Kind::PoissonStream => {
                Target::Service(Box::new(builder(&self.clouds[0]).build()))
            }
            Kind::FleetFailover => {
                let policy: Box<dyn RoutingPolicy> = match recorder {
                    Some(r) => {
                        Box::new(TracedRouting::new(CheapestPlacement::new(), Arc::clone(r)))
                    }
                    None => Box::new(CheapestPlacement::new()),
                };
                let fleet = self
                    .clouds
                    .iter()
                    .fold(FleetBuilder::new(), |fleet, cloud| {
                        fleet.backend(builder(cloud))
                    })
                    .boxed_policy(policy)
                    .build();
                Target::Fleet(fleet)
            }
        }
    }

    fn job(&self, i: usize, arrival: Tick) -> WorkloadJob {
        let mut job = WorkloadJob::new(self.prototypes[self.picks[i]].clone(), arrival);
        if let Some(&tenant) = self.tenants.get(i) {
            job.tenant = tenant;
        }
        job
    }
}

/// One `setup_s` sample that no pass follows: builds a setup and its
/// service or fleet, then drops both. Returns the seconds taken.
pub fn setup_sample(kind: Kind, seed: u64, scale: Scale) -> f64 {
    let start = Instant::now();
    let setup = Setup::new(kind, seed, scale);
    let placement = CloudQcPlacement::default();
    drop(std::hint::black_box(setup.build(&placement, None)));
    start.elapsed().as_secs_f64()
}

/// What a pass drives.
pub enum Target<'s> {
    Service(Box<Service<'s>>),
    Fleet(Fleet<'s>),
}

/// Work counters of one pass, from the reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub cache: CacheStats,
    pub alloc: AllocStats,
    pub events: u64,
    pub event_ticks: u64,
    pub preemptions: u64,
    pub reroutes: u64,
    pub spillovers: u64,
    pub failovers: u64,
}

impl Counters {
    fn of_service(service: &Service<'_>) -> Counters {
        let report = service.report();
        Counters::base(
            report.placement_cache,
            report.allocation,
            &report.event_batches,
            report.preemptions,
        )
    }

    fn of_fleet(fleet: &Fleet<'_>) -> Counters {
        let report = fleet.report();
        Counters {
            reroutes: report.reroutes,
            spillovers: report.spillovers,
            failovers: report.failovers,
            ..Counters::base(
                report.placement_cache,
                report.allocation,
                &report.event_batches,
                report.preemptions,
            )
        }
    }

    fn base(
        cache: CacheStats,
        alloc: AllocStats,
        batches: &BatchStats,
        preemptions: u64,
    ) -> Counters {
        Counters {
            cache,
            alloc,
            events: batches.events(),
            event_ticks: batches.ticks(),
            preemptions,
            ..Counters::default()
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The outcome of one pass: what it submitted and resolved, the host
/// time of every window, and the simulated per-job results.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// FNV-1a over every outcome's job, admitted_at, finished_at,
    /// remote_gates and epr_rounds, then every rejected job id, in the
    /// order the windows reported them.
    pub digest: u64,
    /// Host time to build the service or fleet.
    pub build_ns: u64,
    /// Host time of each simulated control window, in order.
    pub window_ns: Vec<u64>,
    /// Completion times (arrival to finish) in ticks, sorted.
    pub jct: Vec<u64>,
    pub remote_gates: u64,
    pub epr_rounds: u64,
    pub queueing_ticks: u64,
    pub epr_wait_ticks: u64,
    pub compute_ticks: u64,
    pub counters: Counters,
}

/// Tracks a pass's submissions and resolutions and times its windows.
struct Ledger<'r> {
    recorder: Option<&'r Recorder>,
    resolved: Vec<bool>,
    pass: Pass,
    digest: Fnv,
}

impl<'r> Ledger<'r> {
    fn new(recorder: Option<&'r Recorder>, build_ns: u64) -> Self {
        Ledger {
            recorder,
            resolved: Vec::new(),
            digest: Fnv::new(),
            pass: Pass {
                build_ns,
                ..Pass::default()
            },
        }
    }

    /// Runs one control window, timed (and traced when recording).
    fn window<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = match self.recorder {
            Some(recorder) => recorder.within(Layer::Window, f),
            None => f(),
        };
        self.pass.window_ns.push(start.elapsed().as_nanos() as u64);
        result
    }

    /// Records that jobs up to (not including) id `upto` were submitted.
    fn submitted(&mut self, upto: usize) {
        self.resolved.resize(upto, false);
        self.pass.submitted = upto as u64;
    }

    fn outstanding(&self) -> u64 {
        self.pass.submitted - self.pass.completed - self.pass.rejected
    }

    fn resolve(&mut self, job: usize) -> Result<(), String> {
        match self.resolved.get_mut(job) {
            Some(slot) if !*slot => {
                *slot = true;
                Ok(())
            }
            Some(_) => Err(format!("job {job} was resolved twice")),
            None => Err(format!("job {job} was resolved but never submitted")),
        }
    }

    fn absorb(&mut self, window: &WindowReport) -> Result<(), String> {
        for record in &window.outcomes {
            self.resolve(record.job)?;
            for value in [
                record.job as u64,
                record.admitted_at.as_ticks(),
                record.finished_at.as_ticks(),
                record.remote_gates as u64,
                record.epr_rounds,
            ] {
                self.digest.write(value);
            }
            let p = &mut self.pass;
            p.completed += 1;
            p.jct.push(record.completion_time.as_ticks());
            p.remote_gates += record.remote_gates as u64;
            p.epr_rounds += record.epr_rounds;
            p.queueing_ticks += record.breakdown.queueing;
            p.epr_wait_ticks += record.breakdown.epr_wait;
            p.compute_ticks += record.breakdown.compute;
        }
        for (job, _) in &window.rejected {
            self.resolve(*job)?;
            self.digest.write(u64::MAX);
            self.digest.write(*job as u64);
            self.pass.rejected += 1;
        }
        Ok(())
    }

    fn finish(mut self, counters: Counters) -> Result<Pass, String> {
        if self.outstanding() != 0 || self.resolved.iter().any(|&r| !r) {
            return Err(format!(
                "{} of {} submitted jobs were never resolved",
                self.outstanding(),
                self.pass.submitted
            ));
        }
        self.pass.jct.sort_unstable();
        self.pass.digest = self.digest.0;
        self.pass.counters = counters;
        Ok(self.pass)
    }
}

/// A pass stops with an error rather than spin if it never quiesces.
const MAX_WINDOWS: u64 = 10_000_000;

/// Builds the service or fleet and drives one pass of the workload,
/// checking that every submitted job is resolved exactly once.
pub fn run_pass(setup: &Setup, recorder: Option<Arc<Recorder>>) -> Result<Pass, String> {
    let plain = CloudQcPlacement::default();
    let traced = recorder
        .as_ref()
        .map(|r| TracedPlacement::new(CloudQcPlacement::default(), Arc::clone(r)));
    let placement: &dyn PlacementAlgorithm = match &traced {
        Some(traced) => traced,
        None => &plain,
    };
    let start = Instant::now();
    let target = setup.build(placement, recorder.as_ref());
    let ledger = Ledger::new(recorder.as_deref(), start.elapsed().as_nanos() as u64);
    match target {
        Target::Service(service) if setup.kind == Kind::PaperBatch => {
            drive_batches(setup, *service, ledger)
        }
        Target::Service(service) => drive_stream(setup, *service, ledger),
        Target::Fleet(fleet) => drive_fleet(setup, fleet, ledger),
    }
}

fn drive_err(e: impl std::fmt::Display) -> String {
    format!("drive failed: {e}")
}

/// Closed loop in simulated time: a batch arrives at the start of the
/// first window after the previous batch has fully drained.
fn drive_batches(
    setup: &Setup,
    mut service: Service<'_>,
    mut ledger: Ledger<'_>,
) -> Result<Pass, String> {
    let w = setup.shape.window_ticks;
    let batches = setup.shape.jobs;
    let mut next_batch = 0;
    for k in 0..MAX_WINDOWS {
        let start = Tick::new(k * w);
        let submit = ledger.outstanding() == 0 && next_batch < batches;
        let first = next_batch * BATCH_SIZE;
        let report = ledger.window(|| {
            if submit {
                for i in first..first + BATCH_SIZE {
                    service.submit_job(setup.job(i, start));
                }
            }
            service.drive_until(Tick::new((k + 1) * w))
        });
        if submit {
            next_batch += 1;
            ledger.submitted(next_batch * BATCH_SIZE);
        }
        let report = report.map_err(drive_err)?;
        ledger.absorb(&report)?;
        if next_batch == batches && report.quiescent {
            return ledger.finish(Counters::of_service(&service));
        }
    }
    Err("the batch workload never drained".to_owned())
}

/// Open loop in simulated time: each window submits the jobs arriving
/// in it, then advances the service to the window's end.
fn drive_stream(
    setup: &Setup,
    mut service: Service<'_>,
    mut ledger: Ledger<'_>,
) -> Result<Pass, String> {
    let w = setup.shape.window_ticks;
    let arrivals = &setup.arrivals;
    let mut next = 0;
    for k in 0..MAX_WINDOWS {
        let end = Tick::new((k + 1) * w);
        let report = ledger.window(|| {
            while next < arrivals.len() && arrivals[next] < end {
                service.submit_job(setup.job(next, arrivals[next]));
                next += 1;
            }
            service.drive_until(end)
        });
        ledger.submitted(next);
        let report = report.map_err(drive_err)?;
        ledger.absorb(&report)?;
        if next == arrivals.len() && report.quiescent {
            return ledger.finish(Counters::of_service(&service));
        }
    }
    Err("the stream never drained".to_owned())
}

/// Open loop over the fleet: each job is submitted at its arrival, after
/// driving the fleet up to it, so routing sees live load. Backend 0
/// fails at a third of the arrival span and recovers at two thirds.
fn drive_fleet(
    setup: &Setup,
    mut fleet: Fleet<'_>,
    mut ledger: Ledger<'_>,
) -> Result<Pass, String> {
    let w = setup.shape.window_ticks;
    let arrivals = &setup.arrivals;
    let span = arrivals.last().map_or(0, |t| t.as_ticks());
    let mut faults = vec![
        (Tick::new(span / 3), true),
        (Tick::new(2 * span / 3), false),
    ]
    .into_iter()
    .peekable();
    let mut next = 0;
    for k in 0..MAX_WINDOWS {
        let end = Tick::new((k + 1) * w);
        let reports = ledger.window(|| -> Result<Vec<WindowReport>, String> {
            let mut reports = Vec::new();
            loop {
                let arrival = arrivals.get(next).copied().filter(|&t| t < end);
                let fault = faults.peek().copied().filter(|&(t, _)| t < end);
                match (arrival, fault) {
                    (_, Some((at, fail))) if arrival.is_none_or(|a| at <= a) => {
                        reports.push(fleet.drive_until(at).map_err(drive_err)?);
                        if fail {
                            fleet.fail_backend(0);
                        } else {
                            fleet.recover_backend(0);
                        }
                        faults.next();
                    }
                    (Some(at), _) => {
                        reports.push(fleet.drive_until(at).map_err(drive_err)?);
                        let id = fleet.submit_job(setup.job(next, at));
                        if id != next {
                            return Err(format!("fleet numbered job {next} as {id}"));
                        }
                        next += 1;
                    }
                    _ => break,
                }
            }
            reports.push(fleet.drive_until(end).map_err(drive_err)?);
            Ok(reports)
        });
        ledger.submitted(next);
        let reports = reports?;
        for report in &reports {
            ledger.absorb(report)?;
        }
        let quiescent = reports.last().is_some_and(|r| r.quiescent);
        if next == arrivals.len() && faults.peek().is_none() && quiescent {
            if fleet.unresolved() != 0 || fleet.submitted() != next as u64 {
                return Err(format!(
                    "fleet left {} of {} jobs unresolved after quiescence",
                    fleet.unresolved(),
                    fleet.submitted()
                ));
            }
            return ledger.finish(Counters::of_fleet(&fleet));
        }
    }
    Err("the fleet never drained".to_owned())
}
