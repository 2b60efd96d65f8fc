//! The builder-first construction path for the runtime.
//!
//! A [`crate::runtime::Fleet`] needs a *per-backend* configuration
//! value it can hold, pass around, and build services from, not a
//! fluent surface glued to one struct. [`ServiceBuilder`] is that
//! value: one typed, documented home for every knob, producing either
//! a resident [`Service`] ([`ServiceBuilder::build`]) or a one-shot
//! [`Orchestrator`] ([`ServiceBuilder::build_orchestrator`]).
//!
//! The builder is the only place configuration is spelled:
//!
//! ```
//! use cloudqc_cloud::CloudBuilder;
//! use cloudqc_core::placement::CloudQcPlacement;
//! use cloudqc_core::runtime::{AdmissionPolicy, ServiceBuilder};
//! use cloudqc_core::schedule::CloudQcScheduler;
//!
//! let cloud = CloudBuilder::paper_default(1).build();
//! let placement = CloudQcPlacement::default();
//! let service = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 7)
//!     .admission(AdmissionPolicy::ShortestJobFirst)
//!     .placement_repair(true)
//!     .preemption(true)
//!     .build();
//! assert_eq!(service.pending(), 0);
//! ```

use crate::placement::PlacementAlgorithm;
use crate::runtime::orchestrator::Orchestrator;
use crate::runtime::service::{RuntimeConfig, Service};
use crate::runtime::{AdmissionPolicy, LoadShedPolicy};
use crate::schedule::Scheduler;
use cloudqc_cloud::Cloud;

/// Typed construction of one runtime configuration: every knob the
/// epoch, continuous, and fleet faces share, with the same defaults as
/// [`Orchestrator::new`] (priority-aware backfill admission, placement
/// cache on; repair tier, preemption, aging, and load shedding off).
///
/// Terminal calls: [`ServiceBuilder::build`] for a resident
/// [`Service`], [`ServiceBuilder::build_orchestrator`] for the one-shot
/// wrapper, or hand the builder to
/// [`crate::runtime::FleetBuilder::backend`] to make it one backend of
/// a federated fleet.
pub struct ServiceBuilder<'a> {
    cfg: RuntimeConfig<'a>,
}

impl<'a> ServiceBuilder<'a> {
    /// A configuration over one cloud, placement algorithm, and network
    /// scheduler, with the default knob settings. `seed` drives the
    /// executor's EPR sampling; XORed with a circuit's structural
    /// fingerprint it is also the placement seed of every job of that
    /// shape, so repeated shapes hit the placement cache.
    pub fn new(
        cloud: &'a Cloud,
        placement: &'a dyn PlacementAlgorithm,
        scheduler: &'a dyn Scheduler,
        seed: u64,
    ) -> Self {
        ServiceBuilder {
            cfg: RuntimeConfig {
                cloud,
                placement,
                scheduler,
                admission: AdmissionPolicy::default(),
                path_reservation: false,
                placement_cache: true,
                placement_repair: false,
                preemption: false,
                aging_rate: 0.0,
                load_shed: None,
                seed,
            },
        }
    }

    /// Selects the admission policy (default: priority-aware backfill).
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Enables executor path reservation (swapping-station holds, see
    /// [`crate::exec::Executor::with_path_reservation`]; off by
    /// default).
    pub fn path_reservation(mut self, enabled: bool) -> Self {
        self.cfg.path_reservation = enabled;
        self
    }

    /// Enables or disables the placement cache (on by default). The
    /// cache keys each lookup on the exact free-capacity vector and a
    /// hit replays an identical computation, so cached and uncached
    /// runs produce byte-identical schedules; disable only to A/B the
    /// cache or when a placement algorithm violates seeded determinism.
    pub fn placement_cache(mut self, enabled: bool) -> Self {
        self.cfg.placement_cache = enabled;
        self
    }

    /// Enables the placement cache's incremental-repair tier (off by
    /// default; see [`PlacementCache::with_repair`]). On an exact-key
    /// miss, the cache looks for a placement of the same circuit and
    /// seed cached under an *adjacent* free-capacity vector (every
    /// per-QPU count within ±1) and patches it with
    /// [`crate::placement::repair()`] — relocating only the qubits on
    /// now-overloaded QPUs — instead of re-running the full placement
    /// pipeline. Every repaired placement passes the same
    /// [`crate::placement::Placement::fits`] guard as an exact hit, and
    /// an unpatchable near-miss falls through to a full placement, so
    /// feasibility is never weakened; but a repaired placement is
    /// generally not what a cold run would pick, which is why the tier
    /// is opt-in. In a fleet, set it on each backend's builder: routing
    /// probes of a busy backend are where near-misses concentrate.
    /// Repairs and fallbacks are counted separately in
    /// [`crate::placement::CacheStats`].
    ///
    /// [`PlacementCache::with_repair`]: crate::placement::PlacementCache::with_repair
    pub fn placement_repair(mut self, enabled: bool) -> Self {
        self.cfg.placement_repair = enabled;
        self
    }

    /// Enables SLA-driven preemption (off by default): admitting a job
    /// that carries a deadline suspends every running deadline-free
    /// job's remote gates, returning their communication pairs to the
    /// fabric until no deadline-carrying job remains in flight.
    /// Suspended jobs keep their computing qubits (placements are not
    /// migratable) and resume exactly where they parked.
    pub fn preemption(mut self, enabled: bool) -> Self {
        self.cfg.preemption = enabled;
        self
    }

    /// Sets the queue aging rate (default 0 = off): each waiting job's
    /// queue metric grows by `rate` per tick it has waited, so
    /// starvation-prone policies ([`AdmissionPolicy::ShortestJobFirst`],
    /// [`AdmissionPolicy::DeadlineAware`]) eventually serve every
    /// waiter. Arrival-ordered policies ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn aging_rate(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "aging rate must be finite and non-negative"
        );
        self.cfg.aging_rate = rate;
        self
    }

    /// Enables admission-time load shedding (off by default): arrivals
    /// are rejected with [`crate::error::ExecError::LoadShed`] while
    /// the service is over the policy's waiting-queue-depth or
    /// streaming-p99 threshold. In a fleet, a shed is also the router's
    /// per-backend backpressure signal: shed jobs re-route to another
    /// backend instead of being dropped.
    pub fn load_shedding(mut self, policy: LoadShedPolicy) -> Self {
        self.cfg.load_shed = Some(policy);
        self
    }

    /// Builds the resident [`Service`] this configuration describes.
    pub fn build(self) -> Service<'a> {
        Service::from_config(self.cfg)
    }

    /// Builds the one-shot [`Orchestrator`] wrapper instead — the entry
    /// point finite-trace experiments keep using.
    pub fn build_orchestrator(self) -> Orchestrator<'a> {
        Orchestrator::from_config(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::CloudQcPlacement;
    use crate::schedule::CloudQcScheduler;
    use cloudqc_circuit::generators::catalog;
    use cloudqc_cloud::CloudBuilder;

    #[test]
    fn built_service_runs_epochs() {
        let cloud = CloudBuilder::paper_default(3).build();
        let placement = CloudQcPlacement::default();
        let mut svc = ServiceBuilder::new(&cloud, &placement, &CloudQcScheduler, 9).build();
        svc.submit(catalog::by_name("vqe_n4").unwrap(), cloudqc_sim::Tick::ZERO);
        let report = svc.drain().unwrap();
        assert_eq!(report.completed, 1);
    }
}
