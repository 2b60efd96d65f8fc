//! Helpers shared by the integration-test crates.

use cloudqc::core::schedule::{Allocation, RemoteRequest, Scheduler};
use rand::rngs::StdRng;

/// Delegates to a scheduler but hides its purity ([`Scheduler::is_pure`]
/// keeps its default `false`), which forces the executor onto the
/// global front layer and runs the scheduler on every round with no
/// elision — the oracle the sharded layer is checked against.
pub struct GlobalFront<'s>(pub &'s dyn Scheduler);

impl Scheduler for GlobalFront<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn allocate(
        &self,
        requests: &[RemoteRequest],
        available: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Allocation> {
        self.0.allocate(requests, available, rng)
    }
}
