//! The end-to-end CloudQC ledger: batch, stream and fleet workloads
//! driven through the public API, with a traced per-layer split. See
//! `README.md` in this directory for why each workload exists and what
//! each metric should move.

pub mod report;
pub mod trace;
pub mod workload;
