//! The batch manager (paper §V.B, Eq. 11).
//!
//! In batch mode multiple jobs arrive together and CloudQC chooses the
//! processing order by the metric
//! `I_i = λ₁·#CNOTs/n_i + λ₂·n_i + λ₃·d_i`: two-qubit-gate density
//! (communication risk), qubit count (resource demand) and depth
//! (execution time). Denser/larger jobs are placed first, while the
//! cloud still offers well-connected QPU sets; small jobs backfill.
//! The CloudQC-FIFO baseline keeps arrival order instead.

use crate::config::BatchWeights;
use cloudqc_circuit::Circuit;

/// The job-ordering metric `I_i` (Eq. 11).
///
/// # Example
///
/// ```
/// use cloudqc_circuit::generators::catalog;
/// use cloudqc_core::batch::job_metric;
/// use cloudqc_core::config::BatchWeights;
///
/// let dense = catalog::by_name("qft_n63").unwrap();
/// let sparse = catalog::by_name("bv_n70").unwrap();
/// let w = BatchWeights::default();
/// assert!(job_metric(&dense, &w) > job_metric(&sparse, &w));
/// ```
pub fn job_metric(circuit: &Circuit, weights: &BatchWeights) -> f64 {
    let n = circuit.num_qubits().max(1) as f64;
    weights.lambda1 * circuit.two_qubit_gate_count() as f64 / n
        + weights.lambda2 * n
        + weights.lambda3 * circuit.depth() as f64
}

/// Returns the metric processing order (indices into `circuits`):
/// descending `I_i`, stable, so ties keep arrival order. The FIFO
/// baseline is the identity order.
pub fn order_jobs(circuits: &[Circuit], weights: &BatchWeights) -> Vec<usize> {
    let metrics: Vec<f64> = circuits.iter().map(|c| job_metric(c, weights)).collect();
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    order.sort_by(|&a, &b| {
        metrics[b]
            .partial_cmp(&metrics[a])
            .expect("finite metrics")
            .then_with(|| a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudqc_circuit::generators::catalog;

    #[test]
    fn fifo_keeps_arrival_order() {
        let circuits = vec![
            catalog::by_name("qft_n29").unwrap(),
            catalog::by_name("bv_n70").unwrap(),
        ];
        // Zero weights tie every job, and ties keep arrival order.
        let zero = BatchWeights {
            lambda1: 0.0,
            lambda2: 0.0,
            lambda3: 0.0,
        };
        assert_eq!(order_jobs(&circuits, &zero), vec![0, 1]);
    }

    #[test]
    fn metric_puts_dense_heavy_jobs_first() {
        let circuits = vec![
            catalog::by_name("ghz_n127").unwrap(), // light chain
            catalog::by_name("qft_n100").unwrap(), // dense all-to-all
            catalog::by_name("vqe_n4").unwrap(),   // tiny
        ];
        let order = order_jobs(&circuits, &BatchWeights::default());
        assert_eq!(order[0], 1, "qft_n100 should lead: {order:?}");
        assert_eq!(order[2], 2, "vqe_n4 should trail: {order:?}");
    }

    #[test]
    fn metric_components_matter() {
        let w_density_only = BatchWeights {
            lambda1: 1.0,
            lambda2: 0.0,
            lambda3: 0.0,
        };
        let qft = catalog::by_name("qft_n63").unwrap();
        // density = n-1 for QFT (2·C(n,2)/n).
        assert!((job_metric(&qft, &w_density_only) - 62.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch() {
        assert!(order_jobs(&[], &BatchWeights::default()).is_empty());
    }

    #[test]
    fn ties_are_stable() {
        let a = catalog::by_name("qft_n29").unwrap();
        let circuits = vec![a.clone(), a];
        assert_eq!(order_jobs(&circuits, &BatchWeights::default()), vec![0, 1]);
    }
}
