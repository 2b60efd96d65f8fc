//! Turns passes and spans into the named metrics the benchmark prints.

use crate::trace::{attribute, Attribution, Span};
use crate::workload::Pass;

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The passes of one kind (traced or untraced) that a run keeps: the
/// first in full, and each window's least host time across all of them.
/// The passes replay one schedule (the digest check proves it), so
/// window `k` does the same work in each of them, and its least repeat
/// is the one other processes on the host disturbed least. Folding the
/// passes in as they finish keeps the run's memory, and so
/// `peak_rss_mib`, from growing with their number.
pub struct Measured {
    pub first: Pass,
    least: Vec<u64>,
}

impl Measured {
    pub fn new(first: Pass) -> Self {
        Measured {
            least: first.window_ns.clone(),
            first,
        }
    }

    pub fn fold(&mut self, pass: &Pass) {
        for (least, &w) in self.least.iter_mut().zip(&pass.window_ns) {
            *least = (*least).min(w);
        }
    }

    /// Completed jobs per host second over the least window times.
    fn jobs_per_s(&self) -> f64 {
        let drive_ns: u64 = self.least.iter().sum();
        self.first.completed as f64 / (drive_ns as f64 / 1e9)
    }
}

/// The end-to-end metrics of the untraced passes. Simulated metrics
/// come from the first pass; every pass has the same schedule.
pub fn end_to_end(passes: &Measured, setup_s: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let mut windows = passes.least.clone();
    windows.sort_unstable();
    let first = &passes.first;
    let completed = first.completed as f64;
    let jct_mean = first.jct.iter().sum::<u64>() as f64 / completed.max(1.0);
    vec![
        metric("jobs_per_s", "jobs/s", passes.jobs_per_s()),
        metric("window_ms_p50", "ms", quantile(&windows, 0.50) / 1e6),
        metric("window_ms_p99", "ms", quantile(&windows, 0.99) / 1e6),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("setup_s", "s", median(setup_s)),
        metric("sim_jct_mean_ticks", "ticks", jct_mean),
        metric("sim_jct_p50_ticks", "ticks", quantile(&first.jct, 0.50)),
        metric("sim_jct_p90_ticks", "ticks", quantile(&first.jct, 0.90)),
        metric("sim_jct_p99_ticks", "ticks", quantile(&first.jct, 0.99)),
        metric(
            "sim_remote_gates_mean",
            "gates/job",
            ratio(first.remote_gates as f64, completed),
        ),
    ]
}

/// Largest tolerated gap between the summed window time and its parts.
pub const MAX_CLOSURE_ERROR: f64 = 0.01;

/// The per-layer metrics of a traced run: span times from the span
/// file (`spans`, one entry per traced pass), counters from the
/// reports, and the tracing overhead against the untraced passes.
pub fn per_layer(
    untraced: &Measured,
    traced: &Measured,
    spans: &[Vec<Span>],
) -> Result<Vec<Metric>, String> {
    let parts: Vec<Attribution> = spans
        .iter()
        .map(|s| attribute(s))
        .collect::<Result<_, _>>()?;
    for (pass, a) in parts.iter().enumerate() {
        if a.closure_error() > MAX_CLOSURE_ERROR {
            return Err(format!(
                "traced pass {pass}: routing self + placement + residual miss the window total by {:.3}%",
                100.0 * a.closure_error()
            ));
        }
    }
    let n = parts.len() as f64;
    let per_pass_s = |f: fn(&Attribution) -> u64| parts.iter().map(f).sum::<u64>() as f64 / n / 1e9;
    let pooled = |f: fn(&Attribution) -> &Vec<u64>| {
        let mut all: Vec<u64> = parts.iter().flat_map(|a| f(a).iter().copied()).collect();
        all.sort_unstable();
        all
    };
    let window_s = per_pass_s(|a| a.window_ns);
    let routing_self_s = per_pass_s(|a| a.routing_self_ns);
    let placement_s = per_pass_s(|a| a.placement_busy_ns);
    let residual_s = per_pass_s(|a| a.residual_ns);
    let route_ns = pooled(|a| &a.routing_call_ns);
    let place_ns = pooled(|a| &a.placement_call_ns);

    let pass = &traced.first;
    let c = &pass.counters;
    let completed = pass.completed as f64;
    let lookups = c.cache.hits + c.cache.misses + c.cache.repair_hits;
    Ok(vec![
        metric(
            "routing.calls",
            "count",
            parts[0].routing_call_ns.len() as f64,
        ),
        metric("routing.busy_s", "s", per_pass_s(|a| a.routing_busy_ns)),
        metric("routing.self_s", "s", routing_self_s),
        metric(
            "routing.self_share",
            "fraction",
            ratio(routing_self_s, window_s),
        ),
        metric("routing.us_p50", "us", quantile(&route_ns, 0.50) / 1e3),
        metric("routing.us_p99", "us", quantile(&route_ns, 0.99) / 1e3),
        metric(
            "placement.calls",
            "count",
            parts[0].placement_call_ns.len() as f64,
        ),
        metric("placement.busy_s", "s", placement_s),
        metric("placement.ms_p50", "ms", quantile(&place_ns, 0.50) / 1e6),
        metric("placement.ms_p99", "ms", quantile(&place_ns, 0.99) / 1e6),
        metric("placement.share", "fraction", ratio(placement_s, window_s)),
        metric("cache.lookups", "count", lookups as f64),
        metric("cache.hits", "count", c.cache.hits as f64),
        metric("cache.misses", "count", c.cache.misses as f64),
        metric("cache.repair_hits", "count", c.cache.repair_hits as f64),
        metric("cache.hit_rate", "fraction", c.cache.hit_rate()),
        metric("alloc.rounds", "count", c.alloc.rounds as f64),
        metric(
            "alloc.requests_scanned",
            "count",
            c.alloc.requests_scanned as f64,
        ),
        metric(
            "alloc.shards_visited",
            "count",
            c.alloc.shards_visited as f64,
        ),
        metric("exec.events", "count", c.events as f64),
        metric("exec.event_ticks", "count", c.event_ticks as f64),
        metric("exec.epr_rounds", "count", pass.epr_rounds as f64),
        metric("exec.preemptions", "count", c.preemptions as f64),
        metric("runtime.residual_s", "s", residual_s),
        metric(
            "runtime.residual_share",
            "fraction",
            ratio(residual_s, window_s),
        ),
        metric(
            "runtime.ns_per_event",
            "ns",
            ratio(residual_s * 1e9, c.events as f64),
        ),
        metric("fleet.reroutes", "count", c.reroutes as f64),
        metric("fleet.spillovers", "count", c.spillovers as f64),
        metric("fleet.failovers", "count", c.failovers as f64),
        metric(
            "sim.queueing_mean_ticks",
            "ticks",
            ratio(pass.queueing_ticks as f64, completed),
        ),
        metric(
            "sim.epr_wait_mean_ticks",
            "ticks",
            ratio(pass.epr_wait_ticks as f64, completed),
        ),
        metric(
            "sim.compute_mean_ticks",
            "ticks",
            ratio(pass.compute_ticks as f64, completed),
        ),
        metric(
            "reject_ratio",
            "fraction",
            ratio(pass.rejected as f64, pass.submitted as f64),
        ),
        metric("trace.window_s", "s", window_s),
        metric(
            "trace.overhead_ratio",
            "ratio",
            untraced.jobs_per_s() / traced.jobs_per_s(),
        ),
    ])
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
