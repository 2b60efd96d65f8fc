//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//!
//! Runs one workload for about `--seconds` host seconds as repeated
//! passes with the same seed, checks every pass, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The line before it records the run's environment. Any
//! failed check exits non-zero without a result line.

use cloudqc_perfbench::report::{self, json_str, Measured, Metric};
use cloudqc_perfbench::trace::{self, Recorder, Span};
use cloudqc_perfbench::workload::{run_pass, setup_sample, Kind, Pass, Scale, Setup};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <paper_batch|poisson_stream|fleet_failover> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

/// `setup_s` samples taken before each pass (which adds one more), so
/// the median spans the whole run rather than one moment of it.
const SETUP_SAMPLES: usize = 6;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            scale = Scale::Tiny;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// Builds a fresh setup and drives one pass on it; the setup time
/// (including building the service or fleet) joins `setup_s`.
fn timed_pass(
    args: &Args,
    recorder: Option<Arc<Recorder>>,
    setup_s: &mut Vec<f64>,
) -> Result<Pass, String> {
    setup_s.extend((0..SETUP_SAMPLES).map(|_| setup_sample(args.kind, args.seed, args.scale)));
    let start = Instant::now();
    let setup = Setup::new(args.kind, args.seed, args.scale);
    let setup_ns = start.elapsed().as_nanos() as u64;
    let pass = run_pass(&setup, recorder)?;
    setup_s.push((setup_ns + pass.build_ns) as f64 / 1e9);
    Ok(pass)
}

/// Every pass of one seed must produce the same schedule and counters,
/// traced or not.
fn check_same(first: &Pass, pass: &Pass) -> Result<(), String> {
    if pass.digest != first.digest || pass.jct != first.jct {
        return Err(format!(
            "schedule digest {:016x} differs from the first pass's {:016x}",
            pass.digest, first.digest
        ));
    }
    if pass.window_ns.len() != first.window_ns.len() {
        return Err("a pass drove a different number of windows than the first".to_owned());
    }
    if pass.counters != first.counters {
        return Err("a pass's work counters differ from the first pass's".to_owned());
    }
    Ok(())
}

/// Checks `pass` against the first pass of its kind and folds it in.
fn keep(measured: &mut Option<Measured>, pass: Pass) -> Result<(), String> {
    match measured {
        Some(m) => {
            check_same(&m.first, &pass)?;
            m.fold(&pass);
        }
        None => *measured = Some(Measured::new(pass)),
    }
    Ok(())
}

fn spans_path(args: &Args) -> PathBuf {
    let tiny = if args.scale == Scale::Tiny {
        "-tiny"
    } else {
        ""
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}{tiny}.jsonl", args.kind.name()))
}

/// Writes the traced passes' spans, then reads them back: the
/// per-layer times come from the file, not from memory.
fn round_trip_spans(args: &Args, spans: &[Vec<Span>]) -> Result<Vec<Vec<Span>>, String> {
    let path = spans_path(args);
    let dir = path.parent().expect("the span file has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    std::fs::write(&path, trace::to_jsonl(spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    trace::from_jsonl(&text)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    passes: usize,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let begin = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut untraced: Option<Measured> = None;
    let mut traced: Option<Measured> = None;
    let mut spans = Vec::new();
    let (mut passes, mut attempted, mut failed) = (0, 0, 0);
    // At least two passes, so the schedule is seen to repeat; then more
    // while the next one is expected to end within the budget.
    loop {
        let round = Instant::now();
        let mut done = Vec::new();
        if args.trace {
            let recorder = Arc::new(Recorder::default());
            done.push((
                true,
                timed_pass(args, Some(Arc::clone(&recorder)), &mut setup_s)?,
            ));
            spans.push(recorder.take());
        }
        done.push((false, timed_pass(args, None, &mut setup_s)?));
        for (is_traced, pass) in done {
            passes += 1;
            attempted += pass.submitted;
            failed += pass.rejected;
            if let Some(t) = &traced {
                check_same(&t.first, &pass)?;
            }
            let kind = if is_traced {
                &mut traced
            } else {
                &mut untraced
            };
            keep(kind, pass)?;
        }
        if passes >= 2 && begin.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let untraced = untraced.expect("every round runs an untraced pass");
    let metrics = match traced {
        Some(traced) => report::per_layer(&untraced, &traced, &round_trip_spans(args, &spans)?)?,
        None => report::end_to_end(&untraced, &setup_s, report::peak_rss_mib()?),
    };
    Ok(Outcome {
        attempted,
        failed,
        passes,
        metrics,
    })
}

fn env_line(args: &Args, passes: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("CLOUDQC_THREADS").unwrap_or_else(|_| "unset".to_owned());
    format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"passes\": {passes}, \"available_parallelism\": {parallelism}, \"CLOUDQC_THREADS\": {}, \"rustc\": {}}}}}",
        json_str(args.kind.name()),
        args.seed,
        u8::from(args.trace),
        json_str(&threads),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = run(&args).and_then(|outcome| {
        let result = report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)?;
        Ok((env_line(&args, outcome.passes), result))
    });
    match line {
        Ok((env, result)) => {
            println!("{env}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
