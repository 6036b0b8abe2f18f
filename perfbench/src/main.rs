//! The data-staging benchmark: the paper sweep, online admission with a
//! growing history, and a mixed service load.
//!
//! ```text
//! perfbench --workload sweep|admit|mixed --seed N --seconds S --trace 0|1
//!           --serve PATH/TO/stage-serve --work DIR
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with the
//! benchmark's own tracing off; with `--trace 1` it replays the same
//! operation streams with every call into a layer timed and the
//! program's counters read, and reports per-layer metrics. Either way
//! every output is checked, and the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! result line carries the same metric names on every workload, each
//! measured on that workload's own operations (see [`stats::Report`]);
//! figures only one workload has go to standard error. A failed check
//! exits with code 1 and prints no result.

mod admit;
mod checks;
mod daemon;
mod mixed;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dstage_obs::metrics as obs;
use stats::Report;

/// Parsed command line.
pub struct Options {
    workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measurement budget; whole rounds only, so a run may overrun it.
    pub seconds: f64,
    trace: bool,
    /// The `stage-serve` binary.
    pub serve: PathBuf,
    /// Directory for daemon data directories (removed per session).
    pub work: PathBuf,
    /// Threads, connections and daemon workers: the machine's
    /// available parallelism.
    pub threads: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve, mut work) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--serve" => serve = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve: serve.ok_or("--serve is required")?,
        work: work.ok_or("--work is required")?,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The daemon's batching counters from a Prometheus scrape.
pub fn push_batch_metrics(report: &mut Report, prometheus: &str) -> Result<(), String> {
    let get = |name: &str| {
        checks::prometheus_value(prometheus, name).ok_or_else(|| format!("scrape lacks {name}"))
    };
    let epochs = get("dstage_service_batches_total")?;
    let members = get("dstage_service_batch_size_sum")?;
    let notes = &mut report.notes;
    notes.push("batch.epochs", epochs, "count")?;
    notes.push("batch.mean_size", if epochs > 0.0 { members / epochs } else { 0.0 }, "count")?;
    notes.push("batch.conflict_retries", get("dstage_service_conflict_retries_total")?, "count")?;
    notes.push("batch.fallbacks", get("dstage_service_batch_fallbacks_total")?, "count")?;
    Ok(())
}

/// The path-search and ledger-probe counters of `dstage-obs`, in the
/// order of [`push_layer_counters`].
pub fn layer_counters() -> [u64; 9] {
    [
        obs::PATH_TREES.get(),
        obs::PATH_RELAXATIONS.get(),
        obs::PATH_EDGE_SCANS.get(),
        obs::PATH_LB_PRUNES.get(),
        obs::PATH_TREE_REPAIRS.get(),
        obs::PATH_BUCKET_ADVANCES.get(),
        obs::RESOURCES_PROBES.get(),
        obs::RESOURCES_PROBE_RESTARTS.get(),
        obs::RESOURCES_GAP_ITERATIONS.get(),
    ]
}

/// Reports the growth of [`layer_counters`] from `before` to `after`
/// per operation, over `ops` operations. Every workload schedules
/// through the same path search and ledger, so every traced run reports
/// these.
pub fn push_layer_counters(
    report: &mut Report,
    before: [u64; 9],
    after: [u64; 9],
    ops: usize,
) -> Result<(), String> {
    let names = [
        "path.trees",
        "path.relaxations",
        "path.edge_scans",
        "path.lb_prunes",
        "path.tree_repairs",
        "path.bucket_advances",
        "resources.probes",
        "resources.probe_restarts",
        "resources.gap_iterations",
    ];
    for ((name, b), a) in names.into_iter().zip(before).zip(after) {
        report.metrics.push(name, (a - b) as f64 / ops.max(1) as f64, "count")?;
    }
    Ok(())
}

/// A process's peak resident set (`VmHWM`) from its `/proc/.../status`
/// text, in MiB.
pub fn vm_hwm_mib(status: &str) -> Result<f64, String> {
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// The p99 of one session's client-side latencies. Tails are per-layer
/// figures: on a shared host they follow the host's CPU steal more than
/// the program (see the README), so no bound could hold them.
pub fn push_tail(report: &mut Report, name: &str, latencies: Vec<f64>) -> Result<(), String> {
    let sample = stats::Sample::new(latencies);
    let p99 = sample
        .tail(0.99)
        .ok_or_else(|| format!("`{name}`: {} samples cannot support a p99", sample.len()))?;
    report.notes.push(name, p99, "ms")
}

fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("create {:?}: {e}", opts.work))?;
    match (opts.workload.as_str(), opts.trace) {
        ("sweep", false) => sweep::measure(opts, &mut report)?,
        ("sweep", true) => sweep::trace(opts, &mut report)?,
        ("admit", false) => admit::measure(opts, &mut report)?,
        ("admit", true) => admit::trace(opts, &mut report)?,
        ("mixed", false) => mixed::measure(opts, &mut report)?,
        ("mixed", true) => mixed::trace(opts, &mut report)?,
        (other, _) => return Err(format!("unknown workload `{other}` (sweep, admit, mixed)")),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            eprintln!(
                "{} (seed {}, trace {}): {} attempted, {} failed, {} threads\n{}",
                opts.workload,
                opts.seed,
                u8::from(opts.trace),
                report.attempted,
                report.failed,
                opts.threads,
                report.table()
            );
            println!("{}", report.json_line(true));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {} check failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
