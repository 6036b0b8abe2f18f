//! The `admit` workload: online admission with a growing history.
//!
//! One connection drives a real `stage-serve` (paper catalog, fsync on
//! every decision) in a closed loop. It replays the catalog's request
//! stream, cycled with deadlines shifted one hour per lap as
//! `stage-loadgen` does, for [`SUBMISSIONS`] submissions: past the
//! catalog's ceiling, where further laps admit next to nothing. The
//! daemon is then killed and restarted on its data directory. A round is
//! one such session on each of [`SESSIONS`] catalogs drawn from the seed.
//!
//! Every decision rebuilds the scenario, builds a fresh scheduler state
//! and replays the committed history, so its cost grows with the
//! admissions; restart exercises recovery; batching has nothing to do.

use std::path::Path;
use std::time::{Duration, Instant};

use dstage_model::scenario::Scenario;
use dstage_obs::metrics as obs;
use dstage_service::durability::{Durability, DEFAULT_CHECKPOINT_EVERY};
use dstage_service::engine::AdmissionEngine;
use dstage_service::protocol::SubmitArgs;
use dstage_service::wal::FsyncPolicy;
use dstage_workload::Family;
use serde::Value;

use crate::checks::{
    catalog_weight, check_admission, check_replay, config, DAEMON_POLICY, DAEMON_SCHEDULER, WEIGHTS,
};
use crate::daemon::Daemon;
use crate::stats::{Report, Sample};
use crate::{ms, us, Options};

/// Catalogs (sessions) per round.
pub const SESSIONS: u64 = 12;

/// Submissions per session: 4 to 10 laps of a paper catalog's stream,
/// past its ceiling (seed 0: about 290 admissions, the last lap adding
/// 2%). A fixed count keeps the log a restart replays the same length
/// on every catalog, and leaves 20 decisions beyond each session's p99.
pub const SUBMISSIONS: usize = 2_000;

/// Catalogs the traced run replays in-process.
const TRACED_SESSIONS: u64 = 4;

/// Daemon starts timed before the sessions, on top of one per session.
const SETUP_REPEATS: usize = 15;

/// Deadline shift per lap, as in `stage-loadgen`.
pub const LAP_SHIFT_MS: u64 = 3_600_000;

fn catalog_seed(seed: u64, session: u64) -> u64 {
    seed * SESSIONS + session
}

/// The catalog's requests as submit arguments, in catalog order.
pub fn base_stream(catalog: &Scenario) -> Vec<SubmitArgs> {
    catalog
        .requests()
        .map(|(_, r)| SubmitArgs {
            item: catalog.item(r.item()).name().to_string(),
            destination: r.destination().index() as u32,
            deadline_ms: r.deadline().as_millis(),
            priority: r.priority().level(),
            idempotency_key: None,
        })
        .collect()
}

/// `args` on lap `lap`.
pub fn shifted(args: &SubmitArgs, lap: usize) -> SubmitArgs {
    SubmitArgs { deadline_ms: args.deadline_ms + lap as u64 * LAP_SHIFT_MS, ..args.clone() }
}

/// The wire form of a plain submit.
pub fn submit_line(args: &SubmitArgs) -> String {
    format!(
        r#"{{"verb":"submit","item":"{}","destination":{},"deadline_ms":{},"priority":{}}}"#,
        args.item, args.destination, args.deadline_ms, args.priority
    )
}

/// A session's stream: the catalog's requests cycled, with deadlines
/// shifted per lap, [`SUBMISSIONS`] long.
fn stream(base: &[SubmitArgs]) -> impl Iterator<Item = SubmitArgs> + '_ {
    (0..SUBMISSIONS).map(|i| shifted(&base[i % base.len()], i / base.len()))
}

fn daemon_args(catalog_seed: u64, threads: usize) -> Vec<String> {
    let mut args: Vec<String> = [
        "--generate",
        &catalog_seed.to_string(),
        "--family",
        "paper",
        "--workers",
        &threads.to_string(),
        "--durability",
        "always",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(DAEMON_POLICY.iter().map(|s| s.to_string()));
    args
}

struct Session {
    setup: Duration,
    rtts: Vec<f64>,
    loop_time: Duration,
    restart: Duration,
    rss_mib: f64,
    weighted_sum: u64,
    batch: Option<String>,
}

/// One session against a fresh daemon; `scrape` also fetches the
/// daemon's Prometheus text before the kill.
fn session(
    opts: &Options,
    catalog: &Scenario,
    catalog_seed: u64,
    data_dir: &Path,
    scrape: bool,
) -> Result<Session, String> {
    let (mut daemon, setup) =
        Daemon::start(&opts.serve, &daemon_args(catalog_seed, opts.threads), data_dir)?;
    let mut client = daemon.client()?;
    let mut rtts = Vec::new();
    let mut client_weighted = 0u64;
    let started = Instant::now();
    for args in stream(&base_stream(catalog)) {
        let line = submit_line(&args);
        let t = Instant::now();
        let reply = client.call(&line).map_err(|e| format!("submit: {e}"))?;
        rtts.push(ms(t.elapsed()));
        if reply.contains(r#""decision":"admitted""#) {
            client_weighted += WEIGHTS[usize::from(args.priority)];
        } else if !reply.contains(r#""decision":"rejected""#) {
            return Err(format!("submit not decided: {reply}"));
        }
    }
    let loop_time = started.elapsed();

    let before = client.call(r#"{"verb":"snapshot"}"#).map_err(|e| e.to_string())?.to_string();
    let batch = if scrape {
        let value = client.call_ok(r#"{"verb":"metrics","format":"prometheus"}"#)?;
        value.get("text").and_then(Value::as_str).map(str::to_string)
    } else {
        None
    };
    let rss_mib = daemon.peak_rss_mib()?;
    drop(client);
    let restart = daemon.kill_and_restart()?;
    let after =
        daemon.client()?.call(r#"{"verb":"snapshot"}"#).map_err(|e| e.to_string())?.to_string();
    daemon.shutdown()?;
    if before != after {
        return Err("the snapshot recovered after the kill differs from the one before".to_string());
    }
    let snapshot: Value = serde_json::from_str(&before).map_err(|e| format!("snapshot: {e}"))?;
    let weighted_sum = check_admission(catalog, &snapshot, SUBMISSIONS as u64, client_weighted)?;
    check_replay(catalog, &snapshot)?;
    Ok(Session { setup, rtts, loop_time, restart, rss_mib, weighted_sum, batch })
}

/// The end-to-end run.
pub fn measure(opts: &Options, report: &mut Report) -> Result<(), String> {
    let catalogs: Vec<Scenario> =
        (0..SESSIONS).map(|i| Family::Paper.generate(catalog_seed(opts.seed, i))).collect();
    let mut setup = crate::daemon::setup_times(
        &opts.serve,
        &daemon_args(catalog_seed(opts.seed, 0), opts.threads),
        &opts.work.join("admit-setup"),
        SETUP_REPEATS,
    )?;
    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    'rounds: loop {
        for (i, catalog) in catalogs.iter().enumerate() {
            let dir = opts.work.join(format!("admit-{}", sessions.len()));
            let s = session(opts, catalog, catalog_seed(opts.seed, i as u64), &dir, false)?;
            if let Some(first) = sessions.get(i) {
                if first.weighted_sum != s.weighted_sum {
                    return Err("a repeated session decided differently".to_string());
                }
            }
            report.attempted += SUBMISSIONS as u64;
            sessions.push(s);
        }
        let per_round = started.elapsed().as_secs_f64() * SESSIONS as f64 / sessions.len() as f64;
        if started.elapsed().as_secs_f64() + per_round > opts.seconds {
            break 'rounds;
        }
    }
    let decisions: usize = sessions.iter().map(|s| s.rtts.len()).sum();
    let rtts = Sample::new(sessions.iter().flat_map(|s| s.rtts.iter().copied()).collect());
    // Per-session rates, then their trimmed mean: a host stall during
    // one session moves one sample, not the figure.
    let rates = sessions.iter().map(|s| s.rtts.len() as f64 / s.loop_time.as_secs_f64()).collect();
    eprintln!(
        "admit: {} sessions ({} per round), {} decisions",
        sessions.len(),
        SESSIONS,
        decisions
    );
    setup.extend(sessions.iter().map(|s| s.setup.as_secs_f64()));
    let weighted: u64 = sessions.iter().take(SESSIONS as usize).map(|s| s.weighted_sum).sum();
    let offered = catalogs.iter().map(catalog_weight).sum::<Result<u64, _>>()?;
    let metrics = &mut report.metrics;
    metrics.push_median("setup_s", &Sample::new(setup), "s")?;
    metrics.push_trimmed_mean("ops_per_s", &Sample::new(rates), "1/s")?;
    metrics.push_median("op_p50_ms", &rtts, "ms")?;
    metrics.push("weighted_share", weighted as f64 / offered as f64, "ratio")?;
    metrics.push_trimmed_mean(
        "peak_rss_mb",
        &Sample::new(sessions.iter().map(|s| s.rss_mib).collect()),
        "MiB",
    )?;
    report.notes.push_trimmed_mean(
        "restart_s",
        &Sample::new(sessions.iter().map(|s| s.restart.as_secs_f64()).collect()),
        "s",
    )?;
    report.notes.push("weighted_sum", weighted as f64, "weight")?;
    Ok(())
}

/// The traced run: the same streams replayed in-process, with each call
/// into the engine and the durability layer timed, plus one real daemon
/// session for the server-side batching counters and the client's tail.
pub fn trace(opts: &Options, report: &mut Report) -> Result<(), String> {
    // Set-up's in-process part: the catalogs and their streams.
    let mut generate_ms = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        for i in 0..SESSIONS {
            let catalog = Family::Paper.generate(catalog_seed(opts.seed, i));
            std::hint::black_box(stream(&base_stream(&catalog)).count());
        }
        generate_ms.push(ms(t.elapsed()));
    }
    report.metrics.push_median("workload.generate_ms", &Sample::new(generate_ms), "ms")?;

    let cfg = config();
    let (mut before, mut after) = ([0; 9], [0; 9]);
    let mut plain_wall = Duration::ZERO;
    let mut timed_wall = Duration::ZERO;
    let (mut submit_us, mut early, mut late, mut evaluate_us) = (vec![], vec![], vec![], vec![]);
    let (mut stage_us, mut commit_us) = (vec![], vec![]);
    let (mut recover_ms, mut replayed_per_s) = (vec![], vec![]);
    let (mut decisions, mut wal_bytes, mut fsyncs) = (0u64, 0u64, 0u64);
    for i in 0..TRACED_SESSIONS {
        let catalog = Family::Paper.generate(catalog_seed(opts.seed, i));
        let base = base_stream(&catalog);

        // Untraced and traced replays of the same stream.
        let mut engine = AdmissionEngine::new(&catalog, DAEMON_SCHEDULER, cfg.clone());
        let t = Instant::now();
        for args in stream(&base) {
            engine.submit(&args)?;
        }
        plain_wall += t.elapsed();
        let mut engine = AdmissionEngine::new(&catalog, DAEMON_SCHEDULER, cfg.clone());
        let mut times = Vec::with_capacity(SUBMISSIONS);
        let counted = crate::layer_counters();
        let t = Instant::now();
        for args in stream(&base) {
            let s = Instant::now();
            engine.submit(&args)?;
            times.push(us(s.elapsed()));
        }
        timed_wall += t.elapsed();
        for (k, now) in crate::layer_counters().into_iter().enumerate() {
            before[k] += counted[k];
            after[k] += now;
        }
        let quarter = times.len() / 4;
        early.extend_from_slice(&times[..quarter]);
        late.extend_from_slice(&times[times.len() - quarter..]);
        submit_us.extend(times);
        report.attempted += 2 * SUBMISSIONS as u64;

        // With durability: evaluate, submit, stage and commit apart.
        let dir = opts.work.join(format!("admit-trace-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Durability::recover(
                &dir,
                FsyncPolicy::Always,
                DEFAULT_CHECKPOINT_EVERY,
                &catalog,
                DAEMON_SCHEDULER,
                cfg.clone(),
            )
        };
        let (durability, mut engine, _) = open()?;
        let (bytes0, fsyncs0) = (obs::SERVICE_WAL_BYTES.get(), obs::SERVICE_WAL_FSYNCS.get());
        for args in stream(&base) {
            let s = Instant::now();
            std::hint::black_box(engine.evaluate(&args));
            evaluate_us.push(us(s.elapsed()));
            engine.submit(&args)?;
            let s = Instant::now();
            let seq = durability.stage(&engine);
            stage_us.push(us(s.elapsed()));
            let s = Instant::now();
            durability.commit(seq);
            commit_us.push(us(s.elapsed()));
        }
        decisions += SUBMISSIONS as u64;
        report.attempted += SUBMISSIONS as u64;
        wal_bytes += obs::SERVICE_WAL_BYTES.get() - bytes0;
        fsyncs += obs::SERVICE_WAL_FSYNCS.get() - fsyncs0;
        let expected = serde_json::to_string(&engine.snapshot()).map_err(|e| e.to_string())?;
        drop((durability, engine));
        let t = Instant::now();
        let (_, recovered, recovery) = open()?;
        let took = t.elapsed();
        if serde_json::to_string(&recovered.snapshot()).map_err(|e| e.to_string())? != expected {
            return Err("in-process recovery differs from the state before it".to_string());
        }
        recover_ms.push(ms(took));
        replayed_per_s.push(recovery.replayed as f64 / took.as_secs_f64());
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    }
    let submits = submit_us.len();
    report.metrics.push_median("core.decide_us", &Sample::new(submit_us), "us")?;
    crate::push_layer_counters(report, before, after, submits)?;
    report.metrics.push(
        "trace.overhead_ratio",
        timed_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    )?;
    let notes = &mut report.notes;
    notes.push_median("engine.evaluate_us", &Sample::new(evaluate_us), "us")?;
    notes.push_median("engine.submit_us.early", &Sample::new(early), "us")?;
    notes.push_median("engine.submit_us.late", &Sample::new(late), "us")?;
    notes.push_median("wal.stage_us", &Sample::new(stage_us), "us")?;
    notes.push_median("wal.commit_us", &Sample::new(commit_us), "us")?;
    notes.push("wal.bytes_per_decision", wal_bytes as f64 / decisions as f64, "B")?;
    notes.push("wal.fsyncs_per_decision", fsyncs as f64 / decisions as f64, "count")?;
    notes.push_median("durability.recover_ms", &Sample::new(recover_ms), "ms")?;
    notes.push_median("durability.replayed_per_s", &Sample::new(replayed_per_s), "1/s")?;

    // One real session: the daemon's own batching counters.
    let catalog = Family::Paper.generate(catalog_seed(opts.seed, 0));
    let s =
        session(opts, &catalog, catalog_seed(opts.seed, 0), &opts.work.join("admit-scrape"), true)?;
    report.attempted += SUBMISSIONS as u64;
    crate::push_batch_metrics(report, s.batch.as_deref().unwrap_or_default())?;
    crate::push_tail(report, "loadgen.decision_p99_ms", s.rtts)?;
    Ok(())
}
