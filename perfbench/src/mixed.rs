//! The `mixed` workload: the service layers under a mixed open-loop load.
//!
//! Two connections drive a real `stage-serve` (WAN catalog, fsync every
//! [`FSYNC_INTERVAL_MS`]) at a fixed offered rate, well below
//! saturation and never adapted to the replies. Submits (the catalog's
//! point-to-multipoint groups as `destinations:[..]`) interleave with
//! `query` reads of earlier request ids, `inject` link outages and copy
//! losses that trigger repair, and `optimize` passes. Each session is a
//! fresh daemon on a fresh catalog running [`SESSION_OPS`] operations; a
//! round is [`SESSIONS`] sessions on catalogs drawn from the seed.
//!
//! A plain decision costs tens of microseconds in-process here, so the
//! wire, parsing, the lock, batching and the WAL group commit dominate;
//! repair and the optimizer carry the heavy engine work. Concurrent
//! submits are the only way epoch batching engages.

use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use dstage_model::scenario::Scenario;
use dstage_obs::metrics as obs;
use dstage_service::durability::{Durability, DEFAULT_CHECKPOINT_EVERY};
use dstage_service::engine::DEFAULT_OPTIMIZE_BUDGET;
use dstage_service::protocol::ClientRequest;
use dstage_service::wal::FsyncPolicy;
use dstage_workload::Family;
use serde::Value;

use crate::admit::LAP_SHIFT_MS;
use crate::checks::{
    catalog_weight, check_identities, check_replay, check_weighted_sum, config, DAEMON_POLICY,
    DAEMON_SCHEDULER,
};
use crate::daemon::{Client, Daemon};
use crate::stats::{Report, Sample};
use crate::{ms, us, Options};

/// Operations per session.
pub const SESSION_OPS: usize = 2_420;

/// Sessions (catalogs) per round.
pub const SESSIONS: usize = 4;

/// Offered rate over both connections, operations per second.
pub const RATE: f64 = 400.0;

/// Client connections.
pub const CONNECTIONS: usize = 2;

/// The daemon's WAL fsync interval. At 20 ms one submit in four paid
/// an fsync and the p99 followed the disk's fsync tail from run to run;
/// at 1 s the group commit is a rare, larger stall.
pub const FSYNC_INTERVAL_MS: u64 = 1_000;

/// Leading operations that are all submits, so reads find ids.
const WARMUP: usize = 20;

/// Daemon starts timed before the sessions, on top of one per session.
const SETUP_REPEATS: usize = 15;

/// Simulated-clock step between successive injections.
const INJECT_STEP_MS: u64 = 60_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Submit,
    SubmitP2mp,
    Query,
    Inject,
    Optimize,
}

use Kind::{Inject, Optimize, Query, Submit};

/// After the warm-up, each block of 20 operations is 9 submits,
/// 10 queries and 1 injection: about 1,100 submits and 1,200 queries a
/// session, enough for a p99 with 10 samples beyond it.
const PATTERN: [Kind; 20] = [
    Submit, Query, Submit, Query, Submit, Query, Submit, Query, Submit, Inject, //
    Query, Submit, Query, Submit, Query, Submit, Query, Submit, Query, Query,
];

/// One `optimize` pass per this many operations (in place of a query):
/// 12 a session, and the operations queued behind its write lock stay
/// well under 1% of the session.
const OPTIMIZE_EVERY: usize = 200;

fn kind_of(i: usize) -> Kind {
    match i.checked_sub(WARMUP) {
        None => Submit,
        Some(j) if j % OPTIMIZE_EVERY == OPTIMIZE_EVERY - 1 => Optimize,
        Some(j) => PATTERN[j % PATTERN.len()],
    }
}

/// One scripted operation; a query's id is drawn when it is sent.
#[derive(Debug, Clone)]
struct Op {
    kind: Kind,
    line: String,
}

/// SplitMix64: a small, seedable stream for the script.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn catalog_seed(seed: u64, session: usize) -> u64 {
    seed * 64 + session as u64
}

/// The catalog's submissions as wire lines, point-to-multipoint groups
/// as one `destinations` line each, in the order of their first request.
fn catalog_lines(catalog: &Scenario, lap: usize) -> Vec<(Kind, String)> {
    let mut group_of = vec![None; catalog.request_count()];
    for (g, members) in catalog.p2mp_groups().iter().enumerate() {
        for r in members {
            group_of[r.index()] = Some(g);
        }
    }
    let mut emitted = vec![false; catalog.p2mp_groups().len()];
    let mut lines = Vec::new();
    for (id, r) in catalog.requests() {
        let item = catalog.item(r.item()).name();
        let deadline = r.deadline().as_millis() + lap as u64 * LAP_SHIFT_MS;
        let priority = r.priority().level();
        match group_of[id.index()] {
            Some(g) if !std::mem::replace(&mut emitted[g], true) => {
                let destinations: Vec<String> = catalog.p2mp_groups()[g]
                    .iter()
                    .map(|&m| catalog.request(m).destination().index().to_string())
                    .collect();
                lines.push((
                    Kind::SubmitP2mp,
                    format!(
                        r#"{{"verb":"submit","item":"{item}","destinations":[{}],"deadline_ms":{deadline},"priority":{priority}}}"#,
                        destinations.join(",")
                    ),
                ));
            }
            Some(_) => {}
            None => lines.push((
                Kind::Submit,
                format!(
                    r#"{{"verb":"submit","item":"{item}","destination":{},"deadline_ms":{deadline},"priority":{priority}}}"#,
                    r.destination().index()
                ),
            )),
        }
    }
    lines
}

/// The session's operation script.
fn script(catalog: &Scenario, seed: u64) -> Vec<Op> {
    let mut mix = Mix(seed);
    let mut lap = 0;
    let mut pending = catalog_lines(catalog, lap).into_iter();
    let mut injections = 0u64;
    let items: Vec<&str> = catalog.items().map(|(_, i)| i.name()).collect();
    let (links, machines) = (catalog.network().link_count(), catalog.network().machine_count());
    (0..SESSION_OPS)
        .map(|i| {
            let kind = kind_of(i);
            match kind {
                Submit | Kind::SubmitP2mp => {
                    let (kind, line) = pending.next().unwrap_or_else(|| {
                        lap += 1;
                        pending = catalog_lines(catalog, lap).into_iter();
                        pending.next().expect("catalogs have requests")
                    });
                    Op { kind, line }
                }
                Query => Op { kind, line: String::new() },
                Inject => {
                    injections += 1;
                    let at_ms = injections * INJECT_STEP_MS;
                    let line = if injections % 2 == 1 {
                        format!(
                            r#"{{"verb":"inject","kind":"link_outage","link":{},"at_ms":{at_ms}}}"#,
                            mix.below(links)
                        )
                    } else {
                        format!(
                            r#"{{"verb":"inject","kind":"copy_loss","item":"{}","machine":{},"at_ms":{at_ms}}}"#,
                            items[mix.below(items.len())],
                            mix.below(machines)
                        )
                    };
                    Op { kind, line }
                }
                Optimize => Op { kind, line: r#"{"verb":"optimize"}"#.to_string() },
            }
        })
        .collect()
}

fn query_line(op_index: usize, max_seen: i64) -> String {
    let id = (op_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % (max_seen.max(0) as u64 + 1);
    format!(r#"{{"verb":"query","request":{id}}}"#)
}

/// Highest request id in a submit reply (plain or grouped), if any.
fn max_request_id(reply: &Value) -> Option<i64> {
    let own = reply.get("request").and_then(Value::as_u64);
    let group = reply
        .get("group")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| m.get("request").and_then(Value::as_u64));
    own.into_iter().chain(group).max().and_then(|id| i64::try_from(id).ok())
}

#[derive(Default)]
struct Observed {
    latency: Vec<(Kind, f64)>,
    late_ms: Vec<f64>,
    failed: u64,
    /// From the first operation's due time to the last reply.
    wall: Duration,
}

fn daemon_args(catalog_seed: u64, threads: usize) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--generate".into(),
        catalog_seed.to_string(),
        "--family".into(),
        "wan".into(),
        "--workers".into(),
        threads.to_string(),
        "--durability".into(),
        format!("interval:{FSYNC_INTERVAL_MS}"),
    ];
    args.extend(DAEMON_POLICY.iter().map(|s| s.to_string()));
    args
}

/// Offers `ops` open-loop: operation `i` is due at `i / RATE` seconds,
/// on connection `i % CONNECTIONS`; latency counts from the due time.
fn offer(daemon: &Daemon, ops: &[Op]) -> Result<Observed, String> {
    let clients: Vec<Client> =
        (0..CONNECTIONS).map(|_| daemon.client()).collect::<Result<_, _>>()?;
    let max_seen = AtomicI64::new(-1);
    let start = Instant::now() + Duration::from_millis(20);
    let per_connection: Vec<Observed> = std::thread::scope(|scope| {
        let senders: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let max_seen = &max_seen;
                scope.spawn(move || {
                    let mut seen = Observed::default();
                    for (i, op) in ops.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(i as f64 / RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        seen.late_ms.push(ms(Instant::now().saturating_duration_since(due)));
                        let line = match op.kind {
                            Query => query_line(i, max_seen.load(Ordering::SeqCst)),
                            _ => op.line.clone(),
                        };
                        let reply = client.call(&line).map(str::to_string);
                        let took = ms(due.elapsed());
                        let value = reply.ok().and_then(|r| serde_json::from_str::<Value>(&r).ok());
                        match value {
                            Some(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => {
                                if let Some(id) = max_request_id(&v) {
                                    max_seen.fetch_max(id, Ordering::SeqCst);
                                }
                                seen.latency.push((op.kind, took));
                            }
                            _ => seen.failed += 1,
                        }
                    }
                    seen
                })
            })
            .collect();
        senders.into_iter().map(|s| s.join().expect("senders do not panic")).collect()
    });
    let mut all = Observed { wall: start.elapsed(), ..Observed::default() };
    for seen in per_connection {
        all.latency.extend(seen.latency);
        all.late_ms.extend(seen.late_ms);
        all.failed += seen.failed;
    }
    Ok(all)
}

struct Session {
    setup: Duration,
    observed: Observed,
    rss_mib: f64,
    weighted_sum: u64,
    /// Σ W[p] over the catalog's requests.
    offered: u64,
    prometheus: String,
}

fn session(
    opts: &Options,
    index: usize,
    data_dir: &Path,
    rtt_probe: bool,
) -> Result<(Session, f64), String> {
    let seed = catalog_seed(opts.seed, index);
    let catalog = Family::Wan.generate(seed);
    let ops = script(&catalog, seed);
    let (daemon, setup) = Daemon::start(&opts.serve, &daemon_args(seed, opts.threads), data_dir)?;
    let rtt_floor = if rtt_probe { rtt_floor_us(&daemon, &ops)? } else { 0.0 };
    let observed = offer(&daemon, &ops)?;
    let mut client = daemon.client()?;
    let metrics = client.call_ok(r#"{"verb":"metrics","format":"prometheus"}"#)?;
    let prometheus = metrics.get("text").and_then(Value::as_str).unwrap_or_default().to_string();
    check_identities(&prometheus)?;
    let snapshot = client.call_ok(r#"{"verb":"snapshot"}"#)?;
    let rss_mib = daemon.peak_rss_mib()?;
    drop(client);
    daemon.shutdown()?;
    check_replay(&catalog, &snapshot)?;
    let weighted_sum = check_weighted_sum(&snapshot)?;
    let offered = catalog_weight(&catalog)?;
    Ok((Session { setup, observed, rss_mib, weighted_sum, offered, prometheus }, rtt_floor))
}

/// Median round trip of a `query` on an otherwise idle daemon, after
/// one submission so there is a request to read. The probe's writes are
/// part of the session's log and replay.
fn rtt_floor_us(daemon: &Daemon, ops: &[Op]) -> Result<f64, String> {
    let mut client = daemon.client()?;
    client.call_ok(&ops[0].line)?;
    let mut rtts = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        client.call_ok(r#"{"verb":"query","request":0}"#)?;
        rtts.push(us(t.elapsed()));
    }
    Ok(Sample::new(rtts).median().expect("200 samples"))
}

fn latencies(sessions: &[Session], kinds: &[Kind]) -> Sample {
    Sample::new(
        sessions
            .iter()
            .flat_map(|s| s.observed.latency.iter())
            .filter(|(k, _)| kinds.contains(k))
            .map(|&(_, l)| l)
            .collect(),
    )
}

/// The end-to-end run.
pub fn measure(opts: &Options, report: &mut Report) -> Result<(), String> {
    let mut setup = crate::daemon::setup_times(
        &opts.serve,
        &daemon_args(catalog_seed(opts.seed, 0), opts.threads),
        &opts.work.join("mixed-setup"),
        SETUP_REPEATS,
    )?;
    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    loop {
        for index in 0..SESSIONS {
            let dir = opts.work.join(format!("mixed-{}", sessions.len()));
            let (s, _) = session(opts, index, &dir, false)?;
            report.attempted += SESSION_OPS as u64;
            report.failed += s.observed.failed;
            sessions.push(s);
        }
        let per_round = started.elapsed().as_secs_f64() * SESSIONS as f64 / sessions.len() as f64;
        if started.elapsed().as_secs_f64() + per_round > opts.seconds {
            break;
        }
    }
    let late: Vec<f64> = sessions.iter().flat_map(|s| s.observed.late_ms.iter().copied()).collect();
    eprintln!(
        "mixed: {} sessions x {SESSION_OPS} ops at {RATE}/s on {CONNECTIONS} connections; \
         generator late by p50 {:.3} ms, max {:.3} ms",
        sessions.len(),
        Sample::new(late.clone()).median().unwrap_or(0.0),
        late.iter().copied().fold(0.0, f64::max)
    );
    let decisions = latencies(&sessions, &[Submit, Kind::SubmitP2mp]);
    // Completed operations per second of each session's open loop: the
    // offered rate, unless the daemon falls behind it.
    let rates = sessions
        .iter()
        .map(|s| s.observed.latency.len() as f64 / s.observed.wall.as_secs_f64())
        .collect();
    let weighted: u64 = sessions.iter().take(SESSIONS).map(|s| s.weighted_sum).sum();
    let offered: u64 = sessions.iter().take(SESSIONS).map(|s| s.offered).sum();
    setup.extend(sessions.iter().map(|s| s.setup.as_secs_f64()));
    let metrics = &mut report.metrics;
    metrics.push_median("setup_s", &Sample::new(setup), "s")?;
    metrics.push_trimmed_mean("ops_per_s", &Sample::new(rates), "1/s")?;
    metrics.push_median("op_p50_ms", &decisions, "ms")?;
    metrics.push("weighted_share", weighted as f64 / offered as f64, "ratio")?;
    metrics.push_trimmed_mean(
        "peak_rss_mb",
        &Sample::new(sessions.iter().map(|s| s.rss_mib).collect()),
        "MiB",
    )?;
    let notes = &mut report.notes;
    notes.push_median("query_p50_ms", &latencies(&sessions, &[Query]), "ms")?;
    notes.push_median("inject_p50_ms", &latencies(&sessions, &[Inject]), "ms")?;
    notes.push_median("optimize_p50_ms", &latencies(&sessions, &[Optimize]), "ms")?;
    notes.push("weighted_sum", weighted as f64, "weight")?;
    Ok(())
}

/// One timed call of an in-process replay: its kind, its time in ms, and
/// the WAL stage and commit times in µs when the replay is durable.
type Call = (Kind, f64, Option<(f64, f64)>);

/// Sessions whose scripts the traced run replays in-process.
const TRACED_SESSIONS: usize = 2;

/// The traced run: the session scripts replayed in-process with each
/// call into the protocol parser, the engine and the WAL timed, plus one
/// real session for the server's own counters and the round-trip floor.
pub fn trace(opts: &Options, report: &mut Report) -> Result<(), String> {
    // Set-up's in-process part: the catalogs and their scripts.
    let mut generate_ms = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        for index in 0..SESSIONS {
            let seed = catalog_seed(opts.seed, index);
            std::hint::black_box(script(&Family::Wan.generate(seed), seed));
        }
        generate_ms.push(ms(t.elapsed()));
    }
    report.metrics.push_median("workload.generate_ms", &Sample::new(generate_ms), "ms")?;

    let cfg = config();
    let (mut before, mut after, mut decide_us) = ([0; 9], [0; 9], vec![]);
    let (mut parse_us, mut p2mp_us, mut inject_ms, mut optimize_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut stage_us, mut commit_us) = (vec![], vec![]);
    let (mut recover_ms, mut replayed_per_s) = (vec![], vec![]);
    let (mut plain_wall, mut timed_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut mutations, mut wal_bytes, mut fsyncs) = (0u64, 0u64, 0u64);
    let (mut injections, mut optimizations) = (0u64, 0u64);
    let base = [
        obs::SERVICE_DISPLACED.get(),
        obs::SERVICE_REPAIRS.get(),
        obs::SERVICE_EVICTIONS.get(),
        obs::SERVICE_OPT_SWAP_ATTEMPTS.get(),
        obs::SERVICE_OPT_SWAPS_ACCEPTED.get(),
    ];
    for index in 0..TRACED_SESSIONS {
        let seed = catalog_seed(opts.seed, index);
        let catalog = Family::Wan.generate(seed);
        let ops = script(&catalog, seed);
        let requests: Vec<(Kind, ClientRequest)> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let line = if op.kind == Query { query_line(i, 0) } else { op.line.clone() };
                ClientRequest::parse(&line).map(|r| (op.kind, r))
            })
            .collect::<Result<_, _>>()?;
        let t = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let line = if op.kind == Query { query_line(i, 0) } else { op.line.clone() };
            std::hint::black_box(ClientRequest::parse(&line))?;
        }
        parse_us.push(us(t.elapsed()) / ops.len() as f64);

        // Untimed, then timed, sequential replays of the same script.
        let replay = |timed: bool,
                      durable: Option<&Path>|
         -> Result<(Duration, Vec<Call>, String), String> {
            let (durability, mut engine) = match durable {
                Some(dir) => {
                    let _ = std::fs::remove_dir_all(dir);
                    let (d, e, _) = Durability::recover(
                        dir,
                        FsyncPolicy::Interval(Duration::from_millis(FSYNC_INTERVAL_MS)),
                        DEFAULT_CHECKPOINT_EVERY,
                        &catalog,
                        DAEMON_SCHEDULER,
                        cfg.clone(),
                    )?;
                    (Some(d), e)
                }
                None => (
                    None,
                    dstage_service::engine::AdmissionEngine::new(
                        &catalog,
                        DAEMON_SCHEDULER,
                        cfg.clone(),
                    ),
                ),
            };
            let mut calls = Vec::new();
            let started = Instant::now();
            for (i, (kind, request)) in requests.iter().enumerate() {
                let t = Instant::now();
                let mutated = match request {
                    ClientRequest::Submit(args) => engine.submit(args).map(|_| true),
                    ClientRequest::SubmitP2mp(args) => engine.submit_p2mp(args).map(|_| true),
                    ClientRequest::Query { .. } => {
                        let admitted = engine.admitted_count();
                        let id =
                            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % admitted.max(1) as u64;
                        engine.query(id as u32).map(|_| false)
                    }
                    ClientRequest::Inject(args) => engine.inject(args).map(|_| true),
                    ClientRequest::Optimize { budget } => {
                        engine.optimize(budget.unwrap_or(DEFAULT_OPTIMIZE_BUDGET));
                        Ok(true)
                    }
                    other => Err(format!("unscripted request {other:?}")),
                }?;
                if timed {
                    let took = ms(t.elapsed());
                    let wal = match (&durability, mutated) {
                        (Some(d), true) => {
                            let s = Instant::now();
                            let seq = d.stage(&engine);
                            let staged = us(s.elapsed());
                            let s = Instant::now();
                            d.commit(seq);
                            Some((staged, us(s.elapsed())))
                        }
                        _ => None,
                    };
                    calls.push((*kind, took, wal));
                }
            }
            let wall = started.elapsed();
            let snapshot = serde_json::to_string(&engine.snapshot()).map_err(|e| e.to_string())?;
            Ok((wall, calls, snapshot))
        };
        plain_wall += replay(false, None)?.0;
        let counted = crate::layer_counters();
        let (wall, calls, _) = replay(true, None)?;
        timed_wall += wall;
        for (k, now) in crate::layer_counters().into_iter().enumerate() {
            before[k] += counted[k];
            after[k] += now;
        }
        decide_us.extend(
            calls
                .iter()
                .filter(|(kind, _, _)| matches!(kind, Submit | Kind::SubmitP2mp))
                .map(|&(_, took, _)| took * 1e3),
        );
        let dir = opts.work.join(format!("mixed-trace-{index}"));
        let (bytes0, fsyncs0) = (obs::SERVICE_WAL_BYTES.get(), obs::SERVICE_WAL_FSYNCS.get());
        let (_, calls, expected) = replay(true, Some(&dir))?;
        for (kind, took, wal) in calls {
            match kind {
                Kind::SubmitP2mp => p2mp_us.push(took * 1e3),
                Inject => {
                    inject_ms.push(took);
                    injections += 1;
                }
                Optimize => {
                    optimize_ms.push(took);
                    optimizations += 1;
                }
                _ => {}
            }
            if let Some((staged, committed)) = wal {
                stage_us.push(staged);
                commit_us.push(committed);
                mutations += 1;
            }
        }
        wal_bytes += obs::SERVICE_WAL_BYTES.get() - bytes0;
        fsyncs += obs::SERVICE_WAL_FSYNCS.get() - fsyncs0;
        // Recovery from the durable replay's data directory.
        let t = Instant::now();
        let (_, recovered, recovery) = Durability::recover(
            &dir,
            FsyncPolicy::Interval(Duration::from_millis(FSYNC_INTERVAL_MS)),
            DEFAULT_CHECKPOINT_EVERY,
            &catalog,
            DAEMON_SCHEDULER,
            cfg.clone(),
        )?;
        let took = t.elapsed();
        if serde_json::to_string(&recovered.snapshot()).map_err(|e| e.to_string())? != expected {
            return Err("in-process recovery differs from the state before it".to_string());
        }
        recover_ms.push(ms(took));
        replayed_per_s.push(recovery.replayed as f64 / took.as_secs_f64());
        drop(recovered);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
        report.attempted += 3 * ops.len() as u64;
    }
    // Three replays per script (untimed, timed, durable) feed the
    // disturbance counters; a third of each delta belongs to the timed
    // durable replay the per-call figures come from.
    let deltas: Vec<f64> = [
        obs::SERVICE_DISPLACED.get(),
        obs::SERVICE_REPAIRS.get(),
        obs::SERVICE_EVICTIONS.get(),
        obs::SERVICE_OPT_SWAP_ATTEMPTS.get(),
        obs::SERVICE_OPT_SWAPS_ACCEPTED.get(),
    ]
    .iter()
    .zip(base)
    .map(|(now, before)| (now - before) as f64 / 3.0)
    .collect();
    report.metrics.push_median("core.decide_us", &Sample::new(decide_us), "us")?;
    crate::push_layer_counters(report, before, after, TRACED_SESSIONS * SESSION_OPS)?;
    report.metrics.push(
        "trace.overhead_ratio",
        timed_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    )?;
    let notes = &mut report.notes;
    notes.push_median("protocol.parse_us", &Sample::new(parse_us), "us")?;
    notes.push_median("engine.submit_p2mp_us", &Sample::new(p2mp_us), "us")?;
    notes.push_median("dynamic.inject_ms", &Sample::new(inject_ms), "ms")?;
    notes.push("dynamic.displaced", deltas[0] / injections as f64, "count")?;
    notes.push("dynamic.repairs", deltas[1] / injections as f64, "count")?;
    notes.push("dynamic.evictions", deltas[2] / injections as f64, "count")?;
    notes.push_median("sched.optimize_ms", &Sample::new(optimize_ms), "ms")?;
    notes.push("sched.swap_attempts", deltas[3] / optimizations as f64, "count")?;
    notes.push("sched.swaps_accepted", deltas[4] / optimizations as f64, "count")?;
    notes.push_median("wal.stage_us", &Sample::new(stage_us), "us")?;
    notes.push_median("wal.commit_us", &Sample::new(commit_us), "us")?;
    notes.push("wal.bytes_per_decision", wal_bytes as f64 / mutations as f64, "B")?;
    notes.push("wal.fsyncs_per_decision", fsyncs as f64 / mutations as f64, "count")?;
    notes.push_median("durability.recover_ms", &Sample::new(recover_ms), "ms")?;
    notes.push_median("durability.replayed_per_s", &Sample::new(replayed_per_s), "1/s")?;

    let (s, rtt_floor) = session(opts, 0, &opts.work.join("mixed-scrape"), true)?;
    report.attempted += SESSION_OPS as u64;
    report.failed += s.observed.failed;
    report.notes.push("server.rtt_floor_us", rtt_floor, "us")?;
    crate::push_batch_metrics(report, &s.prometheus)?;
    let late = Sample::new(s.observed.late_ms.clone());
    report.notes.push_median("loadgen.late_ms", &late, "ms")?;
    let tail = |kinds: &[Kind]| {
        s.observed.latency.iter().filter(|(k, _)| kinds.contains(k)).map(|&(_, l)| l).collect()
    };
    crate::push_tail(report, "loadgen.decision_p99_ms", tail(&[Submit, Kind::SubmitP2mp]))?;
    crate::push_tail(report, "loadgen.query_p99_ms", tail(&[Query]))?;
    Ok(())
}
