//! The `sweep` workload: the paper's §5 experiment, offline.
//!
//! Eighty paper-generator cases (twice the paper's 40) are drawn from the
//! seed; every case is scheduled by all five schedulers at the paper's
//! best pairing, spread over the machine's threads by the program's own
//! sweep executor. Path search and ledger probes do nearly all the work;
//! the service does none.

use std::time::{Duration, Instant};

use dstage_core::heuristic::{drive_state, run, Heuristic};
use dstage_core::metrics::RunMetrics;
use dstage_core::schedule::Schedule;
use dstage_core::state::SchedulerState;
use dstage_model::ids::VirtualLinkId;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_obs::metrics as obs;
use dstage_path::{earliest_arrival_tree, ItemQuery};
use dstage_sim::executor::run_indexed;
use dstage_workload::{generate, GeneratorConfig};

use crate::checks::{catalog_weight, check_schedule, config};
use crate::stats::{Report, Sample};
use crate::{ms, us, Options};

/// Cases per sweep. The cases' sizes vary widely from seed to seed; at
/// the paper's 40 the round time's spread over ten seeds was 0.22 of its
/// median, and one round of 80 takes what two rounds of 40 did.
pub const CASES: u64 = 80;

/// Times the case set is generated during set-up (the median is kept).
const SETUP_REPEATS: usize = 15;

/// Cases whose final ledgers the traced run probes directly.
const PROBED_CASES: usize = 8;

fn generate_cases(seed: u64) -> Vec<Scenario> {
    (0..CASES).map(|i| generate(&GeneratorConfig::paper(), seed * CASES + i)).collect()
}

/// Generates the case set several times; returns it with the sample of
/// generation times.
fn setup(seed: u64) -> (Vec<Scenario>, Sample) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        cases = std::hint::black_box(generate_cases(seed));
        times.push(started.elapsed().as_secs_f64());
    }
    (cases, Sample::new(times))
}

fn unit(index: usize) -> (usize, Heuristic) {
    let schedulers = Heuristic::EXTENDED.len();
    (index / schedulers, Heuristic::EXTENDED[index % schedulers])
}

struct Unit {
    took: Duration,
    schedule: Schedule,
    metrics: RunMetrics,
}

/// One sweep round: every case under every scheduler.
fn round(cases: &[Scenario], threads: usize) -> (Duration, Vec<Unit>) {
    let cfg = config();
    let started = Instant::now();
    let units = run_indexed(cases.len() * Heuristic::EXTENDED.len(), threads, |i| {
        let (case, heuristic) = unit(i);
        let t = Instant::now();
        let outcome = run(&cases[case], heuristic, &cfg);
        Unit { took: t.elapsed(), schedule: outcome.schedule, metrics: outcome.metrics }
    });
    (started.elapsed(), units)
}

/// Checks a round's schedules and returns Σ of their weighted sums.
fn check_round(cases: &[Scenario], units: &[Unit], threads: usize) -> Result<u64, String> {
    let sums = run_indexed(units.len(), threads, |i| {
        let (case, heuristic) = unit(i);
        check_schedule(&cases[case], &units[i].schedule)
            .map_err(|e| format!("case {case}, {}: {e}", heuristic.label()))
    });
    sums.into_iter().sum()
}

/// The end-to-end run.
pub fn measure(opts: &Options, report: &mut Report) -> Result<(), String> {
    let (cases, setup_times) = setup(opts.seed);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut unit_times = Vec::new();
    let mut reference: Option<(u64, Vec<Schedule>)> = None;
    loop {
        let (wall, units) = round(&cases, opts.threads);
        walls.push(wall.as_secs_f64());
        unit_times.extend(units.iter().map(|u| ms(u.took)));
        report.attempted += units.len() as u64;
        match &reference {
            None => {
                let sum = check_round(&cases, &units, opts.threads)?;
                reference = Some((sum, units.into_iter().map(|u| u.schedule).collect()));
            }
            Some((_, schedules)) => {
                if units.iter().zip(schedules).any(|(u, s)| u.schedule != *s) {
                    return Err("a repeated round produced different schedules".to_string());
                }
            }
        }
        // Whole rounds only; start another only if it fits the budget.
        let per_round = started.elapsed().as_secs_f64() / walls.len() as f64;
        if started.elapsed().as_secs_f64() + per_round > opts.seconds {
            break;
        }
    }
    let (weighted_sum, _) = reference.expect("at least one round ran");
    let offered = cases.iter().map(catalog_weight).sum::<Result<u64, _>>()?
        * Heuristic::EXTENDED.len() as u64;
    let peak_rss = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read own status: {e}"))
        .and_then(|status| crate::vm_hwm_mib(&status))?;
    let rates = Sample::new(
        walls.iter().map(|w| (CASES as usize * Heuristic::EXTENDED.len()) as f64 / w).collect(),
    );
    let walls = Sample::new(walls);
    let units = Sample::new(unit_times);
    eprintln!(
        "sweep: {} cases x {} schedulers, {} round(s) on {} threads",
        CASES,
        Heuristic::EXTENDED.len(),
        walls.len(),
        opts.threads
    );
    let metrics = &mut report.metrics;
    metrics.push_median("setup_s", &setup_times, "s")?;
    metrics.push_median("ops_per_s", &rates, "1/s")?;
    metrics.push_median("op_p50_ms", &units, "ms")?;
    metrics.push("weighted_share", weighted_sum as f64 / offered as f64, "ratio")?;
    metrics.push("peak_rss_mb", peak_rss, "MiB")?;
    report.notes.push_median("sweep_s", &walls, "s")?;
    report.notes.push("weighted_sum", weighted_sum as f64, "weight")?;
    Ok(())
}

fn per(total: u64, n: usize) -> f64 {
    total as f64 / n.max(1) as f64
}

/// The traced run: the same round, with each scheduler call timed and
/// the program's counters read, plus direct timings of path search and
/// ledger probes against loaded ledgers.
pub fn trace(opts: &Options, report: &mut Report) -> Result<(), String> {
    let (cases, setup_times) = setup(opts.seed);
    let generate_ms = setup_times.median().expect("repeats > 0") * 1e3;
    report.metrics.push("workload.generate_ms", generate_ms, "ms")?;

    // The same round untraced, then traced: their ratio is the cost of
    // the benchmark's own timers and counter reads.
    let plain_started = Instant::now();
    let cfg = config();
    let plain = run_indexed(cases.len() * Heuristic::EXTENDED.len(), opts.threads, |i| {
        let (case, heuristic) = unit(i);
        run(&cases[case], heuristic, &cfg).schedule
    });
    let plain_wall = plain_started.elapsed();

    dstage_obs::reset();
    let before = crate::layer_counters();
    let (wall, units) = round(&cases, opts.threads);
    let after = crate::layer_counters();
    let (unit_wall, queue_wait) =
        (obs::SIM_WORK_UNIT_WALL_US.snapshot(), obs::SIM_QUEUE_WAIT_US.snapshot());
    report.attempted += units.len() as u64;
    check_round(&cases, &units, opts.threads)?;
    if units.iter().zip(&plain).any(|(u, s)| u.schedule != *s) {
        return Err("the traced round scheduled differently".to_string());
    }

    let n = units.len();
    let decide = Sample::new(units.iter().map(|u| us(u.took)).collect());
    report.metrics.push_median("core.decide_us", &decide, "us")?;
    crate::push_layer_counters(report, before, after, n)?;
    report.metrics.push(
        "trace.overhead_ratio",
        wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    )?;

    let notes = &mut report.notes;
    notes.push("sim.unit_ms", per(unit_wall.sum, unit_wall.count as usize) / 1e3, "ms")?;
    notes.push("sim.queue_wait_ms", per(queue_wait.sum, queue_wait.count as usize) / 1e3, "ms")?;
    let busy: f64 = units.iter().map(|u| u.took.as_secs_f64()).sum();
    notes.push("sim.busy_ratio", busy / (opts.threads as f64 * wall.as_secs_f64()), "ratio")?;
    for heuristic in Heuristic::EXTENDED {
        let times: Vec<f64> =
            (0..n).filter(|&i| unit(i).1 == heuristic).map(|i| ms(units[i].took)).collect();
        notes.push_median(
            &format!("core.schedule_ms.{}", heuristic.label()),
            &Sample::new(times),
            "ms",
        )?;
    }
    let total = |f: fn(&RunMetrics) -> u64| units.iter().map(|u| f(&u.metrics)).sum::<u64>();
    notes.push("core.iterations", per(total(|m| m.iterations), n), "count")?;
    notes.push("core.trees", per(total(|m| m.dijkstra_runs), n), "count")?;
    notes.push("core.cache_hits", per(total(|m| m.cache_hits), n), "count")?;

    let (tree_us, probe_us) = probe_loaded_ledgers(&cases[..PROBED_CASES]);
    notes.push_median("path.tree_us", &tree_us, "us")?;
    notes.push_median("resources.probe_us", &probe_us, "us")?;
    Ok(())
}

/// Loads each case's ledger by running `full_one` to completion, then
/// times `earliest_arrival_tree` for every item and
/// `NetworkLedger::earliest_transfer` on every link against it.
fn probe_loaded_ledgers(cases: &[Scenario]) -> (Sample, Sample) {
    let cfg = config();
    let mut tree_us = Vec::new();
    let mut probe_us = Vec::new();
    for scenario in cases {
        let mut state = SchedulerState::with_caching(scenario, cfg.caching);
        drive_state(&mut state, Heuristic::FullPathOneDestination, &cfg);
        let ledger = state.ledger();
        let network = scenario.network();
        let horizon = scenario.horizon();
        let hold = vec![horizon; network.machine_count()];
        for (_, item) in scenario.items() {
            let sources: Vec<_> =
                item.sources().iter().map(|s| (s.machine, s.available_at)).collect();
            let query = ItemQuery {
                network,
                ledger,
                size: item.size(),
                sources: &sources,
                hold_until: &hold,
                horizon,
            };
            let t = Instant::now();
            std::hint::black_box(earliest_arrival_tree(std::hint::black_box(&query)));
            tree_us.push(us(t.elapsed()));
        }
        // One probe is far below the clock's resolution: time all items
        // on one link together and divide.
        for link in 0..network.link_count() {
            let link = VirtualLinkId::new(link as u32);
            let t = Instant::now();
            for (_, item) in scenario.items() {
                std::hint::black_box(ledger.earliest_transfer(
                    network,
                    link,
                    SimTime::ZERO,
                    item.size(),
                    horizon,
                ));
            }
            probe_us.push(us(t.elapsed()) / scenario.item_count().max(1) as f64);
        }
    }
    (Sample::new(tree_us), Sample::new(probe_us))
}
