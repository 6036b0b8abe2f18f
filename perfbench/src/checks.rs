//! Output checks, each computed apart from the code path that produced
//! the output: schedules are replayed against a fresh ledger, weighted
//! sums are recomputed from the benchmark's own weight table, daemon
//! snapshots are compared with a fresh engine's replay of their own log,
//! and the daemon's counters must satisfy the ledger identities.

use dstage_core::bounds::{possible_satisfy, upper_bound};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_core::schedule::Schedule;
use dstage_model::ids::{DataItemId, MachineId};
use dstage_model::request::{Priority, PriorityWeights, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_service::engine::AdmissionEngine;
use serde::Value;

/// The paper's 1/10/100 weighting, kept here as a literal so the checks
/// do not reuse the program's weight table.
pub const WEIGHTS: [u64; 3] = [1, 10, 100];

/// The configuration every workload schedules under: the paper's best
/// pairing (`Cost₄`, E-U ratio 1, weights 1/10/100).
pub fn config() -> HeuristicConfig {
    HeuristicConfig::paper_best()
}

/// The daemon flags that select [`config`] and `full_one`.
pub const DAEMON_POLICY: [&str; 8] =
    ["--scheduler", "full-one", "--criterion", "C4", "--ratio", "0", "--weights", "1,10,100"];

/// The scheduler the daemon runs.
pub const DAEMON_SCHEDULER: Heuristic = Heuristic::FullPathOneDestination;

fn weight(priority: u64) -> Result<u64, String> {
    usize::try_from(priority)
        .ok()
        .and_then(|p| WEIGHTS.get(p).copied())
        .ok_or_else(|| format!("priority {priority} outside the 1/10/100 weighting"))
}

/// Σ W[p] over a scenario's requests, from the benchmark's own weight
/// table: the weight one pass over the catalog offers.
///
/// # Errors
///
/// Reports a priority outside the weighting.
pub fn catalog_weight(scenario: &Scenario) -> Result<u64, String> {
    scenario.requests().map(|(_, r)| weight(u64::from(r.priority().level()))).sum()
}

/// Checks one offline schedule and returns its weighted sum, recomputed
/// from the claimed deliveries.
///
/// The schedule must replay against a fresh ledger
/// (`Schedule::validate`), which also proves every claimed delivery is
/// backed by a copy at its destination in time. Each request is claimed
/// at most once, by its deadline, and the sum may not exceed either of
/// the paper's upper bounds.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_schedule(scenario: &Scenario, schedule: &Schedule) -> Result<u64, String> {
    schedule.validate(scenario).map_err(|e| format!("replay failed: {e:?}"))?;
    let mut seen = vec![false; scenario.request_count()];
    let mut sum = 0u64;
    for d in schedule.deliveries() {
        let index = d.request.index();
        if index >= seen.len() || std::mem::replace(&mut seen[index], true) {
            return Err(format!("request {index} claimed twice or unknown"));
        }
        let request = scenario.request(d.request);
        if d.at > request.deadline() {
            return Err(format!("request {index} delivered after its deadline"));
        }
        sum += weight(u64::from(request.priority().level()))?;
    }
    let weights = PriorityWeights::paper_1_10_100();
    let loose = upper_bound(scenario, &weights);
    let tight = possible_satisfy(scenario, &weights).weighted_sum;
    if sum > tight || sum > loose {
        return Err(format!(
            "weighted sum {sum} exceeds a bound (possible {tight}, loose {loose})"
        ));
    }
    Ok(sum)
}

/// Checks that `snapshot` equals, byte for byte once re-serialized, a
/// fresh engine's replay of the snapshot's own decision log.
///
/// # Errors
///
/// Names the first record that fails to replay, or reports the mismatch.
pub fn check_replay(catalog: &Scenario, snapshot: &Value) -> Result<(), String> {
    let mut engine = AdmissionEngine::new(catalog, DAEMON_SCHEDULER, config());
    let log = snapshot.get("log").and_then(Value::as_array).ok_or("snapshot has no log")?;
    for (i, entry) in log.iter().enumerate() {
        engine.replay_record(entry).map_err(|e| format!("log record {i} does not replay: {e}"))?;
    }
    let replayed = serde_json::to_string(&engine.snapshot()).map_err(|e| e.to_string())?;
    let served = serde_json::to_string(snapshot).map_err(|e| e.to_string())?;
    if replayed != served {
        return Err("snapshot differs from a fresh replay of its own log".to_string());
    }
    Ok(())
}

fn u64_of(value: &Value, field: &str) -> Result<u64, String> {
    value.get(field).and_then(Value::as_u64).ok_or_else(|| format!("missing `{field}`"))
}

/// Checks an admission session's final snapshot (a session with
/// submissions only) and returns its weighted sum.
///
/// * admitted + rejected = submissions = `submitted`;
/// * the weighted sum the snapshot reports equals Σ W[p] over its
///   satisfied requests and the client's own tally `client_weighted`;
/// * the committed schedule replays against a fresh ledger built from
///   the catalog plus the admitted requests, and delivers each admitted
///   request by its deadline.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_admission(
    catalog: &Scenario,
    snapshot: &Value,
    submitted: u64,
    client_weighted: u64,
) -> Result<u64, String> {
    let (submissions, admitted, rejected) = (
        u64_of(snapshot, "submissions")?,
        u64_of(snapshot, "admitted")?,
        u64_of(snapshot, "rejected")?,
    );
    if submissions != submitted || admitted + rejected != submissions {
        return Err(format!(
            "{submitted} submitted, snapshot counts {submissions} = {admitted} admitted + \
             {rejected} rejected"
        ));
    }
    let own = check_weighted_sum(snapshot)?;
    if own != client_weighted {
        return Err(format!(
            "weighted sum: the snapshot's requests give {own}, the client tallied \
             {client_weighted}"
        ));
    }

    // The admitted requests, in id order, are the log's admitted
    // submissions.
    let item_ids: Vec<&str> = catalog.items().map(|(_, item)| item.name()).collect();
    let log = snapshot.get("log").and_then(Value::as_array).ok_or("no log")?;
    let mut admitted_requests = Vec::new();
    for entry in log {
        if entry.get("decision").and_then(Value::as_str) != Some("admitted") {
            continue;
        }
        let item = entry.get("item").and_then(Value::as_str).ok_or("log entry has no item")?;
        let item = item_ids.iter().position(|&n| n == item).ok_or("log names an unknown item")?;
        admitted_requests.push(Request::new(
            DataItemId::new(item as u32),
            MachineId::new(
                u32::try_from(u64_of(entry, "destination")?).map_err(|e| e.to_string())?,
            ),
            SimTime::from_millis(u64_of(entry, "deadline_ms")?),
            Priority::new(u8::try_from(u64_of(entry, "priority")?).map_err(|e| e.to_string())?),
        ));
    }
    if admitted_requests.len() as u64 != admitted {
        return Err("log and counters disagree on admissions".to_string());
    }
    let latest = admitted_requests.iter().map(Request::deadline).max().unwrap_or(SimTime::ZERO);
    let horizon = catalog.horizon().max(latest + catalog.gc_delay());
    let mut builder =
        Scenario::builder(catalog.network().clone()).gc_delay(catalog.gc_delay()).horizon(horizon);
    for (_, item) in catalog.items() {
        builder = builder.add_item(item.clone());
    }
    let scenario = builder
        .add_requests(admitted_requests)
        .build()
        .map_err(|e| format!("admitted requests do not form a scenario: {e}"))?;
    let schedule: Schedule =
        serde::from_value(snapshot.get("schedule").ok_or("no schedule")?.clone())
            .map_err(|e| format!("schedule: {e}"))?;
    let derived = schedule.validate(&scenario).map_err(|e| format!("replay failed: {e:?}"))?;
    if derived.len() != scenario.request_count() {
        return Err(format!(
            "{} of {} admitted requests are delivered by their deadline",
            derived.len(),
            scenario.request_count()
        ));
    }
    Ok(own)
}

/// Recomputes Σ W[p] over a snapshot's satisfied (not evicted) requests
/// from the benchmark's own weight table, checks it against the weighted
/// sum the snapshot reports, and returns it.
///
/// # Errors
///
/// Reports a missing field, an unknown priority or the mismatch.
pub fn check_weighted_sum(snapshot: &Value) -> Result<u64, String> {
    let requests = snapshot.get("requests").and_then(Value::as_array).ok_or("no requests")?;
    let mut own = 0u64;
    for r in requests {
        if r.get("status").and_then(Value::as_str) != Some("evicted") {
            own += weight(u64_of(r, "priority")?)?;
        }
    }
    let reported = u64_of(snapshot, "weighted_sum")?;
    if own != reported {
        return Err(format!("weighted sum: snapshot says {reported}, its requests give {own}"));
    }
    Ok(own)
}

/// Reads one unlabelled sample from Prometheus exposition text.
pub fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Checks the daemon's ledger identities on a `metrics` scrape:
/// decisions = admitted + refused, displaced = repairs + evictions.
///
/// # Errors
///
/// Names the identity that fails or the series that is missing.
pub fn check_identities(prometheus: &str) -> Result<(), String> {
    let get = |name: &str| {
        prometheus_value(prometheus, name).ok_or_else(|| format!("scrape lacks {name}"))
    };
    let decisions = get("dstage_service_decisions_total")?;
    let admitted = get("dstage_service_admitted_total")?;
    let refused = get("dstage_service_refused_total")?;
    if decisions != admitted + refused {
        return Err(format!("decisions {decisions} != admitted {admitted} + refused {refused}"));
    }
    let displaced = get("dstage_service_displaced_total")?;
    let repairs = get("dstage_service_repairs_total")?;
    let evictions = get("dstage_service_evictions_total")?;
    if displaced != repairs + evictions {
        return Err(format!("displaced {displaced} != repairs {repairs} + evictions {evictions}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::run;
    use dstage_service::protocol::SubmitArgs;
    use dstage_workload::small::{contended_link, two_hop_chain};
    use dstage_workload::{generate, GeneratorConfig};

    fn admission_snapshot(catalog: &Scenario) -> (Value, u64, u64) {
        let mut engine = AdmissionEngine::new(catalog, DAEMON_SCHEDULER, config());
        let names: Vec<String> = catalog.items().map(|(_, i)| i.name().to_string()).collect();
        let (mut submitted, mut weighted) = (0, 0);
        for (_, r) in catalog.requests() {
            let response = engine
                .submit(&SubmitArgs {
                    item: names[r.item().index()].clone(),
                    destination: r.destination().index() as u32,
                    deadline_ms: r.deadline().as_millis(),
                    priority: r.priority().level(),
                    idempotency_key: None,
                })
                .unwrap();
            submitted += 1;
            if response.decision == "admitted" {
                weighted += WEIGHTS[usize::from(r.priority().level())];
            }
        }
        (engine.snapshot(), submitted, weighted)
    }

    fn set(value: &mut Value, field: &str, new: Value) {
        let Value::Object(fields) = value else { panic!("not an object") };
        fields.iter_mut().find(|(k, _)| k == field).expect("field present").1 = new;
    }

    #[test]
    fn schedule_check_accepts_real_schedules_and_rejects_a_shifted_start() {
        let scenario = generate(&GeneratorConfig::small(), 3);
        let schedule = run(&scenario, Heuristic::FullPathOneDestination, &config()).schedule;
        let sum = check_schedule(&scenario, &schedule).unwrap();
        assert!(sum > 0);

        let mut transfers = schedule.transfers().to_vec();
        transfers[0].start += dstage_model::time::SimDuration::from_millis(1);
        let shifted = Schedule::from_parts(transfers, schedule.deliveries().to_vec());
        assert!(check_schedule(&scenario, &shifted).is_err());

        let mut deliveries = schedule.deliveries().to_vec();
        deliveries.push(deliveries[0]);
        let doubled = Schedule::from_parts(schedule.transfers().to_vec(), deliveries);
        assert!(check_schedule(&scenario, &doubled).is_err());
    }

    #[test]
    fn replay_check_rejects_a_dropped_log_record() {
        let catalog = contended_link();
        let (snapshot, _, _) = admission_snapshot(&catalog);
        check_replay(&catalog, &snapshot).unwrap();
        let mut dropped = snapshot.clone();
        let Value::Object(fields) = &mut dropped else { panic!() };
        let (_, Value::Array(log)) = fields.iter_mut().find(|(k, _)| k == "log").unwrap() else {
            panic!()
        };
        assert!(log.len() > 1);
        log.remove(0);
        assert!(check_replay(&catalog, &dropped).is_err());
    }

    #[test]
    fn admission_check_rejects_an_altered_weight() {
        let catalog = two_hop_chain();
        let (snapshot, submitted, weighted) = admission_snapshot(&catalog);
        assert_eq!(check_admission(&catalog, &snapshot, submitted, weighted), Ok(weighted));
        assert!(check_admission(&catalog, &snapshot, submitted + 1, weighted).is_err());
        assert!(check_admission(&catalog, &snapshot, submitted, weighted + 1).is_err());

        let mut altered = snapshot.clone();
        set(&mut altered, "weighted_sum", Value::UInt(weighted + 9));
        assert!(check_admission(&catalog, &altered, submitted, weighted).is_err());
        assert_eq!(check_weighted_sum(&snapshot), Ok(weighted));
        assert!(check_weighted_sum(&altered).is_err());

        let mut reprioritized = snapshot.clone();
        let Value::Object(fields) = &mut reprioritized else { panic!() };
        let (_, Value::Array(requests)) = fields.iter_mut().find(|(k, _)| k == "requests").unwrap()
        else {
            panic!()
        };
        let old = u64_of(&requests[0], "priority").unwrap();
        set(&mut requests[0], "priority", Value::UInt((old + 1) % 3));
        assert!(check_admission(&catalog, &reprioritized, submitted, weighted).is_err());
    }

    #[test]
    fn admission_check_rejects_a_moved_reservation() {
        let catalog = two_hop_chain();
        let (snapshot, submitted, weighted) = admission_snapshot(&catalog);
        let mut moved = snapshot.clone();
        let Value::Object(fields) = &mut moved else { panic!() };
        let (_, schedule) = fields.iter_mut().find(|(k, _)| k == "schedule").unwrap();
        let mut parsed: Schedule = serde::from_value(schedule.clone()).unwrap();
        let mut transfers = parsed.transfers().to_vec();
        transfers[0].arrival += dstage_model::time::SimDuration::from_millis(7);
        parsed = Schedule::from_parts(transfers, parsed.deliveries().to_vec());
        *schedule = serde::to_value(&parsed).unwrap();
        assert!(check_admission(&catalog, &moved, submitted, weighted).is_err());
    }

    #[test]
    fn identity_check_reads_prometheus_text() {
        let good = "# TYPE x counter\ndstage_service_decisions_total 5\n\
                    dstage_service_admitted_total 3\ndstage_service_refused_total 2\n\
                    dstage_service_displaced_total 4\ndstage_service_repairs_total 1\n\
                    dstage_service_evictions_total 3\n";
        check_identities(good).unwrap();
        assert_eq!(prometheus_value(good, "dstage_service_admitted_total"), Some(3.0));
        let bad = good.replace("dstage_service_refused_total 2", "dstage_service_refused_total 1");
        assert!(check_identities(&bad).is_err());
        let lost =
            good.replace("dstage_service_evictions_total 3", "dstage_service_evictions_total 2");
        assert!(check_identities(&lost).is_err());
        assert!(check_identities("").is_err());
    }
}
