//! Job coalescing over real sockets: identical in-flight submissions
//! collapse onto one underlying run whose artifact fans out to every
//! waiter byte-for-byte, while different specs never coalesce.

use std::time::{Duration, Instant};

use spur_obs::validate::{get_field, parse};
use spur_serve::client::{get, post_json};
use spur_serve::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A deliberately heavy cell that pins one worker long enough for the
/// coalescing window to be deterministic, under a different experiment
/// family so its `run` histogram row never pollutes the target's. Each
/// `seed` is a distinct identity, so blockers never coalesce with one
/// another.
fn blocker(seed: u64) -> String {
    format!(
        r#"{{"experiment":"events","workload":"SLC","mem_mb":5,
        "scale":{{"refs":400000,"seed":{seed},"reps":2}},"obs":false}}"#
    )
}

/// The spec every racer submits — full identity equality.
const TARGET: &str = r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
    "scale":{"refs":30000,"seed":1989,"reps":1},"obs":{"epoch":10000}}"#;

fn submit_json(addr: &str, body: &str) -> spur_harness::Json {
    let resp = post_json(addr, "/v1/jobs", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 202, "submit failed: {}", resp.text());
    parse(&resp.text()).unwrap()
}

fn uint(doc: &spur_harness::Json, field: &str) -> u64 {
    match get_field(doc, field) {
        Some(spur_harness::Json::UInt(v)) => *v,
        other => panic!("field {field} not a uint: {other:?}"),
    }
}

fn status_of(addr: &str, id: u64) -> String {
    let resp = get(addr, &format!("/v1/jobs/{id}"), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = parse(&resp.text()).unwrap();
    match get_field(&doc, "status") {
        Some(spur_harness::Json::Str(s)) => s.clone(),
        other => panic!("status body without status: {other:?}"),
    }
}

fn await_status(addr: &str, id: u64, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = status_of(addr, id);
        if status == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {status}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn metric(addr: &str, name: &str) -> u64 {
    let text = get(addr, "/metrics", TIMEOUT).unwrap().text();
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
        .split(' ')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn identical_inflight_submissions_coalesce_onto_one_run() {
    coalesce_onto_one_run(1);
}

/// Every worker pops from the same queue, so the one global in-flight
/// map is all that keeps a second worker from running a duplicate.
#[test]
fn identical_inflight_submissions_coalesce_across_workers() {
    coalesce_onto_one_run(2);
}

/// Pins all `workers` with blockers, then submits a leader and its
/// followers while the leader is still queued: the identity must run
/// exactly once and every follower must receive the leader's bytes.
fn coalesce_onto_one_run(workers: usize) {
    const FOLLOWERS: usize = 6;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_bound: 32,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Pin every worker, then wait until each blocker has actually
    // started so the leader below is guaranteed to still be queued
    // when the followers arrive.
    let blocker_ids: Vec<u64> = (0..workers as u64)
        .map(|i| uint(&submit_json(&addr, &blocker(7 + i)), "id"))
        .collect();
    for &id in &blocker_ids {
        await_status(&addr, id, "running");
    }

    let leader = submit_json(&addr, TARGET);
    let leader_id = uint(&leader, "id");
    assert!(
        get_field(&leader, "coalesced").is_none(),
        "first submission must lead, not coalesce: {leader:?}"
    );

    let mut follower_ids = Vec::new();
    for _ in 0..FOLLOWERS {
        let doc = submit_json(&addr, TARGET);
        assert_eq!(
            get_field(&doc, "coalesced"),
            Some(&spur_harness::Json::Bool(true)),
            "identical in-flight submission must coalesce: {doc:?}"
        );
        assert_eq!(uint(&doc, "leader_id"), leader_id);
        follower_ids.push(uint(&doc, "id"));
    }
    follower_ids.sort_unstable();
    follower_ids.dedup();
    assert_eq!(
        follower_ids.len(),
        FOLLOWERS,
        "every follower has its own id"
    );

    // The leader's completion resolves every follower.
    await_status(&addr, leader_id, "done");
    for &id in &follower_ids {
        await_status(&addr, id, "done");
    }

    // Exactly one underlying run: the refbit run histogram saw one
    // sample even though 1 + FOLLOWERS submissions were answered.
    let text = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(
        text.contains("spur_serve_phase_ms_count{phase=\"run\",experiment=\"refbit\"} 1\n"),
        "coalesced family must run exactly once:\n{text}"
    );
    assert_eq!(
        metric(&addr, "spur_serve_jobs_coalesced_total"),
        FOLLOWERS as u64
    );

    // Every waiter got byte-identical artifact bytes.
    let leader_bytes = get(&addr, &format!("/v1/jobs/{leader_id}/result"), TIMEOUT)
        .unwrap()
        .body;
    assert!(!leader_bytes.is_empty());
    for &id in &follower_ids {
        let follower_bytes = get(&addr, &format!("/v1/jobs/{id}/result"), TIMEOUT)
            .unwrap()
            .body;
        assert_eq!(
            follower_bytes, leader_bytes,
            "follower {id} artifact must be byte-identical to the leader's"
        );
    }

    let summary = server.shutdown();
    // Blockers + leader simulated; followers completed logically.
    assert_eq!(summary.failed, 0, "{summary:?}");
}

#[test]
fn different_specs_never_coalesce() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_bound: 32,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let blocker_id = uint(&submit_json(&addr, &blocker(7)), "id");
    await_status(&addr, blocker_id, "running");

    // Same harness key, different seed — the identity (not the key)
    // is what coalesces, so these must both lead. A third with a
    // different mem_mb differs in key too.
    let specs = [
        r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
            "scale":{"refs":20000,"seed":1,"reps":1},"obs":false}"#,
        r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
            "scale":{"refs":20000,"seed":2,"reps":1},"obs":false}"#,
        r#"{"experiment":"refbit","workload":"SLC","mem_mb":10,"policy":"MISS",
            "scale":{"refs":20000,"seed":1,"reps":1},"obs":false}"#,
    ];
    let mut ids = Vec::new();
    for spec in specs {
        let doc = submit_json(&addr, spec);
        assert!(
            get_field(&doc, "coalesced").is_none(),
            "distinct specs must not coalesce: {doc:?}"
        );
        ids.push(uint(&doc, "id"));
    }
    for id in ids {
        await_status(&addr, id, "done");
    }
    assert_eq!(metric(&addr, "spur_serve_jobs_coalesced_total"), 0);
    // Three distinct runs of the refbit family really happened.
    let text = get(&addr, "/metrics", TIMEOUT).unwrap().text();
    assert!(
        text.contains("spur_serve_phase_ms_count{phase=\"run\",experiment=\"refbit\"} 3\n"),
        "{text}"
    );

    server.shutdown();
}
