//! Per-client fairness over real sockets: a greedy client hammering
//! the service hits its own quota with 429s and its own Retry-After,
//! while a polite client riding alongside is admitted and completes
//! unaffected.

use std::time::{Duration, Instant};

use spur_obs::validate::{get_field, parse};
use spur_serve::client::{get, http_request_headers};
use spur_serve::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Heavy pin for the single worker (distinct experiment family).
const BLOCKER: &str = r#"{"experiment":"events","workload":"SLC","mem_mb":5,
    "scale":{"refs":400000,"seed":7,"reps":2},"obs":false}"#;

fn spec(seed: u64) -> String {
    format!(
        r#"{{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"MISS",
        "scale":{{"refs":20000,"seed":{seed},"reps":1}},"obs":false}}"#
    )
}

/// Submits as `client` and returns the raw response.
fn submit_as(addr: &str, client: &str, body: &str) -> spur_serve::HttpResponse {
    http_request_headers(
        addr,
        "POST",
        "/v1/jobs",
        Some(body.as_bytes()),
        &[("x-client-id", client)],
        TIMEOUT,
    )
    .unwrap()
}

fn job_id(resp: &spur_serve::HttpResponse) -> u64 {
    assert_eq!(resp.status, 202, "submit failed: {}", resp.text());
    let doc = parse(&resp.text()).unwrap();
    match get_field(&doc, "id") {
        Some(spur_harness::Json::UInt(id)) => *id,
        other => panic!("202 body without id: {other:?}"),
    }
}

fn await_done(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}"), TIMEOUT).unwrap();
        let doc = parse(&resp.text()).unwrap();
        match get_field(&doc, "status") {
            Some(spur_harness::Json::Str(s)) if s == "done" => return,
            Some(spur_harness::Json::Str(s)) if s == "failed" => panic!("job {id} failed"),
            _ if Instant::now() > deadline => panic!("job {id} never finished"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
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
fn greedy_client_hits_its_quota_while_the_polite_client_is_unaffected() {
    const QUOTA: usize = 4;
    const GREEDY_ATTEMPTS: u64 = 10;

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        // Plenty of global room: every shed below is the *quota*
        // refusing the offender, never the queue being full.
        queue_bound: 64,
        client_quota: QUOTA,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Pin the worker so admissions pile up deterministically.
    let blocker_id = job_id(&submit_as(&addr, "setup", BLOCKER));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(&addr, &format!("/v1/jobs/{blocker_id}"), TIMEOUT).unwrap();
        let doc = parse(&resp.text()).unwrap();
        if matches!(get_field(&doc, "status"), Some(spur_harness::Json::Str(s)) if s == "running") {
            break;
        }
        assert!(Instant::now() < deadline, "blocker never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The greedy client burns through its quota; every attempt past
    // QUOTA is shed with a quota-specific 429 naming the client.
    let mut greedy_accepted = Vec::new();
    let mut greedy_shed = 0u64;
    for i in 0..GREEDY_ATTEMPTS {
        let resp = submit_as(&addr, "greedy", &spec(100 + i));
        match resp.status {
            202 => greedy_accepted.push(job_id(&resp)),
            429 => {
                greedy_shed += 1;
                let text = resp.text();
                assert!(text.contains("client over quota"), "{text}");
                assert!(text.contains("greedy"), "429 names the offender: {text}");
                let retry: u64 = resp
                    .header("retry-after")
                    .expect("quota 429 must carry retry-after")
                    .parse()
                    .expect("retry-after must be integral seconds");
                assert!(
                    (1..=60).contains(&retry),
                    "retry-after {retry} out of bounds"
                );
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert_eq!(greedy_accepted.len(), QUOTA, "exactly the quota admitted");
    assert_eq!(greedy_shed, GREEDY_ATTEMPTS - QUOTA as u64);

    // The polite client is entirely unaffected by greedy's saturation:
    // both of its submissions are admitted with no shed.
    let polite_ids: Vec<u64> = (0..2)
        .map(|i| job_id(&submit_as(&addr, "polite", &spec(200 + i))))
        .collect();

    // Everything admitted completes once the blocker releases the
    // worker — the greedy backlog cannot starve the polite jobs.
    for &id in polite_ids.iter().chain(&greedy_accepted) {
        await_done(&addr, id);
    }

    assert_eq!(
        metric(&addr, "spur_serve_quota_rejected_total"),
        greedy_shed,
        "every shed was a quota shed"
    );
    assert_eq!(
        metric(&addr, "spur_serve_jobs_rejected_total"),
        greedy_shed,
        "no queue-full sheds mixed in"
    );

    let summary = server.shutdown();
    assert_eq!(summary.failed, 0, "{summary:?}");
    // Blocker + greedy's quota + polite's two all simulated.
    assert_eq!(summary.completed, 1 + QUOTA as u64 + 2, "{summary:?}");
}
