//! `serve-mixed`: an in-process `spur-serve` with one worker and the
//! default results cache, driven open-loop over at most two connections.
//!
//! Refbit bodies rotate over SLC/WORKLOAD1, 5/6/8 MB and the three
//! reference-bit policies, with `obs` omitted (so on, as for real
//! clients). Each body is sent three times, once per job class: fresh,
//! then at once a twin that coalesces onto the running leader, then one
//! later repeat that hits the results cache. Loads accept → parse →
//! route → cache lookup → coalesce → fair queue → run → serialize;
//! cached repeats bypass the simulator entirely.
//!
//! Two client threads share the work: the submitter posts on the
//! schedule and fetches cached results at once; the poller follows
//! queued jobs to completion and fetches their results. Every latency
//! runs from the instant the request was due to the last result byte.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spur_core::SimConfig;
use spur_harness::{job_artifact_json, run_one, Json};
use spur_obs::validate::{get_field, parse};
use spur_serve::{get, parse_job_spec, post_json, ServeConfig, Server};
use spur_trace::workloads::{slc, workload1};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::control::Control;
use crate::layers::{emit_probe_means, probe, ProbeCell, SimCounts};
use crate::stats::{median, percentile, reported, tail_percentile, Outcome};

/// References per served job.
const JOB_REFS: u64 = 50_000;
/// Fresh bodies per second in the main window. Each cycle sends one
/// fresh body and its twin, and half a cycle later repeats the body sent
/// `REPEAT_LAG` cycles earlier, whose result is cached by then.
const MAIN_FRESH_PER_S: f64 = 8.0;
const REPEAT_LAG: u64 = 2;
/// Fresh bodies completed before timing starts.
const WARMUP: u64 = 8;
/// The fixed open-loop ladder of fresh-job rates (jobs/s) for
/// `max_jobs_per_s`, each held `RUNG_SECS`; a closed-loop rung that
/// keeps `SATURATE_DEPTH` fresh jobs outstanding for `SATURATE_SECS`
/// follows it and measures the server's capacity.
const LADDER: [f64; 3] = [5.5, 11.0, 22.0];
const RUNG_SECS: f64 = 2.0;
const SATURATE_DEPTH: usize = 2;
const SATURATE_SECS: f64 = 6.0;
/// A rung passes when its fresh jobs' p90 stays under this limit...
const COLD_P90_LIMIT_MS: f64 = 250.0;
/// ...and an open-loop rung never has more than this many fresh jobs
/// outstanding (a growing backlog); reaching it ends the rung.
const BACKLOG_LIMIT: usize = 8;
const POLL: Duration = Duration::from_millis(3);
const TIMEOUT: Duration = Duration::from_secs(10);
/// `setup_s` is the median of three blocks of `SETUP_BLOCK` server
/// starts — before the main window, after it and after the ladder — and
/// of the start of the server under test: a start takes a fraction of a
/// millisecond and the host's state changes over tens of milliseconds,
/// so a single block would catch a single state.
const SETUP_BLOCK: usize = 34;
/// The eight phases of a served job's span tree, and `respond`, which
/// runs beside them.
const PHASES: [&str; 9] = [
    "accept",
    "parse",
    "route",
    "cache_lookup",
    "coalesce_wait",
    "queue_wait",
    "run",
    "serialize",
    "respond",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Fresh,
    Coalesced,
    Cached,
}

impl Class {
    const ALL: [Class; 3] = [Class::Fresh, Class::Coalesced, Class::Cached];

    fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Coalesced => "coalesced",
            Class::Cached => "cached",
        }
    }
}

/// Which part of the run a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Main { traced: bool },
    Rung(usize),
}

/// One submission and what became of it.
#[derive(Debug)]
struct Job {
    fresh: u64,
    phase: Phase,
    due: Instant,
    late_ms: f64,
    class: Option<Class>,
    id: u64,
    done: Option<Instant>,
    result: Option<Vec<u8>>,
    wall_ms: Option<f64>,
    error: Option<String>,
    /// Server span phases (µs) and root wall (µs), when traced.
    phases: Option<(HashMap<String, f64>, f64)>,
}

impl Job {
    fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// The body of fresh job `i`.
fn body(seed: u64, i: u64) -> String {
    let workload = ["SLC", "WORKLOAD1"][(i % 2) as usize];
    let mem = [5, 6, 8][(i / 2 % 3) as usize];
    let policy = ["MISS", "REF", "NOREF"][(i / 6 % 3) as usize];
    let job_seed = splitmix(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 16;
    format!(
        r#"{{"experiment":"refbit","workload":"{workload}","mem_mb":{mem},"policy":"{policy}","scale":{{"refs":{JOB_REFS},"seed":{job_seed},"reps":1}}}}"#
    )
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Client {
    addr: String,
    seed: u64,
    jobs: Arc<Mutex<Vec<Job>>>,
    outstanding_fresh: Arc<AtomicUsize>,
    to_poller: mpsc::Sender<usize>,
    bodies: HashMap<u64, String>,
    next_fresh: u64,
    rejected: u64,
}

/// Parses a JSON document.
fn parse_doc(text: &str) -> Result<Json, String> {
    parse(text).map_err(|e| e.to_string())
}

/// A JSON number as `f64`.
fn num(v: &Json) -> Option<f64> {
    match *v {
        Json::UInt(n) => Some(n as f64),
        Json::Int(n) => Some(n as f64),
        Json::Float(x) => Some(x),
        _ => None,
    }
}

/// A JSON string's text.
fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn fetch_result(addr: &str, id: u64) -> Result<Vec<u8>, String> {
    let r = get(addr, &format!("/v1/jobs/{id}/result"), TIMEOUT).map_err(|e| e.to_string())?;
    if r.status == 200 {
        Ok(r.body)
    } else {
        Err(format!("result of job {id}: HTTP {}", r.status))
    }
}

fn fetch_trace(addr: &str, id: u64) -> Result<(HashMap<String, f64>, f64), String> {
    let r = get(addr, &format!("/v1/jobs/{id}/trace"), TIMEOUT).map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("trace of job {id}: HTTP {}", r.status));
    }
    let doc = parse_doc(&r.text())?;
    let wall = get_field(&doc, "wall_us")
        .and_then(num)
        .ok_or("trace without wall_us")?;
    let mut phases = HashMap::new();
    if let Some(Json::Obj(fields)) = get_field(&doc, "phases") {
        for (k, v) in fields {
            phases.insert(k.clone(), num(v).unwrap_or(0.0));
        }
    }
    Ok((phases, wall))
}

impl Client {
    fn body(&mut self, fresh: u64) -> String {
        let seed = self.seed;
        self.bodies
            .entry(fresh)
            .or_insert_with(|| body(seed, fresh))
            .clone()
    }

    /// Posts body `fresh` for a job due at `due`.
    fn submit(&mut self, fresh: u64, due: Instant, phase: Phase) {
        let body = self.body(fresh);
        let now = Instant::now();
        let late_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
        let mut job = Job {
            fresh,
            phase,
            due,
            late_ms,
            class: None,
            id: 0,
            done: None,
            result: None,
            wall_ms: None,
            error: None,
            phases: None,
        };
        let traced = matches!(phase, Phase::Main { traced: true });
        match post_json(&self.addr, "/v1/jobs", &body, TIMEOUT) {
            Ok(r) if r.status == 202 => match parse_doc(&r.text()) {
                Ok(doc) => {
                    job.id = get_field(&doc, "id").and_then(num).unwrap_or(0.0) as u64;
                    let class = if matches!(get_field(&doc, "cached"), Some(Json::Bool(true))) {
                        Class::Cached
                    } else if matches!(get_field(&doc, "coalesced"), Some(Json::Bool(true))) {
                        Class::Coalesced
                    } else {
                        Class::Fresh
                    };
                    job.class = Some(class);
                    if class == Class::Cached {
                        match fetch_result(&self.addr, job.id) {
                            Ok(bytes) => {
                                job.done = Some(Instant::now());
                                job.result = Some(bytes);
                                if traced {
                                    match fetch_trace(&self.addr, job.id) {
                                        Ok(p) => job.phases = Some(p),
                                        Err(e) => job.error = Some(e),
                                    }
                                }
                            }
                            Err(e) => job.error = Some(e),
                        }
                    }
                }
                Err(e) => job.error = Some(format!("202 body: {e}")),
            },
            Ok(r) => {
                if r.status == 429 {
                    self.rejected += 1;
                }
                job.error = Some(format!("submit: HTTP {} {}", r.status, r.text()));
            }
            Err(e) => job.error = Some(format!("submit: {e}")),
        }
        let follow = job.error.is_none() && job.done.is_none();
        let is_fresh = job.class == Some(Class::Fresh);
        let idx = {
            let mut jobs = self.jobs.lock().expect("job table lock poisoned");
            jobs.push(job);
            jobs.len() - 1
        };
        if follow {
            if is_fresh {
                self.outstanding_fresh.fetch_add(1, Ordering::SeqCst);
            }
            self.to_poller
                .send(idx)
                .expect("poller outlives the submitter");
        }
    }

    /// A fresh body, and its immediate twin when `twin` is set.
    fn submit_new(&mut self, due: Instant, phase: Phase, twin: bool) -> u64 {
        let fresh = self.next_fresh;
        self.next_fresh += 1;
        self.submit(fresh, due, phase);
        if twin {
            self.submit(fresh, due, phase);
        }
        fresh
    }

    /// Waits, up to `limit`, until no submitted job is still open.
    fn wait_idle(&self, limit: Duration) {
        let start = Instant::now();
        while start.elapsed() < limit
            && (self.outstanding_fresh.load(Ordering::SeqCst) > 0
                || self
                    .jobs
                    .lock()
                    .expect("job table lock poisoned")
                    .iter()
                    .any(|j| j.error.is_none() && j.done.is_none()))
        {
            std::thread::sleep(POLL);
        }
    }
}

/// The poller: follows queued and coalesced jobs to completion.
fn poller(
    addr: String,
    jobs: Arc<Mutex<Vec<Job>>>,
    outstanding_fresh: Arc<AtomicUsize>,
    from_submitter: mpsc::Receiver<usize>,
) {
    let mut open: Vec<usize> = Vec::new();
    // Coalesced jobs finish with their leader, so they are polled only
    // once the leader (same body) has finished. The one worker runs
    // fresh jobs in submission order, so only the oldest unfinished one
    // is polled; polling the others would only load the server.
    let mut leaders_done: std::collections::HashSet<u64> = std::collections::HashSet::new();
    loop {
        loop {
            match from_submitter.try_recv() {
                Ok(i) => open.push(i),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) if open.is_empty() => return,
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        }
        if open.is_empty() {
            match from_submitter.recv_timeout(Duration::from_millis(50)) {
                Ok(i) => open.push(i),
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
        let mut progressed = false;
        let mut fresh_running = false;
        let mut k = 0;
        while k < open.len() {
            let i = open[k];
            let (id, traced, fresh, body) = {
                let jobs = jobs.lock().expect("job table lock poisoned");
                let j = &jobs[i];
                (
                    j.id,
                    matches!(j.phase, Phase::Main { traced: true }),
                    j.class == Some(Class::Fresh),
                    j.fresh,
                )
            };
            if (fresh && fresh_running) || (!fresh && !leaders_done.contains(&body)) {
                k += 1;
                continue;
            }
            let status = get(&addr, &format!("/v1/jobs/{id}"), TIMEOUT)
                .map_err(|e| e.to_string())
                .and_then(|r| parse_doc(&r.text()));
            let state = match &status {
                Ok(doc) => get_field(doc, "status")
                    .and_then(text)
                    .unwrap_or("")
                    .to_string(),
                Err(_) => "error".to_string(),
            };
            if state == "queued" || state == "running" {
                fresh_running |= fresh;
                k += 1;
                continue;
            }
            let mut update: Result<(Instant, Vec<u8>, Option<f64>), String> = match state.as_str() {
                "done" => fetch_result(&addr, id).map(|bytes| {
                    let wall = status
                        .as_ref()
                        .ok()
                        .and_then(|d| get_field(d, "wall_ms"))
                        .and_then(num);
                    (Instant::now(), bytes, wall)
                }),
                other => Err(format!("job {id} ended {other:?}: {status:?}")),
            };
            let phases = match (&update, traced) {
                (Ok(_), true) => match fetch_trace(&addr, id) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        update = Err(e);
                        None
                    }
                },
                _ => None,
            };
            {
                let mut jobs = jobs.lock().expect("job table lock poisoned");
                let j = &mut jobs[i];
                match update {
                    Ok((done, bytes, wall)) => {
                        j.done = Some(done);
                        j.result = Some(bytes);
                        j.wall_ms = wall;
                        j.phases = phases;
                    }
                    Err(e) => j.error = Some(e),
                }
            }
            if fresh {
                leaders_done.insert(body);
                outstanding_fresh.fetch_sub(1, Ordering::SeqCst);
            }
            open.remove(k);
            progressed = true;
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn start_server() -> Result<(Server, String, f64), String> {
    let t = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr().to_string();
    loop {
        if let Ok(r) = get(&addr, "/healthz", TIMEOUT) {
            if r.status == 200 {
                break;
            }
        }
        if t.elapsed() > TIMEOUT {
            return Err("the server never answered /healthz".into());
        }
    }
    Ok((server, addr, t.elapsed().as_secs_f64()))
}

/// Times one block of server starts, each until `/healthz` answers.
fn setup_block(setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_BLOCK {
        let (server, _, s) = start_server()?;
        setups.push(s);
        server.shutdown();
    }
    Ok(())
}

/// The main window: the mixed schedule at a fixed rate for `secs`. A
/// traced invocation traces every other cycle; the cycles between give
/// the untraced figures, on the same host. Returns the window's wall
/// time in seconds.
fn main_window(client: &mut Client, secs: f64, trace: bool) -> f64 {
    let cycle = Duration::from_secs_f64(1.0 / MAIN_FRESH_PER_S);
    let cycles = (secs * MAIN_FRESH_PER_S) as u32;
    let start = Instant::now();
    for c in 0..cycles {
        let phase = Phase::Main {
            traced: trace && c % 2 == 1,
        };
        let due = start + cycle * c;
        sleep_until(due);
        let fresh = client.submit_new(due, phase, true);
        let due = due + cycle / 2;
        sleep_until(due);
        client.submit(fresh - REPEAT_LAG, due, phase);
    }
    let wall = start.elapsed().as_secs_f64();
    client.wait_idle(Duration::from_secs(60));
    wall
}

/// Waits for rung `r`'s jobs and judges it: it passes when every fresh
/// job finished, their p90 stayed under the limit and the backlog never
/// grew. Returns the achieved fresh-job rate of a passing rung: fresh
/// jobs finished over the time from its start to the last completion.
fn judge_rung(
    client: &Client,
    r: usize,
    label: &str,
    start: Instant,
    backlogged: bool,
) -> Option<f64> {
    client.wait_idle(Duration::from_secs(60));
    let jobs = client.jobs.lock().expect("job table lock poisoned");
    let rung: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.phase == Phase::Rung(r) && j.class == Some(Class::Fresh))
        .collect();
    let lat = latencies(&rung);
    let p90 = percentile(&lat, 90.0);
    let last_done = rung.iter().filter_map(|j| j.done).max();
    let achieved = last_done.map_or(0.0, |d| {
        lat.len() as f64 / d.duration_since(start).as_secs_f64()
    });
    eprintln!(
        "serve-mixed: rung {label}: {} fresh, p90 {p90:.1} ms, achieved {achieved:.2}/s{}",
        lat.len(),
        if backlogged {
            ", backlog limit reached"
        } else {
            ""
        }
    );
    let passed =
        !backlogged && !lat.is_empty() && p90 <= COLD_P90_LIMIT_MS && lat.len() == rung.len();
    passed.then_some(achieved)
}

/// The closed-loop rung, as phase `Rung(r)`: a new fresh body is due
/// whenever fewer than `SATURATE_DEPTH` are outstanding, so the worker
/// never idles. Returns the rung's start.
fn saturate(client: &mut Client, r: usize) -> Instant {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(SATURATE_SECS);
    while Instant::now() < end {
        if client.outstanding_fresh.load(Ordering::SeqCst) < SATURATE_DEPTH {
            client.submit_new(Instant::now(), Phase::Rung(r), false);
        } else {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    client.wait_idle(Duration::from_secs(60));
    start
}

/// The ladder of fresh-job rates, stopping at the first rung that
/// fails, then the closed-loop rung. Returns the achieved rate of the
/// highest passing rung.
fn ladder(client: &mut Client) -> f64 {
    let mut max_jobs_per_s = 0.0;
    for (r, &rate) in LADDER.iter().enumerate() {
        let start = Instant::now();
        let n = (rate * RUNG_SECS) as u32;
        let gap = Duration::from_secs_f64(1.0 / rate);
        let mut backlogged = false;
        for k in 0..n {
            let due = start + gap * k;
            sleep_until(due);
            if client.outstanding_fresh.load(Ordering::SeqCst) >= BACKLOG_LIMIT {
                backlogged = true;
                break;
            }
            client.submit_new(due, Phase::Rung(r), false);
        }
        match judge_rung(client, r, &format!("{rate}/s"), start, backlogged) {
            Some(achieved) => max_jobs_per_s = achieved,
            None => return max_jobs_per_s,
        }
    }
    let r = LADDER.len();
    let start = saturate(client, r);
    if let Some(achieved) = judge_rung(client, r, "closed loop", start, false) {
        max_jobs_per_s = achieved;
    }
    max_jobs_per_s
}

/// Main-window jobs of class `c`, optionally only the traced (or
/// untraced) half.
fn of_class<'a>(main: &[&'a Job], c: Class, traced: Option<bool>) -> Vec<&'a Job> {
    main.iter()
        .copied()
        .filter(|j| j.class == Some(c))
        .filter(|j| traced.is_none_or(|t| j.phase == Phase::Main { traced: t }))
        .collect()
}

/// Latencies (ms from due time) of the jobs that finished.
fn latencies(jobs: &[&Job]) -> Vec<f64> {
    jobs.iter().filter_map(|j| j.latency_ms()).collect()
}

/// Runs the workload for `seconds`; traced when `trace` is set.
///
/// # Errors
///
/// Propagates server start-up failures; failed jobs count as failed
/// operations instead.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    setup_block(&mut setups)?;
    let (server, addr, s) = start_server()?;
    setups.push(s);

    let jobs = Arc::new(Mutex::new(Vec::new()));
    let outstanding = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel();
    let poll_thread = {
        let (addr, jobs, outstanding) = (addr.clone(), jobs.clone(), outstanding.clone());
        std::thread::spawn(move || poller(addr, jobs, outstanding, rx))
    };
    let mut client = Client {
        addr: addr.clone(),
        seed,
        jobs: jobs.clone(),
        outstanding_fresh: outstanding,
        to_poller: tx,
        bodies: HashMap::new(),
        next_fresh: 0,
        rejected: 0,
    };
    // Warm-up: a few fresh bodies, completed before timing, so repeats
    // have cached results to hit from the first cycle.
    for _ in 0..WARMUP {
        client.submit_new(Instant::now(), Phase::Warmup, true);
        client.wait_idle(TIMEOUT);
    }
    let main_wall = main_window(&mut client, seconds * 0.5, trace);
    setup_block(&mut setups)?;
    let max_jobs_per_s = if trace { 0.0 } else { ladder(&mut client) };
    setup_block(&mut setups)?;

    let Client {
        bodies,
        rejected,
        jobs: client_jobs,
        to_poller,
        ..
    } = client;
    drop((to_poller, client_jobs));
    poll_thread.join().map_err(|_| "the poller panicked")?;
    server.shutdown();
    let jobs = Arc::try_unwrap(jobs)
        .map_err(|_| "job table still shared")?
        .into_inner()
        .map_err(|_| "job table lock poisoned")?;

    check(&mut out, &jobs, &bodies);
    let main: Vec<&Job> = jobs
        .iter()
        .filter(|j| matches!(j.phase, Phase::Main { .. }))
        .collect();
    let counts: HashMap<Class, usize> = Class::ALL
        .iter()
        .map(|&c| (c, of_class(&main, c, None).len()))
        .collect();
    let cached_lat = latencies(&of_class(&main, Class::Cached, None));
    eprintln!(
        "serve-mixed: cached latency ms p50 {:.3} p90 {:.3} p95 {:.3} p98 {:.3} p99 {:.3} p99.5 {:.3} max {:.3}",
        percentile(&cached_lat, 50.0),
        percentile(&cached_lat, 90.0),
        percentile(&cached_lat, 95.0),
        percentile(&cached_lat, 98.0),
        percentile(&cached_lat, 99.0),
        percentile(&cached_lat, 99.5),
        percentile(&cached_lat, 100.0)
    );
    eprintln!(
        "serve-mixed: main window {main_wall:.1}s: {} fresh, {} coalesced, {} cached of {} jobs",
        counts[&Class::Fresh],
        counts[&Class::Coalesced],
        counts[&Class::Cached],
        main.len()
    );

    if trace {
        let shares = |c: Class| counts[&c] as f64 / main.len().max(1) as f64;
        out.metric("serve.cache_hit_ratio", shares(Class::Cached), "ratio");
        out.metric("serve.coalesced_share", shares(Class::Coalesced), "ratio");
        out.metric(
            "serve.rejected_share",
            rejected as f64 / jobs.len().max(1) as f64,
            "ratio",
        );
        let mut ctl = Control::default();
        for _ in 0..5 {
            ctl.sample();
        }
        out.metric("host.control_ms", ctl.median(), "ms");
        traced_metrics(&mut out, &main)?;
        probe_layers(&mut out, seed)?;
    } else {
        let cold = latencies(&of_class(&main, Class::Fresh, None));
        let cached = latencies(&of_class(&main, Class::Cached, None));
        let fresh = of_class(&main, Class::Fresh, None);
        let run_s: f64 = fresh.iter().filter_map(|j| j.wall_ms).sum::<f64>() / 1e3;
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mib", crate::stats::peak_rss_mib()?, "MiB");
        out.metric(
            "sim_refs_per_s",
            fresh.len() as f64 * JOB_REFS as f64 / run_s,
            "1/s",
        );
        out.metric(
            "cold_p50_ms",
            reported("serve-mixed fresh jobs", &cold, 50.0)?,
            "ms",
        );
        out.metric(
            "cold_p90_ms",
            reported("serve-mixed fresh jobs", &cold, 90.0)?,
            "ms",
        );
        out.metric(
            "cached_p50_ms",
            reported("serve-mixed cached jobs", &cached, 50.0)?,
            "ms",
        );
        out.metric("max_jobs_per_s", max_jobs_per_s, "1/s");
        out.check(max_jobs_per_s > 0.0, || {
            format!(
                "serve-mixed: the lowest ladder rung ({}/s) already failed",
                LADDER[0]
            )
        });
    }
    Ok(out)
}

/// The traced run's serve and client layers: per-class phase times from
/// the server span trees, their reconciliation with the untraced
/// cycles' fresh-job latency, lateness, the cache-hit tail and the
/// tracing overhead.
fn traced_metrics(out: &mut Outcome, main: &[&Job]) -> Result<(), String> {
    let untraced_cold = median(&latencies(&of_class(main, Class::Fresh, Some(false))));
    let traced_cold = median(&latencies(&of_class(main, Class::Fresh, Some(true))));
    out.metric(
        "trace.overhead_pct",
        (traced_cold - untraced_cold) / untraced_cold * 100.0,
        "%",
    );
    let traced: Vec<&Job> = main
        .iter()
        .copied()
        .filter(|j| j.phases.is_some())
        .collect();
    // A fresh job's layers: client lateness, the server phases in
    // sequence (`respond` runs beside them), and the client's polling
    // and fetching after the server finished.
    let (mut wall, mut unattributed) = (0.0, 0.0);
    let mut table = [0.0; PHASES.len() + 2];
    let mut fresh_sums = Vec::new();
    for j in &traced {
        let (phases, w) = j.phases.as_ref().expect("filtered on phases");
        let seq: f64 = PHASES[..PHASES.len() - 1]
            .iter()
            .filter_map(|p| phases.get(*p))
            .sum();
        wall += w;
        unattributed += (w - seq).max(0.0);
        if let (Some(Class::Fresh), Some(latency)) = (j.class, j.latency_ms()) {
            let client_rest = latency - j.late_ms - w / 1e3;
            table[0] += j.late_ms;
            for (k, p) in PHASES[..PHASES.len() - 1].iter().enumerate() {
                table[k + 1] += phases.get(*p).copied().unwrap_or(0.0) / 1e3;
            }
            table[PHASES.len()] += client_rest;
            fresh_sums.push(j.late_ms + seq / 1e3 + client_rest);
        }
    }
    out.metric(
        "trace.unattributed_pct",
        unattributed / wall.max(1.0) * 100.0,
        "%",
    );
    let n = fresh_sums.len().max(1) as f64;
    let mut rows: Vec<(&str, f64)> = vec![("client.late", table[0] / n)];
    for (k, p) in PHASES[..PHASES.len() - 1].iter().enumerate() {
        rows.push((p, table[k + 1] / n));
    }
    rows.push(("client.poll_fetch", table[PHASES.len()] / n));
    crate::spans::check_reconciles(
        out,
        "serve-mixed fresh jobs",
        "ms",
        &rows,
        median(&fresh_sums),
        untraced_cold,
    );
    for c in Class::ALL {
        let js: Vec<&Job> = traced
            .iter()
            .copied()
            .filter(|j| j.class == Some(c))
            .collect();
        out.metric(format!("serve.jobs.{}", c.name()), js.len() as f64, "count");
        let tail = tail_percentile(js.len(), &[99.0, 90.0, 50.0]);
        for phase in PHASES {
            let v: Vec<f64> = js
                .iter()
                .filter_map(|j| j.phases.as_ref().and_then(|(p, _)| p.get(phase)))
                .map(|us| us / 1e3)
                .collect();
            let p50 = if crate::stats::supported(v.len(), 50.0) {
                percentile(&v, 50.0)
            } else {
                0.0
            };
            let t = match tail {
                Some(p) if crate::stats::supported(v.len(), p) => percentile(&v, p),
                _ => 0.0,
            };
            out.metric(format!("serve.{phase}_ms.{}.p50", c.name()), p50, "ms");
            out.metric(format!("serve.{phase}_ms.{}.tail", c.name()), t, "ms");
        }
    }
    // Tails at the highest of p99/p90/p50 the samples support. The
    // cache-hit tail is host scheduling jitter, too unsteady for an
    // end-to-end bound.
    let tail_of = |what: &str, v: &[f64]| -> Result<f64, String> {
        let p = tail_percentile(v.len(), &[99.0, 90.0, 50.0])
            .ok_or_else(|| format!("{what}: {} samples support no percentile", v.len()))?;
        reported(what, v, p)
    };
    let late: Vec<f64> = main.iter().map(|j| j.late_ms).collect();
    out.metric(
        "client.late_tail_ms",
        tail_of("serve-mixed lateness", &late)?,
        "ms",
    );
    let cached = latencies(&of_class(main, Class::Cached, None));
    out.metric(
        "client.cached_tail_ms",
        tail_of("serve-mixed cached jobs", &cached)?,
        "ms",
    );
    Ok(())
}

/// Output checks: every fresh result equals the artifact of the same
/// spec built and run in-process; every cached or coalesced result
/// equals its leader's bytes.
fn check(out: &mut Outcome, jobs: &[Job], bodies: &HashMap<u64, String>) {
    out.attempted += jobs.len() as u64;
    for j in jobs.iter().filter(|j| j.error.is_some()) {
        out.check(false, || {
            format!(
                "serve-mixed: job {} (body {}): {}",
                j.id,
                j.fresh,
                j.error.as_deref().unwrap_or("")
            )
        });
    }
    let leaders: HashMap<u64, &[u8]> = jobs
        .iter()
        .filter(|j| j.class == Some(Class::Fresh))
        .filter_map(|j| j.result.as_deref().map(|r| (j.fresh, r)))
        .collect();
    let mut fresh: Vec<(u64, &[u8])> = leaders.iter().map(|(&k, &v)| (k, v)).collect();
    fresh.sort_unstable_by_key(|(k, _)| *k);
    let halves = fresh.split_at(fresh.len() / 2);
    let mismatches: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = [halves.0, halves.1]
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for &(i, served) in part {
                        let expected = parse_job_spec(bodies[&i].as_bytes())
                            .map(|spec| job_artifact_json(&run_one(spec.build())).encode_pretty());
                        match expected {
                            Ok(e) if e.as_bytes() == served => {}
                            Ok(_) => bad.push(format!("serve-mixed: body {i}: served result differs from the in-process run")),
                            Err(e) => bad.push(format!("serve-mixed: body {i}: {e}")),
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["serve-mixed: a check thread panicked".into()])
            })
            .collect()
    });
    for m in mismatches {
        out.check(false, || m);
    }
    for j in jobs
        .iter()
        .filter(|j| matches!(j.class, Some(Class::Cached | Class::Coalesced)))
    {
        if let Some(r) = &j.result {
            let leader = leaders.get(&j.fresh);
            out.check(leader == Some(&r.as_slice()), || {
                format!(
                    "serve-mixed: job {} (body {}) differs from its leader's result",
                    j.id, j.fresh
                )
            });
        }
    }
}

/// Simulator layers under the served cells: the first six bodies'
/// configurations run directly.
fn probe_layers(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let mut cells = Vec::new();
    for i in 0..6u64 {
        let spec = body(seed, i);
        let doc = parse_doc(&spec)?;
        let job_seed = get_field(&doc, "scale")
            .and_then(|s| get_field(s, "seed"))
            .and_then(num)
            .unwrap_or(0.0) as u64;
        let policy: RefPolicy = get_field(&doc, "policy")
            .and_then(text)
            .unwrap_or("MISS")
            .parse()
            .map_err(|e| format!("{e:?}"))?;
        let mem = get_field(&doc, "mem_mb").and_then(num).unwrap_or(8.0) as u32;
        cells.push(ProbeCell {
            workload: if i % 2 == 0 { slc() } else { workload1() },
            config: SimConfig {
                mem: MemSize::new(mem),
                ref_policy: policy,
                ..SimConfig::default()
            },
            seed: job_seed,
            refs: JOB_REFS,
        });
    }
    let probes = probe(&cells)?;
    emit_probe_means(out, &probes);
    out.metric(
        "core.sim_ns_per_ref",
        probes.iter().map(|p| p.sim_ns_per_ref).sum::<f64>() / probes.len() as f64,
        "ns",
    );
    let mut counts = SimCounts::default();
    for p in &probes {
        counts.absorb(&p.counts);
    }
    counts.emit(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(due: Instant, done: Option<Instant>) -> Job {
        Job {
            fresh: 0,
            phase: Phase::Warmup,
            due,
            late_ms: 0.0,
            class: None,
            id: 0,
            done,
            result: None,
            wall_ms: None,
            error: None,
            phases: None,
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let due = Instant::now();
        // Sent 40 ms late, answered 10 ms after sending: the job waited
        // 50 ms from its due time.
        let j = job(due, Some(due + Duration::from_millis(50)));
        assert!((j.latency_ms().unwrap() - 50.0).abs() < 1e-6);
        assert_eq!(job(due, None).latency_ms(), None);
    }

    #[test]
    fn a_late_submission_records_its_lateness() {
        let (tx, _rx) = mpsc::channel();
        let mut client = Client {
            // A port nothing listens on: the submission fails fast.
            addr: "127.0.0.1:9".to_string(),
            seed: 1,
            jobs: Arc::new(Mutex::new(Vec::new())),
            outstanding_fresh: Arc::new(AtomicUsize::new(0)),
            to_poller: tx,
            bodies: HashMap::new(),
            next_fresh: 0,
            rejected: 0,
        };
        let due = Instant::now() - Duration::from_millis(30);
        client.submit(0, due, Phase::Warmup);
        let jobs = client.jobs.lock().unwrap();
        assert!(jobs[0].late_ms >= 30.0);
        assert!(jobs[0].error.is_some());
        assert_eq!(jobs[0].due, due);
    }

    #[test]
    fn bodies_rotate_over_workloads_sizes_and_policies() {
        let bodies: Vec<String> = (0..18).map(|i| body(7, i)).collect();
        for (i, b) in bodies.iter().enumerate() {
            assert!(parse_job_spec(b.as_bytes()).is_ok(), "{b}");
            assert!(
                bodies[..i].iter().all(|o| o != b),
                "fresh bodies are distinct"
            );
        }
        assert!(bodies[0].contains("SLC") && bodies[1].contains("WORKLOAD1"));
        assert!(bodies[2].contains("\"mem_mb\":6") && bodies[6].contains("REF"));
        assert_eq!(body(7, 3), body(7, 3));
    }
}
