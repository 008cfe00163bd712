//! The job-submission API: JSON bodies in, keyed harness jobs out.
//!
//! A submission describes one experiment cell with the same vocabulary
//! the CLI regenerators use, and compiles to a [`Job`] built by the
//! *same* builders in `spur_core::jobs` under the *same* key scheme
//! `reproduce_all` uses (`table_4_1/SLC/5MB/MISS`, …). That shared
//! construction is the whole determinism story: a job submitted over
//! HTTP produces artifact bytes identical to the batch sweep's.
//!
//! ```json
//! {
//!   "experiment": "refbit",
//!   "workload": "SLC",
//!   "mem_mb": 5,
//!   "policy": "MISS",
//!   "scale": {"refs": 30000, "seed": 1989, "reps": 1},
//!   "obs": {"epoch": 10000},
//!   "overrides": {"daemon_period": 1000}
//! }
//! ```
//!
//! `workload` names a builtin (`SLC`, `WORKLOAD1`); `workload_spec`
//! instead carries a full workload-spec text (the `spur-trace::spec`
//! format) for custom workloads. `scale` is a preset name (`quick`,
//! `default`, `full`) or an object. Everything but `experiment`,
//! `workload`/`workload_spec`, and `mem_mb` is optional.

use spur_core::experiments::Scale;
use spur_core::jobs::{events_job_for, refbit_job_for};
use spur_core::obs::ObsParams;
use spur_core::system::SimOverrides;
use spur_harness::{Job, Json};
use spur_obs::validate::{get_field, parse};
use spur_trace::spec::{format_workload, parse_workload};
use spur_trace::workloads::{slc, workload1, Workload};
use spur_types::MemSize;
use spur_vm::policy::RefPolicy;

use crate::queue::Priority;

/// Guardrail on `scale.refs`: one served job may be big, but not
/// "typo'd an extra three zeros" big.
pub const MAX_REFS: u64 = 100_000_000;

/// Guardrail on `scale.reps`.
pub const MAX_REPS: u32 = 16;

/// Largest accepted `mem_mb` (the paper's machines top out at 16 MB;
/// 4 GB is beyond any sensible cell).
pub const MAX_MEM_MB: u64 = 4096;

/// Guardrail on the mp cell's sharing degree.
pub const MAX_SHARED_PAGES: u64 = 8192;

/// Which experiment family a submission runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A Table 4.1 cell (reference-bit policy evaluation).
    Refbit(RefPolicy),
    /// A Table 3.3 cell (event frequencies).
    Events,
    /// A measured multiprocessor cell (`spur-mp` sweep). The workload
    /// and memory size are derived from the cell parameters, exactly
    /// as `reproduce_mp` derives them.
    Mp {
        policy: RefPolicy,
        cpus: usize,
        shared_pages: u64,
    },
}

/// A validated submission, ready to compile into a keyed [`Job`].
#[derive(Debug)]
pub struct JobSpec {
    kind: Kind,
    workload: Workload,
    mem: MemSize,
    scale: Scale,
    obs: Option<ObsParams>,
    overrides: SimOverrides,
    priority: Priority,
}

impl JobSpec {
    /// The experiment family name, used as the `experiment` label on
    /// span-derived Prometheus histograms (a closed, static set so
    /// label cardinality stays bounded).
    pub fn experiment(&self) -> &'static str {
        match self.kind {
            Kind::Refbit(_) => "refbit",
            Kind::Events => "events",
            Kind::Mp { .. } => "mp",
        }
    }

    /// The job's stable key, identical to the CLI sweep's for the same
    /// cell.
    pub fn key(&self) -> String {
        let name = self.workload.name();
        let mb = self.mem.megabytes();
        match self.kind {
            Kind::Refbit(policy) => format!("table_4_1/{name}/{mb}MB/{policy}"),
            Kind::Events => format!("table_3_3/{name}/{mb}MB"),
            Kind::Mp {
                policy,
                cpus,
                shared_pages,
            } => spur_mp::mp_key(cpus, shared_pages, policy),
        }
    }

    /// The submission's priority lane (`"priority"` field, default
    /// normal).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The deficit-round-robin cost of running this cell: simulated
    /// references across repetitions, the one knob that scales run
    /// time. A greedy client submitting huge cells burns its deficit
    /// proportionally faster than one submitting quick cells.
    pub fn cost(&self) -> u64 {
        self.scale.refs.saturating_mul(u64::from(self.scale.reps))
    }

    /// The canonical *full-spec* identity, the unit of coalescing and
    /// caching.
    ///
    /// The harness key (`table_4_1/SLC/5MB/MISS`) deliberately omits
    /// scale, seed, observability, and overrides — two submissions with
    /// the same key can still demand different simulations. Everything
    /// that changes the produced artifact byte-for-byte is folded in
    /// here, so two equal identities are interchangeable results by
    /// construction. Custom workload text enters as a hash: identity
    /// strings stay short and never embed user payloads.
    pub fn identity(&self) -> String {
        let s = &self.scale;
        format!(
            "{}|wl={:016x}|refs={},seed={},reps={},dev={}|obs={:?}|ov={:?}",
            self.key(),
            fnv1a(format_workload(&self.workload).as_bytes()),
            s.refs,
            s.seed,
            s.reps,
            s.dev_refs_per_hour,
            self.obs,
            self.overrides,
        )
    }

    /// Compiles the spec into a harness job via the shared builders.
    /// The typed row is erased — the service only persists artifacts.
    pub fn build(self) -> Job<()> {
        let key = self.key();
        let workload = self.workload;
        match self.kind {
            Kind::Refbit(policy) => refbit_job_for(
                key,
                move || workload,
                self.mem,
                policy,
                self.scale,
                self.obs,
                self.overrides,
            )
            .map(|_| ()),
            Kind::Events => events_job_for(
                key,
                move || workload,
                self.mem,
                self.scale,
                self.obs,
                self.overrides,
            )
            .map(|_| ()),
            Kind::Mp {
                policy,
                cpus,
                shared_pages,
            } => spur_mp::mp_job(key, cpus, policy, shared_pages, self.scale, self.obs).map(|_| ()),
        }
    }
}

/// Parses and validates a submission body. Every failure is a
/// caller-readable message destined for a 400 response.
pub fn parse_job_spec(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse(text).map_err(|e| format!("body is not valid JSON: {e:?}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("body must be a JSON object".into());
    }

    let kind = match require_str(&doc, "experiment")? {
        "refbit" => {
            let policy = match get_field(&doc, "policy") {
                None => RefPolicy::Miss,
                Some(v) => as_str(v, "policy")?
                    .parse::<RefPolicy>()
                    .map_err(|e| e.to_string())?,
            };
            Kind::Refbit(policy)
        }
        "events" => Kind::Events,
        "mp" => {
            let policy = match get_field(&doc, "policy") {
                None => RefPolicy::Miss,
                Some(v) => as_str(v, "policy")?
                    .parse::<RefPolicy>()
                    .map_err(|e| e.to_string())?,
            };
            let cpus = opt_u64(&doc, "cpus")?.unwrap_or(2);
            if cpus == 0 || cpus > 12 {
                return Err(format!("cpus must be in 1..=12, got {cpus}"));
            }
            let shared_pages = opt_u64(&doc, "shared_pages")?.unwrap_or(256);
            if shared_pages == 0 || shared_pages > MAX_SHARED_PAGES {
                return Err(format!(
                    "shared_pages must be in 1..={MAX_SHARED_PAGES}, got {shared_pages}"
                ));
            }
            Kind::Mp {
                policy,
                cpus: cpus as usize,
                shared_pages,
            }
        }
        other => {
            return Err(format!(
                "unknown experiment {other:?} (expected refbit|events|mp)"
            ))
        }
    };

    let scale = parse_scale(&doc)?;
    let obs = parse_obs(&doc)?;
    let priority = parse_priority(&doc)?;

    if let Kind::Mp {
        cpus, shared_pages, ..
    } = kind
    {
        // The mp cell derives its workload (`mp_workers`) and memory
        // size itself, exactly as `reproduce_mp` does — accepting a
        // workload here would break the shared-key determinism story.
        for field in ["workload", "workload_spec", "mem_mb", "overrides"] {
            if get_field(&doc, field).is_some() {
                return Err(format!("{field} is not accepted for experiment \"mp\""));
            }
        }
        return Ok(JobSpec {
            kind,
            workload: spur_trace::workloads::mp_workers(cpus, shared_pages),
            mem: MemSize::MB8,
            scale,
            obs,
            overrides: SimOverrides::default(),
            priority,
        });
    }

    let workload = parse_workload_field(&doc)?;

    let mem_mb = require_u64(&doc, "mem_mb")?;
    if mem_mb == 0 || mem_mb > MAX_MEM_MB {
        return Err(format!("mem_mb must be in 1..={MAX_MEM_MB}, got {mem_mb}"));
    }
    let mem = MemSize::new(mem_mb as u32);

    let overrides = parse_overrides(&doc)?;

    Ok(JobSpec {
        kind,
        workload,
        mem,
        scale,
        obs,
        overrides,
        priority,
    })
}

fn parse_priority(doc: &Json) -> Result<Priority, String> {
    match get_field(doc, "priority") {
        None => Ok(Priority::Normal),
        Some(v) => match as_str(v, "priority")? {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority {other:?} (expected high|normal|low)"
            )),
        },
    }
}

/// FNV-1a 64, the same tiny non-cryptographic hash the fault plan
/// uses: enough to fold arbitrary workload text into a fixed-width
/// identity component.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_workload_field(doc: &Json) -> Result<Workload, String> {
    match (get_field(doc, "workload"), get_field(doc, "workload_spec")) {
        (Some(_), Some(_)) => Err("give either workload or workload_spec, not both".into()),
        (Some(v), None) => match as_str(v, "workload")?.to_ascii_uppercase().as_str() {
            "SLC" => Ok(slc()),
            "WORKLOAD1" => Ok(workload1()),
            other => Err(format!(
                "unknown workload {other:?} (expected SLC|WORKLOAD1; use workload_spec for custom workloads)"
            )),
        },
        (None, Some(v)) => {
            let text = as_str(v, "workload_spec")?;
            parse_workload(text).map_err(|e| format!("bad workload_spec: {e}"))
        }
        (None, None) => Err("missing workload (or workload_spec)".into()),
    }
}

fn parse_scale(doc: &Json) -> Result<Scale, String> {
    let Some(value) = get_field(doc, "scale") else {
        return Ok(Scale::quick());
    };
    let mut scale = match value {
        Json::Str(preset) => {
            return match preset.as_str() {
                "quick" => Ok(Scale::quick()),
                "default" => Ok(Scale::default_scale()),
                "full" => Ok(Scale::full()),
                other => Err(format!(
                    "unknown scale preset {other:?} (expected quick|default|full)"
                )),
            }
        }
        Json::Obj(_) => Scale::quick(),
        _ => return Err("scale must be a preset name or an object".into()),
    };
    if let Some(refs) = opt_u64(value, "refs")? {
        if refs == 0 || refs > MAX_REFS {
            return Err(format!("scale.refs must be in 1..={MAX_REFS}, got {refs}"));
        }
        scale.refs = refs;
    }
    if let Some(seed) = opt_u64(value, "seed")? {
        scale.seed = seed;
    }
    if let Some(reps) = opt_u64(value, "reps")? {
        if reps == 0 || reps > MAX_REPS as u64 {
            return Err(format!("scale.reps must be in 1..={MAX_REPS}, got {reps}"));
        }
        scale.reps = reps as u32;
    }
    if let Some(per_hour) = opt_u64(value, "dev_refs_per_hour")? {
        if per_hour == 0 {
            return Err("scale.dev_refs_per_hour must be positive".into());
        }
        scale.dev_refs_per_hour = per_hour;
    }
    Ok(scale)
}

fn parse_obs(doc: &Json) -> Result<Option<ObsParams>, String> {
    match get_field(doc, "obs") {
        // Observability is on by default: a service without metrics on
        // its own jobs would be a poor advertisement for the obs layer.
        None => Ok(Some(ObsParams::default())),
        Some(Json::Bool(false)) => Ok(None),
        Some(Json::Bool(true)) => Ok(Some(ObsParams::default())),
        Some(v @ Json::Obj(_)) => {
            let mut params = ObsParams::default();
            if let Some(epoch) = opt_u64(v, "epoch")? {
                if epoch == 0 {
                    return Err("obs.epoch must be positive".into());
                }
                params.epoch = Some(epoch);
            }
            Ok(Some(params))
        }
        Some(_) => Err("obs must be a bool or an object".into()),
    }
}

fn parse_overrides(doc: &Json) -> Result<SimOverrides, String> {
    let Some(value) = get_field(doc, "overrides") else {
        return Ok(SimOverrides::default());
    };
    if !matches!(value, Json::Obj(_)) {
        return Err("overrides must be an object".into());
    }
    let mut ov = SimOverrides::default();
    if let Some(cpus) = opt_u64(value, "cpus")? {
        if cpus == 0 {
            return Err("overrides.cpus must be positive".into());
        }
        ov.cpus = Some(cpus as usize);
    }
    if let Some(v) = get_field(value, "soft_faults") {
        match v {
            Json::Bool(b) => ov.soft_faults = Some(*b),
            _ => return Err("overrides.soft_faults must be a bool".into()),
        }
    }
    if let Some(v) = get_field(value, "daemon_period") {
        match v {
            // An explicit null forces the periodic daemon *off*,
            // distinct from "don't override".
            Json::Null => ov.daemon_period = Some(None),
            _ => {
                let period = as_u64(v, "overrides.daemon_period")?;
                if period == 0 {
                    return Err("overrides.daemon_period must be positive or null".into());
                }
                ov.daemon_period = Some(Some(period));
            }
        }
    }
    if let Some(frames) = opt_u64(value, "kernel_reserved_frames")? {
        ov.kernel_reserved_frames = Some(frames as u32);
    }
    if let Some(low) = opt_u64(value, "free_low_water")? {
        ov.free_low_water = Some(low as u32);
    }
    if let Some(high) = opt_u64(value, "free_high_water")? {
        ov.free_high_water = Some(high as u32);
    }
    Ok(ov)
}

fn as_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{what} must be a string")),
    }
}

fn as_u64(v: &Json, what: &str) -> Result<u64, String> {
    match v {
        Json::UInt(u) => Ok(*u),
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("{what} must be a non-negative integer")),
    }
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    get_field(doc, key)
        .ok_or_else(|| format!("missing {key}"))
        .and_then(|v| as_str(v, key))
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    get_field(doc, key)
        .ok_or_else(|| format!("missing {key}"))
        .and_then(|v| as_u64(v, key))
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    get_field(doc, key).map(|v| as_u64(v, key)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spur_harness::{job_artifact_json, run_one};
    use spur_trace::spec::format_workload;

    fn spec(body: &str) -> Result<JobSpec, String> {
        parse_job_spec(body.as_bytes())
    }

    #[test]
    fn minimal_refbit_submission_gets_cli_key_and_defaults() {
        let s = spec(r#"{"experiment":"refbit","workload":"slc","mem_mb":5}"#).unwrap();
        assert_eq!(s.key(), "table_4_1/SLC/5MB/MISS");
        assert_eq!(s.scale, Scale::quick());
        assert_eq!(s.obs, Some(ObsParams::default()));
        assert!(s.overrides.is_noop());
    }

    #[test]
    fn events_key_matches_the_sweep_scheme() {
        let s = spec(r#"{"experiment":"events","workload":"WORKLOAD1","mem_mb":8}"#).unwrap();
        assert_eq!(s.key(), "table_3_3/WORKLOAD1/8MB");
    }

    #[test]
    fn full_submission_round_trips_every_knob() {
        let s = spec(
            r#"{
              "experiment": "refbit", "workload": "SLC", "mem_mb": 6,
              "policy": "noref",
              "scale": {"refs": 30000, "seed": 7, "reps": 2},
              "obs": {"epoch": 5000},
              "overrides": {"daemon_period": 1000, "soft_faults": false}
            }"#,
        )
        .unwrap();
        assert_eq!(s.key(), "table_4_1/SLC/6MB/NOREF");
        assert_eq!(s.scale.refs, 30000);
        assert_eq!(s.scale.seed, 7);
        assert_eq!(s.scale.reps, 2);
        assert_eq!(s.obs.unwrap().epoch, Some(5000));
        assert_eq!(s.overrides.daemon_period, Some(Some(1000)));
        assert_eq!(s.overrides.soft_faults, Some(false));
    }

    #[test]
    fn custom_workloads_arrive_as_spec_text() {
        let text = format_workload(&slc());
        let body = Json::object([
            ("experiment", Json::Str("events".into())),
            ("workload_spec", Json::Str(text)),
            ("mem_mb", Json::UInt(5)),
        ])
        .encode();
        let s = parse_job_spec(body.as_bytes()).unwrap();
        assert_eq!(s.key(), "table_3_3/SLC/5MB");
    }

    #[test]
    fn minimal_mp_submission_gets_sweep_key_and_defaults() {
        let s = spec(r#"{"experiment":"mp"}"#).unwrap();
        assert_eq!(s.key(), "mp/02cpu/0256sh/MISS");
        assert_eq!(s.scale, Scale::quick());
    }

    #[test]
    fn full_mp_submission_round_trips() {
        let s = spec(
            r#"{"experiment":"mp","policy":"ref","cpus":4,"shared_pages":1024,
                "scale":{"refs":30000},"obs":false}"#,
        )
        .unwrap();
        assert_eq!(s.key(), "mp/04cpu/1024sh/REF");
        assert_eq!(s.scale.refs, 30000);
        assert!(s.obs.is_none());
    }

    #[test]
    fn mp_built_job_matches_the_shared_builder_byte_for_byte() {
        let scale = Scale {
            refs: 30_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
        let s = spec(
            r#"{"experiment":"mp","cpus":2,"shared_pages":256,
                "scale":{"refs":30000,"seed":1989,"reps":1},"obs":false}"#,
        )
        .unwrap();
        let via_api = run_one(s.build());
        let direct = run_one(spur_mp::mp_job(
            "mp/02cpu/0256sh/MISS".into(),
            2,
            RefPolicy::Miss,
            256,
            scale,
            None,
        ));
        assert_eq!(
            job_artifact_json(&via_api).encode_pretty(),
            job_artifact_json(&direct).encode_pretty(),
        );
    }

    #[test]
    fn mp_rejections_are_messages_not_panics() {
        for (body, needle) in [
            (r#"{"experiment":"mp","cpus":0}"#, "cpus must be"),
            (r#"{"experiment":"mp","cpus":13}"#, "cpus must be"),
            (
                r#"{"experiment":"mp","shared_pages":0}"#,
                "shared_pages must be",
            ),
            (
                r#"{"experiment":"mp","shared_pages":100000}"#,
                "shared_pages must be",
            ),
            (
                r#"{"experiment":"mp","workload":"SLC"}"#,
                "not accepted for experiment",
            ),
            (
                r#"{"experiment":"mp","mem_mb":8}"#,
                "not accepted for experiment",
            ),
            (
                r#"{"experiment":"mp","overrides":{"cpus":2}}"#,
                "not accepted for experiment",
            ),
            (r#"{"experiment":"mp","policy":"lru"}"#, "policy"),
        ] {
            let err = spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{body:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn rejections_are_messages_not_panics() {
        for (body, needle) in [
            ("", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"workload":"SLC","mem_mb":5}"#, "missing experiment"),
            (
                r#"{"experiment":"tlb","workload":"SLC","mem_mb":5}"#,
                "unknown experiment",
            ),
            (r#"{"experiment":"events","mem_mb":5}"#, "missing workload"),
            (
                r#"{"experiment":"events","workload":"BIGCO","mem_mb":5}"#,
                "unknown workload",
            ),
            (
                r#"{"experiment":"events","workload_spec":"not a spec","mem_mb":5}"#,
                "bad workload_spec",
            ),
            (
                r#"{"experiment":"events","workload":"SLC"}"#,
                "missing mem_mb",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":0}"#,
                "mem_mb must be",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":-5}"#,
                "mem_mb must be a non-negative",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":{"refs":0}}"#,
                "scale.refs",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":"huge"}"#,
                "scale preset",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"scale":{"reps":999}}"#,
                "scale.reps",
            ),
            (
                r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"policy":"lru"}"#,
                "policy",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"obs":7}"#,
                "obs must be",
            ),
            (
                r#"{"experiment":"events","workload":"SLC","mem_mb":5,"overrides":{"cpus":0}}"#,
                "cpus",
            ),
        ] {
            let err = spec(body).unwrap_err();
            assert!(
                err.contains(needle),
                "{body:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn priority_parses_with_normal_default() {
        let s = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5}"#).unwrap();
        assert_eq!(s.priority(), Priority::Normal);
        let s = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"priority":"high"}"#)
            .unwrap();
        assert_eq!(s.priority(), Priority::High);
        let s = spec(r#"{"experiment":"mp","priority":"low"}"#).unwrap();
        assert_eq!(s.priority(), Priority::Low);
        let err =
            spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"priority":"urgent"}"#)
                .unwrap_err();
        assert!(err.contains("unknown priority"), "{err}");
    }

    #[test]
    fn identity_separates_what_the_harness_key_conflates() {
        // Same harness key, different seed: MUST NOT share an identity,
        // or the cache would serve one seed's artifact for the other.
        let a = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{"refs":20000,"seed":1}}"#,
        )
        .unwrap();
        let b = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{"refs":20000,"seed":2}}"#,
        )
        .unwrap();
        assert_eq!(a.key(), b.key());
        assert_ne!(a.identity(), b.identity());

        // Obs and overrides change artifact bytes, so they change
        // identity too.
        let c = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"obs":false}"#).unwrap();
        let d = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5}"#).unwrap();
        assert_ne!(c.identity(), d.identity());
        let e = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"overrides":{"daemon_period":500}}"#,
        )
        .unwrap();
        assert_ne!(d.identity(), e.identity());

        // Identical submissions produce identical identities, and
        // priority deliberately does NOT enter: a high-priority
        // duplicate can ride an in-flight normal-priority run.
        let f = spec(r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"priority":"high"}"#)
            .unwrap();
        assert_eq!(d.identity(), f.identity());
    }

    #[test]
    fn cost_scales_with_refs_and_reps() {
        let s = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,"scale":{"refs":30000,"reps":3}}"#,
        )
        .unwrap();
        assert_eq!(s.cost(), 90_000);
    }

    #[test]
    fn built_job_matches_the_shared_builder_byte_for_byte() {
        let scale = Scale {
            refs: 20_000,
            seed: 1989,
            reps: 1,
            dev_refs_per_hour: 120_000,
        };
        let s = spec(
            r#"{"experiment":"refbit","workload":"SLC","mem_mb":5,
                "scale":{"refs":20000,"seed":1989,"reps":1},"obs":false}"#,
        )
        .unwrap();
        let via_api = run_one(s.build());
        let direct = run_one(spur_core::jobs::refbit_job_for(
            "table_4_1/SLC/5MB/MISS".into(),
            slc,
            MemSize::MB5,
            RefPolicy::Miss,
            scale,
            None,
            SimOverrides::default(),
        ));
        assert_eq!(
            job_artifact_json(&via_api).encode_pretty(),
            job_artifact_json(&direct).encode_pretty(),
        );
    }
}
