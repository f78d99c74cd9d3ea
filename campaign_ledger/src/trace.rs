//! The traced run: spans recorded around the public calls, the program's
//! own `MANAGED_IO_PROFILE=1` rows, and the per-layer metrics built from
//! both.
//!
//! The program reads `MANAGED_IO_PROFILE` once per process, so the traced
//! batch runs in a child process (this binary with `--child`). The child
//! prints the program's `in_run` and `coupled_driver` rows as they come,
//! with a context line before each variant's batch so the parent can
//! attribute them, and writes its spans, records and counters at the end.
//! The parent parses that output and computes every layer's self time.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use minijson::{json, Value};

use crate::measure::{self, median, Expect, Untraced, Verdict};
use crate::workload::{Bench, Role, RunCounts, RunRecord, WorkloadId};

/// One recorded span. Spans of one run share its seed as `id`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`core.run`, `iostats.merge`, ...).
    pub name: String,
    /// Role key of the variant, or "" for workload-level spans.
    pub variant: String,
    /// The run's seed, or 0.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// In-memory span recorder for the benchmark's own thread; a no-op when
/// off, so the untraced path pays nothing.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// True when recording.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Open a span inside the innermost open one.
    pub fn begin(&mut self, name: &str, variant: &str, id: u64) {
        let Some(epoch) = self.epoch else { return };
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            variant: variant.to_string(),
            id,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns: since(epoch),
            end_ns: 0,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let Some(epoch) = self.epoch else { return };
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i].end_ns = since(epoch);
    }

    /// A recorder for a pool worker whose spans hang under the innermost
    /// open span.
    pub fn worker(&self) -> WorkerTracer {
        WorkerTracer {
            epoch: self.epoch.expect("worker() of a tracer that is off"),
            parent: self.open.last().copied(),
            spans: Vec::new(),
        }
    }

    /// Append a worker's spans.
    pub fn absorb(&mut self, w: WorkerTracer) {
        self.spans.extend(w.spans);
    }

    /// Every span recorded, in begin order (workers' after their parent).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Span recorder of one pool worker: flat spans under a fixed parent.
#[derive(Clone)]
pub struct WorkerTracer {
    epoch: Instant,
    parent: Option<usize>,
    spans: Vec<Span>,
}

impl WorkerTracer {
    /// Open a span (worker spans do not nest).
    pub fn begin(&mut self, name: &str, variant: &str, id: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            variant: variant.to_string(),
            id,
            parent: self.parent,
            start_ns: since(self.epoch),
            end_ns: 0,
        });
    }

    /// Close the open span.
    pub fn end(&mut self) {
        let s = self.spans.last_mut().expect("end() without begin()");
        s.end_ns = since(self.epoch);
    }
}

/// Per-role sums over the traced batch.
#[derive(Clone, Copy, Debug, Default)]
struct RoleSums {
    runs: u64,
    run_s: f64,
    sample_s: f64,
    merge_s: f64,
    batches: u64,
    batch_s: f64,
    in_rows: u64,
    total_s: f64,
    stats_s: f64,
    ost_advance_s: f64,
    harvest_s: f64,
    windows: f64,
    lane_events: f64,
    global_events: f64,
    driver_rows: u64,
    dispatch_s: f64,
    drain_s: f64,
    deliver_s: f64,
    rounds: f64,
    counts: RunCounts,
}

/// What the traced child reported.
#[derive(Default)]
struct ChildReport {
    pass_secs: Vec<f64>,
    records: Vec<RunRecord>,
    spans: Vec<Span>,
    sums: [RoleSums; 2],
}

/// Share of `core.run_s` by which the program's phase timings may
/// overrun the benchmark's span around the same call before the trace
/// counts as inconsistent.
pub const SELF_TIME_TOLERANCE: f64 = 0.02;

/// The child: run the set-up once and `passes` timed passes with spans
/// and the program's profile rows on, then write everything out.
pub fn child_main(id: WorkloadId, seed: u64, passes: usize) {
    let mut tracer = Tracer::on();
    println!(
        "{}",
        json!({"ledger": "ctx", "phase": "setup", "variant": ""})
    );
    tracer.begin("ledger.setup", "", 0);
    let (mut bench, mut records) = Bench::setup(id, seed, &mut tracer);
    tracer.end();
    let mut counts = [RunCounts::default(); 2];
    let mut runs = [0u64; 2];
    for p in 0..passes {
        tracer.begin("ledger.pass", "", p as u64);
        let mut secs = 0.0;
        for v in 0..bench.variants.len() {
            let role = bench.variants[v].role;
            println!(
                "{}",
                json!({"ledger": "ctx", "phase": "timed", "variant": role.key()})
            );
            let batch = bench.run_batch(v, &mut tracer);
            secs += batch.secs;
            records.extend(batch.records);
            for c in batch.counts {
                let s = &mut counts[role.index()];
                s.messages += c.messages;
                s.coordinator_inbox += c.coordinator_inbox;
                s.adaptive_writes += c.adaptive_writes;
                s.spec_granted += c.spec_granted;
                s.spec_won += c.spec_won;
                runs[role.index()] += 1;
            }
        }
        tracer.end();
        println!("{}", json!({"ledger": "pass", "secs": secs}));
    }
    for r in &records {
        println!(
            "{}",
            json!({
                "ledger": "record",
                "label": r.label.as_str(),
                "seed": r.seed,
                "runs": r.runs,
                "digest": r.digest.map(|d| format!("{d:016x}")),
                "error": r.error.clone(),
            })
        );
    }
    for role in [Role::Baseline, Role::Adaptive] {
        let c = counts[role.index()];
        println!(
            "{}",
            json!({
                "ledger": "counts",
                "variant": role.key(),
                "runs": runs[role.index()],
                "messages": c.messages,
                "coordinator_inbox": c.coordinator_inbox,
                "adaptive_writes": c.adaptive_writes,
                "spec_granted": c.spec_granted,
                "spec_won": c.spec_won,
            })
        );
    }
    for s in tracer.spans() {
        println!(
            "{}",
            json!({
                "ledger": "span",
                "name": s.name.as_str(),
                "variant": s.variant.as_str(),
                "id": s.id,
                "parent": s.parent.map(|p| p as u64),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            })
        );
    }
    println!("{}", json!({"ledger": "end"}));
}

/// Run the traced child for the same workload, seed and pass count as
/// `untraced`, check it, and compute the per-layer metrics.
///
/// Returns the metrics and whether the trace was consistent; failed
/// checks land in `verdict`.
pub fn per_layer(
    id: WorkloadId,
    seed: u64,
    untraced: &Untraced,
    expect: &mut Expect,
    verdict: &mut Verdict,
) -> Result<(Vec<measure::Metric>, bool), String> {
    let report = run_child(id, seed, untraced.pass_secs.len())?;
    for rec in &report.records {
        expect.check(rec, verdict);
    }
    Ok(layer_metrics(
        id,
        &report,
        untraced.median_pass_s(),
        verdict,
    ))
}

/// The per-layer metrics of a parsed trace, with the self-time
/// consistency check; `untraced_pass_s` is the untraced median pass time.
fn layer_metrics(
    id: WorkloadId,
    report: &ChildReport,
    untraced_pass_s: f64,
    verdict: &mut Verdict,
) -> (Vec<measure::Metric>, bool) {
    let mut consistent = true;
    let mut m: Vec<measure::Metric> = Vec::new();
    let spans = &report.spans;
    let sum_named = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    };
    let passes = report.pass_secs.len().max(1) as f64;
    let workers = id.workers() as f64;
    m.push((
        "workloads.build_s".into(),
        sum_named("workloads.build"),
        "s",
    ));
    m.push(("core.prepare_s".into(), sum_named("core.prepare"), "s"));

    let (mut busy, mut pool) = (0.0, 0.0);
    let mut selfs: BTreeMap<&'static str, f64> = BTreeMap::new();
    for role in [Role::Baseline, Role::Adaptive] {
        let s = &report.sums[role.index()];
        let runs = s.runs.max(1) as f64;
        let children = s.dispatch_s + s.drain_s + s.deliver_s + s.stats_s;
        let run_other = s.run_s - children;
        let drain_self = s.drain_s - s.ost_advance_s - s.harvest_s;
        // Every layer's self time inside `core.run`, clamped at zero; they
        // sum to `core.run_s` exactly when no child outgrows its parent.
        let self_sum = run_other.max(0.0)
            + s.stats_s
            + s.dispatch_s
            + s.deliver_s
            + drain_self.max(0.0)
            + s.ost_advance_s
            + s.harvest_s;
        let tol = SELF_TIME_TOLERANCE * s.run_s;
        let mut problems = Vec::new();
        if s.in_rows != s.runs || s.driver_rows != s.runs {
            problems.push(format!(
                "{} runs but {} in_run and {} coupled_driver rows",
                s.runs, s.in_rows, s.driver_rows
            ));
        }
        if (self_sum - s.run_s).abs() > tol {
            problems.push(format!(
                "layer self times sum to {self_sum:.6} s, core.run_s is {:.6} s",
                s.run_s
            ));
        }
        if s.total_s > s.run_s + tol {
            problems.push(format!(
                "program total {:.6} s exceeds the core.run span {:.6} s",
                s.total_s, s.run_s
            ));
        }
        for p in problems {
            consistent = false;
            verdict
                .failures
                .push(format!("{} {}: trace: {p}", id.name(), role.key()));
        }

        let c = &s.counts;
        let per_run = |x: f64| x / runs;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let k = role.key();
        let rows: [(&'static str, f64, &'static str); 21] = [
            ("core.run_s", per_run(s.run_s), "s"),
            ("core.account_s", per_run(s.stats_s), "s"),
            ("core.account_share", ratio(s.stats_s, s.run_s), "ratio"),
            ("core.run_other_s", per_run(run_other), "s"),
            ("core.messages", per_run(c.messages as f64), "count"),
            (
                "core.coordinator_inbox",
                per_run(c.coordinator_inbox as f64),
                "count",
            ),
            (
                "core.adaptive_writes",
                per_run(c.adaptive_writes as f64),
                "count",
            ),
            (
                "core.spec_won_frac",
                ratio(c.spec_won as f64, c.spec_granted as f64),
                "ratio",
            ),
            ("clustersim.dispatch_s", per_run(s.dispatch_s), "s"),
            ("clustersim.deliver_s", per_run(s.deliver_s), "s"),
            ("clustersim.rounds", per_run(s.rounds), "count"),
            ("storesim.drain_s", per_run(s.drain_s), "s"),
            ("storesim.ost_advance_s", per_run(s.ost_advance_s), "s"),
            ("storesim.harvest_s", per_run(s.harvest_s), "s"),
            ("storesim.lane_events", per_run(s.lane_events), "count"),
            ("storesim.global_events", per_run(s.global_events), "count"),
            ("storesim.windows", per_run(s.windows), "count"),
            (
                "storesim.events_per_window",
                ratio(s.lane_events, s.windows),
                "count",
            ),
            (
                "storesim.ns_per_lane_event",
                ratio(s.ost_advance_s * 1e9, s.lane_events),
                "ns",
            ),
            ("iostats.sample_s", per_run(s.sample_s), "s"),
            ("iostats.merge_s", ratio(s.merge_s, s.batches as f64), "s"),
        ];
        for (name, v, unit) in rows {
            m.push((format!("{k}.{name}"), v, unit));
        }

        // Pool accounting: worker time the batch had (the merge runs on
        // the caller alone) against the time workers spent in runs.
        let worker_s = workers * (s.batch_s - if id.is_sweep() { s.merge_s } else { 0.0 });
        let in_runs = s.run_s + s.sample_s;
        busy += in_runs;
        pool += worker_s;
        *selfs.entry("self.core_s").or_default() += run_other.max(0.0) + s.stats_s;
        *selfs.entry("self.clustersim_s").or_default() += s.dispatch_s + s.deliver_s;
        *selfs.entry("self.storesim_s").or_default() += s.drain_s;
        *selfs.entry("self.iostats_s").or_default() += s.sample_s + s.merge_s;
        let idle = (worker_s - in_runs - if id.is_sweep() { 0.0 } else { s.merge_s }).max(0.0);
        let (pool_self, ledger_self) = if id.is_sweep() {
            (idle, 0.0)
        } else {
            (0.0, idle)
        };
        *selfs.entry("self.simcore_s").or_default() += pool_self;
        *selfs.entry("self.ledger_s").or_default() += ledger_self;
    }
    m.push((
        "simcore.par.busy_frac".into(),
        if pool > 0.0 { busy / pool } else { 0.0 },
        "ratio",
    ));
    for (name, v) in selfs {
        m.push((name.into(), v / passes, "s"));
    }
    let traced = median(report.pass_secs.clone());
    m.push((
        "trace.overhead".into(),
        traced / untraced_pass_s - 1.0,
        "ratio",
    ));
    (m, consistent)
}

/// Spawn the traced child, wait for it and parse its output.
fn run_child(id: WorkloadId, seed: u64, passes: usize) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", "--workload", id.name()])
        .args(["--seed", &seed.to_string(), "--passes", &passes.to_string()])
        .env("MANAGED_IO_PROFILE", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the traced child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let parsed = parse_child(BufReader::new(stdout));
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the traced child: {e}"))?;
    let report = parsed?;
    if !status.success() {
        return Err(format!("traced child exited with {status}"));
    }
    Ok(report)
}

fn parse_child(out: impl BufRead) -> Result<ChildReport, String> {
    let mut rep = ChildReport::default();
    let mut ctx: Option<usize> = None;
    let mut ended = false;
    let mut span_variant_runs = Vec::new();
    for line in out.lines() {
        let line = line.map_err(|e| format!("reading the traced child: {e}"))?;
        let Ok(v) = Value::parse(&line) else { continue };
        let str_of = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let u = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        if let Some(kind) = v.get("profile").and_then(Value::as_str) {
            let Some(r) = ctx else { continue };
            let s = &mut rep.sums[r];
            match kind {
                "in_run" => {
                    s.in_rows += 1;
                    s.total_s += f("total_s");
                    s.stats_s += f("stats_s");
                    s.ost_advance_s += f("ost_advance_s");
                    s.harvest_s += f("harvest_merge_s");
                    s.windows += f("windows");
                    s.lane_events += f("shard_events");
                    s.global_events += f("global_events");
                }
                "coupled_driver" => {
                    s.driver_rows += 1;
                    s.dispatch_s += f("cluster_dispatch_s");
                    s.drain_s += f("storage_drain_s");
                    s.deliver_s += f("harvest_deliver_s");
                    s.rounds += f("rounds");
                }
                _ => {}
            }
            continue;
        }
        match v.get("ledger").and_then(Value::as_str) {
            Some("ctx") => {
                ctx = match (str_of("phase").as_str(), str_of("variant").as_str()) {
                    ("timed", "baseline") => Some(Role::Baseline.index()),
                    ("timed", "adaptive") => Some(Role::Adaptive.index()),
                    _ => None,
                }
            }
            Some("pass") => rep.pass_secs.push(f("secs")),
            Some("record") => rep.records.push(RunRecord {
                label: str_of("label"),
                seed: u("seed"),
                runs: u("runs"),
                digest: v
                    .get("digest")
                    .and_then(Value::as_str)
                    .and_then(|d| u64::from_str_radix(d, 16).ok()),
                error: v.get("error").and_then(Value::as_str).map(str::to_string),
            }),
            Some("counts") => {
                let r = if str_of("variant") == "adaptive" {
                    1
                } else {
                    0
                };
                rep.sums[r].counts = RunCounts {
                    messages: u("messages"),
                    coordinator_inbox: u("coordinator_inbox"),
                    adaptive_writes: u("adaptive_writes"),
                    spec_granted: u("spec_granted"),
                    spec_won: u("spec_won"),
                };
                span_variant_runs.push((r, u("runs")));
            }
            Some("span") => rep.spans.push(Span {
                name: str_of("name"),
                variant: str_of("variant"),
                id: u("id"),
                parent: v.get("parent").and_then(Value::as_u64).map(|p| p as usize),
                start_ns: u("start_ns"),
                end_ns: u("end_ns"),
            }),
            Some("end") => ended = true,
            _ => {}
        }
    }
    if !ended {
        return Err("the traced child ended without writing its trace".to_string());
    }
    // Attribute timed spans (those under a `ledger.pass`) to their roles.
    let mut timed = vec![false; rep.spans.len()];
    for i in 0..rep.spans.len() {
        timed[i] = match rep.spans[i].parent {
            Some(p) => timed[p],
            None => rep.spans[i].name == "ledger.pass",
        };
    }
    for (i, s) in rep.spans.iter().enumerate() {
        let r = match s.variant.as_str() {
            "baseline" => Role::Baseline.index(),
            "adaptive" => Role::Adaptive.index(),
            _ => continue,
        };
        if !timed[i] {
            continue;
        }
        let sums = &mut rep.sums[r];
        match s.name.as_str() {
            "core.run" => {
                sums.runs += 1;
                sums.run_s += s.secs();
            }
            "iostats.sample" => sums.sample_s += s.secs(),
            "iostats.merge" => {
                sums.merge_s += s.secs();
                sums.batches += 1;
            }
            "ledger.batch" | "simcore.par.sweep" => sums.batch_s += s.secs(),
            _ => {}
        }
    }
    for (r, runs) in span_variant_runs {
        if runs != rep.sums[r].runs {
            return Err(format!(
                "traced child counted {runs} runs but recorded {} core.run spans",
                rep.sums[r].runs
            ));
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{"ledger":"ctx","phase":"setup","variant":""}
{"profile":"in_run","seed":7,"total_s":9.0,"stats_s":9.0,"ost_advance_s":0,"harvest_merge_s":0,"windows":1,"shard_events":1,"global_events":1}
{"ledger":"ctx","phase":"timed","variant":"adaptive"}
{"profile":"coupled_driver","seed":5,"cluster_dispatch_s":0.1,"storage_drain_s":0.2,"harvest_deliver_s":0.05,"rounds":10}
{"profile":"in_run","seed":5,"total_s":0.48,"stats_s":0.1,"ost_advance_s":0.1,"harvest_merge_s":0.05,"windows":4,"shard_events":8,"global_events":2}
not json at all
{"ledger":"pass","secs":0.6}
{"ledger":"record","label":"Adaptive","seed":5,"runs":1,"digest":"00000000000000ff","error":null}
{"ledger":"counts","variant":"baseline","runs":0,"messages":0,"coordinator_inbox":0,"adaptive_writes":0,"spec_granted":0,"spec_won":0}
{"ledger":"counts","variant":"adaptive","runs":1,"messages":40,"coordinator_inbox":4,"adaptive_writes":3,"spec_granted":2,"spec_won":1}
{"ledger":"span","name":"ledger.setup","variant":"","id":0,"parent":null,"start_ns":0,"end_ns":10}
{"ledger":"span","name":"core.run","variant":"adaptive","id":7,"parent":0,"start_ns":1,"end_ns":9}
{"ledger":"span","name":"ledger.pass","variant":"","id":0,"parent":null,"start_ns":100,"end_ns":700000000}
{"ledger":"span","name":"ledger.batch","variant":"adaptive","id":0,"parent":2,"start_ns":100,"end_ns":600000100}
{"ledger":"span","name":"core.run","variant":"adaptive","id":5,"parent":3,"start_ns":100,"end_ns":500000100}
{"ledger":"span","name":"iostats.sample","variant":"adaptive","id":5,"parent":3,"start_ns":500000100,"end_ns":510000100}
{"ledger":"span","name":"iostats.merge","variant":"adaptive","id":0,"parent":3,"start_ns":510000100,"end_ns":520000100}
{"ledger":"end"}
"#;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn metric(m: &[measure::Metric], name: &str) -> f64 {
        m.iter()
            .find(|x| x.0 == name)
            .unwrap_or_else(|| panic!("no {name}"))
            .1
    }

    #[test]
    fn child_output_is_attributed_to_timed_roles_only() {
        let rep = parse_child(FIXTURE.as_bytes()).expect("fixture parses");
        let a = &rep.sums[Role::Adaptive.index()];
        assert_eq!((a.runs, a.in_rows, a.driver_rows), (1, 1, 1));
        assert!(close(a.run_s, 0.5) && close(a.stats_s, 0.1) && close(a.drain_s, 0.2));
        assert_eq!(rep.sums[Role::Baseline.index()].runs, 0);
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].digest, Some(0xff));
        assert_eq!(rep.pass_secs, vec![0.6]);
    }

    #[test]
    fn self_times_partition_the_run_span() {
        let rep = parse_child(FIXTURE.as_bytes()).expect("fixture parses");
        let mut v = Verdict::default();
        let (m, consistent) = layer_metrics(WorkloadId::Limping4k, &rep, 0.5, &mut v);
        assert!(consistent, "{:?}", v.failures);
        assert!(close(metric(&m, "adaptive.core.run_other_s"), 0.05));
        assert!(close(metric(&m, "adaptive.core.spec_won_frac"), 0.5));
        assert!(close(
            metric(&m, "adaptive.storesim.events_per_window"),
            2.0
        ));
        assert!(close(metric(&m, "trace.overhead"), 0.2));
        // Children that outgrow the run span break the partition.
        let mut bad = rep;
        bad.sums[Role::Adaptive.index()].drain_s = 0.4;
        let (_, consistent) = layer_metrics(WorkloadId::Limping4k, &bad, 0.5, &mut v);
        assert!(!consistent);
    }

    #[test]
    fn a_child_that_stops_early_is_an_error() {
        let cut = &FIXTURE[..FIXTURE.find("{\"ledger\":\"end\"}").expect("has end")];
        assert!(parse_child(cut.as_bytes()).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let spec =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            measure::GATED.map(str::to_string).to_vec()
        );
        let rep = parse_child(FIXTURE.as_bytes()).expect("fixture parses");
        let (m, _) = layer_metrics(WorkloadId::FleetSweep, &rep, 0.5, &mut Verdict::default());
        let emitted: Vec<String> = m.into_iter().map(|x| x.0).collect();
        assert_eq!(names("per_layer"), emitted);
        let why: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("why")
                    .and_then(Value::as_str)
                    .expect("why")
                    .to_string()
            })
            .collect();
        // Every emitted per-layer metric has a row in the ledger's table.
        let rows: Vec<&str> = crate::ledger::PER_LAYER.iter().map(|r| r.0).collect();
        for name in &emitted {
            let bare = name
                .strip_prefix("baseline.")
                .or_else(|| name.strip_prefix("adaptive."))
                .unwrap_or(name);
            assert!(rows.contains(&bare), "{name} has no ledger row");
        }
        let ours: Vec<String> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.why().to_string())
            .collect();
        assert_eq!(why, ours);
    }
}
