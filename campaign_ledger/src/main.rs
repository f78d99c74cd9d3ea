//! `campaign_ledger`: times the paper's campaigns end to end and per layer.
//!
//! ```text
//! campaign_ledger --workload <xgc1-16k|fleet-sweep|limping-4k|all>
//!                 [--seed N] [--seconds S] [--trace 0|1] [--record]
//! campaign_ledger --write-pins
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times, runs
//! timed passes over the workload's seed list for `--seconds`, checks every
//! output and prints the end-to-end metrics. A traced run (`--trace 1`)
//! does the same for half of `--seconds`, then reruns the same passes in a
//! child process with the program's profile rows on and prints the
//! per-layer metrics, so it too takes about `--seconds`. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--workload all` runs every workload traced, each in a process of its
//! own so that no workload's memory peak leaks into the next one's (the
//! allocator keeps freed pages resident); with `--record` it writes
//! `campaign_ledger/ledger.json`. `--write-pins` regenerates
//! `campaign_ledger/pins.txt`, the digests of the default seed.

mod digest;
mod ledger;
mod measure;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use minijson::{json, Value};

use measure::{Expect, Metric, Verdict, DEFAULT_SEED};
use workload::{WorkloadId, WORKLOADS};

/// Knobs that would change what the program runs or how; every ledger
/// number is for the default program, so they must be unset.
const FORBIDDEN_KNOBS: [&str; 6] = [
    "MANAGED_IO_SHARDS",
    "MANAGED_IO_LOOKAHEAD",
    "MANAGED_IO_THREADS",
    "MANAGED_IO_SCALE",
    "MANAGED_IO_SAMPLES",
    "MANAGED_IO_SEED",
];

/// The profiling knob: set by the benchmark for its traced child only.
const PROFILE_KNOB: &str = "MANAGED_IO_PROFILE";

/// Seconds one invocation measures when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
    all_metrics: bool,
    write_pins: bool,
    child: bool,
    passes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: false,
        all_metrics: false,
        write_pins: false,
        child: false,
        passes: measure::MIN_PASSES,
    };
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                all = name == "all";
                if !all {
                    let w = WorkloadId::parse(&name).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name:?}; expected one of {names:?} or \"all\"")
                    })?;
                    a.workload = Some(w);
                }
            }
            "--seed" => a.seed = parse_num(&flag, &value()?)?,
            "--seconds" => a.seconds = parse_num(&flag, &value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--passes" => a.passes = parse_num(&flag, &value()?)?,
            "--record" => a.record = true,
            "--all-metrics" => a.all_metrics = true,
            "--write-pins" => a.write_pins = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_none() && !all && !a.write_pins {
        return Err("--workload is required".to_string());
    }
    if a.record && !all {
        return Err("--record needs --workload all".to_string());
    }
    if a.child && a.workload.is_none() {
        return Err("--child needs one workload".to_string());
    }
    Ok(a)
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} takes a whole number, not {raw:?}"))
}

/// Refuse to run with a knob set that would make the numbers describe
/// something other than the default program.
fn check_knobs(child: bool) -> Result<(), String> {
    for k in FORBIDDEN_KNOBS {
        if std::env::var_os(k).is_some() {
            return Err(format!(
                "{k} is set; unset it so the ledger times the default program"
            ));
        }
    }
    let profile = std::env::var(PROFILE_KNOB).ok();
    match (child, profile.as_deref()) {
        (false, Some(_)) => Err(format!(
            "{PROFILE_KNOB} is set; untraced numbers must come from an unprofiled process \
             (use --trace 1 for per-layer numbers)"
        )),
        (true, Some("1")) => Ok(()),
        (true, _) => Err(format!("the traced child needs {PROFILE_KNOB}=1")),
        (false, None) => Ok(()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_knobs(args.child) {
        eprintln!("campaign_ledger: {e}");
        return ExitCode::from(2);
    }
    if args.child {
        let id = args.workload.expect("checked in parse_args");
        trace::child_main(id, args.seed, args.passes);
        return ExitCode::SUCCESS;
    }
    if args.write_pins {
        return match ledger::write_pins() {
            Ok(path) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("campaign_ledger: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let stamp = ledger::Stamp::here();
    println!("{}", stamp.line());
    match args.workload {
        Some(id) => {
            let outcome = match run_workload(id, &args) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("campaign_ledger: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let shown: Vec<Metric> = if args.all_metrics {
                outcome
                    .end_to_end
                    .iter()
                    .chain(&outcome.per_layer)
                    .cloned()
                    .collect()
            } else if args.trace {
                outcome.per_layer.clone()
            } else {
                outcome
                    .end_to_end
                    .iter()
                    .filter(|m| measure::GATED.contains(&m.0.as_str()))
                    .cloned()
                    .collect()
            };
            println!("{}", result_json(&outcome, &shown));
        }
        None => {
            let mut results = Vec::new();
            for id in WORKLOADS {
                match run_isolated(id, &args) {
                    Ok(v) => results.push((id, v)),
                    Err(e) => {
                        eprintln!("campaign_ledger: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if args.record {
                match ledger::record(&stamp, &args_summary(&args), &results) {
                    Ok(path) => println!("wrote {path}"),
                    Err(e) => {
                        eprintln!("campaign_ledger: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let all = results
                .into_iter()
                .map(|(id, v)| (id.name().to_string(), v))
                .collect();
            println!("{}", Value::Obj(all));
        }
    }
    ExitCode::SUCCESS
}

/// What one workload produced.
struct Outcome {
    verdict: Verdict,
    consistent: bool,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn args_summary(a: &Args) -> Value {
    json!({"seed": a.seed, "seconds": a.seconds})
}

/// Run one workload traced in a process of its own, echo its table and
/// return its result object (every metric, gated or not).
fn run_isolated(id: WorkloadId, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", id.name(), "--trace", "1", "--all-metrics"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run workload {}: {e}", id.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("workload {} exited with {}", id.name(), out.status));
    }
    Value::parse(last).map_err(|e| format!("workload {} printed no result: {e}", id.name()))
}

/// Measure one workload untraced, and traced when asked; print its table.
fn run_workload(id: WorkloadId, args: &Args) -> Result<Outcome, String> {
    // A traced run spends half its time untraced and half in the traced
    // child, which repeats the same number of passes.
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let untraced = measure::measure(id, args.seed, seconds);
    let mut expect = Expect::new(id, args.seed);
    let mut verdict = Verdict::default();
    for rec in &untraced.records {
        expect.check(rec, &mut verdict);
    }
    let (per_layer, consistent) = if args.trace {
        trace::per_layer(id, args.seed, &untraced, &mut expect, &mut verdict)?
    } else {
        (Vec::new(), true)
    };
    let end_to_end = measure::end_to_end(&untraced, &verdict);
    println!(
        "workload {} seed {} passes {} runs {} (seeds per pass {})",
        id.name(),
        args.seed,
        untraced.pass_secs.len(),
        untraced.timed_runs,
        id.seeds_per_pass()
    );
    let passes: Vec<String> = untraced
        .pass_secs
        .iter()
        .map(|[b, a]| format!("{b:.3}+{a:.3}"))
        .collect();
    println!("  pass seconds (baseline+adaptive): {}", passes.join(" "));
    for (name, v, unit) in end_to_end.iter().chain(&per_layer) {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    for f in &verdict.failures {
        println!("  FAILED {f}");
    }
    Ok(Outcome {
        verdict,
        consistent,
        end_to_end,
        per_layer,
    })
}

/// The result object: correctness, run counts and the chosen metrics.
fn result_json(o: &Outcome, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|(name, v, unit)| (name.clone(), json!({"value": *v, "unit": *unit})))
        .collect();
    json!({
        "correct": o.verdict.failed == 0 && o.consistent,
        "attempted": o.verdict.attempted,
        "failed": o.verdict.failed,
        "metrics": Value::Obj(metrics),
    })
}
