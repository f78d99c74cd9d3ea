//! The ledger of record: provenance stamp, pinned digests and the
//! `ledger.json` file that `--workload all --record` writes.

use minijson::{json, Value};

use crate::measure::{self, Expect, Verdict, DEFAULT_SEED};
use crate::trace::{Tracer, SELF_TIME_TOLERANCE};
use crate::workload::{Bench, WorkloadId, WORKLOADS};

/// Where the pinned digests live, relative to the repository root.
const PINS_PATH: &str = "campaign_ledger/pins.txt";

/// Where `--record` writes the ledger, relative to the repository root.
const LEDGER_PATH: &str = "campaign_ledger/ledger.json";

/// Base seeds kept out of tuning: later gain claims are re-checked on
/// these (`--seed 9001` … `--seed 9010`).
const HELD_OUT_SEEDS: [u64; 2] = [9001, 9010];

/// Which host, commit and compiler produced a set of numbers.
pub struct Stamp {
    host_cores: usize,
    git_commit: String,
    rustc: &'static str,
}

impl Stamp {
    /// The stamp of this process.
    pub fn here() -> Stamp {
        Stamp {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
            rustc: env!("LEDGER_RUSTC_VERSION"),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "# campaign_ledger host_cores={} git_commit={} rustc={:?}",
            self.host_cores, self.git_commit, self.rustc
        )
    }

    fn to_json(&self) -> Value {
        json!({
            "host_cores": self.host_cores,
            "git_commit": self.git_commit.as_str(),
            "rustc": self.rustc,
        })
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without starting a process.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

/// Run one pass of every workload at the default seed and write the
/// digests to [`PINS_PATH`]. Warm-up (cold scratch) and pass (warm
/// scratch) outputs must agree before anything is written.
pub fn write_pins() -> Result<String, String> {
    let mut text = String::from(
        "# Output digests of the default seed (--seed 1): workload, variant,\n\
         # seed, FNV-1a digest. Regenerate with `--write-pins` only when a\n\
         # change is meant to move the simulated output.\n",
    );
    for id in WORKLOADS {
        let mut tracer = Tracer::off();
        let (mut bench, mut records) = Bench::setup(id, DEFAULT_SEED, &mut tracer);
        let warm_ups = records.len();
        for batch in measure::run_pass(&mut bench, &mut tracer) {
            records.extend(batch.records);
        }
        let mut expect = Expect::unpinned(id);
        let mut verdict = Verdict::default();
        for rec in &records {
            expect.check(rec, &mut verdict);
        }
        if verdict.failed > 0 {
            return Err(format!("not pinning failed runs: {:?}", verdict.failures));
        }
        for rec in &records[warm_ups..] {
            let d = rec
                .digest
                .expect("a pass record that passed its checks has a digest");
            text.push_str(&format!(
                "{} {} {} {d:016x}\n",
                id.name(),
                rec.label,
                rec.seed
            ));
        }
    }
    std::fs::write(PINS_PATH, text).map_err(|e| format!("writing {PINS_PATH}: {e}"))?;
    Ok(PINS_PATH.to_string())
}

/// Each end-to-end metric: name, unit, direction, definition and, for
/// simulated metrics, the paper's reference.
const END_TO_END: [(&str, &str, &str, &str, &str); 10] = [
    ("setup_s", "s", "lower",
     "Host: input generation, RunBase::prepare per variant and the untimed warm-up that fills each worker's RunScratch; median of the invocation's set-up repeats.", ""),
    ("runs_per_s", "1/s", "higher",
     "Host: the runs of one timed pass divided by the median pass seconds (both variants).", ""),
    ("adaptive_s", "s", "lower",
     "Host: median over passes of one pass's adaptive-variant seconds (adaptive; closed loop on limping-4k). One-worker workloads sum the run_seed_scratch calls; fleet-sweep times the run_seed_sweep_into_threads call.", ""),
    ("baseline_s", "s", "lower",
     "Host: the same for the comparison variant (MPI-IO; static hardened protocol on limping-4k).", ""),
    ("peak_rss_mib", "MiB", "lower",
     "Host: resident-set high-water mark (VmHWM) of the process, which runs this workload only.", ""),
    ("fail_rate", "ratio", "lower",
     "Failed runs over attempted runs. A run fails on a panic, any SimError (Stalled included), written + lost != total, any lost byte, or an output digest that differs from the pinned (default seed) or first (other seeds) digest. Zero by design, so it is printed but carried in the result's attempted/failed fields rather than as a gated metric.", ""),
    ("sim_adaptive_gibps", "GiB/s", "higher",
     "Simulated: mean aggregate bandwidth of the adaptive-variant runs of one pass (the SweepSink's exact mean; its median is a 4.4 %-wide histogram bucket).",
     "Fig 6 (XGC1) and Fig 5 (Pixie3D): adaptive aggregate bandwidth on Jaguar. Unvalidated on limping-4k."),
    ("sim_gain", "ratio", "higher",
     "Simulated: sim_adaptive_gibps over the comparison variant's mean bandwidth.",
     "Fig 6 XGC1 adaptive gain +30 % to >+224 % over MPI-IO; EXPERIMENTS.md notes the model overshoots at the top end of the rank sweep. Unvalidated on limping-4k (no paper reference)."),
    ("sim_write_std_s", "s", "lower",
     "Simulated: mean over the pass's adaptive runs of the per-writer write-time standard deviation.",
     "Fig 7: adaptive IO reduces the per-writer write-time deviation against MPI-IO. Unvalidated on limping-4k."),
    ("sim_span_cv", "ratio", "lower",
     "Simulated: coefficient of variation of the adaptive variant's write span across the pass's seeds: the run-to-run variability the paper manages.",
     "Fig 7 / Table I variability lens; unvalidated on limping-4k."),
];

/// Each per-layer metric (per variant unless noted), its source and the
/// end-to-end metric it should move.
pub(crate) const PER_LAYER: [(&str, &str, &str); 31] = [
    ("workloads.build_s", "Span around campaign, spec and fault-script construction (workload-level).", "setup_s, all workloads"),
    ("core.prepare_s", "Span around RunBase::prepare, summed over variants (workload-level).", "setup_s, all workloads"),
    ("core.run_s", "Span around each run_seed_scratch call; parent of the run-level rows below.", "all host metrics"),
    ("core.account_s", "stats_s of the in_run row: account plus integrity_account.", "adaptive_s and baseline_s on xgc1-16k; no move on fleet-sweep"),
    ("core.account_share", "core.account_s / core.run_s.", "large on xgc1-16k for both variants, near zero on fleet-sweep"),
    ("core.run_other_s", "core.run_s minus dispatch, drain, deliver and account: storage reset, actor build, result assembly.", "runs_per_s on fleet-sweep"),
    ("core.messages", "ProtocolStats.total_messages (0 for MPI-IO, which has no protocol stats).", "adaptive_s on xgc1-16k and limping-4k"),
    ("core.coordinator_inbox", "ProtocolStats.coordinator_inbox.", "adaptive_s on xgc1-16k and limping-4k"),
    ("core.adaptive_writes", "OutputResult.adaptive_writes.", "adaptive_s on xgc1-16k and limping-4k"),
    ("core.spec_won_frac", "spec_won / spec_granted (0 when nothing was granted).", "adaptive_s on limping-4k"),
    ("clustersim.dispatch_s", "cluster_dispatch_s of the coupled_driver row: the actor handlers (protocol and control loop).", "adaptive_s on limping-4k"),
    ("clustersim.deliver_s", "harvest_deliver_s of the coupled_driver row.", "adaptive_s on xgc1-16k"),
    ("clustersim.rounds", "Driver rounds per run.", "adaptive_s on xgc1-16k"),
    ("storesim.drain_s", "storage_drain_s of the coupled_driver row (includes the lookahead fg_bound scans).", "adaptive_s on xgc1-16k and limping-4k"),
    ("storesim.ost_advance_s", "ost_advance_s of the in_run row; child of storesim.drain_s.", "adaptive_s and baseline_s on limping-4k"),
    ("storesim.harvest_s", "harvest_merge_s of the in_run row; child of storesim.drain_s.", "adaptive_s and baseline_s on limping-4k"),
    ("storesim.lane_events", "shard_events of the in_run row.", "(count; the ratios use it)"),
    ("storesim.global_events", "global_events of the in_run row.", "(count)"),
    ("storesim.windows", "windows of the in_run row.", "(count; the ratios use it)"),
    ("storesim.events_per_window", "lane_events / windows: useful work per drain batch.", "adaptive_s on xgc1-16k"),
    ("storesim.ns_per_lane_event", "ost_advance_s / lane_events: host time per simulated event.", "runs_per_s, all workloads"),
    ("iostats.sample_s", "Span around sweep_sample + add_sample, per run.", "runs_per_s on fleet-sweep"),
    ("iostats.merge_s", "Span around SweepSink::merge, per batch.", "runs_per_s on fleet-sweep"),
    ("simcore.par.busy_frac", "Sum of per-seed busy spans over (workers x batch wall time, merge excluded); on one-worker workloads the seed loop stands in for the pool (workload-level).", "runs_per_s on fleet-sweep"),
    ("self.core_s", "Self time of core per pass: run_other + account, both variants.", "all host metrics"),
    ("self.clustersim_s", "Self time of clustersim per pass: dispatch + deliver.", "adaptive_s"),
    ("self.storesim_s", "Self time of storesim per pass: the whole drain (its children are storesim too).", "adaptive_s, baseline_s"),
    ("self.simcore_s", "Pool idle per pass: worker time in the sweep not spent in runs or samples (fleet-sweep only).", "runs_per_s on fleet-sweep"),
    ("self.iostats_s", "Sample and merge spans per pass.", "runs_per_s on fleet-sweep"),
    ("self.ledger_s", "The benchmark's own seed loop, digests and checks per pass (one-worker workloads); excluded from the host metrics.", "none"),
    ("trace.overhead", "Median traced pass seconds over median untraced pass seconds, minus 1.", "none; keeps tracing cost visible"),
];

/// Write [`LEDGER_PATH`]: stamp, settings, the metric and layer tables,
/// and every workload's result object.
pub fn record(
    stamp: &Stamp,
    settings: &Value,
    results: &[(WorkloadId, Value)],
) -> Result<String, String> {
    let workloads: Vec<Value> = results
        .iter()
        .map(|(id, result)| {
            let share = |role: &str| {
                result
                    .get("metrics")
                    .and_then(|m| m.get(&format!("{role}.core.account_share")))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            json!({
                "name": id.name(),
                "why": id.why(),
                "seeds_per_pass": id.seeds_per_pass(),
                "workers": id.workers(),
                "core_account_share": json!({"adaptive": share("adaptive"), "baseline": share("baseline")}),
                "result": result.clone(),
            })
        })
        .collect();
    let metrics: Vec<Value> = END_TO_END
        .iter()
        .map(|&(name, unit, better, definition, paper)| {
            let gated = measure::GATED.contains(&name);
            json!({"name": name, "unit": unit, "better": better, "gated": gated, "definition": definition, "paper": paper})
        })
        .collect();
    let layers: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, source, moves)| json!({"name": name, "source": source, "should_move": moves}))
        .collect();
    let ledger = json!({
        "stamp": stamp.to_json(),
        "settings": settings.clone(),
        "seeds": json!({
            "default": DEFAULT_SEED,
            "held_out": format!("{}..={}", HELD_OUT_SEEDS[0], HELD_OUT_SEEDS[1]),
            "rule": "seed i of a pass with base seed b is b*10000 + i; digests are pinned for the default base seed",
        }),
        "self_time_tolerance": SELF_TIME_TOLERANCE,
        "bounds": "BENCHMARK.json holds each gated metric's bound",
        "end_to_end_metrics": metrics,
        "per_layer_metrics": layers,
        "workloads": workloads,
    });
    std::fs::write(LEDGER_PATH, format!("{ledger}\n"))
        .map_err(|e| format!("writing {LEDGER_PATH}: {e}"))?;
    Ok(LEDGER_PATH.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Untraced;

    #[test]
    fn metric_table_matches_the_printed_metrics() {
        let untraced = Untraced {
            setup_s: vec![1.0],
            pass_secs: vec![[1.0, 1.0]],
            timed_runs: 2,
            sinks: [iostats::SweepSink::new(4), iostats::SweepSink::new(4)],
            records: Vec::new(),
            peak_rss_mib: 1.0,
        };
        let printed: Vec<String> = measure::end_to_end(&untraced, &Verdict::default())
            .into_iter()
            .map(|m| m.0)
            .collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(printed, table);
    }
}
