//! The three ledger workloads: their generated inputs, set-up, timed
//! batches and per-run output checks.
//!
//! Every workload runs on the full 672-OST Jaguar preset and compares two
//! variants of one campaign: a baseline (MPI-IO, or the static hardened
//! protocol) and the adaptive variant (adaptive, or the closed loop). The
//! program is driven only through its public entry points: the
//! `workloads` campaign builders, `RunBase::prepare`,
//! `RunBase::run_seed_scratch`, `RunBase::run_seed_sweep_into_threads`,
//! `RunOutput::sweep_sample` and `SweepSink`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use adios_core::{FaultConfig, Interference, RunBase, RunOutput, RunScratch, RunSpec};
use iostats::SweepSink;
use workloads::{control_methods, ScaleCampaign, StragglerScenario};

use crate::digest;
use crate::trace::{Tracer, WorkerTracer};

/// Which side of a campaign comparison a variant is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// MPI-IO, or the static hardened protocol on `limping-4k`.
    Baseline,
    /// The adaptive protocol, or the closed control loop on `limping-4k`.
    Adaptive,
}

impl Role {
    /// Metric-name prefix and table key.
    pub fn key(self) -> &'static str {
        match self {
            Role::Baseline => "baseline",
            Role::Adaptive => "adaptive",
        }
    }

    /// Index into per-role arrays (baseline first).
    pub fn index(self) -> usize {
        match self {
            Role::Baseline => 0,
            Role::Adaptive => 1,
        }
    }
}

/// One named ledger workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// XGC1 at 16,384 writers, clean: the Fig 6 headline shape.
    Xgc1_16k,
    /// A 512-writer Pixie3D seed population on two sweep workers (Fig 7).
    FleetSweep,
    /// XGC1 at 4,096 writers under interference and a limping disk.
    Limping4k,
}

/// Every workload, in ledger order.
pub const WORKLOADS: [WorkloadId; 3] = [
    WorkloadId::Xgc1_16k,
    WorkloadId::FleetSweep,
    WorkloadId::Limping4k,
];

impl WorkloadId {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Xgc1_16k => "xgc1-16k",
            WorkloadId::FleetSweep => "fleet-sweep",
            WorkloadId::Limping4k => "limping-4k",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the ledger carries this workload.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Xgc1_16k => {
                "Fig 6 headline: 16k-rank XGC1 adaptive vs MPI-IO on 672 OSTs; post-run accounting and the lookahead drain dominate each run"
            }
            WorkloadId::FleetSweep => {
                "Fig 7 seed population: 512-rank Pixie3D sweeps on 2 workers; per-seed fixed costs dominate, accounting is small"
            }
            WorkloadId::Limping4k => {
                "4k-rank XGC1 under interference and a limping disk: the fault-hardened protocol vs the closed control loop"
            }
        }
    }

    /// Seeds each variant runs in one pass of the timed batch.
    pub fn seeds_per_pass(self) -> usize {
        match self {
            WorkloadId::Xgc1_16k => 4,
            WorkloadId::FleetSweep => 256,
            WorkloadId::Limping4k => 12,
        }
    }

    /// Worker threads a batch runs on: the fleet sweep uses the sweep
    /// pool on two workers, the others run one seed at a time.
    pub fn workers(self) -> usize {
        match self {
            WorkloadId::FleetSweep => 2,
            _ => 1,
        }
    }

    /// How often one invocation repeats its whole set-up (`setup_s` is
    /// the median of these).
    pub fn setup_repeats(self) -> usize {
        match self {
            WorkloadId::Xgc1_16k => 3,
            _ => 5,
        }
    }

    /// True when the batch goes through the sweep pool.
    pub fn is_sweep(self) -> bool {
        self.workers() > 1
    }
}

/// The seeds one pass runs: seed `i` of base seed `b` is `b·10⁴ + i`.
pub fn seed_list(id: WorkloadId, base_seed: u64) -> Vec<u64> {
    (0..id.seeds_per_pass() as u64)
        .map(|i| base_seed.wrapping_mul(10_000).wrapping_add(i))
        .collect()
}

/// A workload's generated inputs for one base seed.
pub struct Inputs {
    /// The workload.
    pub id: WorkloadId,
    /// Seeds of one pass.
    pub seeds: Vec<u64>,
    /// Bytes one run must write.
    pub total_bytes: u64,
    /// `(label, role, spec)` per variant, baseline first.
    pub specs: Vec<(&'static str, Role, RunSpec)>,
    /// The fault configuration of each seed (all empty on clean workloads).
    pub faults: Vec<FaultConfig>,
}

impl Inputs {
    /// Build the campaign, its run specs and the per-seed fault scripts.
    pub fn build(id: WorkloadId, base_seed: u64) -> Inputs {
        let seeds = seed_list(id, base_seed);
        let (campaign, interference, methods) = match id {
            WorkloadId::Xgc1_16k => {
                let c = ScaleCampaign::xgc1(16384);
                let m = c.methods();
                (c, Interference::None, m)
            }
            WorkloadId::FleetSweep => {
                let c = ScaleCampaign::pixie3d_small(512);
                let m = c.methods();
                (c, Interference::None, m)
            }
            WorkloadId::Limping4k => {
                let c = ScaleCampaign::xgc1(4096);
                let m = control_methods(c.adaptive_targets);
                (c, Interference::paper_default(), m)
            }
        };
        // Both method pairs list the comparison variant first.
        let specs = methods
            .into_iter()
            .zip([Role::Baseline, Role::Adaptive])
            .map(|((label, method), role)| {
                let mut spec = campaign.run_spec(method, 0);
                spec.interference = interference.clone();
                (label, role, spec)
            })
            .collect();
        let ost_count = campaign.machine.ost_count;
        let faults = seeds
            .iter()
            .map(|&seed| match id {
                WorkloadId::Limping4k => {
                    StragglerScenario::LimpingDisk.fault_config(ost_count, seed)
                }
                _ => FaultConfig::none(),
            })
            .collect();
        Inputs {
            id,
            seeds,
            total_bytes: campaign.total_bytes(),
            specs,
            faults,
        }
    }
}

/// One prepared variant with its warm per-worker scratch.
pub struct Variant {
    /// Method label ("MPI", "Adaptive", "static", "closed-loop").
    pub label: &'static str,
    /// Baseline or adaptive.
    pub role: Role,
    /// The seed-independent run prefix.
    pub base: RunBase,
    scratch: RunScratch,
}

/// A workload after set-up: inputs, prepared variants, warm scratches.
pub struct Bench {
    /// Generated inputs.
    pub inputs: Inputs,
    /// Variants, baseline first.
    pub variants: Vec<Variant>,
}

/// What one checked run (or one checked sweep batch) produced.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Variant label.
    pub label: String,
    /// The run's seed (a sweep batch's first seed).
    pub seed: u64,
    /// Runs this record covers (the seed count of a sweep batch).
    pub runs: u64,
    /// Output digest; `None` for warm-up batches, which are not pinned.
    pub digest: Option<u64>,
    /// The first failed check, if any.
    pub error: Option<String>,
}

/// Protocol counters of one run, for the traced per-layer rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunCounts {
    /// Messages received across all ranks.
    pub messages: u64,
    /// Messages the coordinator received.
    pub coordinator_inbox: u64,
    /// Work-shifted writes.
    pub adaptive_writes: u64,
    /// Speculative duplicates granted.
    pub spec_granted: u64,
    /// Speculations that beat the stuck primary.
    pub spec_won: u64,
}

impl RunCounts {
    fn of(out: &RunOutput) -> RunCounts {
        let p = out.protocol;
        RunCounts {
            messages: p.map_or(0, |p| p.total_messages),
            coordinator_inbox: p.map_or(0, |p| p.coordinator_inbox),
            adaptive_writes: out.result.adaptive_writes as u64,
            spec_granted: p.map_or(0, |p| p.spec_granted),
            spec_won: p.map_or(0, |p| p.spec_won),
        }
    }
}

/// One variant's share of a timed pass.
pub struct Batch {
    /// Host seconds the variant's runs took (see [`Bench::run_batch`]).
    pub secs: f64,
    /// Checked records.
    pub records: Vec<RunRecord>,
    /// The variant's merged sweep sink.
    pub sink: SweepSink,
    /// Per-run protocol counters (empty for an untraced sweep).
    pub counts: Vec<RunCounts>,
}

/// Run `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panicked: {msg}")
    })
}

/// The output checks every run must pass: no structured error (a stall
/// included), bytes conserved, nothing lost.
fn check_run(out: &RunOutput, total_bytes: u64) -> Result<(), String> {
    if let Some(e) = out.errors.first() {
        return Err(format!(
            "{} structured error(s), first: {e:?}",
            out.errors.len()
        ));
    }
    let o = &out.outcome;
    if o.written_bytes + o.lost_bytes != o.total_bytes || o.total_bytes != total_bytes {
        return Err(format!(
            "bytes not conserved: written {} + lost {} vs total {} (expected {total_bytes})",
            o.written_bytes, o.lost_bytes, o.total_bytes
        ));
    }
    if o.lost_bytes != 0 || !o.complete {
        return Err(format!("lost {} bytes", o.lost_bytes));
    }
    Ok(())
}

/// The same checks on a sweep's merged sink: every seed sampled, no
/// failed sample, no error, nothing lost, every byte written.
fn check_sink(sink: &SweepSink, seeds: usize, total_bytes: u64) -> Result<(), String> {
    let report = sink.report();
    let field = |k: &str| report.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
    if sink.samples() != seeds as u64 || sink.failed_samples() != 0 {
        return Err(format!(
            "{} samples ({} failed) for {seeds} seeds",
            sink.samples(),
            sink.failed_samples()
        ));
    }
    if field("errors") != 0 || field("lost_bytes") != 0 {
        return Err(format!(
            "{} errors, {} lost bytes",
            field("errors"),
            field("lost_bytes")
        ));
    }
    if sink.total_bytes() != seeds as u64 * total_bytes {
        return Err(format!(
            "wrote {} bytes, expected {}",
            sink.total_bytes(),
            seeds as u64 * total_bytes
        ));
    }
    Ok(())
}

impl Bench {
    /// Generate the inputs, prepare every variant and run the untimed
    /// warm-up that fills each worker's scratch. Returns the bench and
    /// the warm-up's checked records.
    pub fn setup(id: WorkloadId, base_seed: u64, tracer: &mut Tracer) -> (Bench, Vec<RunRecord>) {
        tracer.begin("workloads.build", "", 0);
        let inputs = Inputs::build(id, base_seed);
        tracer.end();
        let mut variants = Vec::new();
        for (label, role, spec) in &inputs.specs {
            tracer.begin("core.prepare", role.key(), 0);
            let base = RunBase::prepare(spec.clone());
            tracer.end();
            variants.push(Variant {
                label,
                role: *role,
                base,
                scratch: RunScratch::new(),
            });
        }
        let mut bench = Bench { inputs, variants };
        let records = (0..bench.variants.len())
            .map(|v| bench.warm_up(v, tracer))
            .collect();
        (bench, records)
    }

    /// One untimed run (or a short sweep) of variant `v`.
    fn warm_up(&mut self, v: usize, tracer: &mut Tracer) -> RunRecord {
        let inputs = &self.inputs;
        let var = &mut self.variants[v];
        let seed = inputs.seeds[0];
        if inputs.id.is_sweep() {
            let seeds = &inputs.seeds[..2 * inputs.id.workers()];
            let mut sink = var.base.sweep_sink();
            let res = guarded(|| {
                var.base.run_seed_sweep_into_threads(
                    inputs.id.workers(),
                    seeds,
                    &inputs.faults[0],
                    &mut sink,
                )
            });
            let error = res
                .and_then(|()| check_sink(&sink, seeds.len(), inputs.total_bytes))
                .err();
            return RunRecord {
                label: var.label.to_string(),
                seed,
                runs: seeds.len() as u64,
                digest: None,
                error,
            };
        }
        tracer.begin("core.run", var.role.key(), seed);
        let res = guarded(|| {
            var.base
                .run_seed_scratch(seed, &inputs.faults[0], &mut var.scratch)
        });
        tracer.end();
        record_of(var, seed, res, inputs.total_bytes)
    }

    /// Run one variant over the pass's seeds.
    ///
    /// One-worker workloads call `run_seed_scratch` per seed on the warm
    /// scratch and fold each `sweep_sample` into a sink; `secs` sums the
    /// `run_seed_scratch` calls only. The fleet sweep calls
    /// `run_seed_sweep_into_threads` untraced; traced, it drives
    /// `par_fold_workers_threads` with the same per-seed closure plus
    /// spans. `secs` is then the whole sweep call, merge included.
    pub fn run_batch(&mut self, v: usize, tracer: &mut Tracer) -> Batch {
        let inputs = &self.inputs;
        let var = &mut self.variants[v];
        if inputs.id.is_sweep() {
            return if tracer.is_on() {
                traced_sweep(inputs, var, tracer)
            } else {
                plain_sweep(inputs, var)
            };
        }
        tracer.begin("ledger.batch", var.role.key(), 0);
        let mut local = var.base.sweep_sink();
        let mut secs = 0.0;
        let mut records = Vec::with_capacity(inputs.seeds.len());
        let mut counts = Vec::with_capacity(inputs.seeds.len());
        for (&seed, faults) in inputs.seeds.iter().zip(&inputs.faults) {
            tracer.begin("core.run", var.role.key(), seed);
            let t0 = Instant::now();
            let res = guarded(|| var.base.run_seed_scratch(seed, faults, &mut var.scratch));
            secs += t0.elapsed().as_secs_f64();
            tracer.end();
            if let Ok(out) = &res {
                tracer.begin("iostats.sample", var.role.key(), seed);
                local.add_sample(&out.sweep_sample(seed));
                tracer.end();
                counts.push(RunCounts::of(out));
            }
            records.push(record_of(var, seed, res, inputs.total_bytes));
        }
        tracer.begin("iostats.merge", var.role.key(), 0);
        let mut sink = var.base.sweep_sink();
        sink.merge(&local);
        tracer.end();
        tracer.end();
        Batch {
            secs,
            records,
            sink,
            counts,
        }
    }
}

/// Check one run and digest it. A panicked run leaves its scratch in an
/// unknown state, so the scratch is replaced.
fn record_of(
    var: &mut Variant,
    seed: u64,
    res: Result<RunOutput, String>,
    total_bytes: u64,
) -> RunRecord {
    let (digest, error) = match res {
        Ok(out) => (
            Some(digest::run_digest(&out)),
            check_run(&out, total_bytes).err(),
        ),
        Err(e) => {
            var.scratch = RunScratch::new();
            (None, Some(e))
        }
    };
    RunRecord {
        label: var.label.to_string(),
        seed,
        runs: 1,
        digest,
        error,
    }
}

/// The fleet sweep through the program's own sweep entry point.
fn plain_sweep(inputs: &Inputs, var: &Variant) -> Batch {
    let t0 = Instant::now();
    let mut sink = var.base.sweep_sink();
    let res = guarded(|| {
        var.base.run_seed_sweep_into_threads(
            inputs.id.workers(),
            &inputs.seeds,
            &inputs.faults[0],
            &mut sink,
        )
    });
    let secs = t0.elapsed().as_secs_f64();
    sweep_batch(inputs, var, secs, res, sink, Vec::new())
}

/// The fleet sweep with spans: `par_fold_workers_threads` with the
/// per-seed closure of `run_seed_sweep_into_threads`, each worker
/// recording `core.run` and `iostats.sample` spans under the sweep span.
fn traced_sweep(inputs: &Inputs, var: &Variant, tracer: &mut Tracer) -> Batch {
    tracer.begin("simcore.par.sweep", var.role.key(), inputs.seeds[0]);
    let parent = tracer.worker();
    let (base, key, faults) = (&var.base, var.role.key(), &inputs.faults[0]);
    let t0 = Instant::now();
    let res = guarded(|| {
        simcore::par::par_fold_workers_threads(
            inputs.id.workers(),
            inputs.seeds.clone(),
            || {
                (
                    RunScratch::new(),
                    base.sweep_sink(),
                    parent.clone(),
                    Vec::new(),
                )
            },
            |(scratch, local, spans, counts): &mut (
                RunScratch,
                SweepSink,
                WorkerTracer,
                Vec<RunCounts>,
            ),
             seed| {
                spans.begin("core.run", key, seed);
                let out = base.run_seed_scratch(seed, faults, scratch);
                spans.end();
                spans.begin("iostats.sample", key, seed);
                local.add_sample(&out.sweep_sample(seed));
                spans.end();
                counts.push(RunCounts::of(&out));
            },
        )
    });
    let mut sink = base.sweep_sink();
    let mut counts = Vec::new();
    let mut secs = t0.elapsed().as_secs_f64();
    let res = res.map(|parts| {
        tracer.begin("iostats.merge", key, 0);
        for (_, local, _, _) in &parts {
            sink.merge(local);
        }
        tracer.end();
        secs = t0.elapsed().as_secs_f64();
        for (_, _, spans, c) in parts {
            tracer.absorb(spans);
            counts.extend(c);
        }
    });
    tracer.end();
    sweep_batch(inputs, var, secs, res, sink, counts)
}

/// Check a sweep's merged sink and wrap it as a one-record batch.
fn sweep_batch(
    inputs: &Inputs,
    var: &Variant,
    secs: f64,
    res: Result<(), String>,
    sink: SweepSink,
    counts: Vec<RunCounts>,
) -> Batch {
    let error = res
        .and_then(|()| check_sink(&sink, inputs.seeds.len(), inputs.total_bytes))
        .err();
    let record = RunRecord {
        label: var.label.to_string(),
        seed: inputs.seeds[0],
        runs: inputs.seeds.len() as u64,
        digest: Some(digest::sink_digest(&sink)),
        error,
    };
    Batch {
        secs,
        records: vec![record],
        sink,
        counts,
    }
}
