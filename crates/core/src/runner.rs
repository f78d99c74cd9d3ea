//! The experiment runner: the public entry point that sets up a machine,
//! a workload and a transport method, runs the co-simulation, and returns
//! the paper's measurements.
//!
//! ```
//! use adios_core::runner::{run, DataSpec, Interference, Method, RunSpec};
//! use simcore::units::MIB;
//! use storesim::params::testbed;
//!
//! let spec = RunSpec {
//!     machine: testbed(),
//!     nprocs: 16,
//!     data: DataSpec::Uniform(4 * MIB),
//!     method: Method::Adaptive {
//!         targets: 8,
//!         opts: Default::default(),
//!     },
//!     interference: Interference::None,
//!     seed: 42,
//! };
//! let out = run(spec);
//! assert_eq!(out.result.records.len(), 16);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use bpfmt::{pg_encoded_size_opts, GlobalIndex, IntegrityOpts, VarBlock};
use clustersim::{Actor, FaultPlane, LinkFaults, Simulation};
use iostats::{SweepSample, SweepSink};
use simcore::units::GIB;
use simcore::SimTime;
use storesim::layout::{FileId, OstId, StripeSpec};
use storesim::{CorruptionOracle, MachineConfig, ObjectStore, StorageSystem};

use crate::adaptive::{AdaptiveActor, AdaptiveOpts, MsgStats};
use crate::fault::{FaultConfig, IntegrityOutcome, SimError, WriteOutcome};
use crate::mpiio::{stripe_aligned_offsets, MpiIoActor};
use crate::plan::OutputPlan;
use crate::posix::PosixActor;
use crate::record::{OutputResult, WriteRecord};

/// Hard cap on simulated time for one output operation (10⁶ simulated
/// seconds — far beyond any sane IO phase; hitting it means the protocol
/// stalled, which the runner asserts on).
const RUN_DEADLINE: SimTime = SimTime::from_nanos(1_000_000_000_000_000);

/// Which transport method to run.
#[derive(Clone, Debug)]
pub enum Method {
    /// POSIX file-per-process over `targets` storage targets (IOR mode).
    Posix {
        /// Storage targets the writers spread over.
        targets: usize,
    },
    /// MPI-IO / ADIOS base transport: one shared file striped over
    /// `stripe_count` targets (clamped to the machine's per-file limit —
    /// 160 on Lustre 1.6).
    MpiIo {
        /// Requested stripe count.
        stripe_count: usize,
    },
    /// The stagger method (CUG'09): grouped, serialised per-target writes,
    /// staggered opens, no work shifting.
    Stagger {
        /// Output files / targets.
        targets: usize,
    },
    /// The paper's adaptive method (Algorithms 1–3).
    Adaptive {
        /// Output files / targets (512 in the paper's runs).
        targets: usize,
        /// Tuning knobs.
        opts: AdaptiveOpts,
    },
}

/// Artificial external interference, as in §IV: a separate program
/// continuously writing to a handful of targets.
#[derive(Clone, Debug)]
pub enum Interference {
    /// Quiet system (only the machine's own production noise, if enabled).
    None,
    /// `streams_per_ost` perpetual writers on each of `osts` targets,
    /// `bytes` per write.
    CompetingStreams {
        /// Number of targets hit.
        osts: usize,
        /// Concurrent streams per target.
        streams_per_ost: usize,
        /// Bytes per (continuously repeated) write.
        bytes: u64,
    },
    /// Permanently degrade specific targets (failure injection: dying
    /// disks, rebuilding RAID sets) — NERSC's observation that "a small
    /// number of slow storage targets greatly increased total IO time"
    /// (§V, Antypas & Uselton).
    DegradedOsts {
        /// Target indices to degrade.
        osts: Vec<usize>,
        /// Remaining capability fraction (0, 1].
        factor: f64,
    },
    /// Like [`Interference::CompetingStreams`], but each stream idles for
    /// an exponential gap between bursts — a competing application's
    /// duty-cycled IO phases (the "two simultaneous IOR jobs" setup of
    /// the XTP experiments).
    BurstyStreams {
        /// Number of targets hit.
        osts: usize,
        /// Streams per target.
        streams_per_ost: usize,
        /// Bytes per burst.
        bytes: u64,
        /// Mean idle gap between bursts, seconds.
        mean_gap: f64,
    },
}

impl Interference {
    /// The paper's configuration: a file striped over 8 targets, three
    /// processes per target continuously writing 1 GiB each (24 procs).
    pub fn paper_default() -> Self {
        Interference::CompetingStreams {
            osts: 8,
            streams_per_ost: 3,
            bytes: GIB,
        }
    }
}

/// Per-rank output data.
#[derive(Clone, Debug)]
pub enum DataSpec {
    /// Weak scaling: every rank writes this many bytes (synthetic —
    /// sizes move through the simulator, no payload bytes exist).
    Uniform(u64),
    /// Heterogeneous synthetic sizes.
    PerRank(Vec<u64>),
    /// Real-bytes mode: each rank writes these variable blocks as a BP
    /// process group; payloads land in an in-memory object store and the
    /// full index machinery runs. Only supported by the adaptive/stagger
    /// methods (the ones that write the BP format).
    Real(Vec<Vec<VarBlock>>),
}

/// Everything needed for one run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Machine preset (see `storesim::params`).
    pub machine: MachineConfig,
    /// Rank count.
    pub nprocs: usize,
    /// What each rank writes.
    pub data: DataSpec,
    /// Transport method.
    pub method: Method,
    /// Artificial interference.
    pub interference: Interference,
    /// Seed for all stochastic elements.
    pub seed: u64,
}

/// Result of one run.
pub struct RunOutput {
    /// The paper-facing measurements.
    pub result: OutputResult,
    /// The merged global index (real-bytes adaptive runs only).
    pub global_index: Option<GlobalIndex>,
    /// Subfile bytes by name (real-bytes runs only) — usable with
    /// `bpfmt::read_global_f64` for read-back verification.
    pub subfiles: Option<HashMap<String, Vec<u8>>>,
    /// Protocol statistics (adaptive/stagger runs only).
    pub protocol: Option<ProtocolStats>,
    /// Structured failures observed during the run (empty on clean runs).
    pub errors: Vec<SimError>,
    /// Byte-level accounting: always `written + lost == total`.
    pub outcome: WriteOutcome,
    /// Ground truth about silent damage, from the fault injector.
    pub oracle: CorruptionOracle,
    /// Integrity accounting derived from `oracle` and the write records.
    pub integrity: IntegrityOutcome,
}

/// Aggregated protocol statistics of one adaptive run (§III-B3's
/// scalability analysis, measured).
#[derive(Clone, Copy, Debug)]
pub struct ProtocolStats {
    /// Messages the coordinator received (`ScComplete` +
    /// `AdaptiveComplete` + `WritersBusy` + `IndexToC`).
    pub coordinator_inbox: u64,
    /// High-water mark of simultaneous adaptive requests (paper bound:
    /// targets − 1).
    pub max_outstanding_adaptive: usize,
    /// Total messages received across all ranks.
    pub total_messages: u64,
    /// Messages received by the busiest single rank.
    pub busiest_rank_inbox: u64,
    /// Speculative duplicates granted by the coordinator (0 unless the
    /// control loop is on).
    pub spec_granted: u64,
    /// Speculations whose duplicate beat the stuck primary.
    pub spec_won: u64,
    /// Repair traffic: bytes re-landed after a condemned target
    /// destroyed durable data (whole-extent re-execution in this
    /// protocol; the redundancy campaign's `RedundancyReport` reports the
    /// same quantity for its shard plane).
    pub bytes_rewritten: u64,
    /// Of the rewritten bytes, how many were produced by erasure-coded
    /// reconstruction rather than recopying. Always 0 here — the adaptive
    /// protocol repairs by re-execution; EC campaigns
    /// ([`crate::run_redundant`]) fill this in their report.
    pub bytes_reconstructed: u64,
}

impl RunOutput {
    /// Condense this run into one streaming [`SweepSample`] for a
    /// [`SweepSink`].
    ///
    /// A run with no usable write records — or a degenerate zero-length
    /// write span, which a total fault wipe-out can produce — is marked
    /// `failed`: its byte/error counters still accumulate but it
    /// contributes nothing to the distribution metrics (whose extraction
    /// would otherwise divide by zero).
    pub fn sweep_sample(&self, seed: u64) -> SweepSample {
        let r = &self.result;
        let span = r.write_span();
        // Streaming min/max/moment pass over per-writer elapsed times: no
        // intermediate Vec, so warm sweep seeds stay allocation-lean.
        let mut min_t = f64::INFINITY;
        let mut max_t = f64::NEG_INFINITY;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for rec in &r.records {
            let t = rec.elapsed();
            min_t = min_t.min(t);
            max_t = max_t.max(t);
            sum += t;
            sumsq += t * t;
        }
        let failed = r.records.is_empty() || span <= 0.0 || min_t <= 0.0;
        let (bandwidth, write_time_std, imbalance) = if failed {
            (0.0, 0.0, 0.0)
        } else {
            let n = r.records.len() as f64;
            let var = if r.records.len() < 2 {
                0.0
            } else {
                ((sumsq - sum * sum / n) / (n - 1.0)).max(0.0)
            };
            (r.aggregate_bandwidth(), var.sqrt(), max_t / min_t)
        };
        SweepSample {
            seed,
            bandwidth,
            write_span: span,
            write_time_std,
            imbalance,
            total_bytes: self.outcome.written_bytes,
            lost_bytes: self.outcome.lost_bytes,
            errors: self.errors.len() as u64,
            corrupt_records: self.integrity.corrupt_records as u64,
            adaptive_writes: self.result.adaptive_writes as u64,
            failed,
            ost_bytes: r.records.iter().map(|rec| (rec.ost.0 as u32, rec.bytes)).collect(),
        }
    }
}

/// Per-worker scratch arena for seed sweeps: the pooled [`StorageSystem`]
/// (event-queue slabs, per-OST engine state, file table, protocol scratch
/// buffers) that [`RunBase::run_seed_scratch`] resets and reuses across
/// seeds instead of rebuilding.
///
/// The pool is keyed by pointer identity of the [`RunBase`]'s shared
/// [`OutputPlan`]: a scratch handed a different base simply rebuilds cold
/// (correct, just not warm), so one scratch can be carried across
/// heterogeneous sweeps safely. Warm runs are byte-identical to cold ones
/// — the contract pinned by `storesim`'s fresh-vs-reset suite and the
/// sweep determinism tests.
#[derive(Default)]
pub struct RunScratch {
    pooled: Option<(Arc<OutputPlan>, StorageSystem)>,
}

impl RunScratch {
    /// An empty (cold) scratch.
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Take a storage system for one `(base, seed)` replicate: reset the
    /// pooled one in place when it belongs to this `base`, else build
    /// fresh. Returns the system and whether it came back warm (file
    /// table already populated).
    fn storage_for(&mut self, base: &RunBase, seed: u64) -> (StorageSystem, bool) {
        let (mut sys, warm) = match self.pooled.take() {
            Some((plan, mut sys)) if Arc::ptr_eq(&plan, &base.plan) => {
                sys.reset(seed);
                (sys, true)
            }
            _ => (StorageSystem::new(Arc::clone(&base.machine), seed), false),
        };
        if profiling() {
            sys.enable_profiling();
        }
        (sys, warm)
    }

    /// Return a run's storage system to the pool for the next seed.
    fn put_back(&mut self, base: &RunBase, sys: StorageSystem) {
        self.pooled = Some((Arc::clone(&base.plan), sys));
    }
}

/// True when `MANAGED_IO_PROFILE=1`: every run prints a wall-time phase
/// breakdown (client protocol / OST advance / harvest merge / stats) as
/// one minijson object on stdout.
fn profiling() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("MANAGED_IO_PROFILE").is_ok_and(|v| v == "1"))
}

thread_local! {
    /// Wall time this thread spent in post-run stats accounting during the
    /// current profiled run (see [`timed_stats`]).
    static STATS_TIME: std::cell::Cell<std::time::Duration> =
        const { std::cell::Cell::new(std::time::Duration::ZERO) };
}

/// Attribute `f`'s wall time to the profile's `stats` phase (byte/loss
/// accounting, integrity oracle diffing). Free when profiling is off.
fn timed_stats<T>(f: impl FnOnce() -> T) -> T {
    if !profiling() {
        return f();
    }
    let t0 = std::time::Instant::now();
    let r = f();
    STATS_TIME.with(|c| c.set(c.get() + t0.elapsed()));
    r
}

/// Arm the coupled driver profile when `MANAGED_IO_PROFILE=1`.
fn configure_driver<A: Actor>(sim: &mut Simulation<A>) {
    if profiling() {
        sim.enable_driver_profiling();
    }
}

/// Print one `coupled_driver` minijson row: where a coupled run's driver
/// wall time went (cluster dispatch / storage drain / harvest delivery)
/// and how many driver rounds the loop took — the coupled counterpart of
/// the storage-side `in_run` row.
fn emit_driver_profile<A: Actor>(sim: &Simulation<A>, seed: u64) {
    if let Some(p) = sim.driver_profile() {
        let row = minijson::json!({
            "profile": "coupled_driver",
            "seed": seed,
            "cluster_dispatch_s": p.cluster_dispatch_s,
            "storage_drain_s": p.storage_drain_s,
            "harvest_deliver_s": p.harvest_deliver_s,
            "rounds": p.rounds,
        });
        println!("{row}");
    }
}

fn rank_bytes_of(data: &DataSpec, nprocs: usize, integrity: IntegrityOpts) -> Vec<u64> {
    match data {
        DataSpec::Uniform(b) => vec![*b; nprocs],
        DataSpec::PerRank(v) => {
            assert_eq!(v.len(), nprocs);
            v.clone()
        }
        DataSpec::Real(blocks) => {
            assert_eq!(blocks.len(), nprocs);
            blocks
                .iter()
                .map(|b| pg_encoded_size_opts(b, integrity))
                .collect()
        }
    }
}

/// The integrity layout a method writes its PGs in (checked PGs are
/// larger, so plan sizes must agree with the writer's encoding).
fn integrity_of(method: &Method) -> IntegrityOpts {
    match method {
        Method::Adaptive { opts, .. } => opts.integrity,
        _ => IntegrityOpts::default(),
    }
}

fn apply_interference(sim_storage: &mut storesim::StorageSystem, interference: &Interference) {
    let ost_count = sim_storage.config().ost_count;
    match interference {
        Interference::None => {}
        Interference::CompetingStreams {
            osts,
            streams_per_ost,
            bytes,
        } => {
            for o in 0..*osts {
                for _ in 0..*streams_per_ost {
                    sim_storage.add_background_stream(SimTime::ZERO, OstId(o % ost_count), *bytes);
                }
            }
        }
        Interference::BurstyStreams {
            osts,
            streams_per_ost,
            bytes,
            mean_gap,
        } => {
            for o in 0..*osts {
                for _ in 0..*streams_per_ost {
                    sim_storage.add_bursty_stream(
                        SimTime::ZERO,
                        OstId(o % ost_count),
                        *bytes,
                        *mean_gap,
                    );
                }
            }
        }
        Interference::DegradedOsts { osts, factor } => {
            for &o in osts {
                sim_storage.degrade_ost(SimTime::ZERO, OstId(o % ost_count), *factor);
            }
        }
    }
}

/// Execute one fault-free run to completion.
pub fn run(spec: RunSpec) -> RunOutput {
    run_with_faults(spec, FaultConfig::none())
}

/// Execute one run under a [`FaultConfig`]. Storage faults, message-layer
/// faults and rank kills are installed before the run; the result carries
/// structured [`SimError`]s and a [`WriteOutcome`] byte accounting instead
/// of panicking or hanging on failure. With an empty config this is
/// exactly [`run`].
pub fn run_with_faults(spec: RunSpec, faults: FaultConfig) -> RunOutput {
    let seed = spec.seed;
    RunBase::prepare(spec).run_seed_with_faults(seed, &faults)
}

/// Execute one run with an optional tiered-redundancy shard plane.
///
/// With `red.enabled == false` this delegates verbatim to
/// [`run_with_faults`] — same entry point, same RNG streams, so the
/// artifacts are byte-identical to a build without the redundancy module
/// (pinned in `tests/determinism.rs`). With the plane enabled, the base
/// run executes unchanged and the same per-rank payloads are
/// additionally materialized as redundant shards via
/// [`run_redundant`](crate::redundancy::run_redundant) under the same
/// storage fault script; the second element carries that campaign's
/// [`RedundancyReport`](crate::redundancy::RedundancyReport).
pub fn run_with_redundancy(
    spec: RunSpec,
    faults: FaultConfig,
    red: &crate::redundancy::RedundancyOpts,
) -> (RunOutput, Option<crate::redundancy::RedundancyReport>) {
    if !red.enabled {
        return (run_with_faults(spec, faults), None);
    }
    let machine = spec.machine.clone();
    let rank_bytes = rank_bytes_of(&spec.data, spec.nprocs, integrity_of(&spec.method));
    let seed = spec.seed;
    let script = faults.storage.clone();
    let base = run_with_faults(spec, faults);
    let report =
        crate::redundancy::run_redundant(&machine, &rank_bytes, &script, red, seed ^ 0x7EDD_EC01);
    (base, Some(report))
}

/// The seed-independent prefix of a run, built once and shared across a
/// whole campaign sweep.
///
/// A replicate campaign re-runs the same `(machine, workload, method)`
/// point under many seeds; everything but the seed — the machine
/// parameters, the per-rank byte sizes, the [`OutputPlan`] group/target
/// assignment, and (for MPI-IO) the clamped stripe layout — is identical
/// across replicates. [`RunBase::prepare`] computes that prefix once and
/// puts the heavyweight pieces behind [`Arc`], so [`RunBase::run_seed`]
/// and the parallel [`RunBase::run_seed_sweep`] share them instead of
/// rebuilding per replicate.
///
/// Every seeded run is **byte-identical** to the equivalent one-shot
/// [`run`] / [`run_with_faults`] call with that seed (those entry points
/// are now themselves thin wrappers over `prepare` + `run_seed`).
pub struct RunBase {
    machine: Arc<MachineConfig>,
    nprocs: usize,
    data: DataSpec,
    method: Method,
    interference: Interference,
    plan: Arc<OutputPlan>,
    /// MPI-IO precomputed layout: (clamped stripe count, stripe size,
    /// per-rank file offsets).
    mpiio: Option<(usize, u64, Vec<u64>)>,
}

impl RunBase {
    /// Build the shared prefix from a spec (the spec's `seed` field is
    /// ignored — pass seeds to [`RunBase::run_seed`]).
    pub fn prepare(spec: RunSpec) -> RunBase {
        let RunSpec {
            machine,
            nprocs,
            data,
            method,
            interference,
            seed: _,
        } = spec;
        let machine = Arc::new(machine);
        let rank_bytes = rank_bytes_of(&data, nprocs, integrity_of(&method));
        let ost_count = machine.ost_count;
        let (plan, mpiio) = match &method {
            Method::MpiIo { stripe_count } => {
                let stripe_count = (*stripe_count)
                    .min(machine.max_stripe_count)
                    .min(ost_count)
                    .min(nprocs);
                // ADIOS MPI method on Lustre: stripe width = the (largest)
                // per-rank buffer, so each rank's region lands on one target.
                let stripe_size = rank_bytes.iter().copied().max().expect("nprocs > 0").max(1);
                let offsets = stripe_aligned_offsets(&rank_bytes, stripe_size);
                (
                    Arc::new(OutputPlan::new(nprocs, stripe_count, ost_count, rank_bytes)),
                    Some((stripe_count, stripe_size, offsets)),
                )
            }
            Method::Posix { targets }
            | Method::Stagger { targets }
            | Method::Adaptive { targets, .. } => (
                Arc::new(OutputPlan::new(nprocs, *targets, ost_count, rank_bytes)),
                None,
            ),
        };
        RunBase {
            machine,
            nprocs,
            data,
            method,
            interference,
            plan,
            mpiio,
        }
    }

    /// The shared machine parameters.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The shared output plan.
    pub fn plan(&self) -> &OutputPlan {
        &self.plan
    }

    /// Execute one fault-free replicate under `seed`.
    pub fn run_seed(&self, seed: u64) -> RunOutput {
        self.run_seed_with_faults(seed, &FaultConfig::none())
    }

    /// Execute one replicate under `seed` with fault injection.
    pub fn run_seed_with_faults(&self, seed: u64, faults: &FaultConfig) -> RunOutput {
        self.run_seed_scratch(seed, faults, &mut RunScratch::new())
    }

    /// [`RunBase::run_seed_with_faults`] against a reusable
    /// [`RunScratch`]: a warm scratch's storage system is reset in place
    /// instead of rebuilt, so steady-state sweep seeds run without
    /// reallocating the storage layer. Byte-identical to the cold path.
    pub fn run_seed_scratch(
        &self,
        seed: u64,
        faults: &FaultConfig,
        scratch: &mut RunScratch,
    ) -> RunOutput {
        if !profiling() {
            return self.run_seed_inner(seed, faults, scratch);
        }
        STATS_TIME.with(|c| c.set(std::time::Duration::ZERO));
        let t0 = std::time::Instant::now();
        let out = self.run_seed_inner(seed, faults, scratch);
        let total = t0.elapsed().as_secs_f64();
        let stats = STATS_TIME.with(std::cell::Cell::get).as_secs_f64();
        if let Some((_, sys)) = &scratch.pooled {
            if let Some(p) = sys.profile() {
                // Everything not spent advancing OSTs, applying their
                // harvests, or computing stats is the client protocol
                // (actors, MDS, global events).
                let client = (total - p.ost_advance_s - p.harvest_merge_s - stats).max(0.0);
                let row = minijson::json!({
                    "profile": "in_run",
                    "seed": seed,
                    "total_s": total,
                    "client_s": client,
                    "ost_advance_s": p.ost_advance_s,
                    "harvest_merge_s": p.harvest_merge_s,
                    "stats_s": stats,
                    "windows": p.windows,
                    "shard_events": p.shard_events,
                    "global_events": p.global_events,
                });
                println!("{row}");
            }
        }
        out
    }

    fn run_seed_inner(
        &self,
        seed: u64,
        faults: &FaultConfig,
        scratch: &mut RunScratch,
    ) -> RunOutput {
        match &self.method {
            Method::Posix { .. } => run_posix(self, seed, faults, scratch),
            Method::MpiIo { .. } => run_mpiio(self, seed, faults, scratch),
            Method::Stagger { .. } => {
                let opts = AdaptiveOpts {
                    work_stealing: false,
                    stagger_opens: true,
                    ..Default::default()
                };
                run_adaptive(self, seed, opts, faults, scratch)
            }
            Method::Adaptive { opts, .. } => run_adaptive(self, seed, opts.clone(), faults, scratch),
        }
    }

    /// Run a whole seed sweep in parallel (over `MANAGED_IO_THREADS`
    /// workers), sharing this prefix across replicates. Results come back
    /// in seed order and each is byte-identical to a serial
    /// [`RunBase::run_seed`] call.
    pub fn run_seed_sweep(&self, seeds: &[u64]) -> Vec<RunOutput> {
        self.run_seed_sweep_with_faults(seeds, &FaultConfig::none())
    }

    /// [`RunBase::run_seed_sweep`] with fault injection applied to every
    /// replicate.
    pub fn run_seed_sweep_with_faults(&self, seeds: &[u64], faults: &FaultConfig) -> Vec<RunOutput> {
        simcore::par::par_map_with(self, seeds.to_vec(), |base, seed| {
            base.run_seed_with_faults(seed, faults)
        })
    }

    /// An empty [`SweepSink`] sized for this base's machine.
    pub fn sweep_sink(&self) -> SweepSink {
        SweepSink::new(self.machine.ost_count)
    }

    /// Run a fault-free seed sweep, streaming every replicate into
    /// `sink`. See [`RunBase::run_seed_sweep_into_threads`].
    pub fn run_seed_sweep_into(&self, seeds: &[u64], sink: &mut SweepSink) {
        self.run_seed_sweep_into_threads(simcore::par::threads(), seeds, &FaultConfig::none(), sink)
    }

    /// The fleet-sweep entry point: run `seeds` over `nthreads`
    /// work-stealing workers, each carrying a private ([`RunScratch`],
    /// [`SweepSink`]) pair it reuses across every seed it claims, and
    /// merge the per-worker sinks into `sink` at the end.
    ///
    /// Peak memory is flat in the seed count — per-seed [`RunOutput`]s
    /// are condensed to [`SweepSample`]s worker-side and never
    /// materialized as a collection. Because the sink's accumulators are
    /// exactly order-independent, the merged report is byte-identical to
    /// a serial sweep at any thread count, faults included.
    pub fn run_seed_sweep_into_threads(
        &self,
        nthreads: usize,
        seeds: &[u64],
        faults: &FaultConfig,
        sink: &mut SweepSink,
    ) {
        let parts = simcore::par::par_fold_workers_threads(
            nthreads,
            seeds.to_vec(),
            || (RunScratch::new(), self.sweep_sink()),
            |(scratch, local), seed| {
                let out = self.run_seed_scratch(seed, faults, scratch);
                local.add_sample(&out.sweep_sample(seed));
            },
        );
        for (_, local) in &parts {
            sink.merge(local);
        }
    }
}

/// Install the configured faults into a freshly built simulation.
pub(crate) fn install_faults<A: Actor>(sim: &mut Simulation<A>, seed: u64, faults: &FaultConfig) {
    if !faults.storage.is_empty() {
        sim.storage_mut().install_faults(&faults.storage);
    }
    if faults.network.is_some() || !faults.kills.is_empty() {
        let mut plane = FaultPlane::new(seed);
        if let Some(n) = faults.network {
            plane = plane.with_default(LinkFaults::flaky(n.dup_p, n.delay_p, n.delay_mean_secs));
        }
        for &(at, r) in &faults.kills {
            plane = plane.kill_at(at, r);
        }
        sim.install_fault_plane(plane);
    }
}

/// Byte-level accounting: which of each rank's bytes are durably present
/// at run end. A record whose target suffered an error-mode failure after
/// the write landed counts as lost ([`SimError::DataLost`]); a rank with
/// no surviving bytes at all and no destroyed record simply never wrote
/// ([`SimError::RankFailed`]).
fn account(
    storage: &storesim::StorageSystem,
    rank_bytes: &[u64],
    records: &[WriteRecord],
) -> (WriteOutcome, Vec<SimError>) {
    let total: u64 = rank_bytes.iter().sum();
    // One pass over the records into per-rank accumulators. The last
    // destroyed record per rank (in record order) names the OST.
    let mut valid = vec![0u64; rank_bytes.len()];
    let mut destroyed: Vec<Option<usize>> = vec![None; rank_bytes.len()];
    for r in records {
        let rank = r.rank as usize;
        if rank >= rank_bytes.len() {
            continue;
        }
        if storage.ost_lost_data_since(r.ost, r.end) {
            destroyed[rank] = Some(r.ost.0);
        } else {
            valid[rank] += r.bytes;
        }
    }
    let mut written = 0u64;
    let mut errors = Vec::new();
    for (rank, &bytes) in rank_bytes.iter().enumerate() {
        let w = valid[rank].min(bytes);
        written += w;
        let lost = bytes - w;
        if lost > 0 {
            match destroyed[rank] {
                Some(ost) => errors.push(SimError::DataLost {
                    rank: rank as u32,
                    ost,
                    bytes: lost,
                }),
                None => errors.push(SimError::RankFailed {
                    rank: rank as u32,
                    bytes_lost: lost,
                }),
            }
        }
    }
    let outcome = WriteOutcome {
        total_bytes: total,
        written_bytes: written,
        lost_bytes: total - written,
        complete: written == total,
    };
    (outcome, errors)
}

/// Integrity accounting: which surviving write records the corruption
/// oracle has flagged. Destroyed records (their whole target died) count
/// as lost, not corrupt — a loud failure, already in [`account`]'s books.
fn integrity_account(
    storage: &storesim::StorageSystem,
    records: &[WriteRecord],
) -> (CorruptionOracle, IntegrityOutcome, Vec<SimError>) {
    let oracle = storage.integrity_oracle();
    let mut out = IntegrityOutcome {
        oracle_events: oracle.corrupt_count(),
        ..Default::default()
    };
    let mut errors = Vec::new();
    for r in records {
        if storage.ost_lost_data_since(r.ost, r.end) {
            continue;
        }
        if oracle.write_corrupted(r.ost, r.end) {
            out.corrupt_records += 1;
            out.corrupt_bytes += r.bytes;
            errors.push(SimError::DataCorrupted {
                rank: r.rank,
                ost: r.ost.0,
                bytes: r.bytes,
            });
        }
    }
    (oracle, out, errors)
}

fn run_posix(base: &RunBase, seed: u64, faults: &FaultConfig, scratch: &mut RunScratch) -> RunOutput {
    assert!(
        matches!(base.data, DataSpec::Uniform(_) | DataSpec::PerRank(_)),
        "real-bytes mode requires the adaptive/stagger methods"
    );
    let plan = Arc::clone(&base.plan);
    let (mut storage, warm) = scratch.storage_for(base, seed);
    let mut actors = Vec::with_capacity(base.nprocs);
    for r in 0..base.nprocs as u32 {
        // File creation order is deterministic, so a warm scratch's
        // surviving file table maps rank r to FileId(r) directly.
        let file = if warm {
            FileId(r)
        } else {
            let g = plan.group_of[r as usize];
            let ost = plan.ost_of_group[g as usize];
            storage
                .fs_mut()
                .create(format!("ior-{r}.dat"), StripeSpec::Pinned(vec![ost]))
        };
        actors.push(PosixActor::new(r, Arc::clone(&plan), file));
    }
    debug_assert_eq!(storage.fs().file_count(), base.nprocs);
    let mut sim = Simulation::with_storage(Arc::clone(&base.machine), actors, seed, storage);
    apply_interference(sim.storage_mut(), &base.interference);
    install_faults(&mut sim, seed, faults);
    configure_driver(&mut sim);
    let stats = sim.run_until(base.nprocs as u64, RUN_DEADLINE);
    emit_driver_profile(&sim, seed);
    let mut errors = Vec::new();
    if sim.finish_count() < base.nprocs as u64 {
        let pending: Vec<u32> = sim
            .actors()
            .enumerate()
            .filter(|(_, a)| a.closed_at.is_none())
            .map(|(r, _)| r as u32)
            .collect();
        errors.push(SimError::Stalled {
            pending_ranks: pending,
            last_event_time: stats.end_time.as_secs_f64(),
        });
    }
    let mut records: Vec<WriteRecord> = Vec::with_capacity(base.nprocs);
    let mut full_end = SimTime::ZERO;
    for a in sim.actors() {
        if faults.is_empty() {
            assert_eq!(a.records.len(), 1, "rank failed to write");
        }
        records.extend_from_slice(&a.records);
        if let Some(t) = a.closed_at {
            full_end = full_end.max(t);
        }
    }
    if full_end == SimTime::ZERO {
        full_end = stats.end_time;
    }
    records.sort_by_key(|r| r.rank);
    let (mut outcome, account_errors) =
        timed_stats(|| account(sim.storage(), &plan.rank_bytes, &records));
    outcome.complete &= errors.is_empty();
    errors.extend(account_errors);
    let (oracle, integrity, integrity_errors) =
        timed_stats(|| integrity_account(sim.storage(), &records));
    errors.extend(integrity_errors);
    let result = OutputResult::from_partial(records, full_end.as_secs_f64());
    scratch.put_back(base, sim.into_storage());
    RunOutput {
        result,
        global_index: None,
        subfiles: None,
        protocol: None,
        errors,
        outcome,
        oracle,
        integrity,
    }
}

fn run_mpiio(base: &RunBase, seed: u64, faults: &FaultConfig, scratch: &mut RunScratch) -> RunOutput {
    assert!(
        matches!(base.data, DataSpec::Uniform(_) | DataSpec::PerRank(_)),
        "real-bytes mode requires the adaptive/stagger methods"
    );
    let (stripe_count, stripe_size, offsets) =
        base.mpiio.as_ref().expect("prepared MPI-IO layout");
    let (stripe_count, stripe_size) = (*stripe_count, *stripe_size);
    let plan = Arc::clone(&base.plan);
    let (mut storage, warm) = scratch.storage_for(base, seed);
    let file = if warm {
        FileId(0)
    } else {
        storage.create_file_with_stripe_size("shared.bp", StripeSpec::Count(stripe_count), stripe_size)
    };
    let mut actors = Vec::with_capacity(base.nprocs);
    let file_osts = &storage.fs().meta(file).osts;
    for r in 0..base.nprocs as u32 {
        let stripe_idx = (offsets[r as usize] / stripe_size) as usize % file_osts.len();
        actors.push(MpiIoActor::new(
            r,
            Arc::clone(&plan),
            file,
            offsets[r as usize],
            file_osts[stripe_idx],
        ));
    }
    let mut sim = Simulation::with_storage(Arc::clone(&base.machine), actors, seed, storage);
    apply_interference(sim.storage_mut(), &base.interference);
    install_faults(&mut sim, seed, faults);
    configure_driver(&mut sim);
    let stats = sim.run_until(base.nprocs as u64, RUN_DEADLINE);
    emit_driver_profile(&sim, seed);
    let mut errors = Vec::new();
    if sim.finish_count() < base.nprocs as u64 {
        let pending: Vec<u32> = sim
            .actors()
            .enumerate()
            .filter(|(_, a)| a.closed_at.is_none())
            .map(|(r, _)| r as u32)
            .collect();
        errors.push(SimError::Stalled {
            pending_ranks: pending,
            last_event_time: stats.end_time.as_secs_f64(),
        });
    }
    let mut records: Vec<WriteRecord> = Vec::with_capacity(base.nprocs);
    let mut full_end = SimTime::ZERO;
    for a in sim.actors() {
        if faults.is_empty() {
            assert_eq!(a.records.len(), 1, "rank failed to write");
        }
        records.extend_from_slice(&a.records);
        if let Some(t) = a.closed_at {
            full_end = full_end.max(t);
        }
    }
    if full_end == SimTime::ZERO {
        full_end = stats.end_time;
    }
    records.sort_by_key(|r| r.rank);
    let (mut outcome, account_errors) =
        timed_stats(|| account(sim.storage(), &plan.rank_bytes, &records));
    outcome.complete &= errors.is_empty();
    errors.extend(account_errors);
    let (oracle, integrity, integrity_errors) =
        timed_stats(|| integrity_account(sim.storage(), &records));
    errors.extend(integrity_errors);
    let result = OutputResult::from_partial(records, full_end.as_secs_f64());
    scratch.put_back(base, sim.into_storage());
    RunOutput {
        result,
        global_index: None,
        subfiles: None,
        protocol: None,
        errors,
        outcome,
        oracle,
        integrity,
    }
}

fn run_adaptive(
    base: &RunBase,
    seed: u64,
    mut opts: AdaptiveOpts,
    faults: &FaultConfig,
    scratch: &mut RunScratch,
) -> RunOutput {
    // Silent-corruption-only scripts never perturb timing or liveness, so
    // they compose with real-bytes data and need no hardened protocol;
    // every other fault kind forces the hardened protocol and (because the
    // retry paths re-place payloads) synthetic data.
    let silent_only =
        faults.network.is_none() && faults.kills.is_empty() && faults.storage.is_silent_only();
    if !faults.is_empty() && !silent_only {
        assert!(
            matches!(base.data, DataSpec::Uniform(_) | DataSpec::PerRank(_)),
            "fault injection supports synthetic (sizes-only) data"
        );
        // Faults without the hardened protocol would just hang; switch it
        // on (explicit knobs in `opts.fault` are respected as-is).
        opts.fault.enabled = true;
    }
    // The control loop's speculative duplicates re-place payloads the same
    // way retries do, so it is synthetic-data-only too. It does NOT force
    // fault mode: generation fencing alone covers clean-run speculation.
    if opts.control.enabled {
        assert!(
            matches!(base.data, DataSpec::Uniform(_) | DataSpec::PerRank(_)),
            "the control loop supports synthetic (sizes-only) data"
        );
    }
    let plan = Arc::clone(&base.plan);
    let opts = Rc::new(opts);
    let (real_blocks, store) = match &base.data {
        DataSpec::Real(blocks) => (
            Some(blocks.clone()),
            Some(Rc::new(RefCell::new(ObjectStore::new()))),
        ),
        _ => (None, None),
    };
    let (mut storage, warm) = scratch.storage_for(base, seed);
    let mut files = Vec::with_capacity(plan.targets);
    let gidx_file = if warm {
        // Deterministic creation order: group g → FileId(g), then the
        // global index file right after.
        for g in 0..plan.targets {
            files.push(FileId(g as u32));
        }
        FileId(plan.targets as u32)
    } else {
        for g in 0..plan.targets {
            let ost = plan.ost_of_group[g];
            files.push(
                storage
                    .fs_mut()
                    .create(format!("sub-{g}.bp"), StripeSpec::Pinned(vec![ost])),
            );
        }
        storage
            .fs_mut()
            .create("global-index.bp", StripeSpec::Pinned(vec![OstId(0)]))
    };
    debug_assert_eq!(storage.fs().file_count(), plan.targets + 1);
    let files = Rc::new(files);
    let mut actors = Vec::with_capacity(base.nprocs);
    for r in 0..base.nprocs as u32 {
        let blocks = real_blocks.as_ref().map(|b| b[r as usize].clone());
        actors.push(AdaptiveActor::new(
            r,
            Arc::clone(&plan),
            Rc::clone(&opts),
            Rc::clone(&files),
            gidx_file,
            blocks,
            store.clone(),
            0,
        ));
    }
    let mut sim = Simulation::with_storage(Arc::clone(&base.machine), actors, seed, storage);
    apply_interference(sim.storage_mut(), &base.interference);
    install_faults(&mut sim, seed, faults);
    configure_driver(&mut sim);
    // The coordinator's single finish signal marks the whole operation
    // (data + local indices + global index) durable.
    let stats = sim.run_until(1, RUN_DEADLINE);
    emit_driver_profile(&sim, seed);
    let coordinator = sim.actor(clustersim::Rank(0));
    let finished = coordinator.finished_at();
    if faults.is_empty() || silent_only {
        assert!(
            finished.is_some(),
            "adaptive protocol stalled: coordinator never finished"
        );
    }
    let global_index = coordinator.global_index().cloned();
    let max_outstanding = coordinator.max_outstanding().unwrap_or(0);
    let (spec_granted, spec_won) = coordinator.spec_stats().unwrap_or((0, 0));
    let mut errors = Vec::new();
    if finished.is_none() {
        let mut pending: Vec<u32> = sim
            .actors()
            .enumerate()
            .filter(|(_, a)| a.records.is_empty())
            .map(|(r, _)| r as u32)
            .collect();
        if pending.is_empty() {
            pending.push(0); // everyone wrote; the coordinator wrap-up hung
        }
        errors.push(SimError::Stalled {
            pending_ranks: pending,
            last_event_time: stats.end_time.as_secs_f64(),
        });
    }
    let full_end = finished.unwrap_or(stats.end_time);
    let mut records: Vec<WriteRecord> = Vec::with_capacity(base.nprocs);
    let mut total_messages = 0u64;
    let mut busiest = 0u64;
    let mut coordinator_inbox = 0u64;
    let mut bytes_rewritten = 0u64;
    for a in sim.actors() {
        if faults.is_empty() || silent_only {
            assert_eq!(a.records.len(), 1, "rank failed to write exactly once");
        }
        records.extend_from_slice(&a.records);
        let s: MsgStats = a.msg_stats;
        total_messages += s.total();
        busiest = busiest.max(s.total());
        coordinator_inbox += s.coordinator_inbox;
        bytes_rewritten += a.rewritten_bytes;
    }
    records.sort_by_key(|r| r.rank);
    let protocol = Some(ProtocolStats {
        coordinator_inbox,
        max_outstanding_adaptive: max_outstanding,
        total_messages,
        busiest_rank_inbox: busiest,
        spec_granted,
        spec_won,
        bytes_rewritten,
        bytes_reconstructed: 0,
    });
    let (mut outcome, account_errors) =
        timed_stats(|| account(sim.storage(), &plan.rank_bytes, &records));
    outcome.complete &= errors.is_empty();
    errors.extend(account_errors);
    let (oracle, integrity, integrity_errors) =
        timed_stats(|| integrity_account(sim.storage(), &records));
    errors.extend(integrity_errors);
    scratch.put_back(base, sim.into_storage());
    // Materialise subfile bytes for read-back verification.
    let mut subfiles = store.map(|store| {
        let store = store.borrow();
        let mut out = HashMap::new();
        for (g, &f) in files.iter().enumerate() {
            let size = store.size(f);
            if size > 0 {
                let bytes = store.get(f, 0, size).expect("full file readable").to_vec();
                out.insert(format!("sub-{g}.bp"), bytes);
            }
        }
        out
    });
    // Real-bytes runs: make the oracle's silent damage real — flip one
    // seeded bit inside the payload region of every corrupted record, so
    // verify-on-read genuinely has something to catch.
    if let Some(subfiles) = subfiles.as_mut() {
        for r in &records {
            if !oracle.write_corrupted(r.ost, r.end) {
                continue;
            }
            let Some(g) = files.iter().position(|&f| f == r.file) else {
                continue;
            };
            if let Some(bytes) = subfiles.get_mut(&format!("sub-{g}.bp")) {
                // The last byte of a PG region belongs to its final
                // block's payload; pick the flipped bit from the seed so
                // distinct runs damage distinct bits.
                let at = (r.offset + r.bytes - 1) as usize;
                if at < bytes.len() {
                    let bit = (seed ^ u64::from(r.rank) ^ r.offset) % 8;
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }
    let result = OutputResult::from_partial(records, full_end.as_secs_f64());
    RunOutput {
        result,
        global_index,
        subfiles,
        protocol,
        errors,
        outcome,
        oracle,
        integrity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storesim::params::testbed;
    use storesim::{FailMode, FaultScript};

    fn rec(rank: u32, ost: usize, bytes: u64, end: f64) -> WriteRecord {
        WriteRecord {
            rank,
            bytes,
            start: SimTime::ZERO,
            end: SimTime::from_secs_f64(end),
            ost: OstId(ost),
            file: FileId(0),
            offset: 0,
            adaptive: false,
        }
    }

    /// Rank 0 has two destroyed records on different OSTs, interleaved
    /// with rank 1's records: `DataLost` names the later one in record
    /// order, each rank's surviving bytes are its own, and a rank with
    /// no records at all fails as a whole.
    #[test]
    fn account_names_last_destroyed_ost_per_rank() {
        let mut storage = StorageSystem::new(testbed(), 1);
        storage.install_faults(
            &FaultScript::none()
                .fail_ost(1.0, 2, FailMode::Error, None)
                .fail_ost(1.0, 5, FailMode::Error, None),
        );
        storage.advance_to(SimTime::from_secs_f64(2.0));
        let records = [
            rec(0, 2, 10, 0.1), // destroyed
            rec(1, 0, 40, 0.2),
            rec(0, 1, 30, 0.3),
            rec(1, 2, 20, 0.4), // destroyed
            rec(0, 5, 15, 0.5), // destroyed, rank 0's last
            rec(1, 3, 5, 0.6),
        ];
        let (outcome, errors) = account(&storage, &[60, 70, 8], &records);
        assert_eq!(
            errors,
            vec![
                SimError::DataLost {
                    rank: 0,
                    ost: 5,
                    bytes: 30,
                },
                SimError::DataLost {
                    rank: 1,
                    ost: 2,
                    bytes: 25,
                },
                SimError::RankFailed {
                    rank: 2,
                    bytes_lost: 8,
                },
            ]
        );
        assert_eq!(
            outcome,
            WriteOutcome {
                total_bytes: 138,
                written_bytes: 75,
                lost_bytes: 63,
                complete: false,
            }
        );
    }
}
