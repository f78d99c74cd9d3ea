//! Determinism of the parallel replicate runner: campaign results for a
//! given seed must be byte-identical whether replicates run serially
//! (`MANAGED_IO_THREADS=1`) or fanned out across worker threads. The
//! merge is in seed order and each replicate owns its RNG, so thread
//! scheduling must never leak into artifacts.

use managed_io::adios::{
    run, run_with_faults, AdaptiveOpts, DataSpec, FaultConfig, Interference, Method, NetFaults,
    OutputResult, RunSpec,
};
use managed_io::iostats::Summary;
use managed_io::minijson::{json, Value};
use managed_io::simcore::par::{par_map_threads, THREADS_ENV};
use managed_io::simcore::units::MIB;
use managed_io::storesim::params::testbed;
use managed_io::workloads::campaign::{bandwidth_summary, mean_write_time_std, sample_results};

const SEED: u64 = 0xD15EA5E;

fn replicate(seed: u64) -> OutputResult {
    run(RunSpec {
        machine: testbed(),
        nprocs: 24,
        data: DataSpec::Uniform(4 * MIB),
        method: Method::Adaptive {
            targets: 6,
            opts: AdaptiveOpts::default(),
        },
        interference: Interference::None,
        seed,
    })
    .result
}

/// Serialize everything an artifact row could carry — every record field
/// and the derived summaries — so the comparison is byte-exact, not
/// approximate.
fn artifact(results: &[OutputResult]) -> String {
    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            let records: Vec<Value> = r
                .records
                .iter()
                .map(|w| {
                    json!({
                        "rank": w.rank,
                        "bytes": w.bytes,
                        "start_ns": w.start.as_nanos(),
                        "end_ns": w.end.as_nanos(),
                        "ost": w.ost.0,
                        "file": w.file.0,
                        "offset": w.offset,
                        "adaptive": w.adaptive,
                    })
                })
                .collect();
            json!({
                "total_bytes": r.total_bytes,
                "adaptive_writes": r.adaptive_writes,
                "write_time_summary": Summary::of(&r.per_writer_times()).to_json(),
                "records": Value::Arr(records),
            })
        })
        .collect();
    format!(
        "{}",
        json!({
            "bandwidth": bandwidth_summary(results).to_json(),
            "write_time_std": mean_write_time_std(results),
            "samples": Value::Arr(rows),
        })
    )
}

/// Core property: explicit 1-thread and 4-thread fan-outs of the same
/// seeded replicates produce byte-identical artifacts.
#[test]
fn parallel_replicates_match_serial_bytes() {
    let seeds: Vec<u64> = (0..6).map(|i| SEED + i).collect();
    let serial = par_map_threads(1, seeds.clone(), replicate);
    let parallel = par_map_threads(4, seeds, replicate);
    let (a, b) = (artifact(&serial), artifact(&parallel));
    assert!(!a.is_empty());
    assert_eq!(a, b, "thread count leaked into campaign artifacts");
}

/// A replicate under a full fault cocktail: a per-seed random storage
/// script, lossy control network, and a mid-run rank kill. The run may
/// lose bytes — what must not vary is anything at all.
fn replicate_faulted(seed: u64) -> OutputResult {
    let faults = FaultConfig {
        storage: managed_io::storesim::FaultScript::random(seed ^ 0x0BAD_F00D, 6, 2.0, 3),
        network: Some(NetFaults {
            dup_p: 0.15,
            delay_p: 0.15,
            delay_mean_secs: 0.03,
        }),
        kills: vec![(0.8, 9)],
    };
    run_with_faults(
        RunSpec {
            machine: testbed(),
            nprocs: 24,
            data: DataSpec::Uniform(32 * MIB),
            method: Method::Adaptive {
                targets: 6,
                opts: AdaptiveOpts::default(),
            },
            interference: Interference::None,
            seed,
        },
        faults,
    )
    .result
}

/// Fault injection must not break replicate determinism: the fault RNG
/// streams are seeded per replicate, so faulted campaigns fan out across
/// threads with byte-identical artifacts too.
#[test]
fn faulted_replicates_match_serial_bytes() {
    let seeds: Vec<u64> = (0..4).map(|i| SEED ^ (0xF << 8) ^ i).collect();
    let serial = par_map_threads(1, seeds.clone(), replicate_faulted);
    let parallel = par_map_threads(4, seeds, replicate_faulted);
    let (a, b) = (artifact(&serial), artifact(&parallel));
    assert!(!a.is_empty());
    assert_eq!(a, b, "thread count leaked into faulted campaign artifacts");
}

/// Opting out of the checked layout is the pre-integrity behaviour,
/// exactly: `IntegrityOpts::off()` (also the default) produces artifacts
/// byte-identical to default opts, and with Real data the materialised
/// subfile bytes are identical too — the integrity feature costs nothing
/// unless switched on.
#[test]
fn integrity_off_is_byte_identical_to_default() {
    use managed_io::bpfmt::IntegrityOpts;
    use managed_io::workloads::pixie3d::Pixie3dConfig;
    let cfg = Pixie3dConfig { cube: 5, nprocs: 16 };
    let mut rng = managed_io::simcore::Rng::new(77);
    let blocks: Vec<_> = (0..16).map(|r| cfg.blocks_of(r, &mut rng)).collect();
    let spec = |integrity| RunSpec {
        machine: testbed(),
        nprocs: 16,
        data: DataSpec::Real(blocks.clone()),
        method: Method::Adaptive {
            targets: 4,
            opts: AdaptiveOpts {
                integrity,
                ..Default::default()
            },
        },
        interference: Interference::None,
        seed: SEED ^ 0x1F,
    };
    let base = run(spec(IntegrityOpts::default()));
    let off = run(spec(IntegrityOpts::off()));
    assert_eq!(
        artifact(std::slice::from_ref(&base.result)),
        artifact(std::slice::from_ref(&off.result)),
        "IntegrityOpts::off() changed the timeline"
    );
    let (base_files, off_files) = (base.subfiles.unwrap(), off.subfiles.unwrap());
    assert_eq!(base_files.len(), off_files.len());
    for (name, bytes) in &base_files {
        assert_eq!(Some(bytes), off_files.get(name), "subfile {name} differs");
    }
    // Switching integrity ON must also be deterministic, and visibly
    // different (checksummed layout is larger on the wire).
    let on1 = run(spec(IntegrityOpts::on()));
    let on2 = run(spec(IntegrityOpts::on()));
    assert_eq!(
        artifact(std::slice::from_ref(&on1.result)),
        artifact(std::slice::from_ref(&on2.result))
    );
    assert!(on1.result.total_bytes > base.result.total_bytes);
}

/// A disabled control loop is free, exactly: however aggressive the
/// knobs, `enabled: false` produces artifacts byte-identical to default
/// opts — no timers, no control messages, no tuner. And the enabled
/// loop is itself deterministic run-to-run.
#[test]
fn control_off_is_byte_identical_to_default() {
    use managed_io::adios::ControlOpts;
    let spec = |control| RunSpec {
        machine: testbed(),
        nprocs: 24,
        data: DataSpec::Uniform(8 * MIB),
        method: Method::Adaptive {
            targets: 6,
            opts: AdaptiveOpts {
                control,
                ..Default::default()
            },
        },
        interference: Interference::None,
        seed: SEED ^ 0x3F,
    };
    let aggressive_but_off = ControlOpts {
        enabled: false,
        epoch_secs: 0.1,
        straggler_factor: 1.1,
        min_samples: 1,
        spec_deadline_factor: 1.1,
        max_queue_depth: 16,
        ..ControlOpts::default()
    };
    let base = run(spec(ControlOpts::default()));
    let off = run(spec(aggressive_but_off));
    assert_eq!(
        artifact(std::slice::from_ref(&base.result)),
        artifact(std::slice::from_ref(&off.result)),
        "a disabled control loop changed the timeline"
    );
    let on1 = run(spec(ControlOpts::enabled()));
    let on2 = run(spec(ControlOpts::enabled()));
    assert_eq!(
        artifact(std::slice::from_ref(&on1.result)),
        artifact(std::slice::from_ref(&on2.result)),
        "the enabled control loop is nondeterministic"
    );
}

/// A silent-corruption-only fault script never perturbs the timeline:
/// the corruption RNG is an isolated stream and corruption windows
/// schedule no queue events, so the dirty run's records are
/// byte-identical to the clean run's — only the oracle differs.
#[test]
fn silent_corruption_leaves_timeline_identical() {
    let spec = || RunSpec {
        machine: testbed(),
        nprocs: 24,
        data: DataSpec::Uniform(8 * MIB),
        method: Method::Adaptive {
            targets: 6,
            opts: AdaptiveOpts::default(),
        },
        interference: Interference::None,
        seed: SEED ^ 0x2F,
    };
    let clean = run(spec());
    let dirty = run_with_faults(
        spec(),
        FaultConfig {
            storage: managed_io::storesim::FaultScript::none()
                .silent_corruption(0.0, 0, None, 0.5)
                .silent_corruption(1.0, 3, Some(60.0), 1.0),
            ..Default::default()
        },
    );
    assert!(
        dirty.integrity.corrupt_records > 0,
        "the script must actually corrupt something"
    );
    assert_eq!(
        artifact(std::slice::from_ref(&clean.result)),
        artifact(std::slice::from_ref(&dirty.result)),
        "silent corruption leaked into the timeline"
    );
}

/// The shared-prefix sweep path: `RunBase::prepare` once + parallel
/// `run_seed_sweep` must be byte-identical to independent one-shot
/// `run()` calls per seed — including the materialised subfile bytes of
/// a real-data integrity-enabled run, the strictest artifact we have.
#[test]
fn run_base_sweep_matches_one_shot_runs() {
    use managed_io::adios::RunBase;
    use managed_io::bpfmt::IntegrityOpts;
    use managed_io::workloads::pixie3d::Pixie3dConfig;
    let cfg = Pixie3dConfig { cube: 5, nprocs: 16 };
    let mut rng = managed_io::simcore::Rng::new(91);
    let blocks: Vec<_> = (0..16).map(|r| cfg.blocks_of(r, &mut rng)).collect();
    let spec = |seed| RunSpec {
        machine: testbed(),
        nprocs: 16,
        data: DataSpec::Real(blocks.clone()),
        method: Method::Adaptive {
            targets: 4,
            opts: AdaptiveOpts {
                integrity: IntegrityOpts::on(),
                ..Default::default()
            },
        },
        interference: Interference::None,
        seed,
    };
    let seeds: Vec<u64> = (0..4).map(|i| SEED ^ 0x5EED ^ i).collect();
    let base = RunBase::prepare(spec(0));
    let swept = base.run_seed_sweep(&seeds);
    for (seed, shared) in seeds.iter().zip(&swept) {
        let solo = run(spec(*seed));
        assert_eq!(
            artifact(std::slice::from_ref(&solo.result)),
            artifact(std::slice::from_ref(&shared.result)),
            "shared-prefix sweep changed the timeline for seed {seed:#x}"
        );
        let (a, b) = (solo.subfiles.unwrap(), shared.subfiles.as_ref().unwrap());
        assert_eq!(a.len(), b.len());
        for (name, bytes) in &a {
            assert_eq!(Some(bytes), b.get(name), "subfile {name} differs");
        }
    }
}

/// The faulted sweep path: one fault config fanned across seeds through
/// `run_seed_sweep_with_faults` matches per-seed `run_with_faults`.
#[test]
fn run_base_faulted_sweep_matches_one_shot_runs() {
    use managed_io::adios::RunBase;
    let faults = FaultConfig {
        storage: managed_io::storesim::FaultScript::random(0x0BAD_F00D, 6, 2.0, 3),
        network: Some(NetFaults {
            dup_p: 0.1,
            delay_p: 0.1,
            delay_mean_secs: 0.02,
        }),
        kills: vec![(0.9, 5)],
    };
    let spec = |seed| RunSpec {
        machine: testbed(),
        nprocs: 16,
        data: DataSpec::Uniform(8 * MIB),
        method: Method::Adaptive {
            targets: 4,
            opts: AdaptiveOpts::default(),
        },
        interference: Interference::None,
        seed,
    };
    let seeds: Vec<u64> = (0..3).map(|i| SEED ^ 0xFA17 ^ i).collect();
    let base = RunBase::prepare(spec(0));
    let swept = base.run_seed_sweep_with_faults(&seeds, &faults);
    let solo: Vec<OutputResult> = seeds
        .iter()
        .map(|&s| run_with_faults(spec(s), faults.clone()).result)
        .collect();
    let shared: Vec<OutputResult> = swept.into_iter().map(|o| o.result).collect();
    assert_eq!(
        artifact(&solo),
        artifact(&shared),
        "shared-prefix faulted sweep diverged from one-shot runs"
    );
}

/// The env-driven path (`MANAGED_IO_THREADS`) that the fig1/fig7 and
/// campaign harnesses use: summaries are byte-identical under 1 vs 4
/// worker threads. This is the only test in this binary that touches the
/// env var, so there is no cross-test race.
#[test]
fn campaign_summaries_identical_across_thread_counts() {
    let run_campaign = || {
        let rs = sample_results(
            &testbed(),
            16,
            2 * MIB,
            &Method::Adaptive {
                targets: 4,
                opts: AdaptiveOpts::default(),
            },
            &Interference::None,
            5,
            SEED,
        );
        artifact(&rs)
    };
    std::env::set_var(THREADS_ENV, "1");
    let serial = run_campaign();
    std::env::set_var(THREADS_ENV, "4");
    let parallel = run_campaign();
    std::env::remove_var(THREADS_ENV);
    assert_eq!(serial, parallel, "MANAGED_IO_THREADS changed the artifact");
}

/// FNV-1a, 64-bit: the digest behind the recorded pins below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The full fault cocktail: a random storage script, a lossy control
/// network and a mid-run rank kill.
fn cocktail(storage_seed: u64) -> FaultConfig {
    FaultConfig {
        storage: managed_io::storesim::FaultScript::random(storage_seed, 6, 2.0, 3),
        network: Some(NetFaults {
            dup_p: 0.15,
            delay_p: 0.15,
            delay_mean_secs: 0.03,
        }),
        kills: vec![(0.8, 9)],
    }
}

/// Digest of `n` warm replicates (`seed_mix ^ i`) through one scratch.
/// The digests are for the default engine; see `tests/driver_pins.rs`.
fn warm_digest(
    interference: Interference,
    bytes: u64,
    faults: &FaultConfig,
    seed_mix: u64,
    n: u64,
) -> u64 {
    use managed_io::adios::{RunBase, RunScratch};
    let base = RunBase::prepare(RunSpec {
        machine: testbed(),
        nprocs: 24,
        data: DataSpec::Uniform(bytes),
        method: Method::Adaptive {
            targets: 6,
            opts: AdaptiveOpts::default(),
        },
        interference,
        seed: 0,
    });
    let mut scratch = RunScratch::new();
    let results: Vec<OutputResult> = (0..n)
        .map(|i| {
            base.run_seed_scratch(seed_mix ^ i, faults, &mut scratch)
                .result
        })
        .collect();
    fnv1a64(artifact(&results).as_bytes())
}

/// Warm replicates under paper-default interference reproduce their
/// recorded artifact digest.
#[test]
fn interference_replicates_match_recorded_digest() {
    let got = warm_digest(
        Interference::paper_default(),
        4 * MIB,
        &FaultConfig::none(),
        SEED ^ 0x54AD,
        3,
    );
    assert_eq!(
        got, 0xed9e69889f15c5a6,
        "artifact digest moved: now 0x{got:016x}"
    );
}

/// Warm replicates under the full fault cocktail reproduce their
/// recorded artifact digest: damaged timelines are pinned too.
#[test]
fn faulted_cocktail_replicates_match_recorded_digest() {
    let got = warm_digest(
        Interference::None,
        32 * MIB,
        &cocktail(0x5EED_FA17),
        SEED ^ 0xFA57,
        2,
    );
    assert_eq!(
        got, 0xe8d79491d89b9254,
        "artifact digest moved: now 0x{got:016x}"
    );
}

/// A second cocktail draw (different storage script and seeds), so one
/// lucky timeline cannot carry the faulted pin alone.
#[test]
fn second_faulted_cocktail_replicates_match_recorded_digest() {
    let got = warm_digest(
        Interference::None,
        32 * MIB,
        &cocktail(0x1_00CA_4EAD),
        SEED ^ 0x10CA,
        2,
    );
    assert_eq!(
        got, 0xdd4b3d08a3a1513f,
        "artifact digest moved: now 0x{got:016x}"
    );
}

/// A disabled redundancy plane is free, exactly: however aggressive the
/// knobs, `enabled: false` delegates verbatim to the plain faulted run —
/// no shard campaign, no extra RNG draws, byte-identical artifacts. And
/// the enabled plane is itself deterministic run-to-run.
#[test]
fn redundancy_off_is_byte_identical_to_default() {
    use managed_io::adios::redundancy::RedundancyOpts;
    use managed_io::adios::run_with_redundancy;
    use managed_io::bpfmt::RedundancyPolicy;
    use managed_io::storesim::fault::{FailMode, FaultScript};

    let spec = || RunSpec {
        machine: testbed(),
        nprocs: 24,
        data: DataSpec::Uniform(8 * MIB),
        method: Method::Adaptive {
            targets: 6,
            opts: AdaptiveOpts::default(),
        },
        interference: Interference::None,
        seed: SEED ^ 0xEC,
    };
    let faults = || FaultConfig {
        storage: FaultScript::none().fail_ost(1.0, 2, FailMode::Error, None),
        ..FaultConfig::none()
    };
    let aggressive_but_off = RedundancyOpts {
        enabled: false,
        policy: RedundancyPolicy::Ec { k: 8, m: 2 },
        rebuild: true,
        avoid_osts: vec![0, 1],
        rebuild_workers: 16,
        ..RedundancyOpts::off()
    };
    let base = run_with_faults(spec(), faults());
    let (off, off_report) = run_with_redundancy(spec(), faults(), &aggressive_but_off);
    assert!(off_report.is_none(), "a disabled plane must not run a campaign");
    assert_eq!(
        artifact(std::slice::from_ref(&base.result)),
        artifact(std::slice::from_ref(&off.result)),
        "a disabled redundancy plane changed the timeline"
    );
    let on_opts = RedundancyOpts::with_policy(RedundancyPolicy::Ec { k: 4, m: 2 });
    let (on1, rep1) = run_with_redundancy(spec(), faults(), &on_opts);
    let (on2, rep2) = run_with_redundancy(spec(), faults(), &on_opts);
    assert_eq!(
        artifact(std::slice::from_ref(&on1.result)),
        artifact(std::slice::from_ref(&on2.result)),
        "the base run must not feel the shard plane"
    );
    assert_eq!(
        artifact(std::slice::from_ref(&base.result)),
        artifact(std::slice::from_ref(&on1.result)),
        "the shard plane must ride alongside, not perturb, the base run"
    );
    assert_eq!(
        format!("{:?}", rep1.expect("enabled plane reports")),
        format!("{:?}", rep2.expect("enabled plane reports")),
        "the shard campaign is nondeterministic"
    );
}
