//! Absolute output pins for the coupled driver loop.
//!
//! Every cell runs a small testbed campaign under one fault family and
//! one transport method, serializes everything the driver loop could
//! plausibly perturb (the full completion stream, the protocol counters,
//! the corruption oracle and the integrity outcome) and compares an
//! FNV-1a-64 digest of that artifact with a recorded value. A change to
//! event ordering, tie-breaking or completion delivery anywhere in the
//! coupled cluster/storage stack moves at least one digest.
//!
//! The digests are for the default engine (the virtual-time OST model).
//! The reference settle-loop engine (`--features
//! storesim/baseline-engine`) rounds differently and is not pinned here.
//!
//! Regenerating a digest is a behaviour change: do it only when a change
//! is meant to move simulated output, and say so in CHANGES.md.

use managed_io::adios::{
    AdaptiveOpts, DataSpec, FaultConfig, Interference, Method, NetFaults, RunBase, RunOutput,
    RunScratch, RunSpec,
};
use managed_io::minijson::{json, Value};
use managed_io::simcore::units::MIB;
use managed_io::storesim::fault::FaultScript;
use managed_io::storesim::params::testbed;

const SEED: u64 = 0xC0_FFEE;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything a coupled run produces that the driver loop could
/// plausibly perturb, byte-exact.
fn artifact(outs: &[RunOutput]) -> String {
    let rows: Vec<Value> = outs
        .iter()
        .map(|o| {
            let records: Vec<Value> = o
                .result
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
                "total_bytes": o.result.total_bytes,
                "full_span": o.result.full_span,
                "records": Value::Arr(records),
                "protocol": format!("{:?}", o.protocol),
                "oracle": format!("{:?}", o.oracle),
                "integrity": format!("{:?}", o.integrity),
                "outcome": format!("{:?}", o.outcome),
                "errors": format!("{:?}", o.errors),
            })
        })
        .collect();
    format!("{}", Value::Arr(rows))
}

/// The fault families of the paper's variability taxonomy, one scenario
/// each: interference dips (brownout), a persistently slow target
/// (limping), a multi-target failure domain (correlated loss with
/// recovery), and a client death mid-run (rank kill — exercises the
/// evaporation path). Every fault fires early enough to land inside
/// the shortest (Posix) run, so each family moves its cell's digest.
fn scenarios() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("clean", FaultConfig::none()),
        (
            "brownout",
            FaultConfig {
                storage: FaultScript::none().brownout(0.02, 1, 0.25, 1.5),
                ..FaultConfig::none()
            },
        ),
        (
            "limping",
            FaultConfig {
                storage: FaultScript::none().limping(0.02, 2, 0.2),
                ..FaultConfig::none()
            },
        ),
        (
            "correlated-loss",
            FaultConfig {
                storage: FaultScript::none().correlated_loss(0.05, 1, 3, Some(2.0)),
                ..FaultConfig::none()
            },
        ),
        (
            "rank-kill",
            FaultConfig {
                kills: vec![(0.05, 7)],
                ..FaultConfig::none()
            },
        ),
    ]
}

fn base(method: Method) -> RunBase {
    RunBase::prepare(RunSpec {
        machine: testbed(),
        nprocs: 24,
        data: DataSpec::Uniform(8 * MIB),
        method,
        interference: Interference::paper_default(),
        seed: 0,
    })
}

fn adaptive() -> Method {
    Method::Adaptive {
        targets: 6,
        opts: AdaptiveOpts::default(),
    }
}

/// Digest of two warm seeds through one scratch.
fn digest(base: &RunBase, faults: &FaultConfig) -> u64 {
    let mut scratch = RunScratch::new();
    let outs: Vec<RunOutput> = (0..2)
        .map(|i| base.run_seed_scratch(SEED + i, faults, &mut scratch))
        .collect();
    fnv1a64(artifact(&outs).as_bytes())
}

/// Compare every `(cell, digest)` with its recorded pin; on any mismatch
/// fail with the whole table, so a deliberate re-pin is one paste.
fn check(got: &[(String, u64)], pins: &[(&str, u64)]) {
    let recorded: Vec<(String, u64)> = pins.iter().map(|&(c, d)| (c.to_string(), d)).collect();
    if got != recorded.as_slice() {
        let table: String = got
            .iter()
            .map(|(c, d)| format!("    (\"{c}\", 0x{d:016x}),\n"))
            .collect();
        panic!("driver output moved; digests now:\n{table}");
    }
}

fn family_matrix(method: &str, m: Method) -> Vec<(String, u64)> {
    let base = base(m);
    scenarios()
        .into_iter()
        .map(|(family, faults)| (format!("{method}/{family}"), digest(&base, &faults)))
        .collect()
}

/// Every fault family under the adaptive protocol.
#[test]
fn adaptive_fault_families_match_recorded_digests() {
    check(
        &family_matrix("adaptive", adaptive()),
        &[
            ("adaptive/clean", 0xf19f71036b2b917d),
            ("adaptive/brownout", 0x818c9ae5550fc1b1),
            ("adaptive/limping", 0x451729de224ef629),
            ("adaptive/correlated-loss", 0x9772f02508997f5b),
            ("adaptive/rank-kill", 0x6317af7bd66ae095),
        ],
    );
}

/// Every fault family under the two fixed-placement transports.
#[test]
fn posix_and_mpiio_fault_families_match_recorded_digests() {
    let mut got = family_matrix("posix", Method::Posix { targets: 6 });
    got.extend(family_matrix("mpiio", Method::MpiIo { stripe_count: 4 }));
    check(
        &got,
        &[
            ("posix/clean", 0x7954a673bc56ca7f),
            ("posix/brownout", 0x11a00b374b0bac0d),
            ("posix/limping", 0xceb52a42452371db),
            ("posix/correlated-loss", 0xa5e0f828399af935),
            ("posix/rank-kill", 0x8a4efafeb6c205dd),
            ("mpiio/clean", 0x94adc0fcd0663e4d),
            ("mpiio/brownout", 0x091f0714ce1a783d),
            ("mpiio/limping", 0x0d66704005d9c37f),
            ("mpiio/correlated-loss", 0x0e935b4138685821),
            ("mpiio/rank-kill", 0x25190b13183cd125),
        ],
    );
}

/// A lossy control network: message duplication and delay reshuffle the
/// cluster-event timeline, so the driver's storage-first tie rule and
/// same-round cluster dispatch run on a timeline dense with coincidences.
#[test]
fn network_fault_cocktail_matches_recorded_digest() {
    let faults = FaultConfig {
        storage: FaultScript::random(0xD05_FA17, 6, 2.0, 3),
        network: Some(NetFaults {
            dup_p: 0.15,
            delay_p: 0.15,
            delay_mean_secs: 0.03,
        }),
        kills: vec![(0.08, 9)],
    };
    let got = vec![(
        "adaptive/cocktail".to_string(),
        digest(&base(adaptive()), &faults),
    )];
    check(&got, &[("adaptive/cocktail", 0x3d4de7661caa8cbb)]);
}
