//! The storage-target (OST) model: a processor-sharing server with a
//! write-back cache, per-stream caps, fixed request overheads, contention
//! penalties, and an external-noise slowdown factor.
//!
//! ## Service model
//!
//! Each in-flight request is a *stream* in one of two lanes:
//!
//! * **Cache lane** — the request fit in the write-back cache at admission.
//!   Streams share the cache-ingest bandwidth (`ingest_eff(k) / k` each,
//!   capped per stream).
//! * **Disk lane** — the cache could not absorb the request (or it is a
//!   read / forced-direct write). Streams share the effective disk
//!   bandwidth (`disk_eff(n) / n` each, capped per stream). `disk_eff`
//!   *declines* as streams are added — this is the paper's internal
//!   interference.
//!
//! Both lanes are additionally scaled by the current external-noise factor
//! (≤ 1), which models other jobs stealing server throughput — the paper's
//! external interference.
//!
//! Every request first burns a fixed `request_overhead` (RPC setup) before
//! transferring bytes.
//!
//! The model is *fluid*: between state changes (arrival, departure, noise
//! flip) every stream progresses linearly, so the OST only needs to
//! "settle" elapsed progress at state changes and can always predict its
//! next completion exactly. The owning `StorageSystem` turns those
//! predictions into discrete events.
//!
//! ## Two engines, one model
//!
//! * [`vt::VtOst`] — the **virtual-time** engine (default): per-lane
//!   virtual clocks integrate the per-stream rate, streams carry virtual
//!   finish tags in per-lane min-heaps, and every operation is O(log W)
//!   or better. See `DESIGN.md` §10 for the formulation.
//! * [`reference::RefOst`] — the original per-`dt` settle loop: O(W) per
//!   settle and per prediction. Kept as the executable specification;
//!   `tests/vt_differential.rs` pins the two engines to identical
//!   completion sets, ordering and times (within 1 ns) over randomized
//!   schedules.
//!
//! The `Ost` alias selects the virtual-time engine by default and the
//! reference loop under the `baseline-engine` feature (the workspace's
//! before/after benchmarking convention). Both engines are always
//! compiled.

use simcore::{SimDuration, SimTime};

use crate::params::OstParams;

pub mod reference;
pub mod vt;

/// The engine the rest of the workspace runs on: virtual-time by
/// default, the reference settle loop under `baseline-engine`.
#[cfg(not(feature = "baseline-engine"))]
pub type Ost = vt::VtOst;

/// The engine the rest of the workspace runs on (reference settle loop —
/// the `baseline-engine` build).
#[cfg(feature = "baseline-engine")]
pub type Ost = reference::RefOst;

/// Identifies one outstanding request within the storage system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

/// What kind of operation a stream is performing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// A write that may use the write-back cache.
    Write,
    /// A write that must bypass the cache (e.g. huge background streams).
    WriteDirect,
    /// A read (always disk lane; reads are not absorbed by the write cache).
    Read,
}

/// The two processor-sharing lanes of one target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lane {
    Cache,
    Disk,
}

/// A completed request, as reported by `advance`.
#[derive(Clone, Copy, Debug)]
pub struct OstCompletion {
    /// The request that finished.
    pub id: RequestId,
    /// When it was admitted.
    pub submitted: SimTime,
    /// Size in bytes.
    pub bytes: u64,
}

/// Remaining bytes below this threshold count as finished (absorbs f64
/// drift from repeated settling / virtual-clock integration).
pub(crate) const DONE_EPS: f64 = 0.5;

/// High bit of a request id marks lane-local background streams, so a
/// harvested completion (or a `fail_all` abort list) can be routed
/// without consulting any shared map — and so the engines' foreground
/// completion bounds can skip interference streams. Foreground ids come
/// from a plain counter and never reach this bit.
pub(crate) const BG_BIT: u64 = 1 << 63;

/// Longest delay a completion prediction will ever schedule, seconds.
/// Extreme noise compositions (stacked brownouts on a degraded target)
/// can push a lane's per-stream rate into the subnormal range, where
/// `remaining / rate` overflows to `inf` (or `0/0` goes NaN) and would
/// panic inside `SimTime::from_secs_f64`. Clamping to a far-future
/// horizon instead just produces a spurious wake that re-plans; 1e9
/// simulated seconds is ~32 years, three orders of magnitude past the
/// runner's 1e6 s deadline, and stays far below `SimTime::MAX` in ns.
pub(crate) const MAX_WAKE_DELAY_SECS: f64 = 1e9;

/// Clamp a predicted completion delay to `[0, MAX_WAKE_DELAY_SECS]`.
/// `f64::max`/`f64::min` return the non-NaN operand, so a NaN delay
/// (`0/0`: a finished stream on a zero-rate lane) clamps to an immediate
/// wake — which is correct, the stream is harvestable now — and `inf`
/// clamps to the horizon.
// Not `f64::clamp`: clamp propagates NaN, and the NaN -> 0 behaviour here
// is the point.
#[allow(clippy::manual_clamp)]
pub(crate) fn wake_delay(secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(secs.max(0.0).min(MAX_WAKE_DELAY_SECS))
}

/// Per-stream byte rate of one lane given the current populations and
/// noise factor. Shared by both engines so they agree bit-for-bit.
///
/// External noise scales the whole server, including per-stream request
/// processing — otherwise a high-ingest cache would hide interference
/// behind the stream cap.
pub(crate) fn per_stream_rate(
    params: &OstParams,
    lane: Lane,
    n_disk: usize,
    n_cache: usize,
    noise_factor: f64,
) -> f64 {
    let cap = params.stream_cap * noise_factor;
    match lane {
        Lane::Disk => {
            let eff = params.disk_eff(n_disk) * noise_factor;
            (eff / n_disk.max(1) as f64).min(cap)
        }
        Lane::Cache => {
            let eff = params.ingest_eff(n_cache) * noise_factor;
            (eff / n_cache.max(1) as f64).min(cap)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::testbed;
    use simcore::units::MIB;

    /// The full unit suite runs against *both* engines — the reference
    /// loop is the executable specification, and every behavioural claim
    /// below must hold for the virtual-time engine too. Wake semantics
    /// differ (the virtual-time engine may wake at an overhead expiry
    /// that harvests nothing), so tests drive to completion instead of
    /// assuming `next_completion()` is itself a completion instant.
    macro_rules! ost_suite {
        ($name:ident, $ost:ty) => {
            mod $name {
                use super::*;

                type OstT = $ost;

                fn t(secs: f64) -> SimTime {
                    SimTime::from_secs_f64(secs)
                }

                fn small_ost() -> OstT {
                    <OstT>::new(testbed().ost)
                }

                /// Drive wake-by-wake until `target` completes; returns
                /// the completion instant.
                fn finish_of(ost: &mut OstT, target: RequestId) -> SimTime {
                    for _ in 0..100_000 {
                        let at = ost.next_completion().expect("stream in flight");
                        if ost.advance(at).iter().any(|c| c.id == target) {
                            return at;
                        }
                    }
                    panic!("request {target:?} never completed");
                }

                /// Predicted completion instant of `target`, computed on
                /// a clone so the real OST is untouched.
                fn predicted(ost: &OstT, target: RequestId) -> SimTime {
                    finish_of(&mut ost.clone(), target)
                }

                /// Drive until the next non-empty harvest.
                fn next_batch(ost: &mut OstT) -> (SimTime, Vec<OstCompletion>) {
                    for _ in 0..100_000 {
                        let at = ost.next_completion().expect("stream in flight");
                        let done = ost.advance(at);
                        if !done.is_empty() {
                            return (at, done);
                        }
                    }
                    panic!("no completion surfaced");
                }

                #[test]
                fn single_cache_write_takes_overhead_plus_ingest_time() {
                    let p = testbed().ost;
                    let mut ost = <OstT>::new(p.clone());
                    let bytes = 8 * MIB;
                    ost.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    let done_at = finish_of(&mut ost, RequestId(1));
                    let rate = p.cache_ingest_peak.min(p.stream_cap);
                    let expect = p.request_overhead + bytes as f64 / rate;
                    assert!(
                        (done_at.as_secs_f64() - expect).abs() < 1e-6,
                        "got {done_at}, expected {expect}"
                    );
                }

                #[test]
                fn oversized_write_goes_to_disk_lane() {
                    let p = testbed().ost; // 64 MiB cache
                    let mut ost = <OstT>::new(p.clone());
                    let bytes = 128 * MIB;
                    ost.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    assert_eq!(ost.disk_streams(), 1);
                    let done_at = finish_of(&mut ost, RequestId(1));
                    let rate = p.disk_peak.min(p.stream_cap);
                    let expect = p.request_overhead + bytes as f64 / rate;
                    assert!((done_at.as_secs_f64() - expect).abs() < 1e-6);
                }

                #[test]
                fn read_is_disk_lane() {
                    let mut ost = small_ost();
                    ost.submit(SimTime::ZERO, RequestId(1), MIB, OpKind::Read);
                    assert_eq!(ost.disk_streams(), 1);
                    assert_eq!(ost.cache_used(), 0);
                }

                #[test]
                fn write_direct_bypasses_cache() {
                    let mut ost = small_ost();
                    ost.submit(SimTime::ZERO, RequestId(1), MIB, OpKind::WriteDirect);
                    assert_eq!(ost.disk_streams(), 1);
                    assert_eq!(ost.cache_used(), 0);
                }

                #[test]
                fn cache_reservation_fills_then_spills() {
                    let p = testbed().ost; // 64 MiB cache
                    let mut ost = <OstT>::new(p);
                    // Two 32 MiB writes fill the cache exactly.
                    ost.submit(SimTime::ZERO, RequestId(1), 32 * MIB, OpKind::Write);
                    ost.submit(SimTime::ZERO, RequestId(2), 32 * MIB, OpKind::Write);
                    assert_eq!(ost.disk_streams(), 0);
                    // Third write cannot fit: disk lane.
                    ost.submit(SimTime::ZERO, RequestId(3), MIB, OpKind::Write);
                    assert_eq!(ost.disk_streams(), 1);
                }

                #[test]
                fn cache_drains_when_disk_idle() {
                    let p = testbed().ost;
                    let drain = p.cache_drain;
                    let mut ost = <OstT>::new(p);
                    ost.submit(SimTime::ZERO, RequestId(1), 32 * MIB, OpKind::Write);
                    let done_at = finish_of(&mut ost, RequestId(1));
                    // Cache holds the written bytes minus whatever drained
                    // during the (disk-idle) ingest itself.
                    let held = ost.cache_used();
                    assert!(held > 0 && held <= 32 * MIB, "cache holds {held}");
                    // Wait long enough for the cache to fully drain.
                    let wait = 32.0 * MIB as f64 / drain + 0.1;
                    let later = done_at + SimDuration::from_secs_f64(wait);
                    ost.advance(later);
                    assert_eq!(ost.cache_used(), 0);
                }

                #[test]
                fn two_disk_streams_share_bandwidth() {
                    let p = testbed().ost;
                    let mut ost = <OstT>::new(p.clone());
                    let bytes = 128 * MIB; // > cache, disk lane
                    ost.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    ost.submit(SimTime::ZERO, RequestId(2), bytes, OpKind::Write);
                    let (done_at, done) = next_batch(&mut ost);
                    let per_stream = (p.disk_eff(2) / 2.0).min(p.stream_cap);
                    let expect = p.request_overhead + bytes as f64 / per_stream;
                    assert!(
                        (done_at.as_secs_f64() - expect).abs() < 1e-6,
                        "got {done_at} expected {expect}"
                    );
                    // Both complete together.
                    assert_eq!(done.len(), 2);
                }

                #[test]
                fn contention_slows_per_stream_service() {
                    let p = testbed().ost;
                    // One stream alone.
                    let mut a = <OstT>::new(p.clone());
                    a.submit(SimTime::ZERO, RequestId(1), 128 * MIB, OpKind::Write);
                    let alone = finish_of(&mut a, RequestId(1));
                    // Same stream with 7 competitors.
                    let mut b = <OstT>::new(p);
                    for i in 0..8 {
                        b.submit(SimTime::ZERO, RequestId(i), 128 * MIB, OpKind::Write);
                    }
                    let shared = finish_of(&mut b, RequestId(0));
                    assert!(
                        shared.as_secs_f64() > 4.0 * alone.as_secs_f64(),
                        "8-way sharing should be much slower: alone {alone}, shared {shared}"
                    );
                }

                #[test]
                fn late_arrival_slows_in_flight_stream() {
                    let p = testbed().ost;
                    let mut ost = <OstT>::new(p.clone());
                    let bytes = 128 * MIB;
                    ost.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    let solo_finish = predicted(&ost, RequestId(1));
                    // Halfway through, a second stream arrives.
                    let half = t(solo_finish.as_secs_f64() / 2.0);
                    ost.submit(half, RequestId(2), bytes, OpKind::Write);
                    let new_finish = predicted(&ost, RequestId(1));
                    assert!(
                        new_finish > solo_finish,
                        "arrival must delay the first stream"
                    );
                }

                #[test]
                fn departure_speeds_up_survivors() {
                    let p = testbed().ost;
                    let mut ost = <OstT>::new(p.clone());
                    ost.submit(SimTime::ZERO, RequestId(1), 16 * MIB, OpKind::WriteDirect);
                    ost.submit(SimTime::ZERO, RequestId(2), 256 * MIB, OpKind::WriteDirect);
                    // Predicted finish of the big stream under 2-way sharing.
                    let shared_rate = (p.disk_eff(2) / 2.0).min(p.stream_cap);
                    let naive_finish = p.request_overhead + 256.0 * MIB as f64 / shared_rate;
                    // Let the small one finish.
                    let (_, done) = next_batch(&mut ost);
                    assert_eq!(done.len(), 1);
                    assert_eq!(done[0].id, RequestId(1));
                    // The survivor now runs faster than naive 2-way prediction.
                    let survivor_finish = predicted(&ost, RequestId(2));
                    assert!(
                        survivor_finish.as_secs_f64() < naive_finish,
                        "survivor {survivor_finish} vs naive {naive_finish}"
                    );
                }

                #[test]
                fn noise_slows_service() {
                    let p = testbed().ost;
                    let bytes = 128 * MIB;
                    let mut quiet = <OstT>::new(p.clone());
                    quiet.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    let q = predicted(&quiet, RequestId(1));

                    let mut noisy = <OstT>::new(p);
                    noisy.set_noise(SimTime::ZERO, 0.25);
                    noisy.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    let n = predicted(&noisy, RequestId(1));
                    assert!(
                        n.as_secs_f64() > 3.0 * q.as_secs_f64(),
                        "4x slowdown expected-ish: quiet {q}, noisy {n}"
                    );
                }

                #[test]
                fn mid_flight_noise_change_replans() {
                    let p = testbed().ost;
                    let mut ost = <OstT>::new(p);
                    let bytes = 256 * MIB;
                    ost.submit(SimTime::ZERO, RequestId(1), bytes, OpKind::Write);
                    let before = predicted(&ost, RequestId(1));
                    // Halfway, the OST becomes very slow.
                    let half = t(before.as_secs_f64() / 2.0);
                    ost.set_noise(half, 0.1);
                    let after = predicted(&ost, RequestId(1));
                    assert!(after > before, "slowdown must push completion out");
                    // Recovery speeds it back up (but can't beat the original).
                    ost.set_noise(t(before.as_secs_f64() * 0.75), 1.0);
                    let recovered = predicted(&ost, RequestId(1));
                    assert!(recovered < after);
                    assert!(recovered > before);
                }

                #[test]
                fn completions_preserve_metadata() {
                    let mut ost = small_ost();
                    ost.submit(t(1.0), RequestId(42), 2 * MIB, OpKind::Write);
                    let (_, done) = next_batch(&mut ost);
                    assert_eq!(done.len(), 1);
                    assert_eq!(done[0].id, RequestId(42));
                    assert_eq!(done[0].bytes, 2 * MIB);
                    assert_eq!(done[0].submitted, t(1.0));
                }

                #[test]
                fn idle_ost_has_no_next_completion() {
                    let ost = small_ost();
                    assert!(ost.next_completion().is_none());
                    assert_eq!(ost.active_streams(), 0);
                }

                #[test]
                fn overhead_dominates_tiny_writes() {
                    let p = testbed().ost;
                    let mut ost = <OstT>::new(p.clone());
                    ost.submit(SimTime::ZERO, RequestId(1), 1, OpKind::Write);
                    let at = finish_of(&mut ost, RequestId(1));
                    assert!(at.as_secs_f64() >= p.request_overhead);
                }

                #[test]
                fn frozen_ost_makes_no_progress_then_resumes() {
                    let mut ost = small_ost();
                    ost.submit(SimTime::ZERO, RequestId(1), 128 * MIB, OpKind::Write);
                    let planned = predicted(&ost, RequestId(1));
                    let half = t(planned.as_secs_f64() / 2.0);
                    ost.freeze(half);
                    assert!(ost.next_completion().is_none(), "frozen OST predicts nothing");
                    assert!(ost.advance(planned).is_empty(), "no completions while frozen");
                    // Thaw after a long stall: remaining work picks up where
                    // it left off.
                    let thaw = t(planned.as_secs_f64() * 3.0);
                    ost.unfreeze(thaw);
                    let resumed = finish_of(&mut ost, RequestId(1));
                    let expect = thaw.as_secs_f64() + planned.as_secs_f64() / 2.0;
                    assert!(
                        (resumed.as_secs_f64() - expect).abs() < 1e-6,
                        "resumed {resumed}, expected ~{expect}"
                    );
                }

                #[test]
                fn fail_all_aborts_streams_and_wipes_cache() {
                    let mut ost = small_ost();
                    ost.submit(SimTime::ZERO, RequestId(2), 128 * MIB, OpKind::Write);
                    ost.submit(SimTime::ZERO, RequestId(1), 8 * MIB, OpKind::Write);
                    let ids = ost.fail_all(t(0.1));
                    // Aborted ids come back sorted, independent of internal
                    // storage order (both engines agree).
                    assert_eq!(ids, vec![RequestId(1), RequestId(2)]);
                    assert_eq!(ost.active_streams(), 0);
                    assert_eq!(ost.cache_used(), 0);
                    assert!(ost.next_completion().is_none());
                    // The target accepts fresh work afterwards.
                    ost.submit(t(0.2), RequestId(3), MIB, OpKind::Write);
                    assert!(ost.next_completion().is_some());
                }

                #[test]
                fn many_streams_complete_exactly_once() {
                    let mut ost = small_ost();
                    for i in 0..50u64 {
                        ost.submit(SimTime::ZERO, RequestId(i), (i + 1) * 100_000, OpKind::WriteDirect);
                    }
                    let mut seen = std::collections::HashSet::new();
                    while let Some(at) = ost.next_completion() {
                        for c in ost.advance(at) {
                            assert!(seen.insert(c.id), "duplicate completion {:?}", c.id);
                        }
                    }
                    assert_eq!(seen.len(), 50);
                    assert_eq!(ost.active_streams(), 0);
                }

                #[test]
                fn simultaneous_completions_sorted_by_id() {
                    let mut ost = small_ost();
                    for i in [5u64, 3, 9, 1, 7] {
                        ost.submit(SimTime::ZERO, RequestId(i), 4 * MIB, OpKind::WriteDirect);
                    }
                    let (_, done) = next_batch(&mut ost);
                    let ids: Vec<u64> = done.iter().map(|c| c.id.0).collect();
                    assert_eq!(ids, vec![1, 3, 5, 7, 9]);
                }

                #[test]
                fn near_zero_rate_yields_far_future_wake_not_panic() {
                    // Stacked brownouts can push the combined noise factor
                    // into the subnormal range; the prediction must clamp to
                    // a finite far-future wake instead of overflowing into
                    // `SimTime::from_secs_f64(inf)`.
                    let mut ost = small_ost();
                    ost.submit(SimTime::ZERO, RequestId(1), 128 * MIB, OpKind::WriteDirect);
                    ost.set_noise(t(0.5), 1e-300);
                    let at = ost.next_completion().expect("still predicts a wake");
                    assert!(
                        at.as_secs_f64() >= 0.5 + 1e8,
                        "near-zero rate must push the wake to the horizon, got {at}"
                    );
                    // The spurious wake harvests nothing and re-plans finitely.
                    assert!(ost.advance(at).is_empty());
                    assert!(ost.next_completion().is_some());
                    // Recovery still completes the stream.
                    let recover = at + SimDuration::from_secs_f64(1.0);
                    ost.set_noise(recover, 1.0);
                    let done_at = finish_of(&mut ost, RequestId(1));
                    assert!(done_at > recover);
                }
            }
        };
    }

    ost_suite!(vt_engine, crate::ost::vt::VtOst);
    ost_suite!(reference_engine, crate::ost::reference::RefOst);

    #[test]
    fn alias_selects_engine_by_feature() {
        // Compile-time pin: the default build runs the virtual-time
        // engine; `baseline-engine` pins the reference loop.
        let ost = Ost::new(testbed().ost);
        #[cfg(not(feature = "baseline-engine"))]
        let _: &vt::VtOst = &ost;
        #[cfg(feature = "baseline-engine")]
        let _: &reference::RefOst = &ost;
        assert_eq!(ost.active_streams(), 0);
    }

    #[test]
    fn wake_delay_clamps_non_finite_inputs() {
        assert_eq!(wake_delay(f64::INFINITY).as_secs_f64(), MAX_WAKE_DELAY_SECS);
        assert_eq!(wake_delay(f64::NAN).as_secs_f64(), 0.0);
        assert_eq!(wake_delay(-1.0).as_secs_f64(), 0.0);
        assert!((wake_delay(2.5).as_secs_f64() - 2.5).abs() < 1e-12);
        assert_eq!(wake_delay(1e300).as_secs_f64(), MAX_WAKE_DELAY_SECS);
    }
}
