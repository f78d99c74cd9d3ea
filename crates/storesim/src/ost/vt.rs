//! The virtual-time OST engine: O(log W) storage events.
//!
//! ## Formulation (DESIGN.md §10)
//!
//! Between external state changes (submit, harvest, noise flip, freeze,
//! fail) every stream in a lane progresses at the *same* per-stream rate
//! `r(t)` — and crucially, overhead-phase streams already count toward
//! the lane populations (counts move at submit/harvest, not at overhead
//! expiry), so `r(t)` is piecewise-constant with breakpoints only at
//! external events. That makes the classic virtual-time trick exact
//! rather than approximate:
//!
//! * Each lane keeps a **virtual clock** `V` with `dV/dt = r(t)` (zero
//!   while frozen). `V` is measured in bytes-per-stream served.
//! * A stream that enters byte phase at wall time `s` with `b` bytes gets
//!   a **finish tag** `V(s) + b` and completes exactly when `V` reaches
//!   its tag. Tags never change — a rate change bends `V`'s slope for
//!   every stream at once, so noise/freeze/fail touch only the lane
//!   clocks and never re-key the heap (no per-stream cancellation, which
//!   is why a plain deterministic min-heap suffices here where
//!   `simcore::queue` needs generation tokens).
//! * The fixed request overhead burns in *wall* time, not lane-rate time,
//!   so it lives on a separate **progress clock** `P` with `dP/dt = 1`
//!   while unfrozen; a submitted stream waits in an overhead min-heap
//!   keyed by `P(submit) + overhead` and receives its finish tag when the
//!   expiry is retired during `settle`.
//!
//! `settle` is O(1) + O(log W) per retired overhead expiry;
//! `next_completion` is O(1) (peek two tag heaps and the earliest
//! overhead expiry); `advance` is O(k log W) for k completions. A wake at
//! an overhead expiry may harvest nothing — the owning `StorageSystem`
//! re-plans after every wake, so spurious wakes cost one event and keep
//! completion *times* exact: each request takes at most two wakes.
//!
//! Float drift: `V` accumulates `rate × dt` products in a different
//! association than the reference engine's per-stream `remaining`, so
//! completion instants can differ at the ~1e-12 s level (differential
//! tests allow 1 ns). `V` rebases to zero whenever its lane's tag heap
//! empties, bounding the magnitude (and therefore the absolute error) by
//! the length of one lane busy period.

use simcore::SimTime;

use crate::params::OstParams;

use super::{per_stream_rate, wake_delay, Lane, OpKind, OstCompletion, RequestId, DONE_EPS};

/// A stream in byte phase, keyed by its virtual finish tag.
#[derive(Clone, Debug)]
struct TaggedStream {
    /// `pack(tag, seq)` — the finish tag and its deterministic sequence
    /// tie-break, pre-packed so heap sifts compare one cached u128
    /// instead of re-packing per probe.
    key: u128,
    id: RequestId,
    bytes: u64,
    submitted: SimTime,
}

impl TaggedStream {
    /// Lane-clock value at which the last byte lands.
    fn tag(&self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }
}

/// A stream still burning its fixed request overhead.
#[derive(Clone, Debug)]
struct PendingStream {
    /// `pack(expiry, seq)`: the progress-clock instant the overhead
    /// burns off, plus the submission-sequence tie-break.
    key: u128,
    lane: Lane,
    id: RequestId,
    bytes: u64,
    submitted: SimTime,
}

impl PendingStream {
    /// Progress-clock instant the overhead burns off.
    fn expiry(&self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }

    /// Submission sequence number (carried into the byte phase).
    fn seq(&self) -> u64 {
        self.key as u64
    }
}

/// Pack a non-negative finite f64 key and a sequence number into one
/// totally-ordered u128 (IEEE 754 bit patterns of non-negative floats
/// order like the floats themselves; `f64::from_bits` of the high half
/// recovers the key exactly).
fn pack(key: f64, seq: u64) -> u128 {
    debug_assert!(key >= 0.0, "heap key {key} must be non-negative");
    ((key.to_bits() as u128) << 64) | seq as u128
}

trait Keyed {
    fn key(&self) -> u128;
}

impl Keyed for TaggedStream {
    fn key(&self) -> u128 {
        self.key
    }
}

impl Keyed for PendingStream {
    fn key(&self) -> u128 {
        self.key
    }
}

/// A deterministic min-heap (same shape as `simcore::queue`'s slab heap,
/// minus the cancellation machinery — tags are immutable, so nothing is
/// ever removed except at the top or wholesale).
///
/// ## Small-width fast path
///
/// Up to [`MinHeap::SMALL_MAX`] elements the items stay an *unsorted*
/// vector: `push` is a plain append and `pop`/`peek` do a linear min
/// scan over the cached `u128` keys (a handful of compares, no swaps,
/// no branchy sift loops). Small writer counts — the W ≤ 16 drains where
/// the 4-ary sift overhead used to lose to the reference engine — never
/// leave this mode. Crossing the threshold heapifies once (O(n)) and the
/// structure stays in 4-ary heap order until it drains empty. Selection
/// is identical in both modes because keys are unique (the sequence
/// tie-break), so the engine's completion order never depends on which
/// mode served a pop.
#[derive(Clone, Debug)]
struct MinHeap<T: Keyed> {
    items: Vec<T>,
    /// True while `items` is maintained in 4-ary heap order; false in
    /// small mode (unsorted, linear min scans).
    heapified: bool,
}

impl<T: Keyed> MinHeap<T> {
    const ARITY: usize = 4;
    /// Largest population served by the unsorted linear-scan mode.
    const SMALL_MAX: usize = 16;

    fn with_capacity(cap: usize) -> Self {
        MinHeap {
            items: Vec::with_capacity(cap),
            heapified: false,
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Index of the minimum-key element in small mode.
    fn min_index(&self) -> Option<usize> {
        let mut it = self.items.iter().enumerate();
        let (mut best, first) = it.next()?;
        let mut best_key = first.key();
        for (i, item) in it {
            let k = item.key();
            if k < best_key {
                best = i;
                best_key = k;
            }
        }
        Some(best)
    }

    fn peek(&self) -> Option<&T> {
        if self.heapified {
            self.items.first()
        } else {
            self.min_index().map(|i| &self.items[i])
        }
    }

    fn items(&self) -> &[T] {
        &self.items
    }

    fn clear(&mut self) {
        self.items.clear();
        self.heapified = false;
    }

    fn push(&mut self, item: T) {
        self.items.push(item);
        if !self.heapified {
            if self.items.len() <= Self::SMALL_MAX {
                return;
            }
            // Crossed the threshold: Floyd heapify once and stay a heap
            // until the population drains away.
            self.heapified = true;
            let n = self.items.len();
            for i in (0..=(n - 2) / Self::ARITY).rev() {
                self.sift_down(i);
            }
            return;
        }
        self.sift_up(self.items.len() - 1);
    }

    fn pop(&mut self) -> Option<T> {
        if !self.heapified {
            let i = self.min_index()?;
            return Some(self.items.swap_remove(i));
        }
        debug_assert!(!self.items.is_empty(), "heap mode implies occupancy");
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let top = self.items.pop();
        if self.items.is_empty() {
            self.heapified = false;
        } else {
            self.sift_down(0);
        }
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.items[i].key() < self.items[parent].key() {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = i * Self::ARITY + 1;
            if first >= self.items.len() {
                break;
            }
            let mut best = first;
            let mut best_key = self.items[first].key();
            let end = (first + Self::ARITY).min(self.items.len());
            for c in first + 1..end {
                let k = self.items[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key < self.items[i].key() {
                self.items.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }
}

/// One lane's incremental state: the virtual clock plus the tag heap.
#[derive(Clone, Debug)]
struct LaneState {
    /// Virtual clock: integral of the per-stream byte rate over unfrozen
    /// wall time, in bytes. Rebased to zero when the tag heap empties.
    clock: f64,
    /// Byte-phase streams ordered by virtual finish tag.
    heap: MinHeap<TaggedStream>,
}

impl LaneState {
    fn new() -> Self {
        LaneState {
            clock: 0.0,
            // Pre-sized past the small-mode threshold: per-target stream
            // populations are workload- and seed-dependent, and a sweep's
            // steady-state seeds must not grow the heap past its warmup
            // high-water mark (the fleet zero-allocation contract).
            heap: MinHeap::with_capacity(2 * MinHeap::<TaggedStream>::SMALL_MAX),
        }
    }
}

/// One simulated storage target (virtual-time engine, the default).
///
/// Drop-in replacement for [`super::reference::RefOst`]: identical public
/// API and — pinned by `tests/vt_differential.rs` — identical completion
/// sets, ordering and times (within 1 ns) on any schedule. Only the
/// *wake* schedule differs: `next_completion` may return an overhead
/// expiry whose `advance` harvests nothing.
#[derive(Clone, Debug)]
pub struct VtOst {
    params: OstParams,
    /// Current external slowdown factor in (0, 1].
    noise_factor: f64,
    /// Frozen targets make zero progress (stall-mode failure injection).
    frozen: bool,
    /// Bytes of cache space reserved (admission control): landed bytes
    /// plus bytes still in flight on cache-lane streams.
    cache_reserved: f64,
    /// Bytes that have fully landed in the cache and are eligible to drain
    /// to disk.
    cache_landed: f64,
    last_settle: SimTime,
    n_disk: usize,
    n_cache: usize,
    /// Progress clock: unfrozen wall seconds since creation (overhead
    /// phases burn against this, so freezes pause them for free).
    progress: f64,
    /// Cached per-stream disk-lane rate — the contention curve behind it
    /// costs a `powf`, and the populations/noise it depends on only move
    /// at submit/harvest/fail/set_noise, far less often than settles.
    disk_rate: f64,
    /// Cached per-stream cache-lane rate (same invalidation points).
    cache_rate: f64,
    /// Memoized `params.disk_eff(n)` by stream count — the contention
    /// curve is a pure function of `n` for fixed params, and its `powf`
    /// would otherwise dominate the per-event cost of a drain (where the
    /// population changes at every single wake).
    disk_eff_memo: Vec<f64>,
    disk: LaneState,
    cache: LaneState,
    /// Streams still burning their request overhead, keyed by expiry on
    /// the progress clock.
    pending: MinHeap<PendingStream>,
    /// Monotone submission counter (deterministic heap tie-breaks).
    seq: u64,
}

impl VtOst {
    /// Create an idle OST.
    pub fn new(params: OstParams) -> Self {
        let mut ost = VtOst {
            params,
            noise_factor: 1.0,
            frozen: false,
            cache_reserved: 0.0,
            cache_landed: 0.0,
            last_settle: SimTime::ZERO,
            n_disk: 0,
            n_cache: 0,
            progress: 0.0,
            disk_rate: 0.0,
            cache_rate: 0.0,
            disk_eff_memo: Vec::new(),
            disk: LaneState::new(),
            cache: LaneState::new(),
            pending: MinHeap::with_capacity(2 * MinHeap::<PendingStream>::SMALL_MAX),
            seq: 0,
        };
        ost.refresh_rates();
        ost
    }

    /// Return the target to its freshly-constructed state, keeping heap
    /// capacity and the `disk_eff` memo (a pure function of the retained
    /// params) so a sweep can reuse one OST per seed without allocating.
    pub fn reset(&mut self) {
        self.noise_factor = 1.0;
        self.frozen = false;
        self.cache_reserved = 0.0;
        self.cache_landed = 0.0;
        self.last_settle = SimTime::ZERO;
        self.n_disk = 0;
        self.n_cache = 0;
        self.progress = 0.0;
        self.disk.clock = 0.0;
        self.disk.heap.clear();
        self.cache.clock = 0.0;
        self.cache.heap.clear();
        self.pending.clear();
        self.seq = 0;
        self.refresh_rates();
    }

    /// Number of in-flight streams.
    pub fn active_streams(&self) -> usize {
        self.pending.len() + self.disk.heap.len() + self.cache.heap.len()
    }

    /// Number of in-flight disk-lane streams (overhead phase included).
    pub fn disk_streams(&self) -> usize {
        self.n_disk
    }

    /// Bytes of cache space currently reserved (landed + in flight).
    pub fn cache_used(&self) -> u64 {
        self.cache_reserved as u64
    }

    /// Current external-noise slowdown factor.
    pub fn noise_factor(&self) -> f64 {
        self.noise_factor
    }

    /// Recompute the cached lane rates. Must be called after anything that
    /// moves `n_disk`, `n_cache` or `noise_factor`. Mirrors
    /// [`per_stream_rate`] exactly (same operations, same association),
    /// going through the `disk_eff` memo instead of re-running its `powf`.
    fn refresh_rates(&mut self) {
        while self.disk_eff_memo.len() <= self.n_disk {
            let eff = self.params.disk_eff(self.disk_eff_memo.len());
            self.disk_eff_memo.push(eff);
        }
        let cap = self.params.stream_cap * self.noise_factor;
        let disk_eff = self.disk_eff_memo[self.n_disk] * self.noise_factor;
        self.disk_rate = (disk_eff / self.n_disk.max(1) as f64).min(cap);
        let cache_eff = self.params.ingest_eff(self.n_cache) * self.noise_factor;
        self.cache_rate = (cache_eff / self.n_cache.max(1) as f64).min(cap);
        debug_assert_eq!(
            self.disk_rate,
            per_stream_rate(&self.params, Lane::Disk, self.n_disk, self.n_cache, self.noise_factor)
        );
        debug_assert_eq!(
            self.cache_rate,
            per_stream_rate(&self.params, Lane::Cache, self.n_disk, self.n_cache, self.noise_factor)
        );
    }

    /// Advance the lane clocks (and cache drain) from `last_settle` to
    /// `now`, retiring overhead expiries that fall inside the interval.
    ///
    /// The per-stream rates are constant across the whole interval even
    /// though expiries are retired mid-way: lane populations already
    /// count overhead-phase streams, so retiring one changes no rate.
    fn settle(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_settle);
        if self.frozen {
            // A stalled target makes no progress at all (overhead, bytes,
            // cache drain); time simply passes it by.
            self.last_settle = now;
            return;
        }
        let dt = (now - self.last_settle).as_secs_f64();
        if dt > 0.0 {
            let target = self.progress + dt;
            let disk_rate = self.disk_rate;
            let cache_rate = self.cache_rate;
            // Wake instants quantize to whole nanoseconds, so a wake aimed
            // at an expiry can land up to half a tick short of it. Retire
            // anything within one tick of the target (clamping its clock
            // step to the interval): leaving it pending would make
            // `next_completion` report a sub-tick delay that rounds to a
            // zero-length wake, re-planning the same instant forever.
            const PENDING_SLACK: f64 = 1e-9;
            while let Some(p) = self.pending.peek() {
                if p.expiry() > target + PENDING_SLACK {
                    break;
                }
                let p = self.pending.pop().expect("peeked entry exists");
                let step = (p.expiry() - self.progress)
                    .min(target - self.progress)
                    .max(0.0);
                if step > 0.0 {
                    self.disk.clock += disk_rate * step;
                    self.cache.clock += cache_rate * step;
                    self.progress += step;
                }
                // The stream enters byte phase: its finish tag is fixed
                // here and never touched again.
                let lane = match p.lane {
                    Lane::Disk => &mut self.disk,
                    Lane::Cache => &mut self.cache,
                };
                lane.heap.push(TaggedStream {
                    key: pack(lane.clock + p.bytes as f64, p.seq()),
                    id: p.id,
                    bytes: p.bytes,
                    submitted: p.submitted,
                });
            }
            let step = target - self.progress;
            if step > 0.0 {
                self.disk.clock += disk_rate * step;
                self.cache.clock += cache_rate * step;
            }
            self.progress = target;
            if self.pending.is_empty() {
                // Rebase: overhead expiries are the only state keyed on the
                // progress clock, and each lives at most one overhead period.
                // Resetting whenever none are pending keeps the clock's f64
                // magnitude tiny, so wake-sized `dt` increments never fall
                // below its ULP (they would after a clamped far-future wake
                // pushed it to ~1e9 s).
                self.progress = 0.0;
            }
            // Cache drains to disk only while the disk lane is idle (an
            // approximation: the platters favour foreground traffic), and
            // only bytes that have fully landed are drainable.
            if self.n_disk == 0 && self.cache_landed > 0.0 {
                let drained =
                    (self.params.cache_drain * self.noise_factor * dt).min(self.cache_landed);
                self.cache_landed -= drained;
                self.cache_reserved = (self.cache_reserved - drained).max(0.0);
            }
        }
        self.last_settle = now;
    }

    /// Admit a request. Returns the lane decision implicitly via internal
    /// state; completions surface later through [`VtOst::advance`].
    pub fn submit(&mut self, now: SimTime, id: RequestId, bytes: u64, kind: OpKind) {
        self.settle(now);
        let cache_free = self.params.cache_capacity as f64 - self.cache_reserved;
        let lane = match kind {
            // Only requests up to the write-through threshold are cache
            // eligible (Fig. 1: 1-8 MB series ride the cache, 64 MB+ are
            // disk-bound from the start).
            OpKind::Write
                if bytes <= self.params.cache_max_request && (bytes as f64) <= cache_free =>
            {
                Lane::Cache
            }
            OpKind::Write | OpKind::WriteDirect => Lane::Disk,
            OpKind::Read => Lane::Disk,
        };
        match lane {
            Lane::Cache => {
                // Reserve cache space immediately so concurrent bursts see
                // the shrinking headroom. The lane count moves *now*, in
                // overhead phase — the invariant the virtual clocks rest on.
                self.cache_reserved += bytes as f64;
                self.n_cache += 1;
            }
            Lane::Disk => self.n_disk += 1,
        }
        self.refresh_rates();
        let seq = self.seq;
        self.seq += 1;
        let overhead = self.params.request_overhead;
        if overhead > 0.0 {
            self.pending.push(PendingStream {
                key: pack(self.progress + overhead, seq),
                lane,
                id,
                bytes,
                submitted: now,
            });
        } else {
            // No overhead phase: straight to byte phase.
            let lane = match lane {
                Lane::Disk => &mut self.disk,
                Lane::Cache => &mut self.cache,
            };
            lane.heap.push(TaggedStream {
                key: pack(lane.clock + bytes as f64, seq),
                id,
                bytes,
                submitted: now,
            });
        }
    }

    /// Move time forward to `now`, appending every request finished by
    /// then to `done` (the owner's reusable scratch buffer — the hot loop
    /// allocates nothing).
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<OstCompletion>) {
        self.settle(now);
        let start = done.len();
        while let Some(top) = self.disk.heap.peek() {
            if top.tag() > self.disk.clock + DONE_EPS {
                break;
            }
            let s = self.disk.heap.pop().expect("peeked entry exists");
            self.n_disk -= 1;
            done.push(OstCompletion {
                id: s.id,
                submitted: s.submitted,
                bytes: s.bytes,
            });
        }
        if self.disk.heap.is_empty() {
            // Rebase: no tag references the clock any more (pending
            // streams get theirs later, relative to whatever the clock is
            // then), so reset it to keep f64 magnitudes — and hence
            // absolute drift — bounded by one busy period.
            self.disk.clock = 0.0;
        }
        while let Some(top) = self.cache.heap.peek() {
            if top.tag() > self.cache.clock + DONE_EPS {
                break;
            }
            let s = self.cache.heap.pop().expect("peeked entry exists");
            self.n_cache -= 1;
            self.cache_landed += s.bytes as f64;
            done.push(OstCompletion {
                id: s.id,
                submitted: s.submitted,
                bytes: s.bytes,
            });
        }
        if self.cache.heap.is_empty() {
            self.cache.clock = 0.0;
        }
        // Deterministic completion ordering; 0/1-entry harvests (the
        // common case) skip the sort entirely.
        if done.len() > start {
            self.refresh_rates();
            if done.len() - start >= 2 {
                done[start..].sort_by_key(|c| c.id);
            }
        }
    }

    /// Move time forward to `now` and return every request that has
    /// finished by then (allocating convenience wrapper over
    /// [`VtOst::advance_into`]).
    pub fn advance(&mut self, now: SimTime) -> Vec<OstCompletion> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// Update the external-noise factor (settling progress first). Tags
    /// are invariant under rate changes — only the lane clocks' slopes
    /// bend — so this is O(1).
    pub fn set_noise(&mut self, now: SimTime, factor: f64) {
        debug_assert!(factor > 0.0 && factor <= 1.0, "noise factor {factor}");
        self.settle(now);
        self.noise_factor = factor;
        self.refresh_rates();
    }

    /// Freeze the target (stall-mode failure): in-flight and future
    /// streams are held with zero progress until [`VtOst::unfreeze`].
    /// O(1): both clocks simply stop.
    pub fn freeze(&mut self, now: SimTime) {
        self.settle(now);
        self.frozen = true;
    }

    /// Thaw a frozen target; held streams resume from where they stopped.
    pub fn unfreeze(&mut self, now: SimTime) {
        self.settle(now);
        self.frozen = false;
    }

    /// Whether the target is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Error-mode failure: abort every in-flight stream, returning their
    /// request ids (sorted) so the owner can surface error completions.
    /// Cache state is wiped (the disk is gone; recovery brings back an
    /// empty target).
    pub fn fail_all(&mut self, now: SimTime) -> Vec<RequestId> {
        self.settle(now);
        let mut ids: Vec<RequestId> = self
            .pending
            .items()
            .iter()
            .map(|p| p.id)
            .chain(self.disk.heap.items().iter().map(|s| s.id))
            .chain(self.cache.heap.items().iter().map(|s| s.id))
            .collect();
        ids.sort_unstable();
        self.pending.clear();
        self.disk.heap.clear();
        self.disk.clock = 0.0;
        self.cache.heap.clear();
        self.cache.clock = 0.0;
        self.n_disk = 0;
        self.n_cache = 0;
        self.cache_reserved = 0.0;
        self.cache_landed = 0.0;
        self.refresh_rates();
        ids
    }

    /// Predict the absolute time of the next wake: the earliest of the
    /// two lanes' head-of-heap completions and the earliest overhead
    /// expiry (whose wake may harvest nothing — the owner re-plans).
    /// `None` if idle or frozen. O(1).
    pub fn next_completion(&self) -> Option<SimTime> {
        if self.frozen {
            return None;
        }
        let mut best = f64::INFINITY;
        if let Some(p) = self.pending.peek() {
            best = (p.expiry() - self.progress).max(0.0);
        }
        if let Some(s) = self.disk.heap.peek() {
            best = best.min((s.tag() - self.disk.clock).max(0.0) / self.disk_rate);
        }
        if let Some(s) = self.cache.heap.peek() {
            best = best.min((s.tag() - self.cache.clock).max(0.0) / self.cache_rate);
        }
        if best == f64::INFINITY {
            return None;
        }
        Some(self.last_settle.saturating_add(wake_delay(best)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::testbed;
    use simcore::units::MIB;

    // The behavioural suite runs against this engine from `super::super`
    // (ost.rs instantiates it for both engines); here live the tests of
    // the virtual-time mechanics themselves.

    #[test]
    fn min_heap_pops_in_key_order() {
        let mut h: MinHeap<TaggedStream> = MinHeap::with_capacity(0);
        let mut keys: Vec<u64> = (0..100).map(|i| (i * 7919) % 101).collect();
        for (i, &k) in keys.iter().enumerate() {
            h.push(TaggedStream {
                key: pack(k as f64, i as u64),
                id: RequestId(i as u64),
                bytes: 1,
                submitted: SimTime::ZERO,
            });
        }
        keys.sort_unstable();
        let mut popped = Vec::new();
        while let Some(s) = h.pop() {
            popped.push(s.tag() as u64);
        }
        assert_eq!(popped, keys);
    }

    #[test]
    fn equal_tags_break_ties_by_sequence() {
        let mut h: MinHeap<TaggedStream> = MinHeap::with_capacity(0);
        for seq in [3u64, 1, 2, 0] {
            h.push(TaggedStream {
                key: pack(42.0, seq),
                id: RequestId(seq),
                bytes: 1,
                submitted: SimTime::ZERO,
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|s| s.key as u64)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn min_heap_small_mode_crosses_into_heap_mode_and_back() {
        // Push past SMALL_MAX (forcing the one-time heapify), drain to
        // empty (reverting to small mode), then exercise small mode again:
        // pops must be globally key-ordered throughout.
        let mut h: MinHeap<TaggedStream> = MinHeap::with_capacity(0);
        let n = MinHeap::<TaggedStream>::SMALL_MAX * 3;
        let mut keys: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 977).collect();
        for (i, &k) in keys.iter().enumerate() {
            h.push(TaggedStream {
                key: pack(k as f64, i as u64),
                id: RequestId(i as u64),
                bytes: 1,
                submitted: SimTime::ZERO,
            });
        }
        assert!(h.heapified, "population above SMALL_MAX must heapify");
        keys.sort_unstable();
        let popped: Vec<u64> =
            std::iter::from_fn(|| h.pop().map(|s| s.tag() as u64)).collect();
        assert_eq!(popped, keys);
        assert!(!h.heapified, "draining empty reverts to small mode");
        // Small mode after the round trip still orders correctly.
        for (i, k) in [7u64, 3, 9, 1].into_iter().enumerate() {
            h.push(TaggedStream {
                key: pack(k as f64, i as u64),
                id: RequestId(i as u64),
                bytes: 1,
                submitted: SimTime::ZERO,
            });
        }
        assert!(!h.heapified);
        let small: Vec<u64> = std::iter::from_fn(|| h.pop().map(|s| s.tag() as u64)).collect();
        assert_eq!(small, vec![1, 3, 7, 9]);
    }

    #[test]
    fn min_heap_boundary_oscillation_matches_model() {
        // Satellite regression: oscillate the population across SMALL_MAX
        // *mid-run* with interleaved pushes and pops (grow to 1.5x the
        // threshold, shrink below half, many cycles). Every pop must match
        // a brute-force model regardless of which side of the unsorted-vec
        // <-> heap boundary the structure is on, and both transitions must
        // actually occur.
        let mut h: MinHeap<TaggedStream> = MinHeap::with_capacity(0);
        let mut model: Vec<u128> = Vec::new();
        let mut rng = simcore::Rng::new(0xB0DA_5C17);
        let small_max = MinHeap::<TaggedStream>::SMALL_MAX;
        let hi = small_max + small_max / 2;
        let (mut seq, mut growing, mut cycle) = (0u64, true, 0u32);
        let (mut crossed_up, mut crossed_down) = (0u32, 0u32);
        for _ in 0..6000 {
            // Heap mode only reverts on a full drain, so alternate the
            // shrink floor between "hover just under the threshold" and
            // "drain to empty" to hit both transition directions often.
            let lo = if cycle % 2 == 0 { small_max / 2 } else { 0 };
            if growing && h.len() >= hi {
                growing = false;
            } else if !growing && h.len() <= lo {
                growing = true;
                cycle += 1;
            }
            let push = h.is_empty() || if growing { !rng.chance(0.25) } else { rng.chance(0.25) };
            let was_heapified = h.heapified;
            if push {
                let key = pack(rng.uniform(0.0, 1000.0), seq);
                h.push(TaggedStream {
                    key,
                    id: RequestId(seq),
                    bytes: 1,
                    submitted: SimTime::ZERO,
                });
                model.push(key);
                seq += 1;
                if !was_heapified && h.heapified {
                    crossed_up += 1;
                }
            } else {
                let min = model.iter().copied().min().expect("model non-empty");
                model.swap_remove(model.iter().position(|&k| k == min).unwrap());
                let got = h.pop().expect("heap non-empty").key;
                assert_eq!(got, min, "pop diverged from model at seq {seq}");
                if was_heapified && !h.heapified {
                    crossed_down += 1;
                }
            }
            assert_eq!(h.len(), model.len());
        }
        assert!(crossed_up >= 3, "crossed into heap mode only {crossed_up}x");
        assert!(crossed_down >= 3, "reverted to small mode only {crossed_down}x");
        while let Some(s) = h.pop() {
            let min = model.iter().copied().min().unwrap();
            model.swap_remove(model.iter().position(|&k| k == min).unwrap());
            assert_eq!(s.key, min);
        }
        assert!(!h.heapified && h.is_empty() && model.is_empty());
    }

    #[test]
    fn reset_matches_a_fresh_ost() {
        // Drive a target through noise, freeze and a partial drain, reset
        // it, and check a fresh workload completes at exactly the instants
        // a brand-new OST would produce.
        let p = testbed().ost;
        let mut used = VtOst::new(p.clone());
        for i in 0..20u64 {
            used.submit(SimTime::ZERO, RequestId(i), MIB + i * 8192, OpKind::WriteDirect);
        }
        used.set_noise(SimTime::from_secs_f64(0.5), 0.3);
        used.freeze(SimTime::from_secs_f64(1.0));
        used.unfreeze(SimTime::from_secs_f64(2.0));
        let at = used.next_completion().unwrap();
        used.advance(at);
        used.reset();
        assert_eq!(used.active_streams(), 0);
        assert_eq!(used.cache_used(), 0);
        assert!(used.next_completion().is_none());

        let mut fresh = VtOst::new(p);
        for ost in [&mut used, &mut fresh] {
            for i in 0..8u64 {
                ost.submit(SimTime::ZERO, RequestId(i), 4 * MIB + i * 4096, OpKind::Write);
            }
        }
        loop {
            let (a, b) = (used.next_completion(), fresh.next_completion());
            assert_eq!(a, b, "reset OST must wake at identical instants");
            let Some(at) = a else { break };
            let da: Vec<_> = used.advance(at).iter().map(|c| c.id).collect();
            let db: Vec<_> = fresh.advance(at).iter().map(|c| c.id).collect();
            assert_eq!(da, db);
        }
    }

    #[test]
    fn drain_completes_in_bounded_wakes() {
        // The asymptotic claim behind the whole engine: W writers drain in
        // at most 2W + O(1) wakes (one possible overhead-expiry wake per
        // submission burst, one completion wake each), not O(W²) work.
        let w = 256u64;
        let mut ost = VtOst::new(testbed().ost);
        for i in 0..w {
            ost.submit(SimTime::ZERO, RequestId(i), MIB + i * 4096, OpKind::WriteDirect);
        }
        let mut wakes = 0u64;
        let mut completions = 0u64;
        while let Some(at) = ost.next_completion() {
            wakes += 1;
            assert!(wakes <= 2 * w + 8, "event count must stay O(W)");
            completions += ost.advance(at).len() as u64;
        }
        assert_eq!(completions, w);
        assert_eq!(ost.active_streams(), 0);
    }

    #[test]
    fn lane_clock_rebases_when_lane_goes_idle() {
        let mut ost = VtOst::new(testbed().ost);
        ost.submit(SimTime::ZERO, RequestId(1), 8 * MIB, OpKind::WriteDirect);
        let mut at = SimTime::ZERO;
        while let Some(next) = ost.next_completion() {
            at = next;
            ost.advance(at);
        }
        assert_eq!(ost.disk.clock, 0.0, "idle lane clock rebased");
        // A second, later burst behaves exactly like a fresh one.
        ost.submit(at, RequestId(2), 8 * MIB, OpKind::WriteDirect);
        let done_at = loop {
            let next = ost.next_completion().expect("in flight");
            if !ost.advance(next).is_empty() {
                break next;
            }
        };
        let p = testbed().ost;
        let expect =
            at.as_secs_f64() + p.request_overhead + 8.0 * MIB as f64 / p.disk_peak.min(p.stream_cap);
        assert!((done_at.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn overhead_expiry_wake_is_spurious_but_finite() {
        let p = testbed().ost;
        let mut ost = VtOst::new(p.clone());
        ost.submit(SimTime::ZERO, RequestId(1), 128 * MIB, OpKind::WriteDirect);
        // First wake is the overhead expiry, which harvests nothing…
        let first = ost.next_completion().unwrap();
        assert!((first.as_secs_f64() - p.request_overhead).abs() < 1e-9);
        assert!(ost.advance(first).is_empty());
        // …and the second is the real completion.
        let second = ost.next_completion().unwrap();
        let expect = p.request_overhead + 128.0 * MIB as f64 / p.disk_peak.min(p.stream_cap);
        assert!((second.as_secs_f64() - expect).abs() < 1e-6);
        assert_eq!(ost.advance(second).len(), 1);
    }
}
