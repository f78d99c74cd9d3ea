//! The reference OST engine: a per-`dt` settle loop over every stream.
//!
//! This is the original, straightforward realisation of the fluid model —
//! `settle` walks all W streams, `next_completion` scans all of them, and
//! `advance` scans again to harvest — so a W-writer drain costs O(W²)
//! events × work. It is kept as the executable specification for the
//! virtual-time engine ([`super::vt::VtOst`]) and selected by the
//! `baseline-engine` feature for before/after benchmarking.

use simcore::SimTime;

use crate::params::OstParams;

use super::{per_stream_rate, wake_delay, Lane, OpKind, OstCompletion, RequestId, DONE_EPS};

#[derive(Clone, Debug)]
struct Stream {
    id: RequestId,
    lane: Lane,
    /// Seconds of fixed overhead still to burn before bytes move.
    overhead_left: f64,
    /// Bytes still to transfer.
    remaining: f64,
    /// Total size (for accounting).
    bytes: u64,
    /// Admission time (for latency accounting).
    submitted: SimTime,
}

/// One simulated storage target (reference settle-loop engine).
#[derive(Clone, Debug)]
pub struct RefOst {
    params: OstParams,
    streams: Vec<Stream>,
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
}

impl RefOst {
    /// Create an idle OST.
    pub fn new(params: OstParams) -> Self {
        RefOst {
            params,
            streams: Vec::new(),
            noise_factor: 1.0,
            frozen: false,
            cache_reserved: 0.0,
            cache_landed: 0.0,
            last_settle: SimTime::ZERO,
            n_disk: 0,
            n_cache: 0,
        }
    }

    /// Return the target to its freshly-constructed state, keeping the
    /// stream vector's capacity so a sweep can reuse one OST per seed
    /// without allocating.
    pub fn reset(&mut self) {
        self.streams.clear();
        self.noise_factor = 1.0;
        self.frozen = false;
        self.cache_reserved = 0.0;
        self.cache_landed = 0.0;
        self.last_settle = SimTime::ZERO;
        self.n_disk = 0;
        self.n_cache = 0;
    }

    /// Number of in-flight streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Number of in-flight disk-lane streams.
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

    fn lane_rate(&self, lane: Lane) -> f64 {
        per_stream_rate(&self.params, lane, self.n_disk, self.n_cache, self.noise_factor)
    }

    /// Advance all stream progress (and cache drain) from `last_settle` to
    /// `now`, without removing finished streams.
    fn settle(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_settle);
        let dt = (now - self.last_settle).as_secs_f64();
        if self.frozen {
            // A stalled target makes no progress at all (overhead, bytes,
            // cache drain); time simply passes it by.
            self.last_settle = now;
            return;
        }
        if dt > 0.0 {
            let disk_rate = self.lane_rate(Lane::Disk);
            let cache_rate = self.lane_rate(Lane::Cache);
            for s in &mut self.streams {
                let mut t = dt;
                if s.overhead_left > 0.0 {
                    let burn = s.overhead_left.min(t);
                    s.overhead_left -= burn;
                    t -= burn;
                }
                if t > 0.0 {
                    let rate = match s.lane {
                        Lane::Disk => disk_rate,
                        Lane::Cache => cache_rate,
                    };
                    s.remaining -= rate * t;
                }
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
    /// state; completions surface later through [`RefOst::advance`].
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
                // the shrinking headroom.
                self.cache_reserved += bytes as f64;
                self.n_cache += 1;
            }
            Lane::Disk => self.n_disk += 1,
        }
        self.streams.push(Stream {
            id,
            lane,
            overhead_left: self.params.request_overhead,
            remaining: bytes as f64,
            bytes,
            submitted: now,
        });
    }

    /// Move time forward to `now`, appending every request finished by
    /// then to `done` (the owner's reusable scratch buffer — the hot loop
    /// allocates nothing).
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<OstCompletion>) {
        self.settle(now);
        let start = done.len();
        let mut i = 0;
        while i < self.streams.len() {
            if self.streams[i].overhead_left <= 0.0 && self.streams[i].remaining <= DONE_EPS {
                let s = self.streams.swap_remove(i);
                match s.lane {
                    Lane::Cache => {
                        self.n_cache -= 1;
                        self.cache_landed += s.bytes as f64;
                    }
                    Lane::Disk => self.n_disk -= 1,
                }
                done.push(OstCompletion {
                    id: s.id,
                    submitted: s.submitted,
                    bytes: s.bytes,
                });
            } else {
                i += 1;
            }
        }
        // Sort for deterministic completion ordering independent of
        // swap_remove shuffling; 0/1-entry harvests (the common case)
        // skip the sort entirely.
        if done.len() - start >= 2 {
            done[start..].sort_by_key(|c| c.id);
        }
    }

    /// Move time forward to `now` and return every request that has
    /// finished by then (allocating convenience wrapper over
    /// [`RefOst::advance_into`]).
    pub fn advance(&mut self, now: SimTime) -> Vec<OstCompletion> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// Update the external-noise factor (settling progress first).
    pub fn set_noise(&mut self, now: SimTime, factor: f64) {
        debug_assert!(factor > 0.0 && factor <= 1.0, "noise factor {factor}");
        self.settle(now);
        self.noise_factor = factor;
    }

    /// Freeze the target (stall-mode failure): in-flight and future
    /// streams are held with zero progress until [`RefOst::unfreeze`].
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
        let mut ids: Vec<RequestId> = self.streams.iter().map(|s| s.id).collect();
        // Sorted so both engines return the same order regardless of how
        // they store streams internally.
        ids.sort_unstable();
        self.streams.clear();
        self.n_disk = 0;
        self.n_cache = 0;
        self.cache_reserved = 0.0;
        self.cache_landed = 0.0;
        ids
    }

    /// Predict the absolute time of the next stream completion, given the
    /// current state. `None` if idle or frozen.
    pub fn next_completion(&self) -> Option<SimTime> {
        if self.streams.is_empty() || self.frozen {
            return None;
        }
        let disk_rate = self.lane_rate(Lane::Disk);
        let cache_rate = self.lane_rate(Lane::Cache);
        let mut best = f64::INFINITY;
        for s in &self.streams {
            let rate = match s.lane {
                Lane::Disk => disk_rate,
                Lane::Cache => cache_rate,
            };
            let t = s.overhead_left + (s.remaining.max(0.0)) / rate;
            if t < best {
                best = t;
            }
        }
        Some(self.last_settle.saturating_add(wake_delay(best)))
    }
}
