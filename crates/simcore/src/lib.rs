//! # simcore — deterministic discrete-event simulation engine
//!
//! Foundation for the managed-io storage/cluster simulators. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`EventQueue`] — a slab-backed 4-ary heap of timestamped events with
//!   stable FIFO tie-breaking and O(1) cancellation via generation-stamped
//!   [`EventToken`]s (no hashing on the hot path).
//! * [`fx`] — FxHash map/set aliases for trusted integer keys.
//! * [`par`] — deterministic fork-join `par_map` over independent
//!   replicates, honoring the `MANAGED_IO_THREADS` environment variable.
//! * [`rng`] — seedable, reproducible random number generators
//!   (SplitMix64 for seeding, xoshiro256** for streams) and the
//!   distributions the storage models need (uniform, exponential, normal,
//!   lognormal, bounded Pareto).
//! * [`units`] — byte-size and bandwidth helpers (`MIB`, `GIB`,
//!   [`units::Bandwidth`]).
//!
//! Everything here is deterministic: the same seed and the same sequence of
//! `schedule` calls produce bit-identical simulations, which is what makes
//! every figure and table in the reproduction exactly re-runnable.
//!
//! ```
//! use simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t, SimTime::from_nanos(1_000_000));
//! ```

#![warn(missing_docs)]

pub mod fx;
pub mod par;
pub mod queue;
pub mod rng;
pub mod time;
pub mod units;

pub use fx::{FxHashMap, FxHashSet};
pub use queue::{EventQueue, EventToken};
pub use rng::{Rng, SplitMix64};
pub use time::{SimDuration, SimTime};
