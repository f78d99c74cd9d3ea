//! The co-simulation driver: couples a vector of actors with a
//! [`StorageSystem`] under one global clock.
//!
//! Event sources are (a) the cluster event queue (message deliveries,
//! timers) and (b) the storage system's internal schedule (completions,
//! noise flips). The driver always advances to the earlier of the two; on
//! ties, storage completions dispatch first (a write that finishes at the
//! same instant a message arrives is observed before the message — the
//! choice is arbitrary but fixed, which is what determinism requires).

use simcore::{EventQueue, Rng, SimTime, SplitMix64};
use storesim::{MachineConfig, StorageSystem};

use crate::actor::{Actor, Ctx, IoComplete, Rank};
use crate::faultplane::FaultPlane;

/// Boxed message-labelling closure used by traces. Lives inside
/// [`TraceState`], so it exists only while tracing is enabled — the
/// non-traced path carries a single `None` and allocates nothing.
type MsgLabeler<M> = Box<dyn Fn(&M) -> String>;

/// Everything tracing needs, bundled so the whole apparatus (record
/// buffer, capacity, optional labeller) is one `Option` in the
/// simulation and absent entirely when tracing is off.
struct TraceState<M> {
    buf: Vec<TraceRecord>,
    cap: usize,
    labeler: Option<MsgLabeler<M>>,
}

impl<M> TraceState<M> {
    fn new(cap: usize, labeler: Option<MsgLabeler<M>>) -> Self {
        TraceState {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            labeler,
        }
    }

    fn label(&self, msg: &M) -> String {
        match &self.labeler {
            Some(f) => f(msg),
            None => std::any::type_name::<M>()
                .rsplit("::")
                .next()
                .unwrap_or("msg")
                .to_string(),
        }
    }
}

/// Internal cluster events.
#[derive(Debug)]
pub enum PendingEvent<M> {
    /// A message in flight.
    Deliver {
        /// Sender.
        from: Rank,
        /// Receiver.
        to: Rank,
        /// Payload.
        msg: M,
    },
    /// A timer set by `rank`.
    Timer {
        /// Owner of the timer.
        rank: Rank,
        /// Actor-chosen discriminator.
        tag: u64,
    },
    /// A scheduled rank death (fault injection).
    Kill {
        /// The rank that dies.
        rank: Rank,
    },
}

/// One recorded simulation event (tracing enabled via
/// [`Simulation::enable_trace`]). The managed-io `fig4_walkthrough`
/// example uses this to print the adaptive protocol's message flow — the
/// observable form of the paper's Fig. 4 organisation.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// When the event was dispatched.
    pub at: SimTime,
    /// Receiving/owning rank.
    pub rank: Rank,
    /// Human-readable description.
    pub what: String,
}

/// Outcome of a completed simulation run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Time of the last processed event.
    pub end_time: SimTime,
    /// Number of cluster events (messages + timers) processed.
    pub cluster_events: u64,
    /// Number of storage completions delivered to actors.
    pub io_completions: u64,
    /// Storage completions addressed to killed ranks, dropped instead of
    /// delivered. Counted separately — they were never observed by any
    /// actor, so folding them into `io_completions` (as an earlier
    /// version did) over-reported delivered IO under rank-kill faults.
    pub io_evaporated: u64,
}

/// Wall-time phase breakdown of the coupled driver loop, captured when
/// [`Simulation::enable_driver_profiling`] is on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DriverProfile {
    /// Seconds dispatching cluster events (messages, timers, kills) into
    /// actors.
    pub cluster_dispatch_s: f64,
    /// Seconds advancing the storage system.
    pub storage_drain_s: f64,
    /// Seconds delivering harvested storage completions into actors.
    pub harvest_deliver_s: f64,
    /// Driver loop rounds executed.
    pub rounds: u64,
}

#[derive(Debug, Default)]
struct DriverProf {
    cluster: std::time::Duration,
    drain: std::time::Duration,
    deliver: std::time::Duration,
    rounds: u64,
}

/// The simulation: actors + storage under one clock.
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    storage: StorageSystem,
    queue: EventQueue<PendingEvent<A::Msg>>,
    rng: Rng,
    msg_latency: f64,
    msg_bandwidth: f64,
    started: bool,
    finished: u64,
    /// Installed message-layer fault injector, if any.
    faults: Option<FaultPlane>,
    /// Ranks that have been killed (no further event dispatch).
    dead: Vec<bool>,
    /// Tracing apparatus (buffer + capacity + optional labeller); `None`
    /// — and allocation-free — unless a trace was enabled.
    trace: Option<TraceState<A::Msg>>,
    /// Reusable harvest buffer handed to `StorageSystem::advance_into` on
    /// every storage wake (the hot loop allocates nothing).
    io_buf: Vec<storesim::system::StorageCompletion>,
    /// Driver phase profile, `None` (zero overhead) unless enabled.
    dprof: Option<Box<DriverProf>>,
}

impl<A: Actor> Simulation<A> {
    /// Build a simulation over `actors` (rank i = index i) on a machine.
    /// Storage noise and the shared RNG derive from `seed`. Accepts an
    /// owned config or a shared `Arc<MachineConfig>`.
    pub fn new(cfg: impl Into<std::sync::Arc<MachineConfig>>, actors: Vec<A>, seed: u64) -> Self {
        let cfg = cfg.into();
        let storage = StorageSystem::new(std::sync::Arc::clone(&cfg), seed);
        Self::with_storage(cfg, actors, seed, storage)
    }

    /// Like [`Simulation::new`], but adopt a pre-built storage system —
    /// used when files must be created (and their ids handed to actors)
    /// before the run starts.
    pub fn with_storage(
        cfg: impl Into<std::sync::Arc<MachineConfig>>,
        actors: Vec<A>,
        seed: u64,
        storage: StorageSystem,
    ) -> Self {
        let cfg = cfg.into();
        let msg_latency = cfg.msg_latency;
        let msg_bandwidth = cfg.msg_bandwidth;
        let mut seeder = SplitMix64::new(seed ^ 0xC1A5_7E25_11D3_0001);
        let rng = seeder.stream();
        let dead = vec![false; actors.len()];
        Simulation {
            actors,
            storage,
            queue: EventQueue::new(),
            rng,
            msg_latency,
            msg_bandwidth,
            started: false,
            finished: 0,
            faults: None,
            dead,
            trace: None,
            io_buf: Vec::new(),
            dprof: None,
        }
    }

    /// Start collecting a wall-time phase breakdown of the driver loop
    /// (see [`Simulation::driver_profile`]).
    pub fn enable_driver_profiling(&mut self) {
        self.dprof = Some(Box::default());
    }

    /// The driver phase profile collected so far, if enabled.
    pub fn driver_profile(&self) -> Option<DriverProfile> {
        self.dprof.as_ref().map(|p| DriverProfile {
            cluster_dispatch_s: p.cluster.as_secs_f64(),
            storage_drain_s: p.drain.as_secs_f64(),
            harvest_deliver_s: p.deliver.as_secs_f64(),
            rounds: p.rounds,
        })
    }

    /// Tear down the simulation, recovering the storage system (with all
    /// its capacity — queues, heaps, scratch buffers) so a sweep can
    /// [`StorageSystem::reset`] and reuse it for the next seed.
    pub fn into_storage(self) -> StorageSystem {
        self.storage
    }

    /// Install a message-layer fault plane (drop/delay/duplicate per link,
    /// scheduled rank kills). Call before running.
    pub fn install_fault_plane(&mut self, plane: FaultPlane) {
        for &(at, rank) in plane.kills() {
            self.queue.schedule(at, PendingEvent::Kill { rank });
        }
        self.faults = Some(plane);
    }

    /// Whether `rank` has been killed by the fault plane.
    pub fn is_dead(&self, rank: Rank) -> bool {
        self.dead[rank.0 as usize]
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.actors.len()
    }

    /// Access an actor (e.g. to read results after a run).
    pub fn actor(&self, rank: Rank) -> &A {
        &self.actors[rank.0 as usize]
    }

    /// Iterate all actors (results collection).
    pub fn actors(&self) -> impl Iterator<Item = &A> {
        self.actors.iter()
    }

    /// Mutable access to the storage system (pre-run setup: file creation,
    /// background interference streams).
    pub fn storage_mut(&mut self) -> &mut StorageSystem {
        &mut self.storage
    }

    /// Read access to the storage system.
    pub fn storage(&self) -> &StorageSystem {
        &self.storage
    }

    fn dispatch_start(&mut self) {
        let Simulation {
            actors,
            storage,
            queue,
            rng,
            msg_latency,
            msg_bandwidth,
            finished,
            faults,
            ..
        } = self;
        for (i, a) in actors.iter_mut().enumerate() {
            let mut ctx = Ctx {
                now: SimTime::ZERO,
                rank: Rank(i as u32),
                storage,
                queue,
                rng,
                msg_latency: *msg_latency,
                msg_bandwidth: *msg_bandwidth,
                finished,
                faults,
            };
            a.on_start(&mut ctx);
        }
    }

    /// How many [`Ctx::finish`] signals actors have raised so far.
    pub fn finish_count(&self) -> u64 {
        self.finished
    }

    /// Record up to `cap` dispatched events (message deliveries, timers,
    /// IO completions) for later inspection via
    /// [`Simulation::take_trace`]. Messages are labelled with their type
    /// name; use [`Simulation::enable_trace_with`] for richer labels.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(TraceState::new(cap, None));
    }

    /// Like [`Simulation::enable_trace`], with a custom message labeller
    /// (e.g. `|m| format!("{m:?}")` for `Debug` messages).
    pub fn enable_trace_with(&mut self, cap: usize, labeler: impl Fn(&A::Msg) -> String + 'static) {
        self.trace = Some(TraceState::new(cap, Some(Box::new(labeler))));
    }

    /// Drain the recorded trace.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take().map(|t| t.buf).unwrap_or_default()
    }

    fn record(trace: &mut Option<TraceState<A::Msg>>, at: SimTime, rank: Rank, what: String) {
        if let Some(t) = trace {
            if t.buf.len() < t.cap {
                t.buf.push(TraceRecord { at, rank, what });
            }
        }
    }

    /// Run until `finish_target` actors have called [`Ctx::finish`], both
    /// event sources are exhausted, or `deadline` passes — whichever comes
    /// first. The finish target is the only reliable stop condition on
    /// machines with perpetual background activity (production noise,
    /// interference streams), where events never run dry.
    pub fn run_until(&mut self, finish_target: u64, deadline: SimTime) -> RunStats {
        self.run_inner(Some(finish_target), deadline)
    }

    /// Run until both event sources are exhausted or `deadline` passes.
    /// Returns run statistics.
    pub fn run(&mut self, deadline: SimTime) -> RunStats {
        self.run_inner(None, deadline)
    }

    fn run_inner(&mut self, finish_target: Option<u64>, deadline: SimTime) -> RunStats {
        if !self.started {
            self.started = true;
            self.dispatch_start();
        }
        let mut stats = RunStats {
            end_time: SimTime::ZERO,
            cluster_events: 0,
            io_completions: 0,
            io_evaporated: 0,
        };
        // Advance to the earlier of the two event sources, one instant at
        // a time.
        loop {
            if let Some(t) = finish_target {
                if self.finished >= t {
                    break;
                }
            }
            if let Some(p) = &mut self.dprof {
                p.rounds += 1;
            }
            let tq = self.queue.peek_time();
            let ts = self.storage.next_event_time();
            let t = match (tq, ts) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if t > deadline {
                break;
            }
            stats.end_time = t;
            // Storage first on ties.
            if ts.is_some_and(|s| s <= t) {
                let mut completions = std::mem::take(&mut self.io_buf);
                completions.clear();
                let t0 = self.dprof.as_ref().map(|_| std::time::Instant::now());
                self.storage.advance_into(t, &mut completions);
                if let (Some(t0), Some(p)) = (t0, self.dprof.as_mut()) {
                    p.drain += t0.elapsed();
                }
                let t1 = self.dprof.as_ref().map(|_| std::time::Instant::now());
                for c in completions.drain(..) {
                    self.dispatch_completion(c, &mut stats);
                }
                if let (Some(t1), Some(p)) = (t1, self.dprof.as_mut()) {
                    p.deliver += t1.elapsed();
                }
                self.io_buf = completions;
                // Re-evaluate sources; the storage advance may have been a
                // pure noise flip producing no completions.
                if self.queue.peek_time() != tq || tq != Some(t) {
                    continue;
                }
            }
            // Deliver at most one cluster event per iteration if it is due.
            if tq == Some(t) {
                let (at, ev) = self.queue.pop().expect("peeked event exists");
                let t0 = self.dprof.as_ref().map(|_| std::time::Instant::now());
                self.dispatch_cluster_event(at, ev, &mut stats);
                if let (Some(t0), Some(p)) = (t0, self.dprof.as_mut()) {
                    p.cluster += t0.elapsed();
                }
            }
        }
        stats
    }

    /// Deliver one harvested storage completion to its rank (or count it
    /// as evaporated if the rank is dead).
    fn dispatch_completion(
        &mut self,
        c: storesim::system::StorageCompletion,
        stats: &mut RunStats,
    ) {
        let rank = Rank((c.tag >> 32) as u32);
        if self.dead[rank.0 as usize] {
            // Completions for killed ranks evaporate, undelivered.
            stats.io_evaporated += 1;
            return;
        }
        stats.io_completions += 1;
        let done = IoComplete {
            tag: (c.tag & 0xFFFF_FFFF) as u32,
            bytes: c.bytes,
            submitted: c.submitted,
            finished: c.finished,
            kind: c.kind,
            error: c.error,
        };
        let Simulation {
            actors,
            storage,
            queue,
            rng,
            msg_latency,
            msg_bandwidth,
            finished,
            faults,
            trace,
            ..
        } = self;
        Self::record(
            trace,
            c.finished,
            rank,
            format!("io-complete {:?} {} B (tag {})", done.kind, done.bytes, done.tag),
        );
        let mut ctx = Ctx {
            now: c.finished,
            rank,
            storage,
            queue,
            rng,
            msg_latency: *msg_latency,
            msg_bandwidth: *msg_bandwidth,
            finished,
            faults,
        };
        actors[rank.0 as usize].on_io_complete(done, &mut ctx);
    }

    /// Dispatch one popped cluster event into its actor.
    fn dispatch_cluster_event(
        &mut self,
        at: SimTime,
        ev: PendingEvent<A::Msg>,
        stats: &mut RunStats,
    ) {
        stats.cluster_events += 1;
        let Simulation {
            actors,
            storage,
            queue,
            rng,
            msg_latency,
            msg_bandwidth,
            finished,
            faults,
            dead,
            trace,
            ..
        } = self;
        match ev {
            PendingEvent::Deliver { from, to, msg } => {
                if dead[to.0 as usize] {
                    // Killed ranks receive nothing.
                } else {
                    if let Some(t) = trace.as_ref() {
                        let label = t.label(&msg);
                        Self::record(trace, at, to, format!("recv from {}: {label}", from.0));
                    }
                    let mut ctx = Ctx {
                        now: at,
                        rank: to,
                        storage,
                        queue,
                        rng,
                        msg_latency: *msg_latency,
                        msg_bandwidth: *msg_bandwidth,
                        finished,
                        faults,
                    };
                    actors[to.0 as usize].on_message(from, msg, &mut ctx);
                }
            }
            PendingEvent::Timer { rank, tag } => {
                if !dead[rank.0 as usize] {
                    Self::record(trace, at, rank, format!("timer {tag}"));
                    let mut ctx = Ctx {
                        now: at,
                        rank,
                        storage,
                        queue,
                        rng,
                        msg_latency: *msg_latency,
                        msg_bandwidth: *msg_bandwidth,
                        finished,
                        faults,
                    };
                    actors[rank.0 as usize].on_timer(tag, &mut ctx);
                }
            }
            PendingEvent::Kill { rank } => {
                Self::record(trace, at, rank, "killed".to_string());
                dead[rank.0 as usize] = true;
            }
        }
    }

    /// Run with a generous default deadline (10^7 simulated seconds) —
    /// effectively "run to completion" for well-formed protocols; a stuck
    /// protocol shows up as hitting the deadline, which callers assert on.
    pub fn run_to_completion(&mut self) -> RunStats {
        self.run(SimTime::from_secs_f64(1.0e7))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::MIB;
    use simcore::SimDuration;
    use storesim::layout::{OstId, StripeSpec};
    use storesim::params::testbed;

    /// Ping-pong: rank 0 sends a counter to rank 1 and back N times.
    struct PingPong {
        hits: u32,
        limit: u32,
        last_seen: Option<SimTime>,
    }

    impl Actor for PingPong {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.rank() == Rank(0) {
                ctx.send_control(Rank(1), 0);
            }
        }
        fn on_message(&mut self, from: Rank, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.hits += 1;
            self.last_seen = Some(ctx.now());
            if msg < self.limit {
                ctx.send_control(from, msg + 1);
            }
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let mk = || PingPong {
            hits: 0,
            limit: 9,
            last_seen: None,
        };
        let mut sim = Simulation::new(testbed(), vec![mk(), mk()], 1);
        let stats = sim.run_to_completion();
        // msgs 0..=9 → 10 deliveries total, 5 per rank.
        assert_eq!(stats.cluster_events, 10);
        assert_eq!(sim.actor(Rank(0)).hits + sim.actor(Rank(1)).hits, 10);
        // Each hop costs at least the base latency.
        let end = sim.actor(Rank(1)).last_seen.unwrap();
        assert!(end.as_secs_f64() >= 9.0 * testbed().msg_latency);
    }

    /// Writer: writes one block on start, records the completion.
    struct OneWrite {
        bytes: u64,
        done: Option<IoComplete>,
    }

    impl Actor for OneWrite {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            let r = ctx.rank().0 as usize;
            ctx.write_ost(OstId(r % 8), self.bytes, 7);
        }
        fn on_message(&mut self, _f: Rank, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_io_complete(&mut self, done: IoComplete, _ctx: &mut Ctx<'_, ()>) {
            assert_eq!(done.tag, 7);
            self.done = Some(done);
        }
    }

    #[test]
    fn io_completions_route_to_the_right_rank() {
        let actors: Vec<OneWrite> = (0..16)
            .map(|i| OneWrite {
                bytes: (i + 1) * MIB,
                done: None,
            })
            .collect();
        let mut sim = Simulation::new(testbed(), actors, 2);
        let stats = sim.run_to_completion();
        assert_eq!(stats.io_completions, 16);
        for (i, a) in sim.actors().enumerate() {
            let d = a.done.expect("every rank completed");
            assert_eq!(d.bytes, (i as u64 + 1) * MIB);
            assert!(d.finished > d.submitted);
        }
    }

    /// Timer echo.
    struct TimerUser {
        fired: Vec<u64>,
    }
    impl Actor for TimerUser {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            ctx.set_timer(SimDuration::from_millis(1), 2);
        }
        fn on_message(&mut self, _f: Rank, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, tag: u64, _ctx: &mut Ctx<'_, ()>) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulation::new(testbed(), vec![TimerUser { fired: vec![] }], 3);
        sim.run_to_completion();
        assert_eq!(sim.actor(Rank(0)).fired, vec![2, 1]);
    }

    /// Rank 0 writes, then messages rank 1, which writes in response —
    /// exercises interleaved IO and messaging.
    struct Chained {
        wrote: bool,
        finished_at: Option<SimTime>,
    }
    impl Actor for Chained {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.rank() == Rank(0) {
                let f = ctx.create_file("chain0", StripeSpec::Pinned(vec![OstId(0)]));
                ctx.write_file(f, 0, 4 * MIB, 0);
                self.wrote = true;
            }
        }
        fn on_message(&mut self, _f: Rank, _m: (), ctx: &mut Ctx<'_, ()>) {
            let f = ctx.create_file("chain1", StripeSpec::Pinned(vec![OstId(1)]));
            ctx.write_file(f, 0, 4 * MIB, 1);
            self.wrote = true;
        }
        fn on_io_complete(&mut self, done: IoComplete, ctx: &mut Ctx<'_, ()>) {
            self.finished_at = Some(done.finished);
            if ctx.rank() == Rank(0) {
                ctx.send_control(Rank(1), ());
            }
        }
    }

    #[test]
    fn io_and_messages_interleave() {
        let mk = || Chained {
            wrote: false,
            finished_at: None,
        };
        let mut sim = Simulation::new(testbed(), vec![mk(), mk()], 4);
        sim.run_to_completion();
        let t0 = sim.actor(Rank(0)).finished_at.unwrap();
        let t1 = sim.actor(Rank(1)).finished_at.unwrap();
        assert!(sim.actor(Rank(1)).wrote);
        assert!(t1 > t0, "rank 1 wrote strictly after rank 0 finished");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let actors: Vec<OneWrite> = (0..32)
                .map(|i| OneWrite {
                    bytes: (i % 7 + 1) * MIB,
                    done: None,
                })
                .collect();
            let mut sim = Simulation::new(testbed(), actors, seed);
            sim.run_to_completion();
            sim.actors()
                .map(|a| a.done.unwrap().finished.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn deadline_stops_early() {
        let actors = vec![OneWrite {
            bytes: 1024 * MIB,
            done: None,
        }];
        let mut sim = Simulation::new(testbed(), actors, 6);
        let stats = sim.run(SimTime::from_secs_f64(0.001));
        assert_eq!(stats.io_completions, 0);
        assert!(sim.actor(Rank(0)).done.is_none());
    }

    #[test]
    fn killed_rank_receives_nothing_further() {
        // Ping-pong with rank 1 killed at t=0.05 s: the volley stops and
        // the run terminates without hanging (queue simply drains).
        let mk = || PingPong {
            hits: 0,
            limit: 1_000_000,
            last_seen: None,
        };
        let mut sim = Simulation::new(testbed(), vec![mk(), mk()], 7);
        sim.install_fault_plane(crate::FaultPlane::new(7).kill_at(0.05, 1));
        sim.run(SimTime::from_secs_f64(10.0));
        assert!(sim.is_dead(Rank(1)));
        let last = sim.actor(Rank(1)).last_seen.unwrap();
        assert!(
            last.as_secs_f64() <= 0.05,
            "rank 1 saw a message after its death: {last:?}"
        );
        // Rank 0's last receive is at most one hop after the kill.
        let last0 = sim.actor(Rank(0)).last_seen.unwrap();
        assert!(last0.as_secs_f64() <= 0.05 + 2.0 * testbed().msg_latency + 0.01);
    }

    #[test]
    fn duplicated_messages_are_delivered_twice() {
        /// Counts raw deliveries of a single fired message.
        struct CountRecv {
            seen: u32,
        }
        impl Actor for CountRecv {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.rank() == Rank(0) {
                    ctx.send_control(Rank(1), ());
                }
            }
            fn on_message(&mut self, _f: Rank, _m: (), _c: &mut Ctx<'_, ()>) {
                self.seen += 1;
            }
        }
        let mut sim = Simulation::new(
            testbed(),
            vec![CountRecv { seen: 0 }, CountRecv { seen: 0 }],
            8,
        );
        sim.install_fault_plane(
            crate::FaultPlane::new(8)
                .with_default(crate::LinkFaults::flaky(1.0, 0.0, 0.0)),
        );
        sim.run_to_completion();
        assert_eq!(sim.actor(Rank(1)).seen, 2, "dup_p=1 must deliver twice");
    }

    #[test]
    fn killed_rank_completions_evaporate_not_complete() {
        // Rank 0 issues a slow 1 GiB write and is killed long before it
        // finishes. The completion must be counted as evaporated, not as
        // delivered — the old driver bumped `io_completions` *before* the
        // dead-rank check and over-reported.
        let actors = vec![OneWrite {
            bytes: 1024 * MIB,
            done: None,
        }];
        let mut sim = Simulation::new(testbed(), actors, 11);
        sim.install_fault_plane(crate::FaultPlane::new(11).kill_at(0.001, 0));
        let stats = sim.run(SimTime::from_secs_f64(1.0e4));
        assert!(sim.is_dead(Rank(0)));
        assert_eq!(
            stats.io_completions, 0,
            "a dead rank's completion was counted as delivered"
        );
        assert_eq!(
            stats.io_evaporated, 1,
            "the evaporated completion went untallied"
        );
        assert!(sim.actor(Rank(0)).done.is_none());
    }

    #[test]
    fn faulted_runs_are_seed_deterministic() {
        let run = || {
            let mk = || PingPong {
                hits: 0,
                limit: 50,
                last_seen: None,
            };
            let mut sim = Simulation::new(testbed(), vec![mk(), mk()], 9);
            sim.install_fault_plane(
                crate::FaultPlane::new(9)
                    .with_default(crate::LinkFaults::flaky(0.2, 0.3, 0.002)),
            );
            sim.run(SimTime::from_secs_f64(100.0));
            (
                sim.actor(Rank(0)).hits,
                sim.actor(Rank(1)).hits,
                sim.actor(Rank(1)).last_seen.map(|t| t.as_nanos()),
            )
        };
        assert_eq!(run(), run());
    }
}
