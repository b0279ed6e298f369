//! The runtime coordinator: the public [`Runtime`] API over one executor.
//!
//! A [`Runtime`] owns the nodes' positions, the churn schedule, the
//! replay transcript and one executor core ([`crate::shard`]) holding
//! every node. Every entry point drives the same epoch loop
//! (`Runtime::drive`): pick the next lookahead window (or churn
//! barrier), have the core(s) process it, and fold the window's records
//! into the transcript. [`Runtime::run`] and [`Runtime::run_with_limit`]
//! advance the core inline on the calling thread; [`Runtime::run_sharded`]
//! splits it into up to `k` cores on worker threads for the run and
//! merges them back. Every run is bit-for-bit replayable from
//! `(nodes, positions, faults, seed)` on any layout, because:
//!
//! 1. **Per-directed-link RNG streams.** Every link `u → v` owns a
//!    `ChaCha8Rng` seeded from `splitmix64(seed, u, v)`; a transmission's
//!    fate (drop/delay/duplicate) depends only on the sender's
//!    deterministic emission order on that link, never on global
//!    scheduling history or thread interleaving.
//! 2. **Canonical event order.** Events tie-break by [`EventKey`]
//!    `(node, class, src, link/arm seq)` instead of global insertion
//!    order, so per-node event streams are layout-invariant (see
//!    [`crate::event`]).
//! 3. **Windowed digest folds.** Event records accumulate in per-node
//!    sub-digests and fold into the global digest in node-id order at
//!    each lookahead-window boundary (`crate::stats::Folds`).
//!
//! [`EventKey`]: crate::EventKey

use crate::churn::{plan_churn, ChurnDelta, ChurnKind, ChurnSchedule, Topology};
use crate::fault::FaultConfig;
use crate::node::Actor;
use crate::shard::{Partition, Pool, Shard};
use crate::stats::{Folds, NetStats, Transcript, WindowNotes};
use crate::{ChurnPlan, MemberState};
use adhoc_geom::Point;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used to
/// derive independent per-link seeds from `(run seed, from, to)`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Key of the directed link `from → to` in the link-state map.
pub(crate) fn link_key(from: u32, to: u32) -> u64 {
    ((from as u64) << 32) | to as u64
}

/// Per-directed-link transmission state: the link's private RNG stream
/// and its copy counter (feeds [`EventKey::deliver`] sequence numbers;
/// fault-layer duplicates take consecutive values).
///
/// [`EventKey::deliver`]: crate::EventKey::deliver
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    pub(crate) rng: ChaCha8Rng,
    pub(crate) copies: u64,
}

impl LinkState {
    pub(crate) fn new(seed: u64, from: u32, to: u32) -> Self {
        LinkState {
            rng: ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(link_key(from, to)))),
            copies: 0,
        }
    }
}

/// Thread count requested via the `ADHOC_SHARD_THREADS` environment
/// variable (default 1 = the inline core).
pub fn shard_threads_from_env() -> usize {
    std::env::var("ADHOC_SHARD_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t: &usize| t >= 1)
        .unwrap_or(1)
}

/// Deterministic discrete-event runtime over a set of node actors placed
/// in the plane. Radio broadcasts reach every node within `range`
/// (the paper's `G*` neighborhood); each link-level copy independently
/// passes through the [`FaultConfig`] on its own RNG stream.
#[derive(Debug)]
pub struct Runtime<A: Actor> {
    /// The executor core. It owns every node, except while
    /// [`Self::run_sharded`] has split it across worker threads; it also
    /// holds the topology snapshot and the run's counters.
    core: Shard<A>,
    /// Node positions (reflecting any drifts applied so far).
    positions: Vec<Point>,
    /// Radio range (spatial shard cell side).
    range: f64,
    /// Pending churn batches, sorted by (lookahead-aligned) time.
    churn: ChurnSchedule,
    /// Time of the last scheduled perturbation (0 without churn).
    last_churn: u64,
    /// Set by [`Self::start`]; churn plans must be installed before it.
    started: bool,
    trace: Transcript,
    /// Reused buffer for the window being folded.
    folds: Folds,
}

impl<A: Actor> Runtime<A> {
    /// Build a runtime over `nodes` at the given positions; node `i` sits
    /// at `positions[i]` and its broadcasts reach every node within
    /// `range`.
    pub fn new(
        nodes: Vec<A>,
        positions: &[Point],
        range: f64,
        faults: FaultConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(nodes.len(), positions.len(), "one position per node");
        assert!(range.is_finite() && range > 0.0, "range must be positive");
        faults.validate();
        let alive = vec![MemberState::Alive; positions.len()];
        let topo = Arc::new(Topology::build(positions, alive, range));
        Runtime {
            core: Shard::new(nodes, topo, faults, seed),
            positions: positions.to_vec(),
            range,
            churn: ChurnSchedule::default(),
            last_churn: 0,
            started: false,
            trace: Transcript::new(false),
            folds: Folds::default(),
        }
    }

    /// Keep the full human-readable event log (off by default; the digest
    /// is always maintained). Entries appear grouped by node within each
    /// lookahead window — the canonical fold order.
    pub fn record_trace(&mut self, record: bool) {
        self.trace = Transcript::new(record);
        self.core.notes = WindowNotes::new(self.core.ids.len(), record);
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// Counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// The replay transcript.
    pub fn transcript(&self) -> &Transcript {
        &self.trace
    }

    /// Immutable view of a node's actor state.
    pub fn node(&self, id: u32) -> &A {
        &self.core.nodes[id as usize]
    }

    /// All node actors, in id order.
    pub fn nodes(&self) -> &[A] {
        &self.core.nodes
    }

    /// All node actors, mutably (for set-up from the installed topology
    /// before [`Self::start`]).
    pub(crate) fn nodes_mut(&mut self) -> &mut [A] {
        &mut self.core.nodes
    }

    /// The radio neighbors of `id` (sorted).
    pub fn radio_neighbors(&self, id: u32) -> &[u32] {
        &self.core.topo.rows[id as usize]
    }

    /// Current membership state of `id`.
    pub fn member_state(&self, id: u32) -> MemberState {
        self.core.topo.membership[id as usize]
    }

    /// Current node positions (reflecting any drifts applied so far).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Virtual time of the last scheduled perturbation; 0 without churn.
    pub fn last_churn_time(&self) -> u64 {
        self.last_churn
    }

    /// Install a churn/mobility plan. Must be called before
    /// [`Self::start`]; entry times snap up to lookahead-window
    /// boundaries so perturbations land exactly at epoch barriers
    /// (digest stability across layouts). Panics on an inconsistent
    /// plan — see [`ChurnPlan`].
    pub fn set_churn_plan(&mut self, plan: &ChurnPlan) {
        assert!(
            !self.started,
            "set_churn_plan must be called before start()"
        );
        let planned = plan_churn(plan, self.positions.len(), self.lookahead());
        // Joiners sit at their spawn position from t = 0: the spatial
        // shard partition (and hence worker assignment) is fixed up front.
        for &(node, pos) in &planned.spawn_positions {
            self.positions[node as usize] = pos;
        }
        self.last_churn = planned.schedule.last_time();
        self.churn = planned.schedule;
        let topo = Topology::build(&self.positions, planned.membership, self.range);
        self.core.topo = Arc::new(topo);
    }

    /// The conservative lookahead: no transmission can arrive sooner than
    /// this many ticks after it was sent, so cores advanced in windows of
    /// this width only exchange messages at window boundaries.
    fn lookahead(&self) -> u64 {
        self.core.faults.min_delay()
    }

    /// Deliver `on_start` to every node (in id order) at the current
    /// time, then fold any records it produced (drops of time-0 sends)
    /// as a pseudo-window of their own.
    pub fn start(&mut self) {
        self.started = true;
        self.core.start(&mut self.folds);
        self.close_window(self.core.queue.len());
    }

    /// Process events until the queue is empty or `max_events` have been
    /// handled; returns true iff the run went quiescent. Protocols are
    /// responsible for termination (bounded timer schedules); the cap is a
    /// backstop against runaway retransmit loops.
    ///
    /// Capped runs use the inline core and fold whatever partial window
    /// is open when the cap strikes, so a capped digest only matches
    /// another identically-capped run.
    pub fn run_with_limit(&mut self, max_events: u64) -> bool {
        self.drive(None, max_events)
    }

    /// Run to quiescence on the inline core (see
    /// [`Self::run_with_limit`]); returns the final virtual time.
    pub fn run(&mut self) -> u64 {
        self.drive(None, u64::MAX);
        self.now()
    }

    /// The epoch loop behind every run: repeatedly open the next epoch —
    /// a due churn batch opens `[tc, tc + L)`, otherwise the lookahead
    /// window holding the earliest pending event — let the inline core
    /// (`pool == None`) or the worker cores process it, and fold it.
    /// Only the inline core honours `budget`. Returns true iff quiescent.
    fn drive(&mut self, mut pool: Option<&mut Pool<A>>, mut budget: u64) -> bool {
        let lookahead = self.lookahead();
        loop {
            let next = match &pool {
                Some(pool) => pool.next_time(),
                None => self.core.queue.peek_time(),
            };
            // A churn batch due at `tc` applies before any event at `tc`;
            // perturbation times are lookahead-aligned, so it always
            // opens an epoch.
            let (until, churn) = match self.churn.peek_time() {
                Some(tc) if next.is_none_or(|t| tc <= t) => {
                    (tc + lookahead, Some(self.take_churn_batch()))
                }
                _ => match next {
                    None => return true,
                    Some(_) if budget == 0 => return false,
                    Some(t) => ((t / lookahead + 1) * lookahead, None),
                },
            };
            let pending = match pool.as_deref_mut() {
                Some(pool) => pool.epoch(until, churn, &mut self.folds),
                None => {
                    let churn = churn.as_ref();
                    self.core.epoch(until, churn, &mut budget, &mut self.folds);
                    self.core.queue.len()
                }
            };
            self.close_window(pending);
        }
    }

    /// End a window: sample the pending-event count and fold the
    /// window's per-node sub-digests into the transcript.
    fn close_window(&mut self, pending: usize) {
        let depth = &mut self.core.stats.max_queue_depth;
        *depth = (*depth).max(pending);
        self.folds.fold_into(&mut self.trace);
    }

    /// Take the next due churn batch: update positions and the topology
    /// snapshot, and compute the [`ChurnDelta`] every core applies — the
    /// new snapshot plus the live nodes whose one-hop world changed (new
    /// or lost neighbor rows, neighbors that drifted, or being a
    /// perturbation subject).
    fn take_churn_batch(&mut self) -> ChurnDelta {
        let (time, entries) = self.churn.take_batch();
        let old = Arc::clone(&self.core.topo);
        let mut membership = old.membership.clone();
        let mut drifted: Vec<u32> = Vec::new();
        for e in &entries {
            let u = e.node as usize;
            match e.kind {
                ChurnKind::Join(pos) => {
                    self.positions[u] = pos;
                    membership[u] = MemberState::Alive;
                }
                ChurnKind::Leave => membership[u] = MemberState::Draining,
                ChurnKind::Crash => membership[u] = MemberState::Dead,
                ChurnKind::Drift(pos) => {
                    self.positions[u] = pos;
                    drifted.push(e.node);
                }
            }
        }
        drifted.sort_unstable();
        let topo = Arc::new(Topology::build(&self.positions, membership, self.range));
        let mut affected: BTreeSet<u32> = (0..topo.rows.len() as u32)
            .filter(|&u| {
                let row = &topo.rows[u as usize];
                // A changed row, or an unchanged one whose neighbor
                // moved within range: the geometric one-hop world changed.
                *row != old.rows[u as usize]
                    || (topo.membership[u as usize] == MemberState::Alive
                        && row.iter().any(|v| drifted.binary_search(v).is_ok()))
            })
            .collect();
        // Crash subjects are dead; everyone else re-converges (a graceful
        // leaver gets one final callback with an empty row).
        affected.extend(
            entries
                .iter()
                .filter(|e| !matches!(e.kind, ChurnKind::Crash))
                .map(|e| e.node),
        );
        let affected = affected
            .into_iter()
            .filter(|&u| topo.membership[u as usize].processes_events())
            .map(|u| (u, self.positions[u as usize]))
            .collect();
        self.core.topo = Arc::clone(&topo);
        ChurnDelta {
            time,
            entries,
            topo,
            affected,
        }
    }
}

impl<A> Runtime<A>
where
    A: Actor + Send,
    A::Msg: Send + Sync,
{
    /// Run to quiescence on up to `threads` worker threads, splitting the
    /// core by spatial cell. Produces **bit-identical** transcripts,
    /// stats, and actor states to [`Runtime::run`], which it falls back
    /// to when only one core results (`threads <= 1`, or every node in
    /// one cell). Returns the final virtual time.
    ///
    /// Call after [`Runtime::start`], exactly like `run()`.
    pub fn run_sharded(&mut self, threads: usize) -> u64 {
        let (part, shards) = Partition::spatial(&self.positions, self.range, threads);
        if shards <= 1 {
            return self.run();
        }
        let part = Arc::new(part);
        let cores = self.core.split(&part, shards);
        let cores = rayon::scope(|scope| {
            let mut pool = Pool::spawn(scope, cores, Arc::clone(&part));
            self.drive(Some(&mut pool), u64::MAX);
            pool.finish()
        });
        self.core.merge(cores, &part);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;
    use crate::node::{Ctx, Message};

    /// A toy flood protocol: node 0 starts a token; every node forwards
    /// the first copy it sees to all radio neighbors.
    #[derive(Debug, Clone)]
    struct Flood {
        id: u32,
        seen: bool,
    }

    #[derive(Debug, Clone)]
    struct Token;

    impl Message for Token {
        fn kind(&self) -> &'static str {
            "token"
        }
    }

    impl Actor for Flood {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.id == 0 {
                self.seen = true;
                ctx.broadcast(Token);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {
            if !self.seen {
                self.seen = true;
                ctx.broadcast(Token);
            }
        }
    }

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64, 0.0)).collect()
    }

    fn flood(n: usize, faults: FaultConfig, seed: u64) -> Runtime<Flood> {
        let nodes = (0..n as u32).map(|id| Flood { id, seen: false }).collect();
        Runtime::new(nodes, &line(n), 1.5, faults, seed)
    }

    #[test]
    fn flood_reaches_everyone_on_ideal_links() {
        let mut rt = flood(10, FaultConfig::ideal(), 1);
        rt.start();
        rt.run();
        assert!(rt.nodes().iter().all(|f| f.seen));
        // Each node broadcasts exactly once.
        assert_eq!(rt.stats().broadcasts, 10);
        assert_eq!(rt.stats().per_kind["token"].dropped, 0);
    }

    #[test]
    fn same_seed_identical_transcripts() {
        let faults = FaultConfig {
            drop_prob: 0.3,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 5 },
        };
        let run = |seed| {
            let mut rt = flood(12, faults, seed);
            rt.record_trace(true);
            rt.start();
            rt.run();
            (
                rt.transcript().digest(),
                rt.transcript().entries().unwrap().to_vec(),
            )
        };
        let (d1, t1) = run(7);
        let (d2, t2) = run(7);
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
        let (d3, _) = run(8);
        assert_ne!(d1, d3, "different seeds should diverge");
    }

    /// Link streams are independent: the fate of traffic on one link must
    /// not depend on how much traffic other links carried first.
    #[test]
    fn link_rng_streams_are_independent_of_other_links() {
        let f = FaultConfig {
            drop_prob: 0.5,
            duplicate_prob: 0.2,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let fates = |prior_traffic: u64| {
            let mut link = LinkState::new(99, 3, 4);
            let mut other = LinkState::new(99, 1, 2);
            for _ in 0..prior_traffic {
                f.transmit(&mut other.rng);
            }
            (0..50)
                .map(|_| f.transmit(&mut link.rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(0), fates(1000));
        // Directions are distinct streams.
        use rand::RngCore;
        let mut a = LinkState::new(99, 3, 4);
        let mut b = LinkState::new(99, 4, 3);
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn total_loss_stops_the_flood() {
        let mut rt = flood(5, FaultConfig::lossy(1.0), 3);
        rt.start();
        rt.run();
        assert!(rt.node(0).seen);
        assert!(!rt.nodes()[1..].iter().any(|f| f.seen));
        assert_eq!(rt.stats().delivered, 0);
        assert_eq!(rt.stats().sent, rt.stats().dropped);
    }

    #[test]
    fn run_with_limit_caps_events() {
        let mut rt = flood(30, FaultConfig::ideal(), 4);
        rt.start();
        let quiescent = rt.run_with_limit(3);
        assert!(!quiescent);
    }

    #[test]
    fn radio_neighbors_respect_range() {
        let rt = flood(4, FaultConfig::ideal(), 5);
        assert_eq!(rt.radio_neighbors(0), &[1]);
        assert_eq!(rt.radio_neighbors(1), &[0, 2]);
    }

    /// An actor that unicasts once to an arbitrary (possibly bogus)
    /// target, for exercising the locality validation in `transmit`.
    #[derive(Debug, Clone)]
    struct SendTo {
        id: u32,
        target: Option<u32>,
    }

    impl Actor for SendTo {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.id == 0 {
                if let Some(to) = self.target {
                    ctx.send(to, Token);
                }
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {}
    }

    fn send_to(n: usize, target: Option<u32>) -> Runtime<SendTo> {
        let nodes = (0..n as u32).map(|id| SendTo { id, target }).collect();
        Runtime::new(nodes, &line(n), 1.5, FaultConfig::ideal(), 9)
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn unicast_to_nonexistent_node_panics_clearly() {
        let mut rt = send_to(3, Some(99));
        rt.start();
        rt.run();
    }

    #[test]
    fn out_of_range_unicast_is_dropped_and_counted() {
        // Node 3 is 3 units from node 0 — in the plane, out of radio
        // range (1.5). The copy must never be delivered, and it must not
        // perturb the link-level sent/dropped ledger.
        let mut rt = send_to(4, Some(3));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().non_neighbor_sends, 1);
        assert_eq!(rt.stats().sent, 0);
        assert_eq!(rt.stats().delivered, 0);
        assert_eq!(rt.stats().dropped, 0);
    }

    #[test]
    fn self_send_is_a_non_neighbor_send() {
        let mut rt = send_to(2, Some(0));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().non_neighbor_sends, 1);
        assert_eq!(rt.stats().delivered, 0);
    }

    #[test]
    fn in_range_unicast_still_delivers() {
        let mut rt = send_to(2, Some(1));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().non_neighbor_sends, 0);
        assert_eq!(rt.stats().delivered, 1);
    }

    /// Node 0 streams a unicast per tick at node 1 and logs every
    /// reception time; exercises the in-flight-to-a-crashed-node path.
    #[derive(Debug, Clone)]
    struct Pinger {
        id: u32,
        sent: u32,
        received: Vec<u64>,
    }

    impl Actor for Pinger {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.id == 0 {
                ctx.set_timer(1, 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {
            self.received.push(ctx.now());
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Token>, _timer: u32) {
            if self.sent < 20 {
                self.sent += 1;
                ctx.send(1, Token);
                ctx.set_timer(1, 0);
            }
        }
    }

    fn pingers(n: usize) -> Vec<Pinger> {
        (0..n as u32)
            .map(|id| Pinger {
                id,
                sent: 0,
                received: Vec::new(),
            })
            .collect()
    }

    /// Regression (pre-churn the runtime had no peer-death path at all):
    /// a packet in flight to a node that crash-leaves must be accounted
    /// as `link_lost` — never delivered to the dead actor — and the run
    /// must still drain to quiescence.
    #[test]
    fn in_flight_packet_to_crashed_node_is_link_lost_not_delivered() {
        let mut rt = Runtime::new(pingers(2), &line(2), 1.5, FaultConfig::ideal(), 11);
        rt.set_churn_plan(&ChurnPlan::new().crash(10, 1));
        rt.start();
        assert!(rt.run_with_limit(u64::MAX), "run must go quiescent");
        // The packet sent at t=9 was in flight at the crash boundary
        // (arrival t=10): lost, not delivered.
        assert_eq!(rt.stats().link_lost, 1);
        assert_eq!(rt.member_state(1), MemberState::Dead);
        // The dead actor saw nothing at or after the crash time.
        assert!(rt.node(1).received.iter().all(|&t| t < 10));
        assert_eq!(rt.stats().delivered, rt.node(1).received.len() as u64);
        // Post-crash sends fail the locality check (node 1 left every
        // neighbor row) instead of entering the link layer.
        assert!(rt.stats().non_neighbor_sends > 0);
        assert_eq!(rt.stats().crashes, 1);
        // Node 0 was notified exactly once (its row changed).
        assert_eq!(rt.stats().reconvergences, 1);
    }

    /// A graceful leaver keeps processing what is already queued for it.
    #[test]
    fn graceful_leaver_drains_in_flight_packets() {
        let mut rt = Runtime::new(pingers(2), &line(2), 1.5, FaultConfig::ideal(), 11);
        rt.set_churn_plan(&ChurnPlan::new().leave(10, 1));
        rt.start();
        assert!(rt.run_with_limit(u64::MAX));
        // The in-flight packet (sent t=9, due t=10) is still delivered.
        assert_eq!(rt.stats().link_lost, 0);
        assert_eq!(rt.member_state(1), MemberState::Draining);
        assert!(rt.node(1).received.contains(&10));
        assert!(rt.node(1).received.iter().all(|&t| t <= 10));
    }

    /// Same seed + same churn plan ⇒ identical digests; and a plan with
    /// churn diverges from the no-churn digest.
    #[test]
    fn churn_runs_replay_deterministically() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let plan = ChurnPlan::new()
            .drift(6, 2, Point::new(0.5, 0.9))
            .crash(12, 4)
            .drift(12, 0, Point::new(1.2, 0.3));
        let run = |with_churn: bool| {
            let mut rt = Runtime::new(pingers(6), &line(6), 1.5, faults, 21);
            if with_churn {
                rt.set_churn_plan(&plan);
            }
            rt.start();
            rt.run();
            rt.transcript().digest()
        };
        assert_eq!(run(true), run(true));
        assert_ne!(run(true), run(false));
    }

    /// A pending joiner is invisible (no on_start, absent from rows)
    /// until its join boundary, after which it participates normally.
    #[test]
    fn joiner_is_invisible_until_join_time() {
        let mut rt = Runtime::new(pingers(3), &line(3), 1.5, FaultConfig::ideal(), 13);
        // Node 2 starts pending far away and joins next to node 1.
        rt.set_churn_plan(&ChurnPlan::new().join(5, 2, Point::new(2.0, 0.0)));
        assert_eq!(rt.member_state(2), MemberState::Pending);
        assert_eq!(rt.radio_neighbors(1), &[0], "pending node not in rows");
        rt.start();
        assert!(rt.run_with_limit(u64::MAX));
        assert_eq!(rt.member_state(2), MemberState::Alive);
        assert_eq!(rt.radio_neighbors(1), &[0, 2]);
        assert_eq!(rt.stats().joins, 1);
        // Joiner + node 1 (changed row) re-converged; node 0 unaffected.
        assert_eq!(rt.stats().reconvergences, 2);
    }
}
