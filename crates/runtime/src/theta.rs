//! ΘALG as a fault-tolerant actor protocol (paper §2.1).
//!
//! The direct formulation (`adhoc_core::protocol`) runs three lockstep
//! rounds and assumes every broadcast is heard. Both of ΘALG's rules are
//! pure functions of one-hop inputs — `N(u)` is the nearest heard neighbor
//! per sector, the admitted set (this node's edges of `𝒩`) the nearest
//! offer per sector — so here each node recomputes them whenever its
//! heard positions, received offers or radio row change, at most once per
//! tick, and sends only the diffs: `Neighborhood`/`Retract` when `N(u)`
//! gains or loses a member, `Connection`/`Disconnect` when the admitted
//! set does. The diffs ride the reliable sublayer ([`ReliableActor`]),
//! which delivers exactly once but unordered; the on and off diffs of one
//! kind from one sender strictly alternate, so a receiver keeps a
//! per-sender balance and counts an offer present iff it is positive.
//!
//! `Position` beacons are best-effort broadcasts: one at start and at every
//! neighborhood change, then one every `resend_every` ticks until
//! `round_len` has passed. A neighbor misses a whole burst with probability
//! `p^(round_len / resend_every)` at loss rate `p`, so for any fixed seed
//! and moderate `p` the reconstructed topology equals the direct
//! `ThetaAlg::build` graph exactly (tests and experiment E20).
//!
//! # Churn
//!
//! Initial construction and churn repair are one code path: a
//! neighborhood change ([`Actor::on_neighborhood_change`]) replaces the
//! row, forgets what was learned from peers outside it, starts a beacon
//! burst and recomputes. A message from a sender outside the current row
//! never enters a node's state. A peer that left the row and came back is
//! ignored until `round_len / 2` after it left, when copies it sent before
//! leaving have landed (the fault model's maximum delay is validated below
//! that); both ends saw the link break at the same time, so neither sends
//! the other anything the other would ignore. [`run_theta_churn`] scores a
//! [`ChurnPlan`] run against the direct offline construction on the final
//! live positions (experiment E21).

use crate::fault::FaultConfig;
use crate::node::{Actor, Ctx, Message};
use crate::reliable::{ReliableActor, ReliableConfig};
use crate::runtime::Runtime;
use crate::stats::NetStats;
use crate::{ChurnPlan, MemberState};
use adhoc_geom::{Point, SectorPartition};
use adhoc_graph::GraphBuilder;
use adhoc_proximity::SpatialGraph;

/// Timer ids used by [`ThetaNode`].
const TIMER_BEACON: u32 = 1;
const TIMER_SYNC: u32 = 2;

/// Message alphabet of the ΘALG protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ThetaMsg {
    /// Position beacon (best-effort broadcast).
    Position {
        /// The sender's coordinates.
        pos: Point,
    },
    /// Offer: "you joined my `N(u)`".
    Neighborhood,
    /// Withdraws a [`ThetaMsg::Neighborhood`]: "you left my `N(u)`".
    Retract,
    /// Edge admission: "I admitted your offer".
    Connection,
    /// Withdraws a [`ThetaMsg::Connection`]: "I no longer admit it".
    Disconnect,
}

impl Message for ThetaMsg {
    fn kind(&self) -> &'static str {
        match self {
            ThetaMsg::Position { .. } => "position",
            ThetaMsg::Neighborhood => "neighborhood",
            ThetaMsg::Retract => "retract",
            ThetaMsg::Connection => "connection",
            ThetaMsg::Disconnect => "disconnect",
        }
    }
}

/// Timing parameters of the protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaTiming {
    /// Length of a beacon burst in ticks (`L`).
    pub round_len: u64,
    /// Beacon period within a burst.
    pub resend_every: u64,
}

impl Default for ThetaTiming {
    /// 64-tick bursts, a beacon every 4 ticks (16 beacons per burst).
    fn default() -> Self {
        ThetaTiming {
            round_len: 64,
            resend_every: 4,
        }
    }
}

impl ThetaTiming {
    /// Beacons per burst.
    pub fn budget(&self) -> u64 {
        self.round_len / self.resend_every.max(1)
    }

    fn validate(&self, faults: &FaultConfig) {
        assert!(self.resend_every >= 1, "resend_every must be ≥ 1");
        assert!(
            self.round_len > self.resend_every,
            "round_len must exceed resend_every"
        );
        assert!(
            faults.max_delay() < self.round_len / 2,
            "max link delay {} too close to round_len {}; a copy sent \
             before a link broke could outlive a returning peer's quiet time",
            faults.max_delay(),
            self.round_len
        );
    }
}

/// One ΘALG node as a local state machine.
#[derive(Debug, Clone)]
pub struct ThetaNode {
    id: u32,
    pos: Point,
    sectors: SectorPartition,
    timing: ThetaTiming,
    /// Current radio row (sorted).
    row: Vec<u32>,
    /// `(peer, until)`: a peer that left the row is not heard again before
    /// `until`, `round_len / 2` after it left.
    left: Vec<(u32, u64)>,
    /// Latest position heard from each row member.
    heard: Vec<(u32, Point)>,
    /// `Neighborhood` minus `Retract` received, per sender (nonzero only).
    offers: Vec<(u32, i32)>,
    /// `Connection` minus `Disconnect` received, per sender (nonzero only).
    conns: Vec<(u32, i32)>,
    /// `N(u)` as last announced.
    chosen: Vec<u32>,
    /// The admitted set as last announced: this node's edges of `𝒩`.
    admitted: Vec<u32>,
    /// An input changed since the last recompute; a sync timer is armed.
    dirty: bool,
    /// End of the current beacon burst.
    beacon_until: u64,
    /// A beacon timer is armed.
    beaconing: bool,
    /// Virtual time the admitted set last changed — the per-node settle
    /// point that repair latency is measured from.
    settled_at: u64,
}

impl ThetaNode {
    fn new(id: u32, pos: Point, sectors: SectorPartition, timing: ThetaTiming) -> Self {
        ThetaNode {
            id,
            pos,
            sectors,
            timing,
            row: Vec::new(),
            left: Vec::new(),
            heard: Vec::new(),
            offers: Vec::new(),
            conns: Vec::new(),
            chosen: Vec::new(),
            admitted: Vec::new(),
            dirty: false,
            beacon_until: 0,
            beaconing: false,
            settled_at: 0,
        }
    }

    /// Whether a message from `v` at `now` may enter this node's state:
    /// `v` is in the row and, if it came back, has been quiet long enough.
    fn hears(&self, v: u32, now: u64) -> bool {
        let quiet = self.left.iter().any(|&(w, until)| w == v && now < until);
        self.row.binary_search(&v).is_ok() && !quiet
    }

    /// Note an input change: recompute at the next tick.
    fn touch(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        if !self.dirty {
            self.dirty = true;
            ctx.set_timer(1, TIMER_SYNC);
        }
    }

    /// Recompute `N(u)` and the admitted set and send the diffs. An offer
    /// whose sender's beacon has not arrived yet cannot be placed in a
    /// sector; it counts once the beacon arrives.
    fn sync(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        self.dirty = false;
        let chosen = nearest_per_sector_at(&self.sectors, self.pos, self.heard.iter().copied());
        send_diff(
            ctx,
            &self.chosen,
            &chosen,
            [ThetaMsg::Neighborhood, ThetaMsg::Retract],
        );
        self.chosen = chosen;
        let offered = self
            .offers
            .iter()
            .filter(|&&(_, b)| b > 0)
            .filter_map(|&(v, _)| self.heard.iter().find(|&&(u, _)| u == v).copied());
        let admitted = nearest_per_sector_at(&self.sectors, self.pos, offered);
        if send_diff(
            ctx,
            &self.admitted,
            &admitted,
            [ThetaMsg::Connection, ThetaMsg::Disconnect],
        ) {
            self.settled_at = ctx.now();
        }
        self.admitted = admitted;
    }

    /// Broadcast a beacon now and keep beaconing until `round_len` from now.
    fn burst(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        self.beacon_until = ctx.now() + self.timing.round_len;
        ctx.broadcast(ThetaMsg::Position { pos: self.pos });
        if !self.beaconing {
            self.beaconing = true;
            ctx.set_timer(self.timing.resend_every, TIMER_BEACON);
        }
    }
}

/// Send `msgs[0]` to the members `new` gained over `old` and `msgs[1]` to
/// those it lost; true iff the sets differ.
fn send_diff(ctx: &mut Ctx<ThetaMsg>, old: &[u32], new: &[u32], msgs: [ThetaMsg; 2]) -> bool {
    let [on, off] = msgs;
    let mut changed = false;
    for &v in old.iter().filter(|v| !new.contains(v)) {
        ctx.send(v, off.clone());
        changed = true;
    }
    for &v in new.iter().filter(|v| !old.contains(v)) {
        ctx.send(v, on.clone());
        changed = true;
    }
    changed
}

/// Add `delta` to `from`'s balance in `tally`; true iff that flips whether
/// the balance is positive.
fn bump(tally: &mut Vec<(u32, i32)>, from: u32, delta: i32) -> bool {
    let i = tally.iter().position(|&(v, _)| v == from);
    let before = i.map_or(0, |i| tally.swap_remove(i).1);
    let after = before + delta;
    if after != 0 {
        tally.push((from, after));
    }
    (before > 0) != (after > 0)
}

/// Nearest candidate per sector as seen from `origin` — the selection
/// rule of the direct construction (smaller distance², then smaller id).
/// Shared by the in-protocol computation and the offline reference that
/// churn runs are scored against.
fn nearest_per_sector_at(
    sectors: &SectorPartition,
    origin: Point,
    candidates: impl Iterator<Item = (u32, Point)>,
) -> Vec<u32> {
    let k = sectors.count() as usize;
    let mut best: Vec<Option<(f64, u32)>> = vec![None; k];
    for (v, pv) in candidates {
        let s = sectors.sector_of(origin, pv) as usize;
        let d = origin.dist_sq(pv);
        let better = match best[s] {
            None => true,
            Some((bd, bv)) => d < bd || (d == bd && v < bv),
        };
        if better {
            best[s] = Some((d, v));
        }
    }
    best.iter().filter_map(|b| b.map(|(_, v)| v)).collect()
}

impl Actor for ThetaNode {
    type Msg = ThetaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        self.burst(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<ThetaMsg>, from: u32, msg: ThetaMsg) {
        // Only a peer this node hears can be in `heard`, so a repeated
        // beacon costs one lookup; a drifter's new coordinates overwrite
        // its old ones.
        if let ThetaMsg::Position { pos } = msg {
            if let Some(entry) = self.heard.iter_mut().find(|(u, _)| *u == from) {
                if entry.1 != pos {
                    entry.1 = pos;
                    self.touch(ctx);
                }
                return;
            }
        }
        if !self.hears(from, ctx.now()) {
            return;
        }
        let on = matches!(msg, ThetaMsg::Neighborhood | ThetaMsg::Connection);
        let delta = if on { 1 } else { -1 };
        let changed = match msg {
            ThetaMsg::Position { pos } => {
                self.heard.push((from, pos));
                true
            }
            ThetaMsg::Neighborhood | ThetaMsg::Retract => bump(&mut self.offers, from, delta),
            // Connections only tell this node what the far end admitted.
            ThetaMsg::Connection | ThetaMsg::Disconnect => {
                bump(&mut self.conns, from, delta);
                false
            }
        };
        if changed {
            self.touch(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<ThetaMsg>, timer: u32) {
        match timer {
            TIMER_SYNC => self.sync(ctx),
            TIMER_BEACON => {
                let now = ctx.now();
                if now < self.beacon_until {
                    ctx.broadcast(ThetaMsg::Position { pos: self.pos });
                }
                if now + self.timing.resend_every < self.beacon_until {
                    ctx.set_timer(self.timing.resend_every, TIMER_BEACON);
                } else {
                    self.beaconing = false;
                }
            }
            _ => unreachable!("unknown timer {timer}"),
        }
    }

    fn on_neighborhood_change(&mut self, ctx: &mut Ctx<ThetaMsg>, neighbors: &[u32], pos: Point) {
        let now = ctx.now();
        self.left.retain(|&(_, until)| now < until);
        for &v in &self.row {
            if neighbors.binary_search(&v).is_err() {
                self.left.push((v, now + self.timing.round_len / 2));
            }
        }
        self.row = neighbors.to_vec();
        self.pos = pos;
        // Peers outside the new row cannot be told anything; forget them.
        let row = &self.row;
        let kept = |v: &u32| row.binary_search(v).is_ok();
        self.heard.retain(|(v, _)| kept(v));
        self.offers.retain(|(v, _)| kept(v));
        self.conns.retain(|(v, _)| kept(v));
        self.chosen.retain(kept);
        let before = self.admitted.len();
        self.admitted.retain(kept);
        if self.admitted.len() != before {
            self.settled_at = now;
        }
        if self.row.is_empty() {
            // Isolated or departed: stop beaconing, nothing to recompute.
            self.beacon_until = now;
            return;
        }
        self.burst(ctx);
        self.touch(ctx);
    }
}

/// A [`ThetaNode`] under the reliable sublayer, which carries its diffs.
type Node = ReliableActor<ThetaNode, fn(&ThetaMsg) -> bool>;

/// Validate the parameters and run the protocol on `points` under `plan`
/// to quiescence on `threads` workers. Returns the runtime, its counters
/// with the transport's folded in, the quiescence time, and the admitted
/// edges between live nodes weighted by distance at the final positions.
/// Empty input runs an empty runtime.
#[allow(clippy::too_many_arguments)]
fn execute(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
) -> (Runtime<Node>, NetStats, u64, SpatialGraph) {
    timing.validate(&faults);
    assert!(range.is_finite() && range > 0.0, "range must be positive");
    // Every unicast is a diff; beacons are broadcasts, which always stay
    // best-effort.
    let all = (|_: &ThetaMsg| true) as fn(&ThetaMsg) -> bool;
    let nodes: Vec<Node> = (0..points.len() as u32)
        .map(|i| ThetaNode::new(i, points[i as usize], sectors, timing))
        .map(|node| ReliableActor::new(node, ReliableConfig::default(), all))
        .collect();
    let mut rt = Runtime::new(nodes, points, range, faults, seed);
    if !plan.is_empty() {
        rt.set_churn_plan(plan);
    }
    for u in 0..points.len() {
        let row = rt.radio_neighbors(u as u32).to_vec();
        rt.nodes_mut()[u].inner_mut().row = row;
    }
    let mut finished_at = 0;
    if !points.is_empty() {
        rt.start();
        finished_at = rt.run_sharded(threads);
    }
    let mut stats = rt.stats().clone();
    let positions = rt.positions();
    let live = |v: u32| rt.member_state(v) == MemberState::Alive;
    let mut builder = GraphBuilder::new(points.len());
    for node in rt.nodes() {
        let c = node.counters();
        stats.retransmits += c.retransmits;
        stats.acks += c.acks_sent;
        stats.rto_fired += c.rto_fired;
        let (u, admitted) = (node.inner().id, &node.inner().admitted);
        for &v in admitted.iter().filter(|&&v| live(u) && live(v)) {
            builder.add_edge(u, v, positions[u as usize].dist(positions[v as usize]));
        }
    }
    let graph = SpatialGraph::new(positions.to_vec(), builder.build(), range);
    (rt, stats, finished_at, graph)
}

/// Result of one protocol execution.
#[derive(Debug, Clone)]
pub struct ThetaRun {
    /// The reconstructed topology `𝒩` (union of admitted offers, exactly
    /// as the direct construction defines it).
    pub graph: SpatialGraph,
    /// Message/timer counters.
    pub stats: NetStats,
    /// Replay digest — equal digests ⇒ identical runs.
    pub digest: u64,
    /// Virtual time at quiescence.
    pub finished_at: u64,
    /// Fraction of admitted edges whose `Connection` the other endpoint
    /// counts present (1.0 on lossless links): how completely the nodes
    /// *know* the topology they built.
    pub edge_awareness: f64,
}

/// Execute the ΘALG protocol over faulty links.
///
/// `sectors`/`range` are the ΘALG parameters (use
/// `adhoc_core::ThetaAlg::sectors` for a `θ`-derived partition);
/// `timing` sizes the beacon bursts against the fault model.
pub fn run_theta_protocol(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
) -> ThetaRun {
    run_theta_protocol_sharded(
        points,
        sectors,
        range,
        timing,
        faults,
        seed,
        crate::runtime::shard_threads_from_env(),
    )
}

/// [`run_theta_protocol`] on an explicit number of worker threads
/// (`<= 1` runs sequentially). The result — graph, stats, digest — is
/// bit-identical at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_theta_protocol_sharded(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
    threads: usize,
) -> ThetaRun {
    let plan = ChurnPlan::new();
    let (rt, stats, finished_at, graph) =
        execute(points, sectors, range, timing, faults, seed, &plan, threads);
    let mut admitted = 0;
    let mut aware = 0;
    for node in rt.nodes().iter().map(Node::inner) {
        for &v in &node.admitted {
            admitted += 1;
            let conns = &rt.node(v).inner().conns;
            if conns.iter().any(|&(w, b)| w == node.id && b > 0) {
                aware += 1;
            }
        }
    }
    ThetaRun {
        graph,
        stats,
        digest: rt.transcript().digest(),
        finished_at,
        edge_awareness: share(aware, admitted),
    }
}

/// Result of one churn/mobility execution of the protocol
/// ([`run_theta_churn`]).
#[derive(Debug, Clone)]
pub struct ThetaChurnRun {
    /// The live-node topology at quiescence: admitted edges between nodes
    /// still alive, weighted by distance at the final positions.
    pub graph: SpatialGraph,
    /// Message/timer/churn counters.
    pub stats: NetStats,
    /// Replay digest — identical across executors and thread counts.
    pub digest: u64,
    /// Virtual time at quiescence.
    pub finished_at: u64,
    /// Nodes alive at the end of the run (id order).
    pub live: Vec<u32>,
    /// Fraction of live nodes whose admitted set exactly matches the
    /// direct offline ΘALG construction on the final live positions —
    /// 1.0 means every survivor fully repaired its cone neighborhood.
    pub fidelity: f64,
    /// Topology-repair latency: ticks from the last perturbation to the
    /// moment the slowest live node last changed its admitted set. (With
    /// an empty plan this is the initial convergence time.)
    pub repair_latency: u64,
}

/// Execute the ΘALG protocol under a [`ChurnPlan`]: nodes join, leave,
/// crash, and drift mid-run; survivors re-converge locally (see the
/// module docs). The result is scored against the direct offline
/// construction on the final live positions and is bit-identical across
/// executors (`threads <= 1` runs sequentially).
#[allow(clippy::too_many_arguments)]
pub fn run_theta_churn(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
) -> ThetaChurnRun {
    let (rt, stats, finished_at, graph) =
        execute(points, sectors, range, timing, faults, seed, plan, threads);
    let n = points.len();
    let live: Vec<u32> = (0..n as u32)
        .filter(|&u| rt.member_state(u) == MemberState::Alive)
        .collect();
    let positions = rt.positions();
    // Direct offline ΘALG on the final live topology: every live node
    // chooses the nearest live radio neighbor per sector, offers
    // transpose, and each node admits the nearest offer per sector.
    let nearest = |u: u32, candidates: &[u32]| {
        let at = |v: u32| (v, positions[v as usize]);
        let origin = positions[u as usize];
        let mut set = nearest_per_sector_at(&sectors, origin, candidates.iter().map(|&v| at(v)));
        set.sort_unstable();
        set
    };
    let mut offers_off: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &u in &live {
        for v in nearest(u, rt.radio_neighbors(u)) {
            offers_off[v as usize].push(u);
        }
    }
    let nodes = || live.iter().map(|&u| (u, rt.node(u).inner()));
    let matching = nodes()
        .filter(|&(u, node)| {
            let mut got = node.admitted.clone();
            got.sort_unstable();
            got == nearest(u, &offers_off[u as usize])
        })
        .count();
    let settled = nodes().map(|(_, node)| node.settled_at).max().unwrap_or(0);
    ThetaChurnRun {
        digest: rt.transcript().digest(),
        fidelity: share(matching, live.len()),
        repair_latency: settled.saturating_sub(rt.last_churn_time()),
        live,
        graph,
        stats,
        finished_at,
    }
}

/// Fraction of `reference`'s edges present in `candidate` (1.0 when every
/// reference edge was reconstructed; 1.0 for an empty reference).
pub fn edge_fidelity(reference: &SpatialGraph, candidate: &SpatialGraph) -> f64 {
    let present = reference
        .graph
        .edges()
        .filter(|&(u, v, _)| candidate.graph.has_edge(u, v))
        .count();
    share(present, reference.graph.num_edges())
}

/// `part / total`, or 1.0 when there is nothing to count.
fn share(part: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;
    use adhoc_core::ThetaAlg;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::f64::consts::FRAC_PI_3;

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn lossless_matches_direct_construction() {
        for seed in [1u64, 2] {
            let points = uniform(80, seed);
            let range = 0.4;
            let alg = ThetaAlg::new(FRAC_PI_3, range);
            let direct = alg.build(&points);
            let run = run_theta_protocol(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                FaultConfig::ideal(),
                seed,
            );
            assert_eq!(direct.spatial.graph, run.graph.graph, "seed {seed}");
            assert_eq!(run.edge_awareness, 1.0);
        }
    }

    #[test]
    fn lossy_links_still_reconstruct_exactly() {
        let points = uniform(60, 5);
        let range = 0.4;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let direct = alg.build(&points);
        for loss in [0.05, 0.1, 0.2] {
            let run = run_theta_protocol(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                FaultConfig::lossy(loss),
                42,
            );
            assert_eq!(
                direct.spatial.graph, run.graph.graph,
                "loss {loss}: beacon bursts and retries should absorb it"
            );
            assert!(run.stats.dropped > 0, "loss {loss} dropped nothing?");
        }
    }

    #[test]
    fn delays_and_duplicates_are_harmless() {
        let points = uniform(50, 9);
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let direct = alg.build(&points);
        let faults = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.2,
            delay: DelayDist::Uniform { min: 1, max: 8 },
        };
        let run = run_theta_protocol(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            faults,
            7,
        );
        assert_eq!(direct.spatial.graph, run.graph.graph);
        assert!(run.stats.duplicated > 0);
    }

    #[test]
    fn same_seed_same_digest_and_graph() {
        let points = uniform(40, 3);
        let alg = ThetaAlg::new(FRAC_PI_3, 0.5);
        let go = |seed| {
            run_theta_protocol(
                &points,
                alg.sectors(),
                0.5,
                ThetaTiming::default(),
                FaultConfig::lossy(0.15),
                seed,
            )
        };
        let (a, b) = (go(11), go(11));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.graph.graph, b.graph.graph);
        assert_eq!(a.stats, b.stats);
        assert_ne!(go(12).digest, a.digest);
    }

    #[test]
    fn starved_retransmit_budget_degrades_not_panics() {
        // Two beacons per burst and 60% loss: many neighbors are never
        // heard, so the graph will be incomplete, but the run must finish
        // and fidelity is measurable.
        let points = uniform(50, 8);
        let range = 0.4;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let direct = alg.build(&points);
        let timing = ThetaTiming {
            round_len: 4,
            resend_every: 3,
        };
        let run = run_theta_protocol(
            &points,
            alg.sectors(),
            range,
            timing,
            FaultConfig::lossy(0.6),
            2,
        );
        let f = edge_fidelity(&direct.spatial, &run.graph);
        assert!(f < 1.0, "a starved budget should lose edges (f = {f})");
        assert!(run.edge_awareness <= 1.0);
    }

    #[test]
    fn empty_input() {
        let run = run_theta_protocol(
            &[],
            SectorPartition::with_max_angle(FRAC_PI_3),
            1.0,
            ThetaTiming::default(),
            FaultConfig::ideal(),
            0,
        );
        assert!(run.graph.is_empty());
    }

    #[test]
    fn lossless_churn_reconverges_to_offline_construction() {
        // Four well-separated perturbations (≥ 3·round_len apart): a
        // join, a drift, a graceful leave, and a crash. On lossless links
        // every survivor must end with exactly the admitted set the
        // offline ΘALG computes on the final live positions.
        let mut points = uniform(40, 6);
        points.push(Point::new(2.0, 2.0)); // placeholder, respawned on join
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan = ChurnPlan::new()
            .join(200, 40, Point::new(0.5, 0.5))
            .drift(400, 3, Point::new(0.25, 0.6))
            .leave(600, 7)
            .crash(800, 11);
        let run = run_theta_churn(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            FaultConfig::ideal(),
            6,
            &plan,
            1,
        );
        assert_eq!(run.fidelity, 1.0, "run {:?}", run.stats);
        assert_eq!(run.live.len(), 39, "41 nodes − leaver − crasher");
        assert!(!run.live.contains(&7) && !run.live.contains(&11));
        assert!(run.live.contains(&40), "joiner must be live");
        let rl = ThetaTiming::default().round_len;
        assert!(
            run.repair_latency > 0 && run.repair_latency <= 3 * rl,
            "repair latency {} outside (0, {}]",
            run.repair_latency,
            3 * rl
        );
        assert_eq!(run.stats.joins, 1);
        assert_eq!(run.stats.leaves, 1);
        assert_eq!(run.stats.crashes, 1);
        assert_eq!(run.stats.drifts, 1);
        assert!(run.stats.reconvergences > 0);
    }

    #[test]
    fn lossy_churn_still_reconverges_exactly() {
        // Beacon bursts and retries absorb moderate loss during repair just
        // as they do during initial construction.
        let points = uniform(50, 12);
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan = ChurnPlan::new()
            .crash(200, 5)
            .drift(500, 17, Point::new(0.4, 0.3));
        let run = run_theta_churn(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            FaultConfig::lossy(0.1),
            9,
            &plan,
            1,
        );
        assert_eq!(run.fidelity, 1.0, "10% loss must be absorbed by retries");
        assert!(run.stats.dropped > 0);
    }

    #[test]
    fn stale_beacon_of_a_departed_node_does_not_reenter_its_neighbors() {
        // Node 34 leaves at t = 336 with its own beacons still in flight.
        // Its neighbors must not take it back into `heard` (and offer to
        // it) when those copies land after they pruned it.
        let points = uniform(60, 2010);
        let range = adhoc_geom::default_max_range(60);
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan = ChurnPlan::random(54, 6, 1.0, 400, 6, 2100);
        assert!(plan.entries().iter().any(|e| e.node == 34));
        for threads in [1, 2] {
            let run = run_theta_churn(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                FaultConfig::ideal(),
                2,
                &plan,
                threads,
            );
            assert_eq!(run.fidelity, 1.0, "threads={threads}");
            assert!(!run.live.contains(&34));
        }
    }

    #[test]
    fn returning_peer_is_quiet_until_its_old_copies_landed() {
        // Node 0 drifts out of everyone's range at t = 5, while its first
        // offers are in the air, and back two ticks later. Copies sent
        // before the break land after the return; none may count.
        let points = uniform(24, 0);
        let sectors = SectorPartition::with_max_angle(FRAC_PI_3);
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 6 },
        };
        let plan = ChurnPlan::new()
            .drift(5, 0, Point::new(5.0, 5.0))
            .drift(7, 0, points[0]);
        for threads in [1, 2] {
            let run = run_theta_churn(
                &points,
                sectors,
                0.4,
                ThetaTiming::default(),
                faults,
                0,
                &plan,
                threads,
            );
            assert_eq!(run.fidelity, 1.0, "threads={threads}");
            assert_eq!(run.stats.drifts, 2);
        }
    }

    #[test]
    fn churn_digest_identical_sequential_vs_sharded() {
        let points = uniform(48, 21);
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan =
            ChurnPlan::new()
                .crash(130, 2)
                .leave(260, 9)
                .drift(400, 14, Point::new(0.7, 0.1));
        let faults = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let go = |threads| {
            run_theta_churn(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                faults,
                33,
                &plan,
                threads,
            )
        };
        let seq = go(1);
        for threads in [4, 8] {
            let sh = go(threads);
            assert_eq!(sh.digest, seq.digest, "threads={threads}");
            assert_eq!(sh.stats, seq.stats, "threads={threads}");
            assert_eq!(sh.graph.graph, seq.graph.graph, "threads={threads}");
            assert_eq!(sh.fidelity, seq.fidelity, "threads={threads}");
            assert_eq!(sh.repair_latency, seq.repair_latency, "threads={threads}");
        }
    }

    #[test]
    fn empty_churn_plan_matches_plain_protocol_run() {
        let points = uniform(40, 3);
        let alg = ThetaAlg::new(FRAC_PI_3, 0.5);
        let faults = FaultConfig::lossy(0.15);
        let plain = run_theta_protocol(
            &points,
            alg.sectors(),
            0.5,
            ThetaTiming::default(),
            faults,
            11,
        );
        let churn = run_theta_churn(
            &points,
            alg.sectors(),
            0.5,
            ThetaTiming::default(),
            faults,
            11,
            &ChurnPlan::default(),
            1,
        );
        assert_eq!(plain.digest, churn.digest);
        assert_eq!(plain.graph.graph, churn.graph.graph);
        assert_eq!(churn.live.len(), 40);
        assert_eq!(churn.fidelity, 1.0);
    }

    #[test]
    fn fidelity_measure_sane() {
        let points = uniform(30, 4);
        let alg = ThetaAlg::new(FRAC_PI_3, 0.5);
        let direct = alg.build(&points);
        assert_eq!(edge_fidelity(&direct.spatial, &direct.spatial), 1.0);
        let empty = SpatialGraph::new(points.clone(), GraphBuilder::new(points.len()).build(), 0.5);
        assert_eq!(edge_fidelity(&direct.spatial, &empty), 0.0);
        assert_eq!(edge_fidelity(&empty, &direct.spatial), 1.0);
    }
}
