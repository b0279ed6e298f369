//! The executor core, and the worker pool that runs several of them.
//!
//! # One executor
//!
//! A `Shard` is everything needed to process the events of a set of
//! nodes: their actors (a dense vector in node-id order), their pending
//! events, the RNG streams of every directed link *originating* at one
//! of them, their timer arm counters, counters, window sub-digests
//! (`WindowNotes`) and one reused effect buffer. It has the runtime's
//! only event loop (`Shard::advance`). Topology is not owned: every
//! core reads one shared, immutable snapshot (`Arc<Topology>`) that the
//! coordinator replaces at churn barriers, so memory does not grow with
//! the number of cores.
//!
//! A [`Runtime`](crate::Runtime) holds one core owning every node.
//! `run`/`run_with_limit` drive it inline, one epoch at a time, on the
//! calling thread. `run_sharded(k)` splits it by spatial cell (cell side
//! = the radio range) into up to `k` cores, advances each on a worker
//! thread (vendored `rayon::scope`, real OS threads) through the same
//! epochs, and merges them back at quiescence.
//!
//! # Epochs
//!
//! An epoch is a half-open window `[j·L, (j+1)·L)` where `L` is the fault
//! model's minimum link delay (≥ 1 tick). Every transmission takes at
//! least `L` ticks, so a message sent during epoch `j` cannot arrive
//! before epoch `j+1`: within an epoch the cores are causally
//! independent, and deliveries bound for another core wait in an outbox
//! until the barrier. Timers are node-local and may fire intra-epoch;
//! they never cross cores.
//!
//! # Why the digest is stable
//!
//! * Each directed link's fault fates come from its own RNG stream,
//!   advanced in the sender's deterministic emission order — identical
//!   whether the sender's core runs first, last, or alone.
//! * Events tie-break by the canonical [`EventKey`], so each node
//!   processes its events in the same order under any layout.
//! * Event records accumulate in per-node sub-digests and are folded
//!   into the global digest in node-id order at each epoch barrier.
//!
//! The result: `run()`, `run_sharded(1)`, and `run_sharded(8)` produce
//! bit-identical transcripts, stats, and actor states.

use crate::churn::{ChurnDelta, ChurnKind, Topology};
use crate::event::{Event, EventKey, EventKind, EventQueue, Payload};
use crate::fault::{FaultConfig, TransmitOutcome};
use crate::node::{Actor, Ctx, Message};
use crate::runtime::{link_key, LinkState};
use crate::stats::{Folds, NetStats, WindowNotes};
use crate::MemberState;
use adhoc_geom::Point;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Which core owns each node, and the node's slot in that core's dense
/// vectors. Slots ascend with node ids within a core.
#[derive(Debug)]
pub(crate) struct Partition {
    shard_of: Vec<u32>,
    slot: Vec<u32>,
}

impl Partition {
    /// One core owning every node: node `i` sits in slot `i`.
    pub(crate) fn single(n: usize) -> Self {
        Partition {
            shard_of: vec![0; n],
            slot: (0..n as u32).collect(),
        }
    }

    /// Nodes sharing a grid cell (side = `range`) stay together, distinct
    /// cells round-robin over at most `threads` cores. Returns the
    /// partition and its core count.
    pub(crate) fn spatial(positions: &[Point], range: f64, threads: usize) -> (Self, usize) {
        let cell = |p: &Point| ((p.x / range).floor() as i64, (p.y / range).floor() as i64);
        let cells: Vec<(i64, i64)> = positions.iter().map(cell).collect();
        let mut distinct = cells.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let shards = threads.min(distinct.len()).max(1);
        let mut filled = vec![0u32; shards];
        let (shard_of, slot) = cells
            .iter()
            .map(|c| {
                let idx = distinct.binary_search(c).expect("cell must be present");
                let shard = idx % shards;
                filled[shard] += 1;
                (shard as u32, filled[shard] - 1)
            })
            .unzip();
        (Partition { shard_of, slot }, shards)
    }
}

/// One executor core: a self-contained slice of the runtime state.
#[derive(Debug)]
pub(crate) struct Shard<A: Actor> {
    id: u32,
    /// Owned actors, one per slot.
    pub(crate) nodes: Vec<A>,
    /// Node id of each slot (ascending).
    pub(crate) ids: Vec<u32>,
    /// Timer arm counters per slot (feed [`EventKey::timer`] seqs).
    arm_seq: Vec<u64>,
    part: Arc<Partition>,
    pub(crate) topo: Arc<Topology>,
    pub(crate) queue: EventQueue<A::Msg>,
    /// RNG streams and copy counters of links originating in this core,
    /// created lazily.
    links: HashMap<u64, LinkState>,
    pub(crate) faults: FaultConfig,
    seed: u64,
    pub(crate) stats: NetStats,
    pub(crate) notes: WindowNotes,
    /// Reused effect buffer: one `Ctx` serves every callback so the
    /// per-event hot path performs no allocations.
    scratch: Ctx<A::Msg>,
    /// Deliveries bound for other cores, handed over at the barrier.
    outbox: Vec<Event<A::Msg>>,
    /// Time of the last event or churn batch processed.
    pub(crate) now: u64,
}

impl<A: Actor> Shard<A> {
    /// One core owning every node.
    pub(crate) fn new(nodes: Vec<A>, topo: Arc<Topology>, faults: FaultConfig, seed: u64) -> Self {
        let n = nodes.len();
        Shard {
            id: 0,
            nodes,
            ids: (0..n as u32).collect(),
            arm_seq: vec![0; n],
            part: Arc::new(Partition::single(n)),
            topo,
            queue: EventQueue::new(),
            links: HashMap::new(),
            faults,
            seed,
            stats: NetStats::default(),
            notes: WindowNotes::new(n, false),
            scratch: Ctx::default(),
            outbox: Vec::new(),
            now: 0,
        }
    }

    fn slot(&self, node: u32) -> usize {
        self.part.slot[node as usize] as usize
    }

    fn owns(&self, node: u32) -> bool {
        self.part.shard_of[node as usize] == self.id
    }

    fn note(&mut self, node: u32, args: std::fmt::Arguments<'_>) {
        let slot = self.slot(node);
        self.notes.note(slot, args);
    }

    /// Run one callback of `node`'s actor at `now` (it also sees the
    /// node's neighbor row), then flush its effects.
    fn callback(&mut self, node: u32, now: u64, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>, &[u32])) {
        let mut ctx = std::mem::take(&mut self.scratch);
        ctx.reset(node, now);
        let slot = self.slot(node);
        f(
            &mut self.nodes[slot],
            &mut ctx,
            &self.topo.rows[node as usize],
        );
        self.flush(&mut ctx);
        self.scratch = ctx;
    }

    /// Deliver `on_start` to every owned live node in id order, then drain
    /// the records it produced into `out`. Pending joiners get no
    /// `on_start`; their bootstrap is the `on_neighborhood_change` at
    /// their join boundary.
    pub(crate) fn start(&mut self, out: &mut Folds) {
        for slot in 0..self.ids.len() {
            let node = self.ids[slot];
            if self.topo.membership[node as usize] == MemberState::Alive {
                self.callback(node, self.now, |a, ctx, _| a.on_start(ctx));
            }
        }
        self.notes.drain_into(&self.ids, out);
    }

    /// Run one epoch: apply `churn` (due at the epoch's start), process
    /// every event before `until` while `budget` lasts, and drain the
    /// window's records into `out`.
    pub(crate) fn epoch(
        &mut self,
        until: u64,
        churn: Option<&ChurnDelta>,
        budget: &mut u64,
        out: &mut Folds,
    ) {
        if let Some(delta) = churn {
            self.apply_churn(delta);
        }
        self.advance(until, budget);
        self.notes.drain_into(&self.ids, out);
    }

    /// The event loop: process queued events with `time < until`, one
    /// unit of `budget` each, in `(time, EventKey)` order.
    fn advance(&mut self, until: u64, budget: &mut u64) {
        while *budget > 0 && self.queue.peek_time().is_some_and(|t| t < until) {
            *budget -= 1;
            let ev = self.queue.pop().expect("peeked event vanished");
            debug_assert!(ev.time >= self.now, "time must be monotone");
            self.now = ev.time;
            let (now, node) = (ev.time, ev.key.node);
            // Events addressed to a crashed node are accounted, not run.
            let dead = self.topo.membership[node as usize] == MemberState::Dead;
            match ev.kind {
                EventKind::Deliver { msg } if dead => {
                    self.stats.link_lost += 1;
                    let from = ev.key.src;
                    self.note(node, format_args!("K t={now} {from}->{node} {msg:?}"));
                }
                EventKind::Timer { timer } if dead => {
                    self.stats.timers_abandoned += 1;
                    self.note(node, format_args!("A t={now} n={node} id={timer}"));
                }
                EventKind::Deliver { msg } => {
                    let from = ev.key.src;
                    self.stats.delivered += 1;
                    self.stats.kind(msg.get().kind()).delivered += 1;
                    self.note(node, format_args!("D t={now} {from}->{node} {msg:?}"));
                    self.callback(node, now, |a, ctx, _| {
                        a.on_message(ctx, from, msg.into_msg())
                    });
                }
                EventKind::Timer { timer } => {
                    self.stats.timers_fired += 1;
                    self.note(node, format_args!("T t={now} n={node} id={timer}"));
                    self.callback(node, now, |a, ctx, _| a.on_timer(ctx, timer));
                }
            }
        }
    }

    /// Drain one callback's effect buffer, applying link faults to every
    /// outgoing copy in emission order. The buffer is drained in place so
    /// its capacity is reused by the next callback.
    fn flush(&mut self, ctx: &mut Ctx<A::Msg>) {
        let (node, now) = (ctx.node, ctx.now());
        for (to, msg) in ctx.sends.drain(..) {
            // Validate the unicast against the `G*` locality discipline:
            // a nonexistent target is a programming error; an in-plane
            // but out-of-range one is unreachable, so the copy is
            // discarded and counted.
            let n = self.part.slot.len();
            assert!(
                (to as usize) < n,
                "node {node} sent {msg:?} to nonexistent node {to} (only {n} nodes exist)"
            );
            if node == to || self.topo.rows[node as usize].binary_search(&to).is_err() {
                self.stats.non_neighbor_sends += 1;
                self.note(node, format_args!("L t={now} {node}->{to} {msg:?}"));
                continue;
            }
            self.transmit_link(now, node, to, Payload::Own(msg));
        }
        for msg in ctx.broadcasts.drain(..) {
            self.stats.broadcasts += 1;
            // One shared payload for the whole fan-out, in sorted
            // neighbor order; targets come straight from the row, so no
            // locality check.
            let shared = Arc::new(msg);
            for i in 0..self.topo.rows[node as usize].len() {
                let to = self.topo.rows[node as usize][i];
                self.transmit_link(now, node, to, Payload::Shared(shared.clone()));
            }
        }
        for (at, timer) in ctx.timers.drain(..) {
            self.stats.timers_set += 1;
            let slot = self.slot(node);
            let seq = self.arm_seq[slot];
            self.arm_seq[slot] += 1;
            self.queue
                .push(at, EventKey::timer(node, seq), EventKind::Timer { timer });
        }
    }

    /// Push one copy across a radio link, applying the fault model on the
    /// link's private RNG stream.
    fn transmit_link(&mut self, now: u64, from: u32, to: u32, msg: Payload<A::Msg>) {
        self.stats.sent += 1;
        self.stats.kind(msg.get().kind()).sent += 1;
        let seed = self.seed;
        let link = self
            .links
            .entry(link_key(from, to))
            .or_insert_with(|| LinkState::new(seed, from, to));
        let seq = link.copies;
        match self.faults.transmit(&mut link.rng) {
            TransmitOutcome::Dropped => {
                self.stats.dropped += 1;
                self.stats.kind(msg.get().kind()).dropped += 1;
                self.note(from, format_args!("X t={now} {from}->{to} {msg:?}"));
            }
            TransmitOutcome::Delivered(d) => {
                link.copies += 1;
                self.route(now + d, EventKey::deliver(from, to, seq), msg);
            }
            TransmitOutcome::Duplicated(d1, d2) => {
                link.copies += 2;
                self.stats.duplicated += 1;
                self.route(now + d1, EventKey::deliver(from, to, seq), msg.clone());
                self.route(now + d2, EventKey::deliver(from, to, seq + 1), msg);
            }
        }
    }

    /// Queue a delivery here, or in the outbox when another core owns the
    /// receiver.
    fn route(&mut self, time: u64, key: EventKey, msg: Payload<A::Msg>) {
        let ev = Event {
            time,
            key,
            kind: EventKind::Deliver { msg },
        };
        if self.owns(key.node) {
            self.queue.insert(ev);
        } else {
            self.outbox.push(ev);
        }
    }

    /// Apply one churn batch at the start of its epoch: adopt the new
    /// topology, count and note the perturbations of owned nodes (plan
    /// order), and run the re-convergence callbacks of owned affected
    /// nodes.
    fn apply_churn(&mut self, delta: &ChurnDelta) {
        self.topo = Arc::clone(&delta.topo);
        let t = delta.time;
        self.now = self.now.max(t);
        for e in &delta.entries {
            if !self.owns(e.node) {
                continue;
            }
            let n = e.node;
            match e.kind {
                ChurnKind::Join(p) => {
                    self.stats.joins += 1;
                    self.note(n, format_args!("J t={t} n={n} p=({:?},{:?})", p.x, p.y));
                }
                ChurnKind::Leave => {
                    self.stats.leaves += 1;
                    self.note(n, format_args!("G t={t} n={n}"));
                }
                ChurnKind::Crash => {
                    self.stats.crashes += 1;
                    self.note(n, format_args!("C t={t} n={n}"));
                }
                ChurnKind::Drift(p) => {
                    self.stats.drifts += 1;
                    self.note(n, format_args!("M t={t} n={n} p=({:?},{:?})", p.x, p.y));
                }
            }
        }
        for &(node, pos) in &delta.affected {
            if self.owns(node) {
                self.stats.reconvergences += 1;
                self.callback(node, t, |a, ctx, row| {
                    a.on_neighborhood_change(ctx, row, pos)
                });
            }
        }
    }

    /// Split this core's nodes, events, link streams and arm counters
    /// into one core per shard of `part`. Counters stay here; the new
    /// cores count from zero until [`Self::merge`] sums them back.
    pub(crate) fn split(&mut self, part: &Arc<Partition>, shards: usize) -> Vec<Shard<A>> {
        let recording = self.notes.recording();
        let mut cores: Vec<Shard<A>> = (0..shards as u32)
            .map(|id| Shard {
                id,
                part: Arc::clone(part),
                now: self.now,
                ..Shard::new(Vec::new(), Arc::clone(&self.topo), self.faults, self.seed)
            })
            .collect();
        let nodes = std::mem::take(&mut self.nodes);
        for ((node, actor), arm) in self.ids.iter().zip(nodes).zip(self.arm_seq.drain(..)) {
            let core = &mut cores[part.shard_of[*node as usize] as usize];
            core.nodes.push(actor);
            core.ids.push(*node);
            core.arm_seq.push(arm);
        }
        for core in &mut cores {
            core.notes = WindowNotes::new(core.ids.len(), recording);
        }
        while let Some(ev) = self.queue.pop() {
            cores[part.shard_of[ev.key.node as usize] as usize]
                .queue
                .insert(ev);
        }
        for (key, link) in self.links.drain() {
            let from = (key >> 32) as usize;
            cores[part.shard_of[from] as usize].links.insert(key, link);
        }
        cores
    }

    /// Undo [`Self::split`]: take back every node (in id order), pending
    /// event, link stream and arm counter, and add the cores' counters.
    pub(crate) fn merge(&mut self, cores: Vec<Shard<A>>, part: &Partition) {
        let mut parts = Vec::with_capacity(cores.len());
        for mut core in cores {
            self.stats.absorb(&core.stats);
            self.links.extend(core.links.drain());
            self.now = self.now.max(core.now);
            while let Some(ev) = core.queue.pop() {
                self.queue.insert(ev);
            }
            parts.push(core.nodes.into_iter().zip(core.arm_seq));
        }
        for &shard in &part.shard_of {
            let (actor, arm) = parts[shard as usize].next().expect("node lost in merge");
            self.nodes.push(actor);
            self.arm_seq.push(arm);
        }
    }
}

/// Coordinator → worker: run one epoch. Dropping the command channel
/// tells the worker to ship its core back and exit.
struct Advance<M> {
    until: u64,
    /// Deliveries from other cores due in this epoch or later.
    inbox: Vec<Event<M>>,
    churn: Option<ChurnDelta>,
}

/// Worker → coordinator epoch report.
struct EpochReport<M> {
    shard: u32,
    /// Deliveries bound for other cores.
    outbox: Vec<Event<M>>,
    folds: Folds,
    /// Events still queued after the epoch.
    queue_len: usize,
    /// Firing time of the core's next queued event.
    next_time: Option<u64>,
}

enum Report<A: Actor> {
    Epoch(EpochReport<A::Msg>),
    Done(Box<Shard<A>>),
}

fn worker_loop<A: Actor>(
    mut core: Shard<A>,
    cmds: Receiver<Advance<A::Msg>>,
    reports: Sender<Report<A>>,
) {
    while let Ok(cmd) = cmds.recv() {
        for ev in cmd.inbox {
            core.queue.insert(ev);
        }
        let (mut folds, mut unlimited) = (Folds::default(), u64::MAX);
        core.epoch(cmd.until, cmd.churn.as_ref(), &mut unlimited, &mut folds);
        let report = EpochReport {
            shard: core.id,
            outbox: std::mem::take(&mut core.outbox),
            folds,
            queue_len: core.queue.len(),
            next_time: core.queue.peek_time(),
        };
        if reports.send(Report::Epoch(report)).is_err() {
            return;
        }
    }
    let _ = reports.send(Report::Done(Box::new(core)));
}

/// The coordinator's handle on cores running on worker threads.
pub(crate) struct Pool<A: Actor> {
    cmds: Vec<Sender<Advance<A::Msg>>>,
    reports: Receiver<Report<A>>,
    /// Cross-core deliveries waiting for the next epoch, per core.
    inboxes: Vec<Vec<Event<A::Msg>>>,
    next_times: Vec<Option<u64>>,
    part: Arc<Partition>,
}

impl<A> Pool<A>
where
    A: Actor + Send,
    A::Msg: Send + Sync,
{
    /// Start one worker thread per core.
    pub(crate) fn spawn<'scope>(
        scope: &rayon::Scope<'scope, '_>,
        cores: Vec<Shard<A>>,
        part: Arc<Partition>,
    ) -> Self
    where
        A: 'scope,
    {
        let (report_tx, reports) = channel();
        let next_times = cores.iter().map(|c| c.queue.peek_time()).collect();
        let inboxes = cores.iter().map(|_| Vec::new()).collect();
        let cmds = cores
            .into_iter()
            .map(|core| {
                let (tx, rx) = channel();
                let report_tx = report_tx.clone();
                scope.spawn(move || worker_loop(core, rx, report_tx));
                tx
            })
            .collect();
        Pool {
            cmds,
            reports,
            inboxes,
            next_times,
            part,
        }
    }
}

impl<A: Actor> Pool<A> {
    /// Earliest pending event in any core or inbox.
    pub(crate) fn next_time(&self) -> Option<u64> {
        let inboxed = self.inboxes.iter().flatten().map(|ev| ev.time);
        self.next_times
            .iter()
            .flatten()
            .copied()
            .chain(inboxed)
            .min()
    }

    /// Run one epoch on every core, collect the window's records into
    /// `out`, and route cross-core deliveries. Returns the number of
    /// pending events afterwards.
    pub(crate) fn epoch(
        &mut self,
        until: u64,
        churn: Option<ChurnDelta>,
        out: &mut Folds,
    ) -> usize {
        for (tx, inbox) in self.cmds.iter().zip(&mut self.inboxes) {
            let cmd = Advance {
                until,
                inbox: std::mem::take(inbox),
                churn: churn.clone(),
            };
            tx.send(cmd).expect("worker died");
        }
        let mut pending = 0;
        for _ in 0..self.cmds.len() {
            let Ok(Report::Epoch(r)) = self.reports.recv() else {
                panic!("worker died mid-epoch");
            };
            pending += r.queue_len + r.outbox.len();
            self.next_times[r.shard as usize] = r.next_time;
            out.append(r.folds);
            for ev in r.outbox {
                self.inboxes[self.part.shard_of[ev.key.node as usize] as usize].push(ev);
            }
        }
        pending
    }

    /// Stop the workers and take their cores back, in core order.
    pub(crate) fn finish(self) -> Vec<Shard<A>> {
        debug_assert!(self.inboxes.iter().all(Vec::is_empty));
        drop(self.cmds);
        let mut cores: Vec<Shard<A>> = (0..self.next_times.len())
            .map(|_| self.reports.recv())
            .map(|r| match r {
                Ok(Report::Done(core)) => *core,
                _ => panic!("worker died at finish"),
            })
            .collect();
        cores.sort_by_key(|c| c.id);
        cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;
    use crate::{Runtime, Transcript};

    /// A mesh gossip protocol exercising broadcasts, unicasts, timers,
    /// and multi-hop chatter — enough surface to catch ordering bugs.
    #[derive(Debug, Clone, PartialEq)]
    struct Chatter {
        id: u32,
        rounds_left: u32,
        heard: Vec<(u32, u32)>,
    }

    #[derive(Debug, Clone)]
    struct Word(u32);

    impl Message for Word {
        fn kind(&self) -> &'static str {
            "word"
        }
    }

    impl Actor for Chatter {
        type Msg = Word;

        fn on_start(&mut self, ctx: &mut Ctx<Word>) {
            ctx.set_timer(1 + (self.id as u64 % 3), 0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Word>, from: u32, msg: Word) {
            self.heard.push((from, msg.0));
            if msg.0 > 0 && self.heard.len().is_multiple_of(2) {
                ctx.send(from, Word(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Word>, _timer: u32) {
            ctx.broadcast(Word(self.id % 4 + 1));
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.set_timer(2, 0);
            }
        }

        fn on_neighborhood_change(&mut self, ctx: &mut Ctx<Word>, neighbors: &[u32], _pos: Point) {
            // React to churn: record the new degree and re-announce, so
            // parity tests exercise sends/timers out of this callback.
            self.heard.push((u32::MAX, neighbors.len() as u32));
            if !neighbors.is_empty() {
                ctx.broadcast(Word(2));
                ctx.set_timer(1, 7);
            }
        }
    }

    fn grid_points(side: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for y in 0..side {
            for x in 0..side {
                pts.push(Point::new(x as f64 * 0.9, y as f64 * 0.9));
            }
        }
        pts
    }

    fn build(faults: FaultConfig, seed: u64) -> Runtime<Chatter> {
        let pts = grid_points(5);
        let nodes = (0..pts.len() as u32)
            .map(|id| Chatter {
                id,
                rounds_left: 4,
                heard: Vec::new(),
            })
            .collect();
        Runtime::new(nodes, &pts, 1.0, faults, seed)
    }

    /// The headline guarantee: sequential and sharded runs (several
    /// thread counts) agree on digest, stats, final actor state, and
    /// virtual end time.
    #[test]
    fn sharded_run_matches_sequential_bit_for_bit() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let mut seq = build(faults, 42);
        seq.record_trace(true);
        seq.start();
        let seq_now = seq.run();
        for threads in [2, 4, 8] {
            let mut sh = build(faults, 42);
            sh.record_trace(true);
            sh.start();
            let sh_now = sh.run_sharded(threads);
            assert_eq!(
                seq.transcript().digest(),
                sh.transcript().digest(),
                "digest diverged at {threads} threads"
            );
            assert_eq!(seq.transcript().entries(), sh.transcript().entries());
            assert_eq!(
                seq.stats(),
                sh.stats(),
                "stats diverged at {threads} threads"
            );
            assert_eq!(seq.nodes(), sh.nodes(), "actor state diverged");
            assert_eq!(seq_now, sh_now, "virtual end time diverged");
        }
    }

    /// Lookahead > 1 (minimum link delay 3) exercises multi-tick epochs
    /// with intra-epoch timers.
    #[test]
    fn sharded_parity_with_wide_lookahead() {
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 3, max: 7 },
        };
        let mut seq = build(faults, 7);
        seq.start();
        seq.run();
        let mut sh = build(faults, 7);
        sh.start();
        sh.run_sharded(4);
        assert_eq!(seq.transcript().digest(), sh.transcript().digest());
        assert_eq!(seq.stats(), sh.stats());
        assert_eq!(seq.nodes(), sh.nodes());
    }

    /// Churn parity: joins, graceful/crash leaves, and drifts land at
    /// epoch barriers, so digests, stats (including `link_lost` /
    /// `timers_abandoned`), actor states, and end times stay bit-identical
    /// across executors and thread counts.
    #[test]
    fn churn_runs_match_sequential_bit_for_bit() {
        use crate::ChurnPlan;
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let plan = ChurnPlan::new()
            .join(3, 24, Point::new(1.3, 1.3))
            .drift(5, 7, Point::new(3.1, 0.2))
            .crash(8, 12)
            .leave(8, 18)
            .drift(11, 3, Point::new(0.1, 3.4));
        let run = |threads: usize| {
            let pts = grid_points(5);
            let nodes = (0..pts.len() as u32)
                .map(|id| Chatter {
                    id,
                    rounds_left: 4,
                    heard: Vec::new(),
                })
                .collect();
            let mut rt = Runtime::new(nodes, &pts, 1.0, faults, 42);
            rt.set_churn_plan(&plan);
            rt.record_trace(true);
            rt.start();
            let now = if threads == 0 {
                rt.run()
            } else {
                rt.run_sharded(threads)
            };
            (now, rt)
        };
        let (seq_now, seq) = run(0);
        assert!(seq.stats().crashes == 1 && seq.stats().joins == 1);
        for threads in [1, 4, 8] {
            let (sh_now, sh) = run(threads);
            assert_eq!(
                seq.transcript().digest(),
                sh.transcript().digest(),
                "churn digest diverged at {threads} threads"
            );
            assert_eq!(seq.transcript().entries(), sh.transcript().entries());
            assert_eq!(seq.stats(), sh.stats(), "stats diverged at {threads}");
            assert_eq!(seq.nodes(), sh.nodes(), "actor state diverged");
            assert_eq!(seq_now, sh_now, "virtual end time diverged");
        }
    }

    /// One shard (or one thread) falls back to the sequential path.
    #[test]
    fn single_thread_sharded_is_sequential() {
        let mut a = build(FaultConfig::lossy(0.1), 5);
        a.start();
        a.run();
        let mut b = build(FaultConfig::lossy(0.1), 5);
        b.start();
        b.run_sharded(1);
        assert_eq!(a.transcript().digest(), b.transcript().digest());
        assert_eq!(a.stats(), b.stats());
    }

    /// A random actor program: each node's behaviour comes from its own
    /// seeded stream — when it arms timers, whether it broadcasts, and
    /// whom it unicasts (neighbors, out-of-range nodes, or itself).
    #[derive(Debug, Clone, PartialEq)]
    struct Script {
        id: u32,
        n: u32,
        state: u64,
        budget: u32,
        heard: Vec<(u32, u32)>,
    }

    impl Script {
        fn draw(&mut self, k: u64) -> u64 {
            self.state = crate::runtime::splitmix64(self.state);
            self.state % k
        }
    }

    impl Actor for Script {
        type Msg = Word;

        fn on_start(&mut self, ctx: &mut Ctx<Word>) {
            for timer in 0..1 + self.draw(2) as u32 {
                ctx.set_timer(1 + self.draw(4), timer);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Word>, from: u32, msg: Word) {
            self.heard.push((from, msg.0));
            if msg.0 > 0 && self.draw(2) == 0 {
                ctx.send(from, Word(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Word>, timer: u32) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let word = Word(self.draw(4) as u32);
            match self.draw(3) {
                0 => ctx.broadcast(word),
                1 => ctx.send(self.draw(self.n as u64) as u32, word),
                _ => {}
            }
            ctx.set_timer(1 + self.draw(6), timer);
        }
    }

    /// The naive reference executor: one plain `Vec` of events, re-sorted
    /// by `(time, EventKey)` before every pop — no cores, no epochs, no
    /// partition. It shares only the link streams and fault fates with
    /// the runtime. Records are grouped per lookahead window by owning
    /// node, the transcript's canonical order, and digested the same way.
    struct Reference<A: Actor> {
        nodes: Vec<A>,
        rows: Vec<Vec<u32>>,
        events: Vec<Event<A::Msg>>,
        links: HashMap<u64, LinkState>,
        arms: Vec<u64>,
        faults: FaultConfig,
        seed: u64,
        stats: NetStats,
        /// `(owner, record)` of the open window, in emission order.
        window: Vec<(u32, String)>,
        trace: Transcript,
        entries: Vec<String>,
    }

    impl<A: Actor> Reference<A> {
        fn run(
            nodes: Vec<A>,
            points: &[Point],
            range: f64,
            faults: FaultConfig,
            seed: u64,
        ) -> Self {
            let n = nodes.len();
            let rows = (0..n)
                .map(|u| {
                    (0..n as u32)
                        .filter(|&v| {
                            v as usize != u
                                && points[u].dist_sq(points[v as usize]) <= range * range
                        })
                        .collect()
                })
                .collect();
            let mut r = Reference {
                nodes,
                rows,
                events: Vec::new(),
                links: HashMap::new(),
                arms: vec![0; n],
                faults,
                seed,
                stats: NetStats::default(),
                window: Vec::new(),
                trace: Transcript::new(true),
                entries: Vec::new(),
            };
            for id in 0..n as u32 {
                let mut ctx = Ctx::new(id, 0);
                r.nodes[id as usize].on_start(&mut ctx);
                r.effects(ctx);
            }
            r.close(r.events.len());
            let lookahead = faults.min_delay();
            let mut open = None;
            loop {
                r.events.sort_by_key(|e| std::cmp::Reverse((e.time, e.key)));
                let Some(ev) = r.events.pop() else { break };
                let window = ev.time / lookahead;
                if open.is_some_and(|w| w != window) {
                    // The runtime samples the pending count at the
                    // barrier, before this event is taken.
                    r.close(r.events.len() + 1);
                }
                open = Some(window);
                let (t, node) = (ev.time, ev.key.node);
                let mut ctx = Ctx::new(node, t);
                match ev.kind {
                    EventKind::Deliver { msg } => {
                        let (from, msg) = (ev.key.src, msg.into_msg());
                        r.stats.delivered += 1;
                        r.stats.kind(msg.kind()).delivered += 1;
                        r.record(node, format!("D t={t} {from}->{node} {msg:?}"));
                        r.nodes[node as usize].on_message(&mut ctx, from, msg);
                    }
                    EventKind::Timer { timer } => {
                        r.stats.timers_fired += 1;
                        r.record(node, format!("T t={t} n={node} id={timer}"));
                        r.nodes[node as usize].on_timer(&mut ctx, timer);
                    }
                }
                r.effects(ctx);
            }
            r.close(0);
            r
        }

        fn record(&mut self, owner: u32, entry: String) {
            self.window.push((owner, entry));
        }

        /// Close the open window: sample the pending count, then digest
        /// and log its records node by node.
        fn close(&mut self, pending: usize) {
            let depth = &mut self.stats.max_queue_depth;
            *depth = (*depth).max(pending);
            self.window.sort_by_key(|&(owner, _)| owner);
            for group in self.window.chunk_by(|a, b| a.0 == b.0) {
                let sub = group
                    .iter()
                    .fold(Transcript::new(false).digest(), |d, (_, e)| {
                        let d = e
                            .bytes()
                            .fold(d, |d, b| (d ^ b as u64).wrapping_mul(FNV_PRIME));
                        (d ^ 0xff).wrapping_mul(FNV_PRIME)
                    });
                self.trace.fold_node(group[0].0, sub);
            }
            self.entries.extend(self.window.drain(..).map(|(_, e)| e));
        }

        fn effects(&mut self, ctx: Ctx<A::Msg>) {
            let (node, now) = (ctx.node, ctx.now());
            for (to, msg) in ctx.sends {
                if self.rows[node as usize].contains(&to) {
                    self.send_copy(now, node, to, msg);
                } else {
                    self.stats.non_neighbor_sends += 1;
                    self.record(node, format!("L t={now} {node}->{to} {msg:?}"));
                }
            }
            for msg in ctx.broadcasts {
                self.stats.broadcasts += 1;
                for to in self.rows[node as usize].clone() {
                    self.send_copy(now, node, to, msg.clone());
                }
            }
            for (at, timer) in ctx.timers {
                self.stats.timers_set += 1;
                let key = EventKey::timer(node, self.arms[node as usize]);
                self.arms[node as usize] += 1;
                let kind = EventKind::Timer { timer };
                self.events.push(Event {
                    time: at,
                    key,
                    kind,
                });
            }
        }

        fn send_copy(&mut self, now: u64, from: u32, to: u32, msg: A::Msg) {
            self.stats.sent += 1;
            self.stats.kind(msg.kind()).sent += 1;
            let seed = self.seed;
            let link = self
                .links
                .entry(link_key(from, to))
                .or_insert_with(|| LinkState::new(seed, from, to));
            let delays = match self.faults.transmit(&mut link.rng) {
                TransmitOutcome::Dropped => {
                    self.stats.dropped += 1;
                    self.stats.kind(msg.kind()).dropped += 1;
                    self.record(from, format!("X t={now} {from}->{to} {msg:?}"));
                    return;
                }
                TransmitOutcome::Delivered(d) => vec![d],
                TransmitOutcome::Duplicated(d1, d2) => {
                    self.stats.duplicated += 1;
                    vec![d1, d2]
                }
            };
            for d in delays {
                let key = EventKey::deliver(from, to, link.copies);
                link.copies += 1;
                let kind = EventKind::Deliver {
                    msg: Payload::Own(msg.clone()),
                };
                self.events.push(Event {
                    time: now + d,
                    key,
                    kind,
                });
            }
        }
    }

    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Differential check of the one executor against the naive
    /// reference on random actor programs over random geometries with
    /// drop/duplicate/delay faults: inline and 2-worker runs must match
    /// its final actor states, counters, transcript entries and digest.
    #[test]
    fn executor_matches_naive_reference_on_random_programs() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(16..36);
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)))
                .collect();
            let min = rng.gen_range(1..=2);
            let faults = FaultConfig {
                drop_prob: rng.gen_range(0.0..0.3),
                duplicate_prob: rng.gen_range(0.0..0.2),
                delay: DelayDist::Uniform { min, max: min + 3 },
            };
            let nodes: Vec<Script> = (0..n)
                .map(|id| Script {
                    id,
                    n,
                    state: seed ^ (u64::from(id) << 32),
                    budget: rng.gen_range(6..16),
                    heard: Vec::new(),
                })
                .collect();
            let reference = Reference::run(nodes.clone(), &points, 1.0, faults, seed);
            let s = &reference.stats;
            assert!(s.delivered > 100 && s.dropped > 0 && s.non_neighbor_sends > 0);
            for threads in [1, 2] {
                let mut rt = Runtime::new(nodes.clone(), &points, 1.0, faults, seed);
                rt.record_trace(true);
                rt.start();
                rt.run_sharded(threads);
                let at = format!("seed {seed}, {threads} thread(s)");
                assert_eq!(rt.nodes(), &reference.nodes[..], "actor state at {at}");
                assert_eq!(rt.stats(), &reference.stats, "stats at {at}");
                assert_eq!(
                    rt.transcript().entries().unwrap(),
                    &reference.entries[..],
                    "transcript at {at}"
                );
                assert_eq!(
                    rt.transcript().digest(),
                    reference.trace.digest(),
                    "digest at {at}"
                );
            }
        }
    }

    #[test]
    fn partition_keeps_cells_together_and_bounds_shards() {
        let pts = grid_points(4);
        let (part, shards) = Partition::spatial(&pts, 1.0, 3);
        let shard_of = &part.shard_of;
        assert!(shards <= 3);
        assert_eq!(shard_of.len(), pts.len());
        // Nodes in the same cell share a shard.
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                let cell = |p: &Point| ((p.x).floor() as i64, (p.y).floor() as i64);
                if cell(a) == cell(b) {
                    assert_eq!(shard_of[i], shard_of[j]);
                }
            }
        }
    }
}
