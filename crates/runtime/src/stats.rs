//! Runtime instrumentation: message counters and the replay transcript.
//!
//! Every executor core counts its own events in a [`NetStats`] and notes
//! its records in per-node window sub-digests (`WindowNotes`). At each
//! window boundary the coordinator folds the window into the
//! [`Transcript`] in node-id order (`Folds`) — the same routine whether
//! one inline core or `k` worker cores produced the window — and worker
//! cores' counters are summed back when a sharded run ends.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Link-level transmissions attempted (each broadcast counts once per
    /// receiver).
    pub sent: u64,
    /// Copies actually delivered (duplicates included).
    pub delivered: u64,
    /// Transmissions lost to the fault model.
    pub dropped: u64,
}

/// Aggregate counters for one run, overall and per message kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Link-level transmissions attempted.
    pub sent: u64,
    /// Copies delivered (duplicates included).
    pub delivered: u64,
    /// Transmissions lost.
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Radio broadcasts requested (before per-receiver fan-out).
    pub broadcasts: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Data retransmissions by the reliable-delivery sublayer. Folded in
    /// by reliable-transport drivers (e.g. `run_gossip_balancing` with
    /// reliability enabled); zero for best-effort-only runs.
    pub retransmits: u64,
    /// Standalone cumulative acks sent by the reliable sublayer
    /// (piggybacked acks ride data messages and are not counted here).
    pub acks: u64,
    /// Retransmit-timer firings in the reliable sublayer.
    pub rto_fired: u64,
    /// Unicasts to an in-plane node outside the sender's radio range.
    /// The paper's `G*` locality discipline means such a send can never
    /// leave the radio: the copy is discarded before the fault model and
    /// counted here (not in `sent`/`dropped`, so link-level ledgers stay
    /// conserved).
    pub non_neighbor_sends: u64,
    /// In-flight copies whose receiver crash-left before arrival: the
    /// link transmission survived the fault model, but the node was
    /// [`MemberState::Dead`](crate::MemberState::Dead) when the copy came
    /// due, so it is accounted here instead of `delivered`.
    pub link_lost: u64,
    /// Timers that fired on a crashed node and were discarded.
    pub timers_abandoned: u64,
    /// Churn joins applied.
    pub joins: u64,
    /// Churn graceful leaves applied.
    pub leaves: u64,
    /// Churn crash leaves applied.
    pub crashes: u64,
    /// Churn waypoint drifts applied.
    pub drifts: u64,
    /// `on_neighborhood_change` notifications issued: live nodes whose
    /// one-hop world changed at a churn boundary and were told to
    /// re-converge.
    pub reconvergences: u64,
    /// High-water mark of the event queue.
    pub max_queue_depth: usize,
    /// Per-kind breakdown, keyed by [`Message::kind`](crate::Message::kind).
    pub per_kind: BTreeMap<&'static str, KindCounts>,
}

impl NetStats {
    /// Fraction of transmissions lost (0 when nothing was sent).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64
        }
    }

    pub(crate) fn kind(&mut self, k: &'static str) -> &mut KindCounts {
        self.per_kind.entry(k).or_default()
    }

    /// Fold another stats block into this one (a sharded run merges its
    /// worker cores' counters at the end). `max_queue_depth` is
    /// deliberately *not* merged: the coordinator samples it globally at
    /// window folds.
    pub(crate) fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.broadcasts += other.broadcasts;
        self.timers_set += other.timers_set;
        self.timers_fired += other.timers_fired;
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.rto_fired += other.rto_fired;
        self.non_neighbor_sends += other.non_neighbor_sends;
        self.link_lost += other.link_lost;
        self.timers_abandoned += other.timers_abandoned;
        self.joins += other.joins;
        self.leaves += other.leaves;
        self.crashes += other.crashes;
        self.drifts += other.drifts;
        self.reconvergences += other.reconvergences;
        for (k, c) in &other.per_kind {
            let mine = self.per_kind.entry(k).or_default();
            mine.sent += c.sent;
            mine.delivered += c.delivered;
            mine.dropped += c.dropped;
        }
    }
}

/// A replay transcript: a rolling FNV-1a digest over every event the
/// runtime processes (deliveries, drops, timer firings), plus optionally
/// the full event log. Two runs are *replay-identical* iff their digests
/// match; [`crate::Runtime::record_trace`] additionally keeps the
/// human-readable entries so tests can diff them.
///
/// The digest is folded **canonically**: event records accumulate in
/// per-node sub-digests ([`WindowNotes`]) for the duration of one
/// lookahead window, and at each window boundary the dirty `(node,
/// sub-digest)` pairs are folded into the global digest in node-id
/// order. A node's events happen in a deterministic local order no
/// matter how execution is laid out, so one inline core and any number
/// of worker cores produce bit-identical digests.
#[derive(Debug, Clone)]
pub struct Transcript {
    digest: u64,
    entries: Option<Vec<String>>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Transcript {
    fn default() -> Self {
        Transcript {
            digest: FNV_OFFSET,
            entries: None,
        }
    }
}

/// A `fmt::Write` sink that folds every formatted byte straight into a
/// rolling FNV-1a state — digesting an event record costs zero heap
/// allocations, unlike rendering it to a `String` first.
struct FnvSink<'a>(&'a mut u64);

impl fmt::Write for FnvSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut d = *self.0;
        for &b in s.as_bytes() {
            d ^= b as u64;
            d = d.wrapping_mul(FNV_PRIME);
        }
        *self.0 = d;
        Ok(())
    }
}

impl Transcript {
    /// A fresh transcript; pass `record = true` to keep full entries.
    pub fn new(record: bool) -> Self {
        Transcript {
            digest: FNV_OFFSET,
            entries: if record { Some(Vec::new()) } else { None },
        }
    }

    /// Fold one node's window sub-digest into the global digest. Callers
    /// must fold in node-id order within a window — that canonical order
    /// is what makes the digest independent of execution layout.
    pub(crate) fn fold_node(&mut self, node: u32, sub: u64) {
        let mut d = self.digest;
        for b in node.to_le_bytes().into_iter().chain(sub.to_le_bytes()) {
            d ^= b as u64;
            d = d.wrapping_mul(FNV_PRIME);
        }
        self.digest = d;
    }

    /// Append one rendered event record to the full log (recording only).
    pub(crate) fn push_entry(&mut self, entry: String) {
        if let Some(log) = &mut self.entries {
            log.push(entry);
        }
    }

    /// The rolling digest over all events so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The full event log, if recording was enabled.
    pub fn entries(&self) -> Option<&[String]> {
        self.entries.as_deref()
    }
}

/// Per-node event-record accumulator of one executor core for one
/// lookahead window.
///
/// Every deliver/drop/timer/churn record is streamed (allocation-free,
/// via [`FnvSink`]) into the sub-digest of the node it belongs to — the
/// receiver for deliveries, the sender for drops, the owner for timers
/// and perturbations. Nodes are addressed by their *slot* in the core's
/// dense node vector; slots ascend with node ids, so slot order is
/// node-id order. All of a node's records are produced while processing
/// that node's own events, which occur in a canonical order however
/// execution is sharded; folding the dirty sub-digests in node-id order
/// at each window boundary ([`Folds::fold_into`]) therefore yields a
/// layout-invariant global digest.
#[derive(Debug, Clone)]
pub(crate) struct WindowNotes {
    /// Sub-digest per slot; `FNV_OFFSET` when clean this window.
    subs: Vec<u64>,
    /// Slots touched this window (possibly with duplicates; deduped at
    /// drain). Capacity is retained across windows, so steady-state
    /// noting and draining never allocate.
    dirty: Vec<u32>,
    /// Rendered records `(slot, entry)` in emission order, kept only when
    /// full-entry recording is on.
    logs: Option<Vec<(u32, String)>>,
}

impl WindowNotes {
    pub(crate) fn new(slots: usize, record: bool) -> Self {
        WindowNotes {
            subs: vec![FNV_OFFSET; slots],
            dirty: Vec::new(),
            logs: if record { Some(Vec::new()) } else { None },
        }
    }

    /// Whether rendered records are kept.
    pub(crate) fn recording(&self) -> bool {
        self.logs.is_some()
    }

    /// Stream one event record into `slot`'s sub-digest for the current
    /// window. The record is only materialized as a `String` when
    /// recording is on — the hot path never allocates here.
    pub(crate) fn note(&mut self, slot: usize, args: fmt::Arguments<'_>) {
        let sub = &mut self.subs[slot];
        if *sub == FNV_OFFSET {
            self.dirty.push(slot as u32);
        }
        if let Some(log) = &mut self.logs {
            let entry = args.to_string();
            FnvSink(sub).write_str(&entry).unwrap();
            log.push((slot as u32, entry));
        } else {
            // Formatting into the sink cannot fail: FnvSink never errors.
            FnvSink(sub).write_fmt(args).unwrap();
        }
        // Separator so concatenation ambiguity can't collide records.
        *sub ^= 0xff;
        *sub = sub.wrapping_mul(FNV_PRIME);
    }

    /// End the current window: move the dirty `(node, sub-digest)` pairs
    /// and rendered records into `out`, mapping slots to node ids through
    /// `ids`, and reset for the next window. A slot listed twice yields
    /// two identical pairs, which [`Folds::fold_into`] dedups.
    pub(crate) fn drain_into(&mut self, ids: &[u32], out: &mut Folds) {
        let subs = &self.subs;
        let pairs = self
            .dirty
            .iter()
            .map(|&s| (ids[s as usize], subs[s as usize]));
        out.subs.extend(pairs);
        for slot in self.dirty.drain(..) {
            self.subs[slot as usize] = FNV_OFFSET;
        }
        if let Some(log) = &mut self.logs {
            out.logs.extend(
                log.drain(..)
                    .map(|(slot, entry)| (ids[slot as usize], entry)),
            );
        }
    }
}

/// One window's records from one or more executor cores, waiting to be
/// folded into the transcript. Node sets are disjoint across cores, so
/// sorting by node id reproduces the one-core fold exactly. A reused
/// buffer keeps the one-core path allocation-free.
#[derive(Debug, Default)]
pub(crate) struct Folds {
    subs: Vec<(u32, u64)>,
    logs: Vec<(u32, String)>,
}

impl Folds {
    /// Add another core's window to this one.
    pub(crate) fn append(&mut self, mut other: Folds) {
        self.subs.append(&mut other.subs);
        self.logs.append(&mut other.logs);
    }

    /// Fold the window into `t` in node-id order (rendered records
    /// grouped by node, emission order within a node) and empty the
    /// buffer, keeping its capacity.
    pub(crate) fn fold_into(&mut self, t: &mut Transcript) {
        self.subs.sort_unstable();
        self.subs.dedup();
        for &(node, sub) in &self.subs {
            t.fold_node(node, sub);
        }
        self.subs.clear();
        self.logs.sort_by_key(|&(node, _)| node);
        for (_, entry) in self.logs.drain(..) {
            t.push_entry(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node ids of a one-core layout: slot `i` is node `i`.
    const IDS: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    /// Close one one-core window into `t`.
    fn fold(w: &mut WindowNotes, t: &mut Transcript) {
        let mut out = Folds::default();
        w.drain_into(&IDS, &mut out);
        out.fold_into(t);
    }

    fn digest_of(notes: &[(u32, &str)], record: bool) -> (u64, Option<Vec<String>>) {
        let mut t = Transcript::new(record);
        let mut w = WindowNotes::new(8, record);
        for &(node, s) in notes {
            w.note(node as usize, format_args!("{s}"));
        }
        fold(&mut w, &mut t);
        (t.digest(), t.entries().map(|e| e.to_vec()))
    }

    #[test]
    fn digest_is_order_sensitive_per_node() {
        let (a, _) = digest_of(&[(0, "x"), (0, "y")], false);
        let (b, _) = digest_of(&[(0, "y"), (0, "x")], false);
        assert_ne!(a, b);
    }

    /// Notes to *different* nodes in one window fold in node-id order, so
    /// the interleaving of distinct nodes' records doesn't matter — the
    /// layout-invariance the sharded executor relies on.
    #[test]
    fn cross_node_interleaving_is_canonicalized() {
        let (a, _) = digest_of(&[(2, "x"), (1, "y"), (2, "z")], false);
        let (b, _) = digest_of(&[(1, "y"), (2, "x"), (2, "z")], false);
        assert_eq!(a, b);
    }

    /// Splitting the same notes across window folds changes the digest
    /// (fold boundaries are part of the canonical record).
    #[test]
    fn window_boundaries_are_significant() {
        let mut t1 = Transcript::new(false);
        let mut w = WindowNotes::new(2, false);
        w.note(0, format_args!("x"));
        w.note(0, format_args!("y"));
        fold(&mut w, &mut t1);
        let mut t2 = Transcript::new(false);
        let mut w = WindowNotes::new(2, false);
        w.note(0, format_args!("x"));
        fold(&mut w, &mut t2);
        w.note(0, format_args!("y"));
        fold(&mut w, &mut t2);
        assert_ne!(t1.digest(), t2.digest());
    }

    #[test]
    fn digest_ignores_recording_flag() {
        let notes = [(1, "p"), (0, "q"), (1, "r")];
        let (a, entries_a) = digest_of(&notes, false);
        let (b, entries_b) = digest_of(&notes, true);
        assert_eq!(a, b);
        assert!(entries_a.is_none());
        // Entries flush grouped by node, emission order within a node.
        assert_eq!(entries_b.unwrap(), vec!["q", "p", "r"]);
    }

    #[test]
    fn separator_prevents_concatenation_collisions() {
        let (a, _) = digest_of(&[(0, "ab")], false);
        let (b, _) = digest_of(&[(0, "a"), (0, "b")], false);
        assert_ne!(a, b);
    }

    /// Two cores holding disjoint node sets (slots mapped through their
    /// own id lists) fold to exactly what one core holding every node
    /// folds, rendered records included.
    #[test]
    fn split_cores_fold_like_one_core() {
        let notes = [(3, "a"), (1, "b"), (3, "c"), (0, "d"), (6, "e")];
        let (one, one_entries) = digest_of(&notes, true);
        let ids = [[0u32, 3, 6], [1, 4, 7]];
        let mut cores = [WindowNotes::new(3, true), WindowNotes::new(3, true)];
        for &(node, s) in &notes {
            let core = (node % 3 != 0) as usize;
            let slot = ids[core].iter().position(|&id| id == node).unwrap();
            cores[core].note(slot, format_args!("{s}"));
        }
        let mut t = Transcript::new(true);
        let mut out = Folds::default();
        // The second core reports first: the merge must not care.
        cores[1].drain_into(&ids[1], &mut out);
        cores[0].drain_into(&ids[0], &mut out);
        out.fold_into(&mut t);
        assert_eq!(t.digest(), one);
        assert_eq!(t.entries().map(|e| e.to_vec()), one_entries);
    }

    /// The streaming sink and the render-then-fold path must agree byte
    /// for byte, including on multi-fragment format strings.
    #[test]
    fn streamed_digest_equals_rendered_digest() {
        let mut streamed = WindowNotes::new(4, false);
        let mut rendered = WindowNotes::new(4, true);
        for i in 0..50u32 {
            let node = i % 4;
            streamed.note(
                node as usize,
                format_args!("D t={} {}->{} Msg({:?})", i, i + 1, i + 2, (i, "x")),
            );
            rendered.note(
                node as usize,
                format_args!("D t={} {}->{} Msg({:?})", i, i + 1, i + 2, (i, "x")),
            );
        }
        let (mut a, mut b) = (Transcript::new(false), Transcript::new(true));
        fold(&mut streamed, &mut a);
        fold(&mut rendered, &mut b);
        assert_eq!(a.digest(), b.digest());
    }
}
