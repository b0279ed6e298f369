//! Deterministic discrete-event queue with a canonical, layout-invariant
//! event order.
//!
//! Events are ordered by `(time, key)` where [`EventKey`] is derived
//! entirely from *who* the event belongs to and per-link / per-node
//! counters — never from global insertion order. Two runs that schedule
//! the same events therefore pop them in the same order **regardless of
//! how the queue is physically laid out**: one queue in a single inline
//! executor core, or one queue per worker core with cross-core events
//! merged at epoch barriers. That invariance is what lets any number of
//! cores reproduce the one-core replay digest bit for bit.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Canonical tie-break key for events scheduled at the same tick.
///
/// Ordering is lexicographic `(node, class, src, seq)`:
///
/// * `node` — the owning node: the receiver of a delivery, the arming
///   node of a timer. All of one node's same-tick events are adjacent,
///   so per-node event streams are identical across execution layouts.
/// * `class` — [`CLASS_TIMER`] before [`CLASS_DELIVER`]: a node's timers
///   fire before its same-tick mailbox is drained.
/// * `src` — the sending node for deliveries (0 for timers): same-tick
///   arrivals are drained in sender order.
/// * `seq` — a per-directed-link copy counter for deliveries (fault-layer
///   duplicates get consecutive values) and a per-node arm counter for
///   timers. Both counters advance in the owner's deterministic local
///   order, so the key never depends on global scheduling history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Owning node (delivery receiver / timer owner).
    pub node: u32,
    /// Event class: [`CLASS_TIMER`] or [`CLASS_DELIVER`].
    pub class: u8,
    /// Sending node for deliveries, 0 for timers.
    pub src: u32,
    /// Per-directed-link copy counter (deliveries) or per-node arm
    /// counter (timers), kept to 32 bits so that a queued event of a
    /// reliability-wrapped protocol fits one 64-byte cache line; no link
    /// or node reaches 2³² copies or timers in a run.
    pub seq: u32,
}

/// [`EventKey::class`] of timer firings (sorts before deliveries).
pub const CLASS_TIMER: u8 = 0;
/// [`EventKey::class`] of message deliveries.
pub const CLASS_DELIVER: u8 = 1;

impl EventKey {
    /// Key for a timer armed by `node` as its `seq`-th arm.
    pub fn timer(node: u32, seq: u64) -> Self {
        EventKey {
            node,
            class: CLASS_TIMER,
            src: 0,
            seq: u32::try_from(seq).expect("a node armed 2^32 timers"),
        }
    }

    /// Key for the `seq`-th copy sent on the directed link `from → to`.
    pub fn deliver(from: u32, to: u32, seq: u64) -> Self {
        EventKey {
            node: to,
            class: CLASS_DELIVER,
            src: from,
            seq: u32::try_from(seq).expect("a link carried 2^32 copies"),
        }
    }
}

/// A delivery payload: owned for unicasts, reference-counted for
/// broadcast fan-out so one broadcast costs one allocation instead of a
/// deep clone per neighbor (the per-neighbor clones dominated large-run
/// profiles). The `Debug` rendering delegates to `M` byte for byte —
/// transcript records (and therefore replay digests) cannot tell the two
/// representations apart.
#[derive(Clone)]
pub enum Payload<M> {
    /// A payload with a single addressee (unicast copy).
    Own(M),
    /// One broadcast's payload, shared by every per-neighbor copy. The
    /// last surviving copy unwraps the `Arc` and moves the message;
    /// earlier copies clone at delivery time — so copies dropped by the
    /// fault layer never pay for a clone at all.
    Shared(Arc<M>),
}

impl<M> Payload<M> {
    /// Borrow the message.
    pub fn get(&self) -> &M {
        match self {
            Payload::Own(m) => m,
            Payload::Shared(m) => m,
        }
    }

    /// Take the message, cloning only if other copies still share it.
    pub fn into_msg(self) -> M
    where
        M: Clone,
    {
        match self {
            Payload::Own(m) => m,
            Payload::Shared(m) => Arc::try_unwrap(m).unwrap_or_else(|m| (*m).clone()),
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Payload<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// A message arrives at the owner's mailbox (sender in
    /// [`EventKey::src`]).
    Deliver {
        /// Payload (owned or broadcast-shared).
        msg: Payload<M>,
    },
    /// A timer set by the owner fires.
    Timer {
        /// Node-chosen timer id, passed back to
        /// [`Actor::on_timer`](crate::Actor::on_timer).
        timer: u32,
    },
}

/// A scheduled event: virtual time plus its canonical key.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Virtual firing time (ticks).
    pub time: u64,
    /// Canonical tie-break key.
    pub key: EventKey,
    /// The event itself.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.key).cmp(&(other.time, other.key))
    }
}

/// Min-heap of events ordered by `(time, key)`.
#[derive(Debug, Clone)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Reverse<Event<M>>>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute virtual time `time` under `key`.
    pub fn push(&mut self, time: u64, key: EventKey, kind: EventKind<M>) {
        self.heap.push(Reverse(Event { time, key, kind }));
    }

    /// Insert an already-built event.
    pub fn insert(&mut self, ev: Event<M>) {
        self.heap.push(Reverse(ev));
    }

    /// The earliest event, or `None` when quiescent.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_canonical_key() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, EventKey::timer(0, 0), EventKind::Timer { timer: 0 });
        q.push(
            3,
            EventKey::deliver(0, 2, 0),
            EventKind::Deliver {
                msg: Payload::Own(9),
            },
        );
        q.push(3, EventKey::timer(1, 0), EventKind::Timer { timer: 0 });
        q.push(1, EventKey::timer(3, 0), EventKind::Timer { timer: 0 });
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.key.node))
            .collect();
        assert_eq!(order, vec![(1, 3), (3, 1), (3, 2), (5, 0)]);
    }

    /// Same-tick events for one node: timers fire before deliveries,
    /// deliveries drain in `(sender, link seq)` order.
    #[test]
    fn same_tick_same_node_is_timer_then_sender_then_link_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            4,
            EventKey::deliver(7, 2, 1),
            EventKind::Deliver {
                msg: Payload::Own(3),
            },
        );
        q.push(
            4,
            EventKey::deliver(5, 2, 0),
            EventKind::Deliver {
                msg: Payload::Own(1),
            },
        );
        q.push(4, EventKey::timer(2, 9), EventKind::Timer { timer: 1 });
        q.push(
            4,
            EventKey::deliver(7, 2, 0),
            EventKind::Deliver {
                msg: Payload::Own(2),
            },
        );
        let keys: Vec<EventKey> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec![
                EventKey::timer(2, 9),
                EventKey::deliver(5, 2, 0),
                EventKey::deliver(7, 2, 0),
                EventKey::deliver(7, 2, 1),
            ]
        );
    }

    /// The order is a pure function of `(time, key)` — pushing the same
    /// events in any permutation pops them identically. This is the
    /// property the sharded executor's digest stability rests on.
    #[test]
    fn pop_order_is_insertion_invariant() {
        let events = [
            (2, EventKey::deliver(0, 1, 0)),
            (2, EventKey::deliver(1, 0, 0)),
            (1, EventKey::timer(1, 4)),
            (3, EventKey::deliver(0, 1, 1)),
            (2, EventKey::timer(0, 0)),
        ];
        let drain = |idx: &[usize]| {
            let mut q: EventQueue<()> = EventQueue::new();
            for &i in idx {
                let (t, k) = events[i];
                q.push(t, k, EventKind::Timer { timer: 0 });
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| (e.time, e.key))
                .collect::<Vec<_>>()
        };
        let a = drain(&[0, 1, 2, 3, 4]);
        let b = drain(&[4, 3, 2, 1, 0]);
        let c = drain(&[2, 4, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}
