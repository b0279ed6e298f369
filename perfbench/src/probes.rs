//! Layer probes: warm micro-measurements of single runtime layers, sized
//! by what the workload's harness calls actually measured.
//!
//! Each probe times a fixed number of operations in batches and reports
//! the median batch cost per operation.

use adhoc_geom::Point;
use adhoc_runtime::{
    EventKey, EventKind, EventQueue, FaultConfig, GossipMsg, Payload, ThetaMsg, TransmitOutcome,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::{self, Write};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe.
const BATCHES: usize = 9;

/// Median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median nanoseconds per operation of `op` over [`BATCHES`] batches of
/// `per_batch` operations, after one untimed warm-up batch.
fn ns_per_op(per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for b in 0..=BATCHES {
        let t = Instant::now();
        for i in 0..per_batch {
            op(b * per_batch + i);
        }
        let ns = t.elapsed().as_nanos() as f64 / per_batch as f64;
        if b > 0 {
            samples.push(ns);
        }
    }
    median(&samples)
}

/// Cost of one pop + push on a public `EventQueue<ThetaMsg>` held at
/// `depth` events. A popped event is replaced by one `delay` ticks later:
/// a delivery at the fault model's unit delay with probability
/// `deliver_share`, otherwise a timer with a period drawn from
/// `timer_periods` — the workload's delay mix.
pub fn event_hold_ns(
    depth: usize,
    nodes: usize,
    deliver_share: f64,
    timer_periods: &[u64],
    seed: u64,
) -> f64 {
    let depth = depth.max(1);
    let nodes = nodes.max(2) as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut q: EventQueue<ThetaMsg> = EventQueue::new();
    let mut seq = 0u64;
    let mut schedule = |q: &mut EventQueue<ThetaMsg>, now: u64, rng: &mut ChaCha8Rng| {
        seq += 1;
        let node = rng.gen_range(0..nodes);
        if rng.gen_bool(deliver_share.clamp(0.0, 1.0)) {
            let from = rng.gen_range(0..nodes);
            q.push(
                now + 1,
                EventKey::deliver(from, node, seq),
                EventKind::Deliver {
                    msg: Payload::Own(ThetaMsg::Neighborhood),
                },
            );
        } else {
            let period = timer_periods[rng.gen_range(0..timer_periods.len())];
            q.push(
                now + period,
                EventKey::timer(node, seq),
                EventKind::Timer { timer: 1 },
            );
        }
    };
    // Fill to depth over a spread of start times, then warm for one
    // queue turnover before timing.
    for i in 0..depth {
        schedule(&mut q, (i % 64) as u64, &mut rng);
    }
    let mut hold = |_: usize| {
        let ev = q.pop().expect("the queue is held at a fixed depth");
        schedule(&mut q, black_box(ev).time, &mut rng);
    };
    for i in 0..depth {
        hold(i);
    }
    ns_per_op((depth / 4).clamp(20_000, 100_000), hold)
}

/// Cost of one `FaultConfig::transmit` on a per-link ChaCha8 stream,
/// touching `links` distinct link streams in random order as a runtime
/// with that many directed links does.
pub fn fault_transmit_ns(links: usize, faults: FaultConfig, seed: u64) -> f64 {
    let links = links.max(1);
    let mut streams: Vec<ChaCha8Rng> = (0..links as u64)
        .map(|l| ChaCha8Rng::seed_from_u64(seed ^ l.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let mut pick = ChaCha8Rng::seed_from_u64(!seed);
    let order: Vec<u32> = (0..1 << 16)
        .map(|_| pick.gen_range(0..links as u32))
        .collect();
    let mut delivered = 0u64;
    let ns = ns_per_op(100_000, |i| {
        let rng = &mut streams[order[i & 0xffff] as usize];
        if !matches!(faults.transmit(rng), TransmitOutcome::Dropped) {
            delivered += 1;
        }
    });
    black_box(delivered);
    ns
}

/// FNV-1a `fmt::Write` sink, the same fold the runtime's transcript
/// applies to every rendered event record.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Cost of rendering one delivery record carrying `msg` (`Debug`, as the
/// digest folds it) into an FNV-1a sink.
fn record_ns<M: fmt::Debug>(msgs: &[M]) -> f64 {
    let mut sink = Fnv(0xcbf2_9ce4_8422_2325);
    let ns = ns_per_op(100_000, |i| {
        let msg = &msgs[i % msgs.len()];
        let (t, from, to) = (i as u64, (i * 7) as u32, (i * 13) as u32);
        write!(sink, "D t={t} {from}->{to} {msg:?}").unwrap();
    });
    black_box(sink.0);
    ns
}

/// Record rendering of ΘALG `Position` beacons at uniform coordinates.
pub fn record_theta_ns(seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let msgs: Vec<ThetaMsg> = (0..256)
        .map(|_| ThetaMsg::Position {
            pos: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
        })
        .collect();
    record_ns(&msgs)
}

/// Record rendering of gossip `Heights` frames with one height per
/// destination.
pub fn record_gossip_ns(dests: usize, seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let msgs: Vec<GossipMsg> = (0..256)
        .map(|step| GossipMsg::Heights {
            step,
            heights: (0..dests.max(1)).map(|_| rng.gen_range(0..40)).collect(),
        })
        .collect();
    record_ns(&msgs)
}
