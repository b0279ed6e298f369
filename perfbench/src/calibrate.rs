//! Host-speed calibration.
//!
//! The reference host's speed drifts by up to a half over minutes, and the
//! drift moves every host time of a run together: in one set of ten
//! `churn_byzantine` runs the 1-thread harness time rose from 2.2 s to
//! 3.2 s and the set-up time from 1.8 ms to 2.3 ms, with no change in the
//! program. A run therefore also times a fixed kernel that lives in this
//! crate, never in the program under test, at the end of every
//! iteration, and reports each leg's time scaled to the speed at which
//! the kernel takes [`REFERENCE_S`]. A change to the program moves the scaled time as it
//! moves the raw one; a change in host speed moves the kernel too and
//! largely cancels.
//!
//! The kernel is a small discrete-event loop with the same kinds of work
//! as the runtime: a binary-heap event queue held at a fixed depth, a hash
//! map of per-link counters and `Debug` rendering into an FNV-1a sink.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;

/// Seconds the kernel takes side by side on both CPUs of the reference
/// host at a typical speed (0.19–0.31 s over ten pairs when this was
/// set). It only fixes the unit of the scaled times, which read as
/// seconds at that speed.
pub const REFERENCE_S: f64 = 0.23;

/// Pending events the kernel's queue holds.
const DEPTH: usize = 100_000;
/// Events the kernel processes.
const EVENTS: usize = 400_000;
/// Nodes the kernel's events address.
const NODES: u32 = 5_000;

/// FNV-1a over everything written.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Run the kernel once and return its digest, which is the same on every
/// call.
pub fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::with_capacity(DEPTH + 1);
    for _ in 0..DEPTH {
        let r = next();
        queue.push(Reverse((r % 64, (r >> 32) as u32 % NODES, 0)));
    }
    let mut links: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(EVENTS, Default::default());
    let mut sink = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..EVENTS {
        let Reverse((time, node, hops)) = queue.pop().expect("the queue never drains");
        let r = next();
        let to = r as u32 % NODES;
        *links
            .entry(u64::from(node) << 32 | u64::from(to))
            .or_insert(0) += 1;
        let _ = write!(sink, "{node}->{to}@{time}:{hops:?}");
        queue.push(Reverse((time + 1 + r % 16, to, hops + 1)));
    }
    // Opaque to the optimizer, so that no caller can skip the work.
    std::hint::black_box(sink.0 ^ links.len() as u64)
}
