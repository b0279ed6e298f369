//! Runtime benchmark for the ad hoc network stack.
//!
//! Three batch workloads run fixed simulated scenarios to quiescence on
//! the `adhoc-runtime` harnesses, each once sequentially and once on two
//! shard threads, and every result passes a correctness gate. Untraced
//! runs report end-to-end metrics; traced runs record spans around each
//! layer call and report per-layer metrics. See `perfbench/README.md`.

pub mod bench;
pub mod calibrate;
pub mod harness;
pub mod inputs;
pub mod probes;
pub mod sys;
pub mod trace;
