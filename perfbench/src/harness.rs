//! Calls into the runtime's `run_*` harnesses, the correctness gate and
//! the simulated-statistics fingerprint.

use crate::inputs::{faults, Call};
use adhoc_proximity::SpatialGraph;
use adhoc_runtime::{
    edge_fidelity, run_gossip_balancing_adversarial, run_gossip_balancing_sharded,
    run_theta_protocol_sharded, AdversaryPlan, GossipRun, NetStats, ThetaRun,
};

/// What one harness call returned.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// `run_theta_protocol_sharded`.
    Theta(ThetaRun),
    /// Either gossip harness.
    Gossip(GossipRun),
}

impl Outcome {
    /// The runtime counters of the call.
    pub fn stats(&self) -> &NetStats {
        match self {
            Outcome::Theta(r) => &r.stats,
            Outcome::Gossip(r) => &r.stats,
        }
    }

    /// The replay digest.
    pub fn digest(&self) -> u64 {
        match self {
            Outcome::Theta(r) => r.digest,
            Outcome::Gossip(r) => r.digest,
        }
    }

    /// Virtual time at quiescence (the gossip harnesses do not report it).
    pub fn finished_at(&self) -> Option<u64> {
        match self {
            Outcome::Theta(r) => Some(r.finished_at),
            Outcome::Gossip(_) => None,
        }
    }
}

/// Events the runtime processed: deliveries, timer firings, copies lost
/// to crashed receivers and timers abandoned by crashed owners.
pub fn events(stats: &NetStats) -> u64 {
    stats.delivered + stats.timers_fired + stats.link_lost + stats.timers_abandoned
}

/// Execute `call` on `threads` worker threads (`1` = sequential).
pub fn execute(call: &Call, threads: usize) -> Outcome {
    match call {
        Call::Theta(c) => Outcome::Theta(run_theta_protocol_sharded(
            &c.points,
            c.alg.sectors(),
            c.alg.range(),
            c.timing,
            faults(),
            c.seed,
            threads,
        )),
        Call::Gossip(c) => Outcome::Gossip(run_gossip_balancing_sharded(
            &c.topology.spatial,
            &c.dests,
            c.cfg,
            &c.traffic,
            faults(),
            c.seed,
            threads,
        )),
        Call::GossipAdversarial(c) => Outcome::Gossip(run_gossip_balancing_adversarial(
            &c.topology.spatial,
            &c.dests,
            c.cfg,
            &c.traffic,
            faults(),
            c.seed,
            &c.plan,
            c.adversary.as_ref().unwrap_or(&AdversaryPlan::new()),
            threads,
        )),
    }
}

/// ΘALG result versus the direct construction: the share of reference
/// edges reconstructed, 0 if the protocol also built an edge the
/// reference lacks.
pub fn theta_fidelity(direct: &SpatialGraph, run: &ThetaRun) -> f64 {
    if run.graph.graph.num_edges() != direct.graph.num_edges() {
        return 0.0;
    }
    edge_fidelity(direct, &run.graph)
}

/// Check one call's result on its own: ΘALG fidelity must be 1.0 and the
/// gossip ledger must balance.
pub fn check(call: &Call, out: &Outcome) -> Result<(), String> {
    match (call, out) {
        (Call::Theta(c), Outcome::Theta(r)) => {
            let f = theta_fidelity(&c.direct.spatial, r);
            if f < 1.0 {
                return Err(format!("ΘALG fidelity {f} < 1 against the direct build"));
            }
        }
        (Call::Gossip(_) | Call::GossipAdversarial(_), Outcome::Gossip(r)) => {
            if !r.conserved() {
                return Err(format!(
                    "gossip ledger not conserved: {} packets injected",
                    r.injected
                ));
            }
        }
        _ => return Err(format!("{} returned a mismatched outcome", call.harness())),
    }
    Ok(())
}

/// Check that two executions of one call (another thread count or
/// another iteration) agree on digest, runtime counters and result.
pub fn check_parity(a: &Outcome, b: &Outcome) -> Result<(), String> {
    if a.digest() != b.digest() {
        return Err(format!(
            "digests differ: {:#018x} vs {:#018x}",
            a.digest(),
            b.digest()
        ));
    }
    if a.stats() != b.stats() {
        return Err("NetStats differ".to_string());
    }
    let same = match (a, b) {
        (Outcome::Theta(x), Outcome::Theta(y)) => {
            x.finished_at == y.finished_at && x.graph.graph.edges().eq(y.graph.graph.edges())
        }
        (Outcome::Gossip(x), Outcome::Gossip(y)) => x == y,
        _ => false,
    };
    if same {
        Ok(())
    } else {
        Err("results differ".to_string())
    }
}

/// One line of simulated statistics for a harness call: digest, events,
/// link-level counts, per-kind counts and quiescence time. Identical
/// fingerprints before and after a change show that it altered no
/// simulated outcome.
pub fn fingerprint(call: &Call, threads: usize, out: &Outcome) -> String {
    let s = out.stats();
    let kinds: Vec<String> = s
        .per_kind
        .iter()
        .map(|(k, c)| {
            format!(
                "\"{k}\":{{\"sent\":{},\"delivered\":{},\"dropped\":{}}}",
                c.sent, c.delivered, c.dropped
            )
        })
        .collect();
    let finished = out
        .finished_at()
        .map_or("null".to_string(), |t| t.to_string());
    format!(
        "{{\"harness\":\"{}\",\"threads\":{threads},\"digest\":\"{:#018x}\",\"events\":{},\
         \"sent\":{},\"delivered\":{},\"dropped\":{},\"per_kind\":{{{}}},\"finished_at\":{finished}}}",
        call.harness(),
        out.digest(),
        events(s),
        s.sent,
        s.delivered,
        s.dropped,
        kinds.join(","),
    )
}
