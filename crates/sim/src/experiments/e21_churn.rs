//! **E21 — churn and mobility under faults**: the paper's topology is
//! static, but its locality argument is exactly what makes repair cheap —
//! a membership or position change only perturbs the one-hop neighborhoods
//! that can see it. This experiment replays ΘALG and `(T,γ)`-balancing on
//! the runtime's churn engine: nodes join, gracefully leave, crash, and
//! drift mid-run, survivors re-run the two-phase cone construction
//! locally, and we measure
//!
//! * **fidelity** — the fraction of live nodes whose admitted set exactly
//!   matches the direct offline ΘALG construction on the final live
//!   positions (1.0 = perfect repair);
//! * **repair latency** — ticks from the last perturbation until the
//!   slowest live node last settled its neighborhood;
//! * the routed **delivery rate** and packet-conservation ledger of
//!   reliable gossip-balancing over the eroding topology (dead buffers
//!   stay `buffered`, in-flight copies to dead nodes become `link_lost`,
//!   reliable custody toward vanished peers is abandoned, and the ledger
//!   identity still holds exactly).
//!
//! Three churn shapes are swept against the E20 loss rates: `no-churn`
//! (control), `leave-heavy` (alternating graceful leaves and crashes),
//! and `drift-heavy` (random waypoint drift). Every run is digest-pinned
//! in the golden-transcript suite at 1 and 4 worker threads.

use super::table::{f3, Table};
use adhoc_core::ThetaAlg;
use adhoc_geom::distributions::NodeDistribution;
use adhoc_geom::Point;
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    run_gossip_balancing_churn, run_theta_churn, shard_threads_from_env, uniform_workload,
    ChurnPlan, DelayDist, FaultConfig, GossipConfig, GossipRun, ReliableConfig, ThetaChurnRun,
    ThetaTiming,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;

/// Loss rates swept (same grid as E20).
const LOSSES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// The churn shapes.
const SCENARIOS: [&str; 3] = ["no-churn", "leave-heavy", "drift-heavy"];

/// Perturbation spacing in ticks.
const SPACING: u64 = 200;

/// Build one scenario's churn plan. Node 0 is never touched — it is the
/// gossip sink. Perturbation subjects are a seeded shuffle of the rest.
fn scenario_plan(scenario: &str, n: usize, quick: bool, seed: u64) -> ChurnPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pool: Vec<u32> = (1..n as u32).collect();
    pool.shuffle(&mut rng);
    let mut plan = ChurnPlan::new();
    match scenario {
        "no-churn" => {}
        "leave-heavy" => {
            let k = if quick { 4 } else { 8 };
            for (i, &node) in pool.iter().take(k).enumerate() {
                let at = SPACING * (i as u64 + 1);
                plan = if i % 2 == 0 {
                    plan.leave(at, node)
                } else {
                    plan.crash(at, node)
                };
            }
        }
        "drift-heavy" => {
            let k = if quick { 6 } else { 12 };
            for (i, &node) in pool.iter().take(k).enumerate() {
                let at = SPACING * (i as u64 + 1);
                let to = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
                plan = plan.drift(at, node, to);
            }
        }
        other => unreachable!("unknown scenario {other}"),
    }
    plan
}

/// One (loss, scenario) cell: the ΘALG churn run plus reliable
/// gossip-balancing over the offline topology eroded by the same plan.
struct ChurnPoint {
    loss: f64,
    scenario: &'static str,
    theta: ThetaChurnRun,
    gossip: GossipRun,
}

/// Execute the sweep (shared by [`run`] and the acceptance test).
fn sweep(quick: bool) -> Vec<ChurnPoint> {
    let n = if quick { 40 } else { 120 };
    let inject_steps = if quick { 250 } else { 1500 };
    let drain_steps = if quick { 450 } else { 800 };
    let steps = inject_steps + drain_steps;

    let mut rng = ChaCha8Rng::seed_from_u64(20_000);
    let points = NodeDistribution::unit_square()
        .sample(n, &mut rng)
        .expect("sampling");
    let range = adhoc_geom::default_max_range(n);
    let alg = ThetaAlg::new(PI / 3.0, range);
    let direct = alg.build(&points);
    let threads = shard_threads_from_env();

    let mut out = Vec::new();
    for &loss in &LOSSES {
        let faults = FaultConfig::lossy(loss);
        for scenario in SCENARIOS {
            let plan = scenario_plan(scenario, n, quick, 7_100);
            let theta = run_theta_churn(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                faults,
                4242,
                &plan,
                threads,
            );
            let dests = [0u32];
            let workload = uniform_workload(n, &dests, inject_steps, 2, 99);
            let cfg = GossipConfig::new(
                BalancingConfig {
                    threshold: 0.5,
                    gamma: 0.1,
                    capacity: 40,
                },
                steps,
            )
            .with_reliability(ReliableConfig::default());
            let gossip = run_gossip_balancing_churn(
                &direct.spatial,
                &dests,
                cfg,
                &workload,
                faults,
                4242,
                &plan,
                threads,
            );
            out.push(ChurnPoint {
                loss,
                scenario,
                theta,
                gossip,
            });
        }
    }
    out
}

/// Run E21 and return the table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E21 (runtime churn, §2.1 locality under membership change): ΘALG \
         re-convergence + reliable (T,γ)-balancing over an eroding topology",
        &[
            "loss rate",
            "scenario",
            "live",
            "θ fidelity",
            "repair lat",
            "reconv",
            "delivery",
            "pkts lost",
            "conserved",
            "θ msgs/node",
            "θ finished",
        ],
    );
    for p in sweep(quick) {
        table.push(vec![
            f3(p.loss),
            p.scenario.to_string(),
            p.theta.live.len().to_string(),
            f3(p.theta.fidelity),
            p.theta.repair_latency.to_string(),
            p.theta.stats.reconvergences.to_string(),
            f3(p.gossip.delivery_rate()),
            p.gossip.link_lost.to_string(),
            p.gossip.conserved().to_string(),
            format!(
                "{:.1}",
                p.theta.stats.sent as f64 / p.theta.graph.points.len() as f64
            ),
            p.theta.finished_at.to_string(),
        ]);
    }
    table
}

/// Replay digests pinning churn behaviour for the golden
/// transcript-digest suite (`tests/golden_digests.rs`): 3 seeds × the 3
/// churn shapes, under loss, duplication, and jittered delays. The CI
/// thread matrix reruns these at 1 and 4 worker threads against the same
/// fixture, so the digests also enforce executor equivalence.
pub fn golden_digests() -> Vec<(String, u64)> {
    let n = 40;
    let mut rng = ChaCha8Rng::seed_from_u64(20_000);
    let points = NodeDistribution::unit_square()
        .sample(n, &mut rng)
        .expect("sampling");
    let range = adhoc_geom::default_max_range(n);
    let alg = ThetaAlg::new(PI / 3.0, range);
    let faults = FaultConfig {
        drop_prob: 0.1,
        duplicate_prob: 0.05,
        delay: DelayDist::Uniform { min: 1, max: 4 },
    };
    let threads = shard_threads_from_env();
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        for scenario in SCENARIOS {
            let plan = scenario_plan(scenario, n, true, 7_000 + seed);
            let run = run_theta_churn(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                faults,
                seed,
                &plan,
                threads,
            );
            let name = format!("e21/{scenario}/s{seed}");
            assert_eq!(run.fidelity, 1.0, "{name} did not repair exactly");
            out.push((name, run.digest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_acceptance_criteria() {
        let t = run(true);
        assert_eq!(t.rows.len(), LOSSES.len() * SCENARIOS.len());
        for row in &t.rows {
            let loss: f64 = row[0].parse().unwrap();
            let scenario = row[1].as_str();
            let fidelity: f64 = row[3].parse().unwrap();
            let repair: u64 = row[4].parse().unwrap();
            // Repair is exact for every churn shape at every loss rate —
            // the locality claim under membership change.
            assert_eq!(fidelity, 1.0, "{scenario} at loss {loss}: {row:?}");
            // With no perturbation, "repair" is initial convergence.
            assert!(repair > 0, "{scenario}: zero repair latency");
            if scenario == "no-churn" {
                assert_eq!(row[5], "0", "reconvergences without churn");
            } else {
                let reconv: u64 = row[5].parse().unwrap();
                assert!(reconv > 0, "{scenario}: no local re-convergences");
            }
            // The packet ledger survives churn exactly, at every loss.
            assert_eq!(row[8], "true", "conservation violated: {row:?}");
            let delivery: f64 = row[6].parse().unwrap();
            assert!(delivery > 0.0, "nothing delivered: {row:?}");
        }
    }

    #[test]
    fn golden_digest_names_are_unique_and_stable() {
        let d = golden_digests();
        assert_eq!(d.len(), 9);
        let mut names: Vec<&str> = d.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), d.len(), "duplicate scenario names");
        assert_eq!(d, golden_digests());
    }
}
