//! Workload definitions and seeded input generation.
//!
//! Everything a harness receives is generated here from the workload seed
//! alone: point sets, the direct ΘALG construction (the reference the
//! protocol runs are checked against), traffic plans, crash plans and
//! adversary plans. The same seed always yields byte-identical inputs.

use crate::trace::Tracer;
use adhoc_core::{ThetaAlg, ThetaTopology};
use adhoc_geom::distributions::NodeDistribution;
use adhoc_geom::{default_max_range, Point};
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    uniform_workload, AdversaryPlan, Attack, ChurnPlan, DefenseConfig, FaultConfig, GossipConfig,
    ReliableConfig, ThetaTiming,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::f64::consts::FRAC_PI_3;
use std::time::Instant;

/// Link loss probability of every workload.
pub const LOSS: f64 = 0.1;

/// Seed of the fixed networks the gossip workloads route over: node
/// positions and, for the attack, the compromised nodes. The delivered
/// share depends chiefly on where the sinks and blackholes land, far
/// more than any bound allows across random networks, so these stay
/// fixed while the run seed varies traffic, link faults and crashes.
pub const NETWORK_SEED: u64 = 2003;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One broadcast-heavy ΘALG protocol run to quiescence.
    ThetaStatic,
    /// Reliable `(T,γ)`-balancing over the direct ΘALG topology.
    GossipReliable,
    /// Reliable defended gossip under a blackhole attack with crashes.
    ChurnByzantine,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ThetaStatic,
        Workload::GossipReliable,
        Workload::ChurnByzantine,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ThetaStatic => "theta_static",
            Workload::GossipReliable => "gossip_reliable",
            Workload::ChurnByzantine => "churn_byzantine",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Scenario sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps the self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Nodes of the static ΘALG run.
    pub theta_n: usize,
    /// Nodes of the reliable gossip run.
    pub gossip_n: usize,
    /// Injection steps of the reliable gossip run.
    pub gossip_inject_steps: u64,
    /// Drain steps after injection stops.
    pub gossip_drain_steps: u64,
    /// Packets injected per step (both gossip runs).
    pub per_step: u32,
    /// Nodes of the adversarial gossip run.
    pub adversarial_n: usize,
    /// Injection steps of the adversarial gossip run.
    pub adversarial_inject_steps: u64,
    /// Drain steps of the adversarial gossip run.
    pub adversarial_drain_steps: u64,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        theta_n: 2500,
        gossip_n: 300,
        gossip_inject_steps: 400,
        gossip_drain_steps: 200,
        per_step: 3,
        adversarial_n: 300,
        adversarial_inject_steps: 600,
        adversarial_drain_steps: 300,
    };

    /// Self-test sizes.
    pub const TINY: Sizes = Sizes {
        theta_n: 120,
        gossip_n: 60,
        gossip_inject_steps: 60,
        gossip_drain_steps: 40,
        per_step: 2,
        adversarial_n: 60,
        adversarial_inject_steps: 60,
        adversarial_drain_steps: 40,
    };
}

/// A ΘALG scenario: the points, the algorithm and the direct
/// construction.
#[derive(Debug, Clone)]
pub struct ThetaCase {
    /// Node positions.
    pub points: Vec<Point>,
    /// ΘALG with θ = π/3 and `default_max_range(n)`.
    pub alg: ThetaAlg,
    /// `alg.build(&points)`.
    pub direct: ThetaTopology,
    /// Protocol timing.
    pub timing: ThetaTiming,
    /// Runtime seed handed to the harness.
    pub seed: u64,
}

/// A gossip-balancing scenario over the direct ΘALG topology.
#[derive(Debug, Clone)]
pub struct GossipCase {
    /// The topology routed over.
    pub topology: ThetaTopology,
    /// Traffic sinks.
    pub dests: Vec<u32>,
    /// Balancer configuration (reliability, defense, step counts).
    pub cfg: GossipConfig,
    /// `(step, source, dest)` injections.
    pub traffic: Vec<(u64, u32, u32)>,
    /// Crash plan (empty for the honest workload).
    pub plan: ChurnPlan,
    /// Compromised nodes (`None` for the honest workload).
    pub adversary: Option<AdversaryPlan>,
    /// Runtime seed handed to the harness.
    pub seed: u64,
}

/// One harness call of a workload.
#[derive(Debug, Clone)]
pub enum Call {
    /// `run_theta_protocol_sharded`.
    Theta(ThetaCase),
    /// `run_gossip_balancing_sharded`.
    Gossip(GossipCase),
    /// `run_gossip_balancing_adversarial`.
    GossipAdversarial(GossipCase),
}

impl Call {
    /// The public harness function this call exercises.
    pub fn harness(&self) -> &'static str {
        match self {
            Call::Theta(_) => "run_theta_protocol_sharded",
            Call::Gossip(_) => "run_gossip_balancing_sharded",
            Call::GossipAdversarial(_) => "run_gossip_balancing_adversarial",
        }
    }

    /// Nodes taking part in the call.
    pub fn nodes(&self) -> usize {
        match self {
            Call::Theta(c) => c.points.len(),
            Call::Gossip(c) | Call::GossipAdversarial(c) => c.topology.len(),
        }
    }

    /// Timer periods (ticks) of the call's actors, read from its
    /// configuration: ΘALG resends every `resend_every`; the gossip
    /// balancer steps every `step_len` and the reliable sublayer
    /// retransmits after its RTO, doubling up to `rto_max`.
    pub fn timer_periods(&self) -> Vec<u64> {
        match self {
            Call::Theta(c) => vec![c.timing.resend_every],
            Call::Gossip(c) | Call::GossipAdversarial(c) => {
                let mut periods = vec![c.cfg.step_len];
                if let Some(r) = c.cfg.reliability {
                    let mut rto = r.rto.max(1);
                    while rto < r.rto_max {
                        periods.push(rto);
                        rto *= 2;
                    }
                    periods.push(r.rto_max.max(r.rto));
                }
                periods
            }
        }
    }
}

/// The fault model of every call.
pub fn faults() -> FaultConfig {
    FaultConfig::lossy(LOSS)
}

/// Independent sub-seed `tag` of the workload seed (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host seconds spent in each set-up layer by one [`generate`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Point sampling.
    pub sample_s: f64,
    /// Every direct `ThetaAlg::build`.
    pub build_s: f64,
    /// The direct build that serves as reference for the workload's ΘALG
    /// harness call (0 when the workload runs none).
    pub reference_build_s: f64,
}

/// Run `f` in a span named `name` and add its host seconds to `acc`.
fn timed<T>(tracer: &mut Tracer, name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = tracer.span(name, |_| f());
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Uniform unit-square points, timed as `geom.sample`.
fn sample(tracer: &mut Tracer, times: &mut SetupTimes, n: usize, seed: u64) -> Vec<Point> {
    timed(tracer, "geom.sample", &mut times.sample_s, || {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        NodeDistribution::unit_square()
            .sample(n, &mut rng)
            .expect("uniform sampling cannot fail")
    })
}

/// ΘALG at θ = π/3 and its direct construction, timed as
/// `core.theta_build`. Returns the build's own host seconds too.
fn build(
    tracer: &mut Tracer,
    times: &mut SetupTimes,
    points: &[Point],
) -> (ThetaAlg, ThetaTopology, f64) {
    let alg = ThetaAlg::new(FRAC_PI_3, default_max_range(points.len()));
    let mut secs = 0.0;
    let direct = timed(tracer, "core.theta_build", &mut secs, || alg.build(points));
    times.build_s += secs;
    (alg, direct, secs)
}

/// Balancer parameters shared by both gossip workloads.
fn gossip_config(steps: u64) -> GossipConfig {
    GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        steps,
    )
    .with_reliability(ReliableConfig::default())
}

/// Traffic sinks: first, middle and last node.
fn dests(n: usize) -> Vec<u32> {
    vec![0, (n / 2) as u32, (n - 1) as u32]
}

/// Generate every harness input of `workload` from `seed`.
pub fn generate(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
) -> (Vec<Call>, SetupTimes) {
    let mut times = SetupTimes::default();
    let calls = match workload {
        Workload::ThetaStatic => {
            let points = sample(tracer, &mut times, sizes.theta_n, sub_seed(seed, 1));
            let (alg, direct, secs) = build(tracer, &mut times, &points);
            times.reference_build_s = secs;
            vec![Call::Theta(ThetaCase {
                points,
                alg,
                direct,
                timing: ThetaTiming::default(),
                seed: sub_seed(seed, 2),
            })]
        }
        Workload::GossipReliable => vec![Call::Gossip(gossip_case(
            tracer,
            &mut times,
            sizes,
            sizes.gossip_n,
            seed,
            false,
        ))],
        Workload::ChurnByzantine => vec![Call::GossipAdversarial(gossip_case(
            tracer,
            &mut times,
            sizes,
            sizes.adversarial_n,
            seed,
            true,
        ))],
    };
    (calls, times)
}

/// The gossip scenario at `n` nodes; `attacked` adds 10% deflating
/// blackholes (destinations protected), the defense layer and a crash
/// plan over honest non-destination nodes.
fn gossip_case(
    tracer: &mut Tracer,
    times: &mut SetupTimes,
    sizes: &Sizes,
    n: usize,
    seed: u64,
    attacked: bool,
) -> GossipCase {
    let base = if attacked { 30 } else { 20 };
    let points = sample(tracer, times, n, sub_seed(NETWORK_SEED, base));
    let (_, topology, _) = build(tracer, times, &points);
    let dests = dests(n);
    let (inject, drain) = if attacked {
        (
            sizes.adversarial_inject_steps,
            sizes.adversarial_drain_steps,
        )
    } else {
        (sizes.gossip_inject_steps, sizes.gossip_drain_steps)
    };
    let mut cfg = gossip_config(inject + drain);
    if attacked {
        cfg = cfg.with_defense(DefenseConfig::default());
    }
    let (traffic, plan, adversary) = tracer.span("plan.generate", |_| {
        let traffic = uniform_workload(n, &dests, inject, sizes.per_step, sub_seed(seed, base + 1));
        if !attacked {
            return (traffic, ChurnPlan::new(), None);
        }
        let adversary = AdversaryPlan::random(
            n,
            n / 10,
            Attack::Deflate { blackhole: true },
            50,
            &dests,
            sub_seed(NETWORK_SEED, base + 2),
        );
        let compromised = adversary.compromised();
        let mut honest: Vec<u32> = (0..n as u32)
            .filter(|v| !dests.contains(v) && !compromised.contains(v))
            .collect();
        // Three crashes spread over the injection phase, subjects drawn
        // without replacement from the honest non-destination nodes.
        let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, base + 3));
        let horizon = inject * cfg.step_len;
        let mut plan = ChurnPlan::new();
        for i in 0..3usize {
            let j = rng.gen_range(i..honest.len());
            honest.swap(i, j);
            plan = plan.crash(horizon * (i as u64 + 1) / 4, honest[i]);
        }
        (traffic, plan, Some(adversary))
    });
    GossipCase {
        topology,
        dests,
        cfg,
        traffic,
        plan,
        adversary,
        seed: sub_seed(seed, base + 9),
    }
}
