//! One benchmark run: repeated set-up, timed iterations of a sequential
//! and a sharded leg, the correctness gate, layer probes and metrics.

use crate::calibrate;
use crate::harness::{self, events, Outcome};
use crate::inputs::{self, Call, SetupTimes, Sizes, Workload};
use crate::probes::{self, median};
use crate::sys;
use crate::trace::{self, Span, Tracer};
use adhoc_proximity::unit_disk_graph;
use adhoc_runtime::{GossipRun, NetStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// `ThetaMsg` kinds a static ΘALG run sends, as `NetStats::per_kind`
/// names them.
const THETA_KINDS: [&str; 5] = [
    "position",
    "neighborhood",
    "nbr-ack",
    "connection",
    "conn-ack",
];

/// Set-up repetitions before each iteration; the median over all of them
/// is `setup_s`. Spread over the run, they sample the host's speed the way
/// the iterations do, rather than in one burst of a few milliseconds.
pub const SETUP_REPS_PER_ITERATION: usize = 3;

/// Side-by-side calibration kernel runs at the end of each iteration.
pub const KERNEL_REPS: usize = 2;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget in host seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Scenario sizes.
    pub sizes: Sizes,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and every metric is finite.
    pub correct: bool,
    /// Harness calls made.
    pub attempted: u64,
    /// Harness calls failing a correctness check.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Simulated-statistics fingerprint per harness call and thread count.
    pub fingerprints: Vec<String>,
    /// What failed, one line per failed check.
    pub failures: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Host timings of one iteration.
struct Iteration {
    traced: bool,
    /// Whole iteration: both legs and the gate.
    secs: f64,
    /// Per call, `[1 thread, 2 threads]` harness seconds.
    call_secs: Vec<[f64; 2]>,
    /// Peak RSS per leg (the highest over the leg's calls, the mark reset
    /// before each), MiB. Only the first iteration's figures are
    /// reported. After it, glibc's raised mmap threshold serves large
    /// buffers from the heap, whose fragmentation lifts later peaks by a
    /// third on `theta_static`, and the side-by-side twins and the
    /// calibration kernels leave freed heap in their threads' allocator
    /// arenas that lifts the later 2-thread peaks of the gossip
    /// workloads from about 8 MB to about 28 MB, none of it the
    /// program's doing.
    rss_mb: [f64; 2],
    /// Mean seconds of the calibration kernel, run side by side
    /// [`KERNEL_REPS`] times at the end of the iteration (see
    /// [`calibrate`]).
    calibration_s: f64,
}

impl Iteration {
    fn leg_secs(&self, leg: usize) -> f64 {
        self.call_secs.iter().map(|c| c[leg]).sum()
    }
}

/// Median harness seconds of `leg` over the untraced iterations, scaled
/// to the host speed at which the calibration kernel takes
/// [`calibrate::REFERENCE_S`]: the raw median times `REFERENCE_S` over
/// the median kernel time of the same iterations.
fn scaled_leg_secs(iterations: &[Iteration], leg: usize) -> f64 {
    median_of(iterations, false, |i| i.leg_secs(leg)) * calibrate::REFERENCE_S
        / median_of(iterations, false, |i| i.calibration_s)
}

/// Correctness bookkeeping across iterations.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Execute one benchmark run.
pub fn run(opts: &Options) -> Report {
    let start = Instant::now();
    let mut tracer = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };

    let mut setups: Vec<(f64, SetupTimes)> = Vec::new();
    let mut first_calls: Option<Vec<Call>> = None;
    let mut gate = Gate::default();
    let mut fingerprints = Vec::new();
    let mut reference: Vec<Outcome> = Vec::new();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut probe_values: Option<ProbeValues> = None;
    let min_iterations = if opts.trace { 2 } else { 1 };
    let pair = cpu_pair();
    loop {
        let k = iterations.len();
        let elapsed = start.elapsed().as_secs_f64();
        let longest = iterations.iter().map(|i| i.secs).fold(0.0, f64::max);
        if k >= min_iterations && elapsed + longest > opts.seconds {
            break;
        }
        // Traced runs alternate untraced and traced iterations.
        let traced = opts.trace && k % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_run(k as u32);
        // Every set-up generates the same inputs; the first one's are used.
        // Each repetition runs twice at once, one copy per CPU, and both
        // copies are samples of `setup_s`.
        for _ in 0..SETUP_REPS_PER_ITERATION {
            let generate =
                |tr: &mut Tracer| inputs::generate(opts.workload, opts.seed, &opts.sizes, tr);
            let ((main, main_s), side) = side_by_side(
                pair,
                || tracer.span("setup", generate),
                || generate(&mut Tracer::off()),
            );
            setups.push((main_s, main.1));
            if let Some(((_, times), side_s)) = side {
                setups.push((side_s, times));
            }
            first_calls.get_or_insert(main.0);
        }
        let calls = first_calls.as_deref().expect("set-up ran");
        let it = iterate(
            calls,
            pair.filter(|_| k > 0),
            &mut tracer,
            &mut gate,
            &mut reference,
            &mut fingerprints,
            traced,
        );
        eprintln!(
            "iteration {k}{}: 1t {:.3} s, 2t {:.3} s, peak RSS {:.1}/{:.1} MB, kernel {:.4} s",
            if traced { " (traced)" } else { "" },
            it.leg_secs(0),
            it.leg_secs(1),
            it.rss_mb[0],
            it.rss_mb[1],
            it.calibration_s
        );
        iterations.push(it);
        if opts.trace && probe_values.is_none() {
            tracer.set_enabled(true);
            probe_values =
                Some(tracer.span("probes", |tr| run_probes(calls, &reference, opts.seed, tr)));
        }
    }

    let calls = first_calls.expect("at least one iteration ran");
    let mut failures = gate.failures;
    let metrics = if opts.trace {
        let spans = tracer.spans();
        per_layer_metrics(
            &calls,
            &reference,
            &iterations,
            &setups,
            probe_values.as_ref().expect("traced runs always probe"),
            spans,
            gate.failed as f64 / gate.attempted.max(1) as f64,
        )
    } else {
        end_to_end_metrics(&calls, &reference, &iterations, &setups)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    Report {
        correct: failures.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        fingerprints,
        failures,
        spans: tracer.spans().to_vec(),
    }
}

/// One iteration: every call at 1 thread and then at 2 threads, back to
/// back so that both legs see the same host load, then the correctness
/// gate. The order is fixed: a 1-thread execution right after a 2-thread
/// one runs 6–9% slower on the gossip calls (2-vCPU virtual machine)
/// than one after another 1-thread execution, so alternating the order
/// would split the 1-thread times into two modes. Given a CPU pair, the
/// 1-thread leg runs two executions of the call at once, one bound to
/// each CPU, and its time is their mean (see [`side_by_side`]); without
/// one it runs a single execution, and its peak RSS is that of one
/// execution. The first iteration's 1-thread outcomes become the
/// reference every later execution must reproduce.
fn iterate(
    calls: &[Call],
    pair: Option<[usize; 2]>,
    tracer: &mut Tracer,
    gate: &mut Gate,
    reference: &mut Vec<Outcome>,
    fingerprints: &mut Vec<String>,
    traced: bool,
) -> Iteration {
    let t = Instant::now();
    let mut call_secs = vec![[0.0; 2]; calls.len()];
    let mut rss_mb = [0.0f64; 2];
    let mut outcomes: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
    let mut side_outcomes: Vec<Outcome> = Vec::new();
    let mut calibration_s = 0.0;
    tracer.span("iteration", |tr| {
        for (i, call) in calls.iter().enumerate() {
            for leg in [0, 1] {
                let name = if leg == 0 { "leg_1t" } else { "leg_2t" };
                tr.span(name, |tr| {
                    if !sys::reset_peak_rss() {
                        eprintln!("warning: cannot reset the peak-RSS mark; legs share one peak");
                    }
                    let (out, secs) = if leg == 0 {
                        let ((out, main_s), side) = side_by_side(
                            pair,
                            || tr.span(call.harness(), |_| harness::execute(call, 1)),
                            || harness::execute(call, 1),
                        );
                        match side {
                            Some((side_out, side_s)) => {
                                side_outcomes.push(side_out);
                                (out, (main_s + side_s) / 2.0)
                            }
                            None => (out, main_s),
                        }
                    } else {
                        with_pollers(pair, || {
                            timed(|| tr.span(call.harness(), |_| harness::execute(call, 2)))
                        })
                    };
                    call_secs[i][leg] = secs;
                    outcomes[leg].push(out);
                    rss_mb[leg] = match sys::peak_rss_mb() {
                        Some(mb) if !rss_mb[leg].is_nan() => rss_mb[leg].max(mb),
                        _ => f64::NAN,
                    };
                });
            }
        }
        tr.span("gate", |_| {
            let first = reference.is_empty();
            let [one_leg, two_leg] = outcomes;
            for (i, (call, (one, two))) in calls
                .iter()
                .zip(one_leg.into_iter().zip(two_leg))
                .enumerate()
            {
                if first {
                    fingerprints.push(harness::fingerprint(call, 1, &one));
                    fingerprints.push(harness::fingerprint(call, 2, &two));
                }
                let what = call.harness();
                let one_ok = harness::check(call, &one).and_then(|_| match reference.get(i) {
                    Some(r) => harness::check_parity(r, &one)
                        .map_err(|e| format!("differs from the first iteration: {e}")),
                    None => Ok(()),
                });
                gate.record(&format!("{what} at 1 thread"), one_ok);
                let two_ok = harness::check(call, &two).and_then(|_| {
                    harness::check_parity(&one, &two)
                        .map_err(|e| format!("1-thread and 2-thread legs disagree: {e}"))
                });
                gate.record(&format!("{what} at 2 threads"), two_ok);
                if let Some(side) = side_outcomes.get(i) {
                    let side_ok = harness::check(call, side).and_then(|_| {
                        harness::check_parity(&one, side)
                            .map_err(|e| format!("the two side-by-side executions disagree: {e}"))
                    });
                    gate.record(&format!("{what} at 1 thread, second copy"), side_ok);
                }
                if first {
                    reference.push(one);
                }
            }
        });
        // Last, so that the first iteration's legs, the only ones whose
        // peak RSS is reported, run before any kernel has touched the heap.
        calibration_s = tr.span("calibrate", |_| {
            let samples: Vec<f64> = (0..KERNEL_REPS)
                .map(|_| {
                    let ((_, main_s), side) =
                        side_by_side(pair, calibrate::kernel, calibrate::kernel);
                    side.map_or(main_s, |(_, side_s)| (main_s + side_s) / 2.0)
                })
                .collect();
            samples.iter().sum::<f64>() / samples.len() as f64
        });
    });
    Iteration {
        traced,
        secs: t.elapsed().as_secs_f64(),
        call_secs,
        rss_mb,
        calibration_s,
    }
}

/// The first two CPUs the process may run on, if it may run on two.
fn cpu_pair() -> Option<[usize; 2]> {
    match sys::affinity()?.cpus()[..] {
        [a, b, ..] => Some([a, b]),
        _ => None,
    }
}

/// Run `main` on the calling thread and, given a CPU pair, `side` on a
/// second thread at the same time, `main` bound to the first CPU and
/// `side` to the second; returns each result with its seconds. On a
/// host of two virtual CPUs, one thread running while the other CPU
/// idles ran 1.75–2.8 s per execution of the same call, against
/// 1.9–2.4 s with both CPUs busy: an idle virtual CPU leaves its share of
/// the physical core to other tenants. Timed single-thread work therefore
/// runs with its twin beside it, so that every timing sees both CPUs
/// busy, as the 2-thread leg does.
fn side_by_side<A, B: Send>(
    pair: Option<[usize; 2]>,
    main: impl FnOnce() -> A,
    side: impl FnOnce() -> B + Send,
) -> ((A, f64), Option<(B, f64)>) {
    let Some([first, second]) = pair else {
        return (timed(main), None);
    };
    let allowed = sys::affinity();
    std::thread::scope(|scope| {
        let side = scope.spawn(move || {
            sys::set_affinity(&sys::CpuMask::single(second));
            timed(side)
        });
        sys::set_affinity(&sys::CpuMask::single(first));
        let main = timed(main);
        if let Some(mask) = allowed {
            sys::set_affinity(&mask);
        }
        (main, Some(side.join().expect("side execution panicked")))
    })
}

/// Run `f` while, given a CPU pair, one `SCHED_IDLE` thread bound to
/// each CPU polls, so that neither CPU halts when `f`'s threads block.
/// The sharded executor's workers block at every epoch barrier. On a
/// virtual machine a halted virtual CPU must be scheduled again by the
/// host before the woken worker runs, and when the host is busy that
/// wait swamps the leg: in one stretch of a few minutes the 2-thread
/// `churn_byzantine` execution took 4–6 s instead of 2.2 s, while the
/// side-by-side 1-thread executions, which never block, kept their
/// speed. A poller never delays the harness's own threads, because the
/// scheduler runs a `SCHED_IDLE` thread only when nothing else is
/// runnable on its CPU.
fn with_pollers<T>(pair: Option<[usize; 2]>, f: impl FnOnce() -> T) -> T {
    let Some(cpus) = pair else {
        return f();
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for cpu in cpus {
            let stop = &stop;
            scope.spawn(move || {
                if sys::set_affinity(&sys::CpuMask::single(cpu)) && sys::become_idle_priority() {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// `f`'s result and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median of `f` over the iterations whose `traced` flag is `traced`,
/// leaving out the first iteration, which warms the heap and caches,
/// when at least two others remain.
fn median_of(iterations: &[Iteration], traced: bool, f: impl Fn(&Iteration) -> f64) -> f64 {
    let pick = |skip: usize| {
        iterations
            .iter()
            .skip(skip)
            .filter(|i| i.traced == traced)
            .map(&f)
            .collect::<Vec<_>>()
    };
    let warm = pick(1);
    if warm.len() >= 2 {
        median(&warm)
    } else {
        median(&pick(0))
    }
}

/// The first gossip outcome, if the workload routes packets.
fn gossip_run(reference: &[Outcome]) -> Option<&GossipRun> {
    reference.iter().find_map(|o| match o {
        Outcome::Gossip(r) => Some(r),
        _ => None,
    })
}

/// Index of the workload's ΘALG call, if any.
fn theta_index(calls: &[Call]) -> Option<usize> {
    calls.iter().position(|c| matches!(c, Call::Theta(_)))
}

fn sum_stats(reference: &[Outcome], f: impl Fn(&NetStats) -> u64) -> f64 {
    reference.iter().map(|o| f(o.stats()) as f64).sum()
}

fn end_to_end_metrics(
    calls: &[Call],
    reference: &[Outcome],
    iterations: &[Iteration],
    setups: &[(f64, SetupTimes)],
) -> Vec<Metric> {
    let nodes: usize = calls.iter().map(Call::nodes).sum();
    let fidelity = calls
        .iter()
        .zip(reference)
        .map(|(call, out)| match (call, out) {
            (Call::Theta(c), Outcome::Theta(r)) => harness::theta_fidelity(&c.direct.spatial, r),
            (_, Outcome::Gossip(r)) if r.conserved() => 1.0,
            _ => 0.0,
        })
        .fold(f64::INFINITY, f64::min);
    // Routed packets delivered; where nothing is routed, ΘALG's share of
    // admitted edges whose Connection reached the other endpoint.
    let delivery = match gossip_run(reference) {
        Some(r) => r.delivery_rate(),
        None => reference
            .iter()
            .find_map(|o| match o {
                Outcome::Theta(r) => Some(r.edge_awareness),
                _ => None,
            })
            .unwrap_or(f64::NAN),
    };
    let setup: Vec<f64> = setups.iter().map(|s| s.0).collect();
    vec![
        metric("setup_s", "s", median(&setup)),
        metric("scaled_s_1t", "s", scaled_leg_secs(iterations, 0)),
        metric("scaled_s_2t", "s", scaled_leg_secs(iterations, 1)),
        metric("peak_rss_mb_1t", "MB", iterations[0].rss_mb[0]),
        metric("peak_rss_mb_2t", "MB", iterations[0].rss_mb[1]),
        metric(
            "msgs_per_node",
            "count",
            sum_stats(reference, |s| s.sent) / nodes as f64,
        ),
        metric("fidelity", "fraction", fidelity),
        metric("delivery_rate", "fraction", delivery),
    ]
}

/// Layer probe results.
struct ProbeValues {
    hold_ns: f64,
    transmit_ns: f64,
    record_theta_ns: f64,
    record_gossip_ns: f64,
}

/// Run the layer probes at the sizes the workload measured: the event
/// queue at the deepest call's peak depth and delay mix, the fault model
/// over the busiest call's directed links.
fn run_probes(
    calls: &[Call],
    reference: &[Outcome],
    seed: u64,
    tracer: &mut Tracer,
) -> ProbeValues {
    let deepest = (0..calls.len())
        .max_by_key(|&i| reference[i].stats().max_queue_depth)
        .expect("every workload makes a call");
    let s = reference[deepest].stats();
    let deliver_share = (s.delivered + s.link_lost) as f64 / events(s).max(1) as f64;
    let hold_ns = tracer.span("event.hold", |_| {
        probes::event_hold_ns(
            s.max_queue_depth,
            calls[deepest].nodes(),
            deliver_share,
            &calls[deepest].timer_periods(),
            seed,
        )
    });
    let busiest = (0..calls.len())
        .max_by_key(|&i| reference[i].stats().sent)
        .expect("every workload makes a call");
    let links = match &calls[busiest] {
        Call::Theta(c) => 2 * unit_disk_graph(&c.points, c.alg.range()).graph.num_edges(),
        Call::Gossip(c) | Call::GossipAdversarial(c) => 2 * c.topology.spatial.graph.num_edges(),
    };
    let transmit_ns = tracer.span("fault.transmit", |_| {
        probes::fault_transmit_ns(links, inputs::faults(), seed)
    });
    let record_theta_ns = tracer.span("stats.record_theta", |_| probes::record_theta_ns(seed));
    let record_gossip_ns =
        tracer.span("stats.record_gossip", |_| probes::record_gossip_ns(3, seed));
    ProbeValues {
        hold_ns,
        transmit_ns,
        record_theta_ns,
        record_gossip_ns,
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    calls: &[Call],
    reference: &[Outcome],
    iterations: &[Iteration],
    setups: &[(f64, SetupTimes)],
    probes: &ProbeValues,
    spans: &[Span],
    failed_share: f64,
) -> Vec<Metric> {
    let stats: Vec<&NetStats> = reference.iter().map(Outcome::stats).collect();
    let events_total: f64 = stats.iter().map(|s| events(s) as f64).sum();
    let wall = |leg: usize| median_of(iterations, true, |i| i.leg_secs(leg));
    let (wall_1t, wall_2t) = (wall(0), wall(1));
    let call_speedup = |pick: fn(&Call) -> bool| {
        let i = calls.iter().position(pick)?;
        Some(
            median_of(iterations, true, |it| it.call_secs[i][0])
                / median_of(iterations, true, |it| it.call_secs[i][1]),
        )
    };
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(|s| f(&s.1)).collect::<Vec<_>>());
    let theta = theta_index(calls);
    let theta_stats = theta.map(|i| stats[i]);
    let gossip = gossip_run(reference);
    let g = |f: fn(&GossipRun) -> f64| gossip.map_or(0.0, f);
    let compromised: Vec<u32> = calls
        .iter()
        .find_map(|c| match c {
            Call::GossipAdversarial(c) => c.adversary.as_ref().map(|a| a.compromised()),
            _ => None,
        })
        .unwrap_or_default();
    let quarantined = gossip.map_or(&[][..], |r| &r.quarantined_nodes[..]);
    let caught = quarantined
        .iter()
        .filter(|v| compromised.contains(v))
        .count();

    let self_times = trace::self_times(spans);
    let traced_iterations = iterations.iter().filter(|i| i.traced).count().max(1) as f64;
    let harness_self: f64 = calls
        .iter()
        .map(|c| c.harness())
        .collect::<std::collections::BTreeSet<_>>()
        .iter()
        .map(|h| self_times.get(h).copied().unwrap_or(0.0))
        .sum::<f64>()
        / traced_iterations;
    // Mean traced iteration, the same base as the per-iteration self times.
    let traced_secs = iterations
        .iter()
        .filter(|i| i.traced)
        .map(|i| i.secs)
        .sum::<f64>()
        / traced_iterations;
    let self_of = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    let setup_spans = spans.iter().filter(|s| s.name == "setup").count();
    let setup_self = ratio(self_of("setup"), setup_spans as f64);
    let iteration_secs = median_of(iterations, true, |i| i.secs);

    let mut m = vec![
        metric("failed_run_share", "fraction", failed_share),
        metric(
            "host.wall_s_1t",
            "s",
            median_of(iterations, false, |i| i.leg_secs(0)),
        ),
        metric(
            "host.wall_s_2t",
            "s",
            median_of(iterations, false, |i| i.leg_secs(1)),
        ),
        metric(
            "host.calibration_s",
            "s",
            median_of(iterations, false, |i| i.calibration_s),
        ),
        metric("geom.sample_s", "s", setup_median(|t| t.sample_s)),
        metric("core.theta_build_s", "s", setup_median(|t| t.build_s)),
        metric(
            "core.runtime_over_direct",
            "ratio",
            theta.map_or(0.0, |i| {
                ratio(
                    median_of(iterations, true, |it| it.call_secs[i][0]),
                    setup_median(|t| t.reference_build_s),
                )
            }),
        ),
        metric("runtime.events", "count", events_total),
        metric(
            "runtime.ns_per_event_1t",
            "ns",
            wall_1t * 1e9 / events_total,
        ),
        metric(
            "runtime.ns_per_event_2t",
            "ns",
            wall_2t * 1e9 / events_total,
        ),
        metric(
            "event.peak_queue_depth",
            "count",
            stats.iter().map(|s| s.max_queue_depth).max().unwrap_or(0) as f64,
        ),
        metric("event.hold_ns", "ns", probes.hold_ns),
        metric(
            "event.share_1t",
            "fraction",
            events_total * probes.hold_ns * 1e-9 / wall_1t,
        ),
        metric("fault.sent", "count", sum_stats(reference, |s| s.sent)),
        metric(
            "fault.drop_ratio",
            "fraction",
            ratio(
                sum_stats(reference, |s| s.dropped),
                sum_stats(reference, |s| s.sent),
            ),
        ),
        metric("fault.transmit_ns", "ns", probes.transmit_ns),
        metric("stats.record_ns_theta", "ns", probes.record_theta_ns),
        metric("stats.record_ns_gossip", "ns", probes.record_gossip_ns),
        metric("shard.speedup_2t", "ratio", wall_1t / wall_2t),
        metric(
            "shard.speedup_2t.theta",
            "ratio",
            call_speedup(|c| matches!(c, Call::Theta(_))).unwrap_or(0.0),
        ),
        metric(
            "shard.speedup_2t.gossip",
            "ratio",
            call_speedup(|c| matches!(c, Call::Gossip(_) | Call::GossipAdversarial(_)))
                .unwrap_or(0.0),
        ),
        metric(
            "shard.rss_ratio_2t",
            "ratio",
            ratio(iterations[0].rss_mb[1], iterations[0].rss_mb[0]),
        ),
        metric(
            "theta.finished_at_ticks",
            "ticks",
            theta.and_then(|i| reference[i].finished_at()).unwrap_or(0) as f64,
        ),
        metric(
            "theta.edge_awareness",
            "fraction",
            reference
                .iter()
                .find_map(|o| match o {
                    Outcome::Theta(r) => Some(r.edge_awareness),
                    _ => None,
                })
                .unwrap_or(0.0),
        ),
    ];
    m.extend(THETA_KINDS.iter().map(|k| {
        let sent = theta_stats
            .and_then(|s| s.per_kind.get(k))
            .map_or(0, |c| c.sent);
        metric(format!("theta.sent.{k}"), "count", sent as f64)
    }));
    m.extend([
        metric(
            "reliable.retransmits",
            "count",
            g(|r| r.stats.retransmits as f64),
        ),
        metric("reliable.acks", "count", g(|r| r.stats.acks as f64)),
        metric(
            "reliable.rto_fired",
            "count",
            g(|r| r.stats.rto_fired as f64),
        ),
        metric("reliable.gave_up", "count", g(|r| r.gave_up as f64)),
        metric(
            "reliable.retx_ratio",
            "ratio",
            g(|r| ratio(r.stats.retransmits as f64, r.packets_sent as f64)),
        ),
        metric("gossip.gossips_sent", "count", g(|r| r.gossips_sent as f64)),
        metric(
            "gossip.stale_dropped",
            "count",
            g(|r| r.stale_gossip_dropped as f64),
        ),
        metric(
            "gossip.hops_per_delivery",
            "ratio",
            g(|r| ratio(r.packets_sent as f64, r.absorbed as f64)),
        ),
        metric(
            "churn.reconvergences",
            "count",
            sum_stats(reference, |s| s.reconvergences),
        ),
        metric("adversary.stolen", "count", g(|r| r.stolen as f64)),
        metric("adversary.blackholed", "count", g(|r| r.blackholed as f64)),
        metric(
            "adversary.quarantines",
            "count",
            g(|r| r.quarantines as f64),
        ),
        metric(
            "adversary.detection_rate",
            "fraction",
            ratio(caught as f64, compromised.len() as f64),
        ),
        metric(
            "adversary.false_quarantines",
            "count",
            (quarantined.len() - caught) as f64,
        ),
        metric(
            "trace.overhead_s",
            "s",
            iteration_secs - median_of(iterations, false, |i| i.secs),
        ),
        metric(
            "trace.harness_share",
            "fraction",
            ratio(harness_self, traced_secs),
        ),
        metric("trace.self_s.setup", "s", setup_self),
        metric("trace.self_s.harness", "s", harness_self),
        metric(
            "trace.self_s.leg",
            "s",
            (self_of("leg_1t") + self_of("leg_2t")) / traced_iterations,
        ),
        metric(
            "trace.self_s.gate",
            "s",
            self_of("gate") / traced_iterations,
        ),
        metric("trace.self_s.probes", "s", self_of("probes")),
        metric("trace.spans", "count", spans.len() as f64),
    ]);
    m
}
