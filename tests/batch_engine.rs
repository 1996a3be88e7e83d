//! Equivalence battery for the seed-batched SoA engine: every summary the
//! batched executor produces must be **bit-identical** to running the same
//! seed through the scalar `MobileEngine` — for every model, mobility
//! strategy, topology family, churn/link-fault plan, and worker count.
//!
//! The batched path is reached through `Scenario::batch(..).stream()`,
//! which routes every multi-seed chunk through `mbaa_core::BatchEngine`
//! at `Observe::Summary`; the scalar reference is `Scenario::run(seed)`
//! (full observability) folded through `RunSummary::from_outcome`. The
//! comparison therefore also pins the invariant that summaries are
//! identical across observability levels.

use mbaa::core::PackedLane;
use mbaa::net::SharedRealization;
use mbaa::prelude::*;
use mbaa::{BatchEngine, MobileEngine, MobileRunOutcome, Observe, ProtocolConfig};

/// The scalar reference: one `MobileEngine` run per seed, summarized.
fn scalar_summaries(scenario: &Scenario, seeds: &[u64]) -> Vec<RunSummary> {
    seeds
        .iter()
        .map(|&seed| RunSummary::from_outcome(seed, &scenario.run(seed).unwrap()))
        .collect()
}

/// The batched path: the streaming executor advances all seeds of each
/// chunk in lockstep on the SoA engine.
fn batched_summaries(scenario: &Scenario, seeds: &[u64]) -> Vec<RunSummary> {
    scenario.batch(seeds.iter().copied()).stream().unwrap().runs
}

#[test]
fn every_model_and_mobility_matches_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..5).collect();
    for model in MobileModel::ALL {
        for mobility in MobilityStrategy::ALL {
            let scenario = Scenario::at_bound(model, 2)
                .epsilon(1e-6)
                .max_rounds(300)
                .mobility(mobility);
            assert_eq!(
                batched_summaries(&scenario, &seeds),
                scalar_summaries(&scenario, &seeds),
                "batched summaries diverged from scalar under {model} / {mobility:?}",
            );
        }
    }
}

#[test]
fn every_corruption_strategy_matches_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..4).collect();
    for corruption in CorruptionStrategy::all_representative() {
        let scenario = Scenario::at_bound(MobileModel::Sasaki, 2)
            .epsilon(1e-6)
            .max_rounds(300)
            .corruption(corruption);
        assert_eq!(
            batched_summaries(&scenario, &seeds),
            scalar_summaries(&scenario, &seeds),
            "batched summaries diverged from scalar under {corruption:?}",
        );
    }
}

#[test]
fn partial_topologies_match_scalar_bit_for_bit() {
    // Partial graphs take the batch engine's general path (per-lane
    // networks, realized per seed); each family must still reproduce the
    // scalar runs exactly. Ring and random-regular satisfy Garay's
    // neighborhood bound at n = 9, f = 1; the sparse grid opts into bound
    // violation exactly like the threshold experiments do.
    let seeds: Vec<u64> = (0..5).collect();
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    for topology in [
        Topology::Ring { k: 2 },
        Topology::RandomRegular { degree: 6 },
    ] {
        let scenario = base.clone().topology(topology.clone());
        assert_eq!(
            batched_summaries(&scenario, &seeds),
            scalar_summaries(&scenario, &seeds),
            "batched summaries diverged from scalar on {topology}",
        );
    }
    let grid = base.topology(Topology::Grid).allow_bound_violation();
    assert_eq!(
        batched_summaries(&grid, &seeds),
        scalar_summaries(&grid, &seeds),
        "batched summaries diverged from scalar on the grid",
    );
}

#[test]
fn churn_and_link_faults_match_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..5).collect();
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    // Round-indexed churn over the complete graph.
    let churning = base
        .clone()
        .topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.2,
        });
    assert_eq!(
        batched_summaries(&churning, &seeds),
        scalar_summaries(&churning, &seeds),
        "batched summaries diverged from scalar under seeded churn",
    );
    // Probabilistic omissions plus a severed and a delayed link.
    let faulty_links =
        base.link_faults(LinkFaultPlan::new().omit_all(0.05).cut(0, 1).delay(2, 3, 2));
    assert_eq!(
        batched_summaries(&faulty_links, &seeds),
        scalar_summaries(&faulty_links, &seeds),
        "batched summaries diverged from scalar under link faults",
    );
}

#[test]
fn worker_counts_leave_batched_results_bit_identical() {
    let seeds: Vec<u64> = (0..9).collect();
    let scenario = Scenario::at_bound(MobileModel::Bonnet, 2)
        .epsilon(1e-6)
        .max_rounds(300)
        .mobility(MobilityStrategy::Random);
    let reference = scalar_summaries(&scenario, &seeds);
    for workers in [1usize, 2, 3, 8] {
        let batched = scenario
            .batch(seeds.iter().copied())
            .workers(workers)
            .stream()
            .unwrap()
            .runs;
        assert_eq!(
            batched, reference,
            "{workers} workers diverged from the scalar reference",
        );
    }
}

#[test]
fn ragged_batches_match_scalar_per_seed() {
    // 33 seeds: one full 32-lane chunk plus a ragged single-lane tail, and
    // a Random adversary so lanes within a chunk finish after different
    // round counts — the lockstep loop must retire each lane independently.
    let seeds: Vec<u64> = (0..33).collect();
    let scenario = Scenario::at_bound(MobileModel::Garay, 2)
        .epsilon(1e-6)
        .max_rounds(300)
        .mobility(MobilityStrategy::Random);
    let batched = batched_summaries(&scenario, &seeds);
    assert_eq!(batched, scalar_summaries(&scenario, &seeds));
    // The raggedness is genuine: the seeds really do converge after
    // different numbers of rounds.
    let rounds: Vec<usize> = batched.iter().map(|run| run.rounds).collect();
    assert!(
        rounds.iter().any(|&r| r != rounds[0]),
        "expected uneven per-seed round counts, got {rounds:?}",
    );
}

#[test]
fn a_single_seed_batch_degenerates_to_the_scalar_engine() {
    let scenario = Scenario::at_bound(MobileModel::Buhrman, 2).epsilon(1e-6);
    let seeds = [7u64];
    assert_eq!(
        batched_summaries(&scenario, &seeds),
        scalar_summaries(&scenario, &seeds),
    );
}

/// The general-path point variants packed sweeps mix: a partial static
/// graph, seeded churn, and probabilistic link faults with a delayed link,
/// all sharing one batch shape (n = 9, f = 1, Garay).
fn general_path_points() -> Vec<Scenario> {
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    vec![
        base.clone().topology(Topology::Ring { k: 2 }),
        base.clone()
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.2,
            }),
        base.link_faults(LinkFaultPlan::new().omit_all(0.05).cut(0, 1).delay(2, 3, 2)),
    ]
}

#[test]
fn packed_cross_point_sweeps_match_scalar_bit_for_bit() {
    // Three shape-compatible general-path points × four seeds: the sweep
    // packs lanes of *different* points (different topology, schedule, and
    // link-fault plans) into shared engine launches, and every point must
    // still reproduce its own scalar runs exactly.
    let seeds: Vec<u64> = (0..4).collect();
    let points = general_path_points();
    let streamed = Sweep::over(points.clone())
        .seeds(seeds.iter().copied())
        .stream()
        .unwrap();
    for (scenario, summary) in points.iter().zip(&streamed) {
        assert_eq!(
            summary.result.runs,
            scalar_summaries(scenario, &seeds),
            "packed sweep diverged from scalar at point {scenario:?}",
        );
    }
}

#[test]
fn ragged_cross_point_packs_match_scalar_per_segment() {
    // Segments of uneven length (1, 7, and 3 seeds) force ragged pack
    // boundaries: the first pack mixes all three points and no segment
    // alone fills a batch. Each segment still equals its scalar runs.
    let points = general_path_points();
    let segments: Vec<(Scenario, Vec<u64>)> = vec![
        (points[0].clone(), vec![11]),
        (points[1].clone(), (0..7).collect()),
        (points[2].clone(), vec![2, 5, 9]),
    ];
    let results = stream_segments(&segments, None);
    for ((scenario, seeds), result) in segments.iter().zip(results) {
        assert_eq!(
            result.unwrap().runs,
            scalar_summaries(scenario, seeds),
            "ragged packed segment diverged from scalar at {scenario:?}",
        );
    }
}

#[test]
fn worker_counts_leave_packed_sweeps_bit_identical() {
    let seeds: Vec<u64> = (0..4).collect();
    let points = general_path_points();
    let reference: Vec<Vec<RunSummary>> = points
        .iter()
        .map(|scenario| scalar_summaries(scenario, &seeds))
        .collect();
    for workers in [1usize, 2, 3, 8] {
        let streamed = Sweep::over(points.clone())
            .seeds(seeds.iter().copied())
            .workers(workers)
            .stream()
            .unwrap();
        let runs: Vec<Vec<RunSummary>> = streamed.into_iter().map(|s| s.result.runs).collect();
        assert_eq!(
            runs, reference,
            "{workers} workers diverged from the scalar reference on a packed sweep",
        );
    }
}

/// SplitMix64: the generated battery's own seeded stream, so the battery
/// is a fixed, reproducible set of cases.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)].clone()
    }
}

/// Inputs built to stress tie order: most values come from a small pool
/// holding both signed zeros and repeated extremes, the rest from a coarse
/// grid, so nearly every multiset has ties.
fn generated_inputs(g: &mut Gen, n: usize) -> Vec<Value> {
    const POOL: [f64; 9] = [-0.0, 0.0, 0.0, 1.0, -1.0, 0.5, 1e6, -1e6, 1e6];
    (0..n)
        .map(|_| {
            if g.chance(70) {
                Value::new(g.pick(&POOL))
            } else {
                Value::new(g.range(0, 80) as f64 * 0.25 - 10.0)
            }
        })
        .collect()
}

/// One generated network description: a static topology or a schedule
/// (periodic or churn), optionally under omission/cut/delay link faults,
/// under either disconnection policy.
#[derive(Clone, Debug)]
struct NetworkDescription {
    topology: Topology,
    schedule: Option<TopologySchedule>,
    link_faults: LinkFaultPlan,
    disconnection: DisconnectionPolicy,
}

/// The clean complete network.
fn clean_network() -> NetworkDescription {
    NetworkDescription {
        topology: Topology::Complete,
        schedule: None,
        link_faults: LinkFaultPlan::new(),
        disconnection: DisconnectionPolicy::Record,
    }
}

fn generated_network(g: &mut Gen, n: usize, fast: bool) -> NetworkDescription {
    let clean = clean_network();
    if fast {
        return clean;
    }
    let graph = |g: &mut Gen| match g.range(0, 2) {
        0 => Topology::Complete,
        1 => Topology::Ring {
            k: g.range(1, n / 2),
        },
        _ => Topology::Grid,
    };
    let mut net = clean;
    match g.range(0, 3) {
        0 => net.topology = graph(g),
        1 => {
            let phases = (0..g.range(2, 3)).map(|_| graph(g)).collect();
            net.schedule = Some(TopologySchedule::Periodic { phases });
        }
        2 => {
            net.schedule = Some(TopologySchedule::SeededChurn {
                base: graph(g),
                flip_rate: g.pick(&[0.0, 0.05, 0.2, 0.5]),
            });
        }
        _ => {}
    }
    if net.topology == Topology::Complete && net.schedule.is_none() || g.chance(35) {
        net.link_faults = generated_link_faults(g, n);
    }
    if g.chance(30) {
        net.disconnection = DisconnectionPolicy::Reject;
    }
    net
}

/// A generated link-fault plan: lossy links, cuts and delayed links.
fn generated_link_faults(g: &mut Gen, n: usize) -> LinkFaultPlan {
    let mut plan = LinkFaultPlan::new();
    if g.chance(60) {
        plan = plan.omit_all(g.pick(&[0.02, 0.1, 0.3]));
    }
    for _ in 0..g.range(0, 2) {
        let (a, b) = (g.range(0, n - 1), g.range(0, n - 1));
        if a != b {
            plan = match g.range(0, 2) {
                0 => plan.cut(a, b),
                1 => plan.omit(a, b, 0.5),
                _ => plan.delay(a, b, g.range(1, 3)),
            };
        }
    }
    if g.chance(15) {
        plan = plan.delay_all(1);
    }
    plan
}

/// A generated network that realizes a random-regular graph per seed: as
/// the static graph, as one phase of a periodic schedule, or as a churn
/// base — clean about half the time, otherwise under generated link
/// faults.
fn generated_random_regular(g: &mut Gen, n: usize) -> NetworkDescription {
    // A feasible degree: below n, with n · degree even.
    let degree = g.range(2, n - 1);
    let degree = if n * degree % 2 == 1 {
        degree - 1
    } else {
        degree
    };
    let random = Topology::RandomRegular { degree };
    let mut net = clean_network();
    match g.range(0, 2) {
        0 => net.topology = random,
        1 => {
            let other = Topology::Ring {
                k: g.range(1, n / 2),
            };
            net.schedule = Some(TopologySchedule::Periodic {
                phases: vec![random, other],
            });
        }
        _ => {
            net.schedule = Some(TopologySchedule::SeededChurn {
                base: random,
                flip_rate: g.pick(&[0.0, 0.05, 0.2]),
            });
        }
    }
    if g.chance(50) {
        net.link_faults = generated_link_faults(g, n);
    }
    if g.chance(30) {
        net.disconnection = DisconnectionPolicy::Reject;
    }
    net
}

/// The full `Debug` rendering of a run result: it prints every `f64` with
/// enough digits to round-trip (and `-0.0` apart from `0.0`), so equal
/// renderings mean bit-identical outcomes.
fn render(result: &mbaa::Result<MobileRunOutcome>) -> String {
    match result {
        Ok(outcome) => format!("{outcome:?}"),
        Err(error) => format!("error: {error}"),
    }
}

#[test]
fn generated_packs_match_the_scalar_engine_bit_for_bit() {
    // A fixed budget of 140 generated ragged packs: n in [5, 40], every
    // model, complete / ring / grid / periodic / churn networks with
    // omissions, cuts and delays, 2–12 lanes per pack mixing up to three
    // network descriptions (and per-lane ε, budget, mobility, corruption,
    // seed), and inputs full of ties, signed zeros and repeated extremes.
    // Then 16 smaller packs at n in [63, 130], where every sender mask
    // spans more than one 64-bit word. Then 24 packs at n in [9, 70] whose
    // lanes realize a random-regular graph per seed (static, a periodic
    // phase, or a churn base), half of them also drawing lanes from the
    // clean complete network. Every lane of every pack must equal its own
    // scalar `MobileEngine` run bit for bit — outcome or error.
    const SMALL_PACKS: usize = 140;
    const WIDE_PACKS: usize = 16;
    const RANDOM_PACKS: usize = 24;
    let mut g = Gen(0x5EED_BA7C);
    let corruptions = CorruptionStrategy::all_representative();
    let (mut fast_packs, mut general_packs, mut lanes, mut errors, mut rounds) = (0, 0, 0, 0, 0);
    let (mut wide_lanes, mut random_lanes, mut mixed_complete_packs) = (0, 0, 0);
    for pack_index in 0..SMALL_PACKS + WIDE_PACKS + RANDOM_PACKS {
        let random = pack_index >= SMALL_PACKS + WIDE_PACKS;
        let wide = pack_index >= SMALL_PACKS && !random;
        let model = g.pick(&MobileModel::ALL);
        let n = if random {
            g.range(9, 70)
        } else if wide {
            g.range(63, 130)
        } else {
            g.range(5, 40)
        };
        let max_f = (1..n)
            .take_while(|&f| model.required_processes(f) <= n)
            .last();
        let f = g.range(1, max_f.unwrap_or(1));
        let descriptions: Vec<NetworkDescription> = if random {
            let mut descriptions = vec![generated_random_regular(&mut g, n)];
            if pack_index % 2 == 0 {
                descriptions.push(clean_network());
            } else if g.chance(50) {
                descriptions.push(generated_network(&mut g, n, false));
            }
            descriptions
        } else {
            let fast = g.chance(25);
            (0..g.range(1, 3))
                .map(|_| generated_network(&mut g, n, fast))
                .collect()
        };
        let width = if wide {
            g.range(2, 4)
        } else if random {
            g.range(2, 8)
        } else {
            g.range(2, 12)
        };
        let mut pack = Vec::new();
        for _ in 0..2 * width {
            if pack.len() == width {
                break;
            }
            let net = g.pick(&descriptions);
            let mut builder = ProtocolConfig::builder(model, n, f)
                .epsilon(g.pick(&[1e-2, 1e-4, 1e-6]))
                .max_rounds(g.range(1, if wide || random { 25 } else { 60 }))
                .mobility(g.pick(&MobilityStrategy::ALL))
                .corruption(g.pick(&corruptions))
                .link_faults(net.link_faults.clone())
                .disconnection(net.disconnection)
                .observe(Observe::Summary)
                .seed(g.next())
                .allow_bound_violation();
            builder = match net.schedule.clone() {
                Some(schedule) => builder.topology_schedule(schedule),
                None => builder.topology(net.topology.clone()),
            };
            // Descriptions the builder rejects (e.g. a disconnected grid
            // phase under `Reject`) are simply not packed.
            if let Ok(config) = builder.build() {
                pack.push(PackedLane {
                    inputs: generated_inputs(&mut g, n),
                    config,
                });
            }
        }
        if pack.len() < 2 {
            continue;
        }
        let clean_complete = |lane: &PackedLane| {
            lane.config.schedule.is_none()
                && lane.config.link_faults.is_clean()
                && lane.config.topology == Topology::Complete
        };
        if pack.iter().all(clean_complete) {
            fast_packs += 1;
        } else {
            general_packs += 1;
            mixed_complete_packs += usize::from(pack.iter().any(clean_complete));
        }
        let results = BatchEngine::run_packed(&pack);
        assert_eq!(results.len(), pack.len());
        for (lane, result) in pack.iter().zip(&results) {
            let scalar = MobileEngine::new(lane.config.clone()).run(&lane.inputs);
            assert_eq!(
                render(result),
                render(&scalar),
                "pack {pack_index}, lane seed {}: {model} n={n} f={} {} / {:?} / {:?}",
                lane.config.seed,
                lane.config.f,
                lane.config.topology,
                lane.config.schedule,
                lane.config.link_faults,
            );
            lanes += 1;
            wide_lanes += usize::from(wide);
            random_lanes += usize::from(SharedRealization::realizes_per_seed(
                &lane.config.topology,
                lane.config.schedule.as_ref(),
            ));
            errors += usize::from(result.is_err());
            rounds += result.as_ref().map_or(0, |outcome| outcome.rounds_executed);
        }
    }
    // The budget really covers both paths and the error branch.
    assert!(fast_packs >= 25, "only {fast_packs} fast-path packs");
    assert!(
        general_packs >= 90,
        "only {general_packs} general-path packs"
    );
    assert!(lanes >= 800, "only {lanes} lanes");
    assert!(wide_lanes >= 30, "only {wide_lanes} lanes at n > 62");
    assert!(
        random_lanes >= 40,
        "only {random_lanes} random-regular lanes"
    );
    assert!(
        mixed_complete_packs >= 10,
        "only {mixed_complete_packs} packs mix clean complete lanes with another network"
    );
    assert!(rounds >= 8000, "only {rounds} lane-rounds");
    assert!(errors >= 1, "no lane exercised a run error");
}
