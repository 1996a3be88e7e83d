//! Allocation-regression test: steady-state engine rounds must perform
//! **zero heap allocations** under `Observe::Summary` on the complete
//! topology.
//!
//! A counting global allocator wraps the system allocator. Two runs of the
//! same configuration differ only in their round budget (both run to the
//! budget without converging), so the difference in allocation counts is
//! exactly what the extra steady-state rounds allocated — which must be
//! nothing. This pins the round-scratch design: outbox/delivery/multiset/
//! fault-plan buffers are allocated once per run and reused in place.
//!
//! This is a separate integration-test binary on purpose: a global
//! allocator is per-binary state. The count is kept **per thread**, so the
//! tests of this file may run on parallel test threads: each measures only
//! the allocations of its own thread, which runs the engine under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbaa::{
    BatchEngine, BatchLane, CorruptionStrategy, LinkFaultPlan, MetricsRegistry, MobileEngine,
    MobileModel, MobilityStrategy, Observe, Observer, ProtocolConfig, Topology, TopologySchedule,
    Value,
};

/// Counts every allocation (not bytes — the assertion is about *count*)
/// made through the global allocator, per thread.
struct CountingAllocator;

thread_local! {
    // `const`-initialized and destructor-free: bumping it never allocates
    // and never registers thread-exit state.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down, when no
    // test is measuring it.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the only addition is a
// thread-local counter increment on the allocating paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The calling thread's allocation count so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A run that cannot converge within `rounds`: under the worst-case
/// adversary (extreme-targeting mobility, split corruption) these models
/// stay above ε = 1e-300 for well over the budgets used here, so every
/// round executes and `rounds_executed == rounds`.
fn run_counting(model: MobileModel, n: usize, rounds: usize, observe: Observe) -> (u64, usize) {
    run_counting_observed(model, n, rounds, observe, &mut mbaa::NoopObserver)
}

/// [`run_counting`] with an observer attached to the measured run (the
/// warm-up run stays unobserved — the observer's own lazily-grown state,
/// e.g. a registry's first histogram fills, is charged to the measurement,
/// which is exactly what the steady-state comparison needs).
fn run_counting_observed<O: Observer>(
    model: MobileModel,
    n: usize,
    rounds: usize,
    observe: Observe,
    observer: &mut O,
) -> (u64, usize) {
    let inputs: Vec<Value> = (0..n)
        .map(|i| Value::new(i as f64 / (n - 1) as f64))
        .collect();
    let config = ProtocolConfig::builder(model, n, 2)
        .epsilon(1e-300)
        .max_rounds(rounds)
        .seed(7)
        .mobility(MobilityStrategy::TargetExtremes)
        .corruption(CorruptionStrategy::split_attack())
        .observe(observe)
        .build()
        .expect("config");
    let engine = MobileEngine::new(config);
    // Warm up once: lazily initialized runtime state (thread-locals, the
    // first pool fills) must not be charged to the measured run.
    engine.run(&inputs).expect("warm-up run");
    let before = allocations();
    let outcome = engine
        .run_observed(&inputs, observer)
        .expect("measured run");
    (allocations() - before, outcome.rounds_executed)
}

#[test]
fn steady_state_rounds_allocate_nothing_under_observe_summary() {
    // The worst-case adversary on the complete topology: the sweep hot
    // path. These three models sustain a positive diameter under the split
    // attack for far longer than the budgets below, so neither run
    // converges early.
    for model in [
        MobileModel::Bonnet,
        MobileModel::Sasaki,
        MobileModel::Buhrman,
    ] {
        let n = model.required_processes(2);
        let (allocs_short, rounds_short) = run_counting(model, n, 6, Observe::Summary);
        let (allocs_long, rounds_long) = run_counting(model, n, 26, Observe::Summary);
        assert_eq!(
            rounds_short, 6,
            "{model}: short run must exhaust its budget"
        );
        assert_eq!(rounds_long, 26, "{model}: long run must exhaust its budget");
        // Both runs share identical setup; the 20 extra steady-state rounds
        // must not have allocated at all.
        assert_eq!(
            allocs_long,
            allocs_short,
            "{model}: {} extra allocations across 20 extra steady-state rounds",
            allocs_long.saturating_sub(allocs_short)
        );

        // Sanity: the same comparison under Observe::Full *does* allocate
        // (snapshots + trace), proving the counter actually measures the
        // engine and the Summary result is not vacuous.
        let (full_short, _) = run_counting(model, n, 6, Observe::Full);
        let (full_long, _) = run_counting(model, n, 26, Observe::Full);
        assert!(
            full_long > full_short,
            "{model}: Full-observability rounds should allocate (got {full_short} vs {full_long})"
        );

        // Pooled Full recording: a recorded round is four flat slot
        // arrays, not one heap object per sender, so the per-round
        // allocation *count* is independent of the system size — buffer
        // sizes scale with n, allocation counts do not. The per-round
        // delta of a larger universe must match exactly. (n + 3 is the
        // largest margin where all three models still exhaust the budget
        // under this adversary; with more slack the diameter collapses to
        // exactly zero before round 26.)
        let (big_short, big_rounds_short) = run_counting(model, n + 3, 6, Observe::Full);
        let (big_long, big_rounds_long) = run_counting(model, n + 3, 26, Observe::Full);
        assert_eq!(
            (big_rounds_short, big_rounds_long),
            (6, 26),
            "{model}: the larger universe must exhaust both budgets"
        );
        assert_eq!(
            full_long - full_short,
            big_long - big_short,
            "{model}: Full-observability per-round allocation count grew with n \
             ({} at n = {n} vs {} at n = {})",
            (full_long - full_short) / 20,
            (big_long - big_short) / 20,
            n + 3
        );
    }
}

/// The batch-engine analogue of [`run_counting`]: four lanes of `n`
/// processes advance in lockstep, exchanging through shared network
/// realizations (one per lane seed where the topology realizes per seed).
/// Returns the allocation delta of the measured run and every lane's
/// executed round count.
fn run_batch_counting(
    n: usize,
    topology: Topology,
    schedule: Option<TopologySchedule>,
    link_faults: LinkFaultPlan,
    rounds: usize,
) -> (u64, Vec<usize>) {
    let mut builder = ProtocolConfig::builder(MobileModel::Garay, n, 2)
        .epsilon(1e-300)
        .max_rounds(rounds)
        .seed(7)
        .mobility(MobilityStrategy::TargetExtremes)
        .corruption(CorruptionStrategy::split_attack())
        .observe(Observe::Summary)
        .topology(topology)
        .link_faults(link_faults);
    if let Some(schedule) = schedule {
        builder = builder.topology_schedule(schedule);
    }
    let config = builder.build().expect("config");
    let engine = BatchEngine::new(config);
    let lanes: Vec<BatchLane> = (1..=4)
        .map(|seed| BatchLane {
            seed,
            inputs: (0..n)
                .map(|i| Value::new(i as f64 / (n - 1) as f64))
                .collect(),
        })
        .collect();
    // Warm up once, exactly as the scalar harness does.
    for outcome in engine.run(&lanes) {
        outcome.expect("warm-up run");
    }
    let before = allocations();
    let executed: Vec<usize> = engine
        .run(&lanes)
        .into_iter()
        .map(|outcome| outcome.expect("measured run").rounds_executed)
        .collect();
    (allocations() - before, executed)
}

#[test]
fn general_path_batch_rounds_allocate_nothing_under_observe_summary() {
    // The batch engine's row assembly on every shared path — the full
    // rows of the complete graph, the masked static exchange
    // over a ring, churned dynamic realizations redrawn every round, and
    // lossy, delayed links whose arrivals join the rows as extras — with
    // four lanes in lockstep against one shared network realization. The
    // split attack keeps two faulty senders with per-receiver outboxes in
    // every round, so the per-row extras are exercised too. Two cases
    // churn a base over 80 processes, so every mask row spans two words;
    // the random-regular cases realize one graph per lane seed. Same
    // differential design as the scalar test: both runs share identical
    // setup, so the 20 extra steady-state rounds of the long run must not
    // have allocated at all.
    let churn = |base| TopologySchedule::SeededChurn {
        base,
        flip_rate: 0.15,
    };
    for (label, n, topology, schedule, link_faults) in [
        (
            "complete",
            16,
            Topology::Complete,
            None,
            LinkFaultPlan::new(),
        ),
        (
            "ring",
            16,
            Topology::Ring { k: 4 },
            None,
            LinkFaultPlan::new(),
        ),
        (
            "churn",
            16,
            Topology::Complete,
            Some(churn(Topology::Complete)),
            LinkFaultPlan::new(),
        ),
        (
            "churned ring",
            16,
            Topology::Complete,
            Some(churn(Topology::Ring { k: 4 })),
            LinkFaultPlan::new(),
        ),
        (
            "churned ring, lossy delayed links",
            16,
            Topology::Complete,
            Some(churn(Topology::Ring { k: 4 })),
            LinkFaultPlan::new().omit_all(0.05).delay(2, 3, 2),
        ),
        (
            "churned ring over two mask words, lossy links",
            80,
            Topology::Complete,
            Some(churn(Topology::Ring { k: 6 })),
            LinkFaultPlan::new().omit_all(0.05),
        ),
        (
            "random regular",
            16,
            Topology::RandomRegular { degree: 8 },
            None,
            LinkFaultPlan::new(),
        ),
        (
            "churned random regular over two mask words",
            80,
            Topology::Complete,
            Some(churn(Topology::RandomRegular { degree: 8 })),
            LinkFaultPlan::new(),
        ),
    ] {
        let (allocs_short, rounds_short) = run_batch_counting(
            n,
            topology.clone(),
            schedule.clone(),
            link_faults.clone(),
            6,
        );
        let (allocs_long, rounds_long) = run_batch_counting(n, topology, schedule, link_faults, 26);
        assert!(
            rounds_short.iter().all(|&r| r == 6),
            "{label}: every short lane must exhaust its budget, got {rounds_short:?}"
        );
        assert!(
            rounds_long.iter().all(|&r| r == 26),
            "{label}: every long lane must exhaust its budget, got {rounds_long:?}"
        );
        assert_eq!(
            allocs_long,
            allocs_short,
            "{label}: {} extra allocations across 20 extra batch rounds",
            allocs_long.saturating_sub(allocs_short)
        );
    }
}

#[test]
fn metrics_registry_rounds_allocate_nothing_under_observe_summary() {
    // The telemetry sink of the sweep hot path: a `MetricsRegistry`
    // observes every round (counters + fixed-bucket histograms, all
    // preallocated at construction), so attaching one must not reintroduce
    // per-round allocation. Same differential design as above: the 20
    // extra steady-state rounds of the long run must allocate nothing.
    for model in [
        MobileModel::Bonnet,
        MobileModel::Sasaki,
        MobileModel::Buhrman,
    ] {
        let n = model.required_processes(2);
        let mut short_registry = MetricsRegistry::new();
        let (allocs_short, rounds_short) =
            run_counting_observed(model, n, 6, Observe::Summary, &mut short_registry);
        let mut long_registry = MetricsRegistry::new();
        let (allocs_long, rounds_long) =
            run_counting_observed(model, n, 26, Observe::Summary, &mut long_registry);
        assert_eq!(
            (rounds_short, rounds_long),
            (6, 26),
            "{model}: both observed runs must exhaust their budgets"
        );
        assert_eq!(
            allocs_long,
            allocs_short,
            "{model}: {} extra allocations across 20 extra observed rounds",
            allocs_long.saturating_sub(allocs_short)
        );
        // The registry really did watch the runs.
        assert_eq!(short_registry.rounds_total, 6);
        assert_eq!(long_registry.rounds_total, 26);
    }
}
