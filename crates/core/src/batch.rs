//! The seed-batched engine: k seeds advanced in lockstep through a single
//! round loop.
//!
//! A sweep evaluates the *same* [`ProtocolConfig`] under many seeds, and
//! the scalar [`MobileEngine`] pays the full per-round machinery — fault
//! planning, outbox construction, an `n × n` exchange, and `n` sorts — once
//! per seed per round. [`BatchEngine`] amortizes that work across a batch
//! of seeds ("lanes") by advancing every lane through round `r` before any
//! lane sees round `r + 1`.
//!
//! # Structure-of-arrays layout
//!
//! Per-process state is stored **lane-major** in flat arrays: lane `l`'s
//! votes occupy `votes[l * n .. (l + 1) * n]`, and likewise for the fault
//! states. Per-lane control state (the adversary with its RNG stream, the
//! convergence report, the traffic statistics) lives in one flat `Vec` of
//! lane records. All lanes share a single round scratch — one
//! [`RoundFaultPlan`], one outbox array, one [`DeliveryRows`] arena — because
//! the scratch is fully overwritten per lane per round; only the RNG
//! streams and the accumulated per-lane results differ.
//!
//! # Sort once, mask per receiver
//!
//! The lockstep loop classifies each round's senders into [`LaneSend`]s:
//! *broadcasters* (one value for every receiver), *silent* processes, and
//! at most `2f` senders whose per-receiver outboxes (adversary outboxes,
//! Sasaki's poisoned queues) are borrowed straight from the round's
//! [`RoundFaultPlan`]. Broadcasters never materialize an outbox.
//! [`DeliveryRows`] sorts the broadcast values **once per lane round**,
//! and every computing receiver's row is that sorted buffer filtered to
//! the broadcasts it received, merged with its few other values — so rows
//! leave the exchange already sorted, and the k-wide
//! [`mbaa_msr::MsrFunction::apply_sorted_lanes`] folds `mean(Sel(Red(N)))`
//! over all receivers of a lane in one pass. Because every `Value`
//! constructor maps `-0.0` to `+0.0`, tied values are bit-identical and the
//! filtered rows equal per-row sorts bit for bit. Row assembly is timed in
//! [`Phase::Exchange`]; [`Phase::MsrApply`] is the fold alone.
//!
//! # Shared network realizations
//!
//! Every lane round delivers through [`SharedRealization::exchange_rows`].
//! The lanes of each distinct network *description* share one
//! [`SharedRealization`]: the realized graphs, compiled fault matrices and
//! per-phase connectivity are built once per batch instead of once per
//! lane, and each lane keeps only a tiny [`mbaa_net::LaneDelivery`] (its
//! seed-keyed churn/omission draw streams and delay pipes). On the
//! complete graph under a clean plan — the configuration every paper table
//! sweeps — every row is the whole sorted buffer merged with the
//! receiver's per-receiver slots, and traffic is accounted in closed form.
//! Descriptions that realize per seed ([`mbaa_net::Topology::RandomRegular`]
//! anywhere) are grouped by lane seed as well, one realization per seed.
//!
//! # Batch vs. scalar selection
//!
//! The batch path is a pure execution strategy: per-seed outcomes are
//! **bit-identical** to running [`MobileEngine`] once per seed, for every
//! model, adversary, topology, schedule, and link-fault plan (enforced by
//! the `batch_engine` equivalence battery). The simulation layer
//! (`mbaa_sim::run_experiment`) routes a point through [`BatchEngine`]
//! whenever it has ≥ 2 seeds at [`Observe::Summary`](crate::Observe); runs
//! that record snapshots or traces (`Observe::Snapshots` / `Full`) and
//! single-seed batches delegate to the scalar engine lane by lane, so
//! observability is never silently degraded. [`BatchEngine::run`] applies
//! the same rule internally, which makes it total: any configuration can
//! be handed to it.
//!
//! # Cross-point packing
//!
//! Lanes need not come from one configuration: [`PackedLane`] pairs each
//! lane with its *own* full `ProtocolConfig` (whose `seed` field is the
//! lane seed), and [`BatchEngine::run_packed`] advances a mixed pack in one
//! lockstep loop as long as every lane shares the batch **shape** — same
//! `n`, `f`, model, and observe level (checked by [`shape_compatible`]).
//! Everything else — ε, round budget, voting function, mobility,
//! corruption, topology, schedule, link faults — may differ per lane: the
//! loop runs to the largest round budget and each lane consults its own
//! configuration, so a sweep can top up a draining point's tail chunk with
//! seeds from the next compatible point instead of running it under-full.

use mbaa_adversary::{AdversaryView, MobileAdversary, RoundFaultPlan};
use mbaa_msr::{ConvergenceReport, MsrFunction, VotingFunction};
use mbaa_net::{
    DeliveryRows, LaneDelivery, LaneSend, NetworkStats, NetworkTrace, SharedRealization,
};
use mbaa_obs::{NoopObserver, Observer, Phase, RoundEvent};
use mbaa_types::{
    Error, FaultState, Interval, MobileModel, ProcessId, Result, Round, Value, ValueMultiset,
};

use crate::engine::{emit_run_events, non_faulty_diameter};
use crate::{MobileEngine, MobileRunOutcome, Observe, ProtocolConfig};

/// One lane of a batch: a seed and the initial values it starts from.
///
/// The seed replaces [`ProtocolConfig::seed`] for this lane — it drives the
/// lane's adversary stream and, where the topology or schedule is
/// randomized, the lane's graph realization, exactly as it would in a
/// scalar run of the re-seeded configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLane {
    /// The lane's seed.
    pub seed: u64,
    /// The lane's initial values (one per process).
    pub inputs: Vec<Value>,
}

/// One lane of a cross-point pack: a full configuration (whose `seed`
/// field is the lane seed) and the initial values it starts from. See
/// [`BatchEngine::run_packed`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLane {
    /// The lane's configuration; its `seed` is honoured as the lane seed.
    pub config: ProtocolConfig,
    /// The lane's initial values (one per process).
    pub inputs: Vec<Value>,
}

/// Whether two configurations share a batch **shape** and may therefore
/// ride in one [`BatchEngine::run_packed`] pack: same universe size, fault
/// bound, mobile model, and observe level. All other knobs are per-lane.
#[must_use]
pub fn shape_compatible(a: &ProtocolConfig, b: &ProtocolConfig) -> bool {
    a.n == b.n && a.f == b.f && a.model == b.model && a.observe == b.observe
}

/// One lane's identity inside a batch run: its configuration, its seed,
/// and its inputs. [`BatchEngine::run`] derives `k` specs from one shared
/// configuration; [`BatchEngine::run_packed`] derives them from `k`
/// configurations of equal shape.
struct LaneSpec<'a> {
    cfg: &'a ProtocolConfig,
    seed: u64,
    inputs: &'a [Value],
}

/// Per-lane control state: everything that is *not* shared across lanes.
struct LaneState {
    adversary: MobileAdversary,
    /// The lane's slice of its group's [`SharedRealization`]: seed-keyed
    /// draw streams and delay pipes. `None` only for lanes born done.
    delivery: Option<LaneDelivery>,
    /// Index of the lane's network group.
    group: usize,
    stats: NetworkStats,
    validity_envelope: Option<Interval>,
    report: Option<ConvergenceReport>,
    reached: bool,
    rounds_executed: usize,
    error: Option<Error>,
    done: bool,
    /// Telemetry bookkeeping (only read when an enabled observer is
    /// attached): the previous round's diameter (contraction ratios), the
    /// previous stats snapshot (per-round traffic deltas), the
    /// cured-corruption count of the current round, and the run total of
    /// corruptions.
    prev_diameter: f64,
    prev_stats: NetworkStats,
    corrupted_last: u32,
    corruptions: u64,
}

/// One network realization inside a pack: the exemplar configuration that
/// introduced its description, the lane seed it was realized under when
/// the description [realizes per seed](SharedRealization::realizes_per_seed),
/// and the realization every lane of the group shares — or the error the
/// scalar engine's network lowering reports for it.
struct NetGroup<'a> {
    cfg: &'a ProtocolConfig,
    seed: Option<u64>,
    realization: Result<SharedRealization>,
}

/// Whether two configurations describe the same network.
fn same_network_description(a: &ProtocolConfig, b: &ProtocolConfig) -> bool {
    a.topology == b.topology
        && a.schedule == b.schedule
        && a.link_faults == b.link_faults
        && a.disconnection == b.disconnection
}

/// Advances k seeds in lockstep. See the [module
/// documentation](crate::batch) for the layout and the selection rule;
/// per-seed results are bit-identical to the scalar [`MobileEngine`].
#[derive(Debug)]
pub struct BatchEngine {
    config: ProtocolConfig,
}

impl BatchEngine {
    /// Creates a batch engine for a validated configuration. The
    /// configuration's own `seed` is ignored — each [`BatchLane`] carries
    /// its own.
    #[must_use]
    pub fn new(config: ProtocolConfig) -> Self {
        BatchEngine { config }
    }

    /// The configuration this engine runs (its `seed` field is unused).
    #[must_use]
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Runs every lane to completion, returning one result per lane in
    /// lane order. Each lane's result — outcome or error — is exactly what
    /// a scalar [`MobileEngine`] run of the lane-seeded configuration
    /// would produce.
    ///
    /// Batches below two lanes and configurations observing more than
    /// [`Observe::Summary`] delegate to the scalar engine lane by lane
    /// (recording per-round snapshots or traces per lane in a batched
    /// loop would forfeit the shared scratch with no throughput win).
    #[must_use]
    pub fn run(&self, lanes: &[BatchLane]) -> Vec<Result<MobileRunOutcome>> {
        self.run_observed(lanes, &mut NoopObserver)
    }

    /// [`BatchEngine::run`] with an [`Observer`] attached. Round events
    /// from different lanes interleave round-major (the lockstep
    /// schedule), but each seed's event subsequence is bit-identical to
    /// the scalar engine's stream for that seed, and run-level events are
    /// emitted in lane order at collection. The observer never influences
    /// protocol state; outcomes are bit-identical to [`BatchEngine::run`].
    #[must_use]
    pub fn run_observed<O: Observer>(
        &self,
        lanes: &[BatchLane],
        observer: &mut O,
    ) -> Vec<Result<MobileRunOutcome>> {
        if self.config.observe != Observe::Summary || lanes.len() < 2 {
            return lanes
                .iter()
                .map(|lane| {
                    MobileEngine::new(self.lane_config(lane.seed))
                        .run_observed(&lane.inputs, observer)
                })
                .collect();
        }
        let specs: Vec<LaneSpec<'_>> = lanes
            .iter()
            .map(|lane| LaneSpec {
                cfg: &self.config,
                seed: lane.seed,
                inputs: &lane.inputs,
            })
            .collect();
        run_lockstep(&specs, observer)
    }

    /// Runs a **cross-point pack**: every lane carries its own
    /// configuration (its `seed` field is the lane seed), and all lanes
    /// advance in one lockstep loop as long as the pack shares a batch
    /// shape (see [`shape_compatible`]). Results are returned in lane
    /// order; each lane's result is exactly what a scalar
    /// [`MobileEngine`] run of its configuration would produce.
    ///
    /// Packs below two lanes, packs observing more than
    /// [`Observe::Summary`], and shape-incompatible packs delegate to the
    /// scalar engine lane by lane, so the call is total.
    #[must_use]
    pub fn run_packed(lanes: &[PackedLane]) -> Vec<Result<MobileRunOutcome>> {
        Self::run_packed_observed(lanes, &mut NoopObserver)
    }

    /// [`BatchEngine::run_packed`] with an [`Observer`] attached; the
    /// event-stream guarantees of [`BatchEngine::run_observed`] apply.
    #[must_use]
    pub fn run_packed_observed<O: Observer>(
        lanes: &[PackedLane],
        observer: &mut O,
    ) -> Vec<Result<MobileRunOutcome>> {
        let packable = lanes.len() >= 2
            && lanes
                .iter()
                .all(|lane| lane.config.observe == Observe::Summary)
            && lanes
                .windows(2)
                .all(|pair| shape_compatible(&pair[0].config, &pair[1].config));
        if !packable {
            return lanes
                .iter()
                .map(|lane| {
                    MobileEngine::new(lane.config.clone()).run_observed(&lane.inputs, observer)
                })
                .collect();
        }
        let specs: Vec<LaneSpec<'_>> = lanes
            .iter()
            .map(|lane| LaneSpec {
                cfg: &lane.config,
                seed: lane.config.seed,
                inputs: &lane.inputs,
            })
            .collect();
        run_lockstep(&specs, observer)
    }

    /// The lane-seeded scalar configuration: what the batch run must be
    /// bit-identical to.
    fn lane_config(&self, seed: u64) -> ProtocolConfig {
        let mut config = self.config.clone();
        config.seed = seed;
        config
    }
}

/// Initializes the SoA state of a batch: lane-major flat `votes` /
/// `states` arrays and one control record per lane, each with a
/// [`LaneDelivery`] on its group's realization (`lane_group[l]` indexes
/// `groups`). Lanes with the wrong input count, or whose group failed to
/// realize, are born `done` with their scalar error — in the scalar
/// engine's order; their state slices stay untouched placeholders.
fn init_lanes(
    specs: &[LaneSpec<'_>],
    groups: &[NetGroup<'_>],
    lane_group: &[usize],
) -> (Vec<Value>, Vec<FaultState>, Vec<LaneState>) {
    let n = specs[0].cfg.n;
    let mut votes = vec![Value::new(0.0); specs.len() * n];
    let states = vec![FaultState::Correct; specs.len() * n];
    let mut lane_states = Vec::with_capacity(specs.len());
    for (l, spec) in specs.iter().enumerate() {
        let cfg = spec.cfg;
        let mut ls = LaneState {
            adversary: MobileAdversary::new(
                cfg.model,
                n,
                cfg.f,
                cfg.mobility,
                cfg.corruption,
                spec.seed,
            ),
            delivery: None,
            group: lane_group[l],
            stats: NetworkStats::new(),
            validity_envelope: None,
            report: None,
            reached: false,
            rounds_executed: 0,
            error: None,
            done: false,
            prev_diameter: 0.0,
            prev_stats: NetworkStats::new(),
            corrupted_last: 0,
            corruptions: 0,
        };
        if spec.inputs.len() != n {
            ls.error = Some(Error::WrongInputCount {
                provided: spec.inputs.len(),
                expected: n,
            });
            ls.done = true;
        } else {
            votes[l * n..(l + 1) * n].copy_from_slice(spec.inputs);
            match &groups[ls.group].realization {
                Ok(shared) => ls.delivery = Some(shared.lane(spec.seed)),
                Err(e) => {
                    ls.error = Some(e.clone());
                    ls.done = true;
                }
            }
        }
        lane_states.push(ls);
    }
    (votes, states, lane_states)
}

/// The adversary phase of one lane's round: places
/// the agents into the shared plan, applies the corruption left on cured
/// processes, tracks fault states, and performs the first-round
/// initialization (validity envelope, initial diameter, pre-sized report,
/// trivial-agreement early exit). Returns `false` when the lane
/// terminated before its send phase.
#[allow(clippy::too_many_arguments)]
fn begin_lane_round<O: Observer>(
    cfg: &ProtocolConfig,
    ls: &mut LaneState,
    round: Round,
    votes: &mut [Value],
    states: &mut [FaultState],
    plan: &mut RoundFaultPlan,
    received: &mut ValueMultiset,
    observer: &mut O,
) -> bool {
    observer.phase_start(Phase::AdversaryPlan);
    // The adversary sees everything; the "correct range" it reasons
    // about is the range of the currently non-faulty processes' values
    // (all values before the first placement).
    let visible_range = Interval::hull(
        votes
            .iter()
            .zip(&*states)
            .filter_map(|(v, s)| s.is_non_faulty().then_some(*v)),
    )
    .unwrap_or_else(|| Interval::point(votes[0]));
    let view = AdversaryView {
        round,
        votes,
        correct_range: visible_range,
    };
    ls.adversary.begin_round_into(&view, plan);

    // Agents that left a process corrupted the state behind them.
    ls.corrupted_last = 0;
    for p in plan.cured.iter() {
        if let Some(corrupted) = plan.corrupted_states[p.index()] {
            votes[p.index()] = corrupted;
            ls.corrupted_last += 1;
        }
    }
    for (i, state) in states.iter_mut().enumerate() {
        let p = ProcessId::new(i);
        *state = if plan.faulty.contains(p) {
            FaultState::Faulty
        } else if plan.cured.contains(p) {
            FaultState::Cured
        } else {
            FaultState::Correct
        };
    }
    observer.phase_end(Phase::AdversaryPlan);

    // First round: now that the faulty set is known, freeze the
    // validity envelope and the initial diameter, and size the report
    // to the round budget so later records never reallocate.
    if ls.validity_envelope.is_none() {
        received.refill(
            votes
                .iter()
                .zip(&*states)
                .filter_map(|(v, s)| s.is_non_faulty().then_some(*v)),
        );
        let envelope = received
            .range()
            .expect("at least one process is non-faulty");
        ls.validity_envelope = Some(envelope);
        let initial_diameter = received.diameter();
        ls.prev_diameter = initial_diameter;
        if cfg.epsilon.covers_diameter(initial_diameter) {
            ls.reached = true;
        }
        ls.report = Some(ConvergenceReport::with_capacity(
            initial_diameter,
            cfg.max_rounds,
        ));
        if ls.reached {
            ls.done = true;
            return false;
        }
    }
    true
}

/// The diameter bookkeeping closing one lane's round. Returns the round's diameter so the caller can emit the lane's
/// telemetry event without recomputing it.
fn finish_lane_round(
    cfg: &ProtocolConfig,
    ls: &mut LaneState,
    round_idx: usize,
    votes: &[Value],
    states: &[FaultState],
) -> f64 {
    ls.rounds_executed = round_idx + 1;
    let diameter = non_faulty_diameter(votes, states);
    let report = ls
        .report
        .as_mut()
        .expect("report initialised in first round");
    report.record_round(diameter);
    ls.reached = cfg.epsilon.covers_diameter(diameter);
    if ls.reached {
        ls.done = true;
    }
    diameter
}

/// Assembles each lane's outcome exactly as the scalar engine does,
/// emitting each lane's run-level telemetry in lane order.
fn collect<O: Observer>(
    specs: &[LaneSpec<'_>],
    votes: &[Value],
    states: &[FaultState],
    lane_states: Vec<LaneState>,
    observer: &mut O,
) -> Vec<Result<MobileRunOutcome>> {
    let n = specs[0].cfg.n;
    let telemetry = observer.enabled();
    lane_states
        .into_iter()
        .enumerate()
        .map(|(l, mut ls)| {
            if let Some(error) = ls.error.take() {
                return Err(error);
            }
            let votes = &votes[l * n..(l + 1) * n];
            let states = &states[l * n..(l + 1) * n];
            let validity_envelope = ls.validity_envelope.unwrap_or_else(|| {
                Interval::hull(votes.iter().copied()).expect("at least one process")
            });
            let report = ls.report.unwrap_or_else(|| {
                ConvergenceReport::new(
                    Interval::hull(votes.iter().copied())
                        .map(|i| i.diameter())
                        .unwrap_or(0.0),
                )
            });
            let outcome = MobileRunOutcome {
                reached_agreement: ls.reached,
                rounds_executed: ls.rounds_executed,
                final_votes: votes.to_vec(),
                final_states: states.to_vec(),
                report,
                validity_envelope,
                epsilon: specs[l].cfg.epsilon,
                configurations: Vec::new(),
                trace: NetworkTrace::new(),
                network_stats: ls.stats,
            };
            if telemetry {
                emit_run_events(observer, specs[l].seed, &outcome, ls.corruptions);
            }
            Ok(outcome)
        })
        .collect()
}

/// The lockstep loop: every topology, schedule, and link-fault plan.
///
/// Lanes are grouped by network description — and by lane seed where the
/// description realizes per seed. Each group's structure is realized
/// **once** into a [`SharedRealization`] and every lane of the group
/// exchanges against it, carrying only its own draw streams and delay
/// pipes. Senders are classified into [`LaneSend`]s instead of
/// materializing `n`-slot outboxes, and delivered values land directly in
/// packed, already sorted [`DeliveryRows`] feeding the k-wide MSR fold.
/// Per-lane results are bit-identical to the scalar engine by
/// construction.
fn run_lockstep<O: Observer>(
    specs: &[LaneSpec<'_>],
    observer: &mut O,
) -> Vec<Result<MobileRunOutcome>> {
    let n = specs[0].cfg.n;
    let k = specs.len();
    let telemetry = observer.enabled();

    // Group the pack and realize each group once. A linear scan is fine:
    // packs are ≤ the sweep chunk width and most packs hold one or two
    // groups.
    let mut groups: Vec<NetGroup<'_>> = Vec::new();
    let mut lane_group = vec![0usize; k];
    for (l, spec) in specs.iter().enumerate() {
        let cfg = spec.cfg;
        let seed = SharedRealization::realizes_per_seed(&cfg.topology, cfg.schedule.as_ref())
            .then_some(spec.seed);
        let g = groups
            .iter()
            .position(|group| group.seed == seed && same_network_description(group.cfg, cfg));
        lane_group[l] = g.unwrap_or_else(|| {
            groups.push(NetGroup {
                cfg,
                seed,
                realization: SharedRealization::build(
                    n,
                    &cfg.topology,
                    cfg.schedule.as_ref(),
                    &cfg.link_faults,
                    cfg.disconnection,
                    seed.unwrap_or(0),
                ),
            });
            groups.len() - 1
        });
    }

    let (mut votes, mut states, mut lane_states) = init_lanes(specs, &groups, &lane_group);
    let mut plan = RoundFaultPlan::empty(n);
    let mut received = ValueMultiset::with_capacity(n);
    let mut active: Vec<bool> = vec![false; n];
    let mut rows = DeliveryRows::new(n);
    let mut lane_votes: Vec<Option<Value>> = vec![None; n];
    let max_rounds = specs.iter().map(|s| s.cfg.max_rounds).max().unwrap_or(0);

    // The lockstep round loop: round r of every live lane runs before
    // round r + 1 of any. Statically allocation-free like the scalar
    // loop; the first-round initialization inside `begin_lane_round`
    // carries the same waivers.
    // mbaa: alloc-free
    for round_idx in 0..max_rounds {
        let mut all_done = true;
        for l in 0..k {
            let spec = &specs[l];
            let cfg = spec.cfg;
            let ls = &mut lane_states[l];
            if ls.done || round_idx >= cfg.max_rounds {
                continue;
            }
            all_done = false;
            let round = Round::new(round_idx as u64);
            let votes_l = &mut votes[l * n..(l + 1) * n];
            let states_l = &mut states[l * n..(l + 1) * n];
            if !begin_lane_round(
                cfg,
                ls,
                round,
                votes_l,
                states_l,
                &mut plan,
                &mut received,
                observer,
            ) {
                continue;
            }
            let compute_even_if_faulty = cfg.model.agents_move_with_messages();

            observer.phase_start(Phase::Exchange);
            for (i, state) in states_l.iter().enumerate() {
                active[i] = state.is_non_faulty() || compute_even_if_faulty;
            }

            // Send and receive phases, straight into sorted rows in the
            // packed arena. Senders are classified as the exchange reads
            // them — a broadcaster contributes one value, not n slots; the
            // ≤ 2f per-receiver senders lend their outboxes from the plan.
            // A network error (e.g. a rejected disconnected round) fails
            // this lane exactly as it fails a scalar run — other lanes (and
            // the shared structure) are unaffected.
            let Ok(shared) = &mut groups[ls.group].realization else {
                unreachable!("live lanes belong to a realized group");
            };
            let delivery = ls.delivery.as_mut().expect("live lanes carry a delivery");
            let send = |i: usize| classify_send(cfg.model, &plan, i, votes_l[i]);
            let exchanged =
                shared.exchange_rows(delivery, round, send, &active, &mut rows, &mut ls.stats);
            observer.phase_end(Phase::Exchange);
            if let Err(e) = exchanged {
                ls.error = Some(e);
                ls.done = true;
                continue;
            }

            // Compute phase: the rows arrive sorted; fold them.
            observer.phase_start(Phase::MsrApply);
            fold_rows(&cfg.function, &rows, &mut lane_votes, votes_l);
            observer.phase_end(Phase::MsrApply);

            observer.phase_start(Phase::Record);
            let diameter = finish_lane_round(cfg, ls, round_idx, votes_l, states_l);
            if telemetry {
                let stats = ls.stats;
                emit_round(
                    observer,
                    cfg,
                    spec.seed,
                    ls,
                    &plan,
                    round_idx,
                    diameter,
                    stats,
                    rows.min_len(),
                );
            }
            observer.phase_end(Phase::Record);
        }
        if all_done {
            break;
        }
    }

    collect(specs, &votes, &states, lane_states, observer)
}

/// The send phase of process `i` — the batch path's statement of the
/// model's send rules, what the scalar engine's outbox fill writes,
/// without writing it: a non-faulty, non-cured process broadcasts its
/// vote; a cured one behaves per the model (Garay silent, Bonnet
/// broadcast, Sasaki its poisoned queue); a faulty one sends the
/// adversary's per-receiver outbox.
// mbaa: alloc-free
fn classify_send(model: MobileModel, plan: &RoundFaultPlan, i: usize, vote: Value) -> LaneSend<'_> {
    let p = ProcessId::new(i);
    if plan.faulty.contains(p) {
        LaneSend::PerReceiver(
            plan.faulty_outboxes[i]
                .as_ref()
                .expect("adversary provides an outbox for every faulty process"),
        )
    } else if plan.cured.contains(p) {
        match model {
            MobileModel::Garay => LaneSend::Silent,
            MobileModel::Bonnet => LaneSend::Broadcast(vote),
            MobileModel::Sasaki => LaneSend::PerReceiver(
                plan.poisoned_outboxes[i]
                    .as_ref()
                    .expect("Sasaki adversary provides a poisoned queue for every cured process"),
            ),
            MobileModel::Buhrman => unreachable!("Buhrman's model has no cured senders"),
        }
    } else {
        LaneSend::Broadcast(vote)
    }
}

/// The compute phase over one lane round's sorted rows: one k-wide MSR
/// fold when every row has the same width, per-row applies otherwise; each
/// computed vote lands on its receiver.
// mbaa: alloc-free
fn fold_rows(
    function: &MsrFunction,
    rows: &DeliveryRows,
    lane_votes: &mut [Option<Value>],
    votes: &mut [Value],
) {
    let lane_votes = &mut lane_votes[..rows.rows()];
    if let Some(lane_len) = rows.uniform_len() {
        function.apply_sorted_lanes(rows.flat(), lane_len, lane_votes);
    } else {
        for (row, vote) in lane_votes.iter_mut().enumerate() {
            *vote = function.apply_sorted(rows.row(row));
        }
    }
    for (row, vote) in lane_votes.iter().enumerate() {
        if let Some(next) = *vote {
            votes[rows.receiver(row)] = next;
        }
    }
}

/// Emits one lane round's telemetry event and advances the lane's
/// telemetry bookkeeping. `stats` is the lane's cumulative traffic after
/// the round (the event carries its delta since the previous round) and
/// `min_row` the round's smallest multiset, `None` when no receiver
/// computed.
#[allow(clippy::too_many_arguments)]
fn emit_round<O: Observer>(
    observer: &mut O,
    cfg: &ProtocolConfig,
    seed: u64,
    ls: &mut LaneState,
    plan: &RoundFaultPlan,
    round_idx: usize,
    diameter: f64,
    stats: NetworkStats,
    min_row: Option<usize>,
) {
    let width = min_row.map_or(0, |len| cfg.function.reduced_width(len));
    observer.on_round(&RoundEvent {
        seed,
        round: round_idx as u64,
        diameter,
        contraction: if ls.prev_diameter > 0.0 {
            diameter / ls.prev_diameter
        } else {
            1.0
        },
        faulty: plan.faulty.len() as u32,
        cured: plan.cured.len() as u32,
        corrupted: ls.corrupted_last,
        delivered: stats.messages_delivered - ls.prev_stats.messages_delivered,
        omissions: stats.omissions - ls.prev_stats.omissions,
        link_omissions: stats.link_omissions - ls.prev_stats.link_omissions,
        msr_width: width as u32,
    });
    ls.prev_stats = stats;
    ls.prev_diameter = diameter;
    ls.corruptions += u64::from(ls.corrupted_last);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_net::{Topology, TopologySchedule};

    fn inputs(n: usize, salt: u64) -> Vec<Value> {
        (0..n)
            .map(|i| Value::new(((i as u64 * 31 + salt * 17) % 101) as f64 / 101.0))
            .collect()
    }

    fn lanes(n: usize, seeds: &[u64]) -> Vec<BatchLane> {
        seeds
            .iter()
            .map(|&seed| BatchLane {
                seed,
                inputs: inputs(n, seed),
            })
            .collect()
    }

    fn base_config(model: MobileModel, n: usize, f: usize) -> ProtocolConfig {
        ProtocolConfig::builder(model, n, f)
            .epsilon(1e-4)
            .max_rounds(400)
            .seed(999) // must be ignored: every lane carries its own seed
            .build()
            .unwrap()
    }

    fn assert_matches_scalar(config: &ProtocolConfig, batch_lanes: &[BatchLane]) {
        let engine = BatchEngine::new(config.clone());
        let results = engine.run(batch_lanes);
        assert_eq!(results.len(), batch_lanes.len());
        for (lane, result) in batch_lanes.iter().zip(results) {
            let scalar = MobileEngine::new(engine.lane_config(lane.seed)).run(&lane.inputs);
            match (result, scalar) {
                (Ok(batch), Ok(scalar)) => assert_eq!(batch, scalar, "seed {}", lane.seed),
                (Err(b), Err(s)) => assert_eq!(b.to_string(), s.to_string(), "seed {}", lane.seed),
                (b, s) => panic!("seed {}: batch {b:?} vs scalar {s:?}", lane.seed),
            }
        }
    }

    #[test]
    fn fast_path_matches_scalar_for_all_models() {
        for model in MobileModel::ALL {
            let f = 2;
            let n = model.required_processes(f);
            let config = base_config(model, n, f);
            assert_matches_scalar(&config, &lanes(n, &[1, 2, 3, 4, 5]));
        }
    }

    #[test]
    fn partial_topology_batches_match_scalar() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        assert_matches_scalar(&config, &lanes(9, &[7, 8, 9]));
    }

    #[test]
    fn wrong_input_count_fails_only_that_lane() {
        let n = 9;
        let config = base_config(MobileModel::Garay, n, 2);
        let mut batch_lanes = lanes(n, &[1, 2, 3]);
        batch_lanes[1].inputs.truncate(4);
        let results = BatchEngine::new(config).run(&batch_lanes);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(Error::WrongInputCount {
                provided: 4,
                expected: 9
            })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn single_lane_degenerates_to_scalar() {
        let n = 9;
        let config = base_config(MobileModel::Garay, n, 2);
        assert_matches_scalar(&config, &lanes(n, &[42]));
    }

    #[test]
    fn trivially_agreeing_lanes_terminate_without_rounds() {
        let n = 9;
        let config = base_config(MobileModel::Garay, n, 2);
        let batch_lanes: Vec<BatchLane> = [1u64, 2]
            .iter()
            .map(|&seed| BatchLane {
                seed,
                inputs: vec![Value::new(0.5); n],
            })
            .collect();
        let results = BatchEngine::new(config.clone()).run(&batch_lanes);
        for result in &results {
            let outcome = result.as_ref().unwrap();
            assert!(outcome.reached_agreement);
            assert_eq!(outcome.rounds_executed, 0);
            assert_eq!(outcome.network_stats.rounds, 0);
        }
        assert_matches_scalar(&config, &batch_lanes);
    }

    #[test]
    fn tight_epsilon_exhausts_the_budget_identically() {
        let n = 9;
        let config = ProtocolConfig::builder(MobileModel::Garay, n, 2)
            .epsilon(1e-300)
            .max_rounds(20)
            .build()
            .unwrap();
        assert_matches_scalar(&config, &lanes(n, &[1, 2]));
    }

    #[test]
    fn packed_cross_point_lanes_match_their_own_scalar_runs() {
        // Three shape-compatible points with different ε, budgets, and
        // networks — one pack, per-lane outcomes bit-identical to scalar.
        let n = 9;
        let ring = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-3)
            .max_rounds(120)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let complete = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-5)
            .max_rounds(300)
            .build()
            .unwrap();
        let churn = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-4)
            .max_rounds(250)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.1,
            })
            .build()
            .unwrap();
        let mut pack = Vec::new();
        for (point, cfg) in [ring, complete, churn].iter().enumerate() {
            for seed in 1..=3u64 {
                let mut config = cfg.clone();
                config.seed = seed + 10 * point as u64;
                pack.push(PackedLane {
                    inputs: inputs(n, config.seed),
                    config,
                });
            }
        }
        let results = BatchEngine::run_packed(&pack);
        assert_eq!(results.len(), pack.len());
        for (lane, result) in pack.iter().zip(results) {
            let scalar = MobileEngine::new(lane.config.clone())
                .run(&lane.inputs)
                .unwrap();
            assert_eq!(result.unwrap(), scalar, "seed {}", lane.config.seed);
        }
    }

    #[test]
    fn shape_incompatible_packs_fall_back_to_scalar() {
        let a = base_config(MobileModel::Garay, 9, 1);
        let b = base_config(MobileModel::Garay, 13, 2);
        let pack = vec![
            PackedLane {
                config: a.clone(),
                inputs: inputs(9, 1),
            },
            PackedLane {
                config: b.clone(),
                inputs: inputs(13, 2),
            },
        ];
        assert!(!shape_compatible(&a, &b));
        let results = BatchEngine::run_packed(&pack);
        for (lane, result) in pack.iter().zip(results) {
            let scalar = MobileEngine::new(lane.config.clone())
                .run(&lane.inputs)
                .unwrap();
            assert_eq!(result.unwrap(), scalar);
        }
    }
}
