//! Shared-realization batch delivery: one structural network realization
//! serving many lanes (seeds) of the same configuration shape.
//!
//! The scalar [`SyncNetwork`](crate::SyncNetwork) bundles three things per
//! run: the *structure* (realized graphs, compiled link-fault matrices,
//! connectivity precomputation), the *per-seed draw streams* (churn and
//! omission draws keyed on the run seed), and the *per-run delivery state*
//! (delay pipes, round cursor, statistics). Only the first is shared across
//! the lanes of a batch — and it is by far the most expensive to build and
//! the only part that costs per-round allocations on the churn path.
//!
//! [`SharedRealization`] splits the bundle: it holds the seed-independent
//! structure once per batch (closed-neighbourhood lists, compiled fault
//! matrices, per-phase connectivity) plus reusable round scratch,
//! while each lane carries only a tiny [`LaneDelivery`] (seed, round
//! cursor, delay pipes when the plan needs them). A lane round is served by
//! [`SharedRealization::exchange_rows`], which classifies and accounts
//! every slot exactly as the scalar exchange would — same statistics
//! counters, same omission/churn draw streams, same delay buffering — but
//! assembles each active receiver's delivered values, already sorted, into
//! packed [`DeliveryRows`] instead of an `n × n` slot matrix, skipping the
//! quadratic outbox materialization for broadcasting senders via
//! [`LaneSend`] classification. The round's broadcast values are sorted
//! once; a receiver's row marks the ranks it received in a bitset and
//! merges in its few other values (see [`DeliveryRows`]).
//!
//! Only *seed-invariant* descriptions are shareable: a
//! [`Topology::RandomRegular`] realizes differently per lane seed, so
//! [`SharedRealization::try_build`] refuses it (anywhere — as the static
//! graph, a periodic phase, or a churn base) and the engine falls back to
//! one scalar network per lane. Seeded churn *is* shareable: the base graph
//! is realized once into neighbour lists, and the per-`(seed, round, link)`
//! down-draws are replayed per lane over the base's edges against the
//! crate-internal draw primitive, so the realized per-round graphs match
//! the scalar path bit for bit; the round's connectivity check and
//! delivery walk the same lists.

use std::collections::VecDeque;
use std::ops::Range;

use mbaa_types::{Error, ProcessId, Result, Round, Value};

use crate::faults::{churn_link_down, omission_lost, RealizedKind};
use crate::network::SendOutcome;
use crate::{
    Adjacency, CompiledLinkFaults, DisconnectionPolicy, LinkFaultPlan, NetworkStats, Outbox,
    Topology, TopologySchedule,
};

/// What one sender hands to a batched exchange — the send phase in
/// classified form, so broadcasting senders never materialize `n` outbox
/// slots.
///
/// The classification must match what
/// [`Outbox`]es the scalar engine would build: `Broadcast(v)` stands for a
/// `fill_broadcast(v)` outbox (every slot `Some(v)`, self included),
/// `Silent` for a `fill_silent` one, and `PerReceiver(i)` defers to
/// `outboxes[i]` for the few genuinely per-receiver senders (adversary
/// outboxes, poisoned queues).
#[derive(Debug, Clone, Copy)]
pub enum LaneSend {
    /// The sender broadcasts one value to every receiver (itself included).
    Broadcast(Value),
    /// The sender omits to every receiver.
    Silent,
    /// The sender's slots come from the outbox at this index of the
    /// `outboxes` slice passed to [`SharedRealization::exchange_rows`].
    PerReceiver(usize),
}

impl LaneSend {
    /// The value this sender puts on its link to `receiver`.
    #[inline]
    fn slot(self, outboxes: &[Outbox], receiver: ProcessId) -> Option<Value> {
        match self {
            LaneSend::Broadcast(value) => Some(value),
            LaneSend::Silent => None,
            LaneSend::PerReceiver(i) => outboxes[i].get(receiver),
        }
    }
}

/// Packed per-receiver delivery rows of one lane round, assembled already
/// sorted: row `i` holds the values delivered to the `i`-th *active*
/// receiver, ascending, back to back in one flat buffer sized once at `n²`.
///
/// A lane round sorts its broadcasting senders' values **once**:
/// `sorted[pos]` holds them ascending and `rank[sender]` is each
/// broadcaster's position. A receiver's row is that buffer filtered by the
/// broadcasts the receiver actually got — one bit per rank in an
/// `n/64`-word bitset, walked in order — merged with its few other
/// deliveries ("extras": per-receiver slots and delayed arrivals), which
/// are sorted on their own. On the unmasked complete graph every row takes
/// every broadcast, so [`DeliveryRows::push_full_row`] merges the whole
/// buffer, without a bitset.
///
/// Every [`Value`] constructor maps `-0.0` to `+0.0`, so values that
/// compare equal are bit-identical and a row assembled this way equals a
/// per-row sort of the same multiset bit for bit.
///
/// When every row has the same width the engine feeds the whole flat
/// buffer to the k-wide MSR fold in one call.
#[derive(Debug)]
pub struct DeliveryRows {
    merged: Vec<Value>,
    receivers: Vec<usize>,
    offsets: Vec<usize>,
    lens: Vec<usize>,
    rows: usize,
    total: usize,
    uniform: bool,
    /// Sort scratch: `(value, sender)` of the round's broadcasters.
    ranked: Vec<(Value, u32)>,
    /// The round's broadcast values, ascending (`broadcasts` of them).
    sorted: Vec<Value>,
    broadcasts: usize,
    /// `rank[sender]`: the position of a broadcaster's value in `sorted`.
    rank: Vec<u32>,
    /// The row being assembled: the ranks of its delivered broadcasts ...
    bits: Vec<u64>,
    /// ... and its other delivered values.
    extras: Vec<Value>,
    extras_len: usize,
}

impl DeliveryRows {
    /// Pre-sizes the row arena for a universe of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DeliveryRows {
            merged: vec![Value::ZERO; n * n],
            receivers: vec![0; n],
            offsets: vec![0; n],
            lens: vec![0; n],
            rows: 0,
            total: 0,
            uniform: true,
            ranked: vec![(Value::ZERO, 0); n],
            sorted: vec![Value::ZERO; n],
            broadcasts: 0,
            rank: vec![0; n],
            bits: vec![0; n.div_ceil(64)],
            extras: vec![Value::ZERO; n],
            extras_len: 0,
        }
    }

    /// Starts a lane round: clears the arena and sorts the values of the
    /// `Broadcast` senders in `sends` once, for every row of the round,
    /// recording each broadcaster's rank.
    ///
    /// # Panics
    ///
    /// Panics if `sends` is longer than the universe.
    // mbaa: alloc-free
    pub fn sort_broadcasts(&mut self, sends: &[LaneSend]) {
        self.clear();
        let mut len = 0;
        for (sender, send) in sends.iter().enumerate() {
            if let LaneSend::Broadcast(value) = *send {
                self.ranked[len] = (value, sender as u32);
                len += 1;
            }
        }
        let ranked = &mut self.ranked[..len];
        ranked.sort_unstable_by_key(|&(value, _)| value);
        for (pos, &(value, sender)) in ranked.iter().enumerate() {
            self.sorted[pos] = value;
            self.rank[sender as usize] = pos as u32;
        }
        self.broadcasts = len;
    }

    fn clear(&mut self) {
        self.rows = 0;
        self.total = 0;
        self.uniform = true;
    }

    /// Adds `value`, delivered from `sender` this round, to the row being
    /// assembled: a broadcast by its rank bit, anything else as an extra.
    #[inline]
    fn deliver(&mut self, send: LaneSend, sender: usize, value: Value) {
        if let LaneSend::Broadcast(_) = send {
            let pos = self.rank[sender] as usize;
            self.bits[pos / 64] |= 1 << (pos % 64);
        } else {
            self.deliver_extra(value);
        }
    }

    /// Adds a value that is not one of the round's ranked broadcasts — a
    /// per-receiver slot or a delayed arrival — to the row being assembled.
    #[inline]
    pub fn deliver_extra(&mut self, value: Value) {
        self.extras[self.extras_len] = value;
        self.extras_len += 1;
    }

    /// Closes the row being assembled as `receiver`'s: the marked
    /// broadcasts in rank order, merged in place with the sorted extras.
    // mbaa: alloc-free
    fn push_row(&mut self, receiver: usize) {
        let start = self.total;
        let mut len = 0;
        for (w, word) in self.bits.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.merged[start + len] = self.sorted[w * 64 + bits.trailing_zeros() as usize];
                len += 1;
                bits &= bits - 1;
            }
        }
        let extras = &mut self.extras[..self.extras_len];
        extras.sort_unstable();
        let len = len + extras.len();
        merge_in_place(&mut self.merged[start..start + len], extras);
        self.finish_row(receiver, start, len);
    }

    /// Closes the row being assembled as `receiver`'s, with **every**
    /// broadcast of the round delivered (the unmasked complete graph): the
    /// sorted buffer merged with the sorted extras.
    // mbaa: alloc-free
    pub fn push_full_row(&mut self, receiver: usize) {
        let start = self.total;
        let extras = &mut self.extras[..self.extras_len];
        extras.sort_unstable();
        let len = self.broadcasts + extras.len();
        merge_sorted(
            &self.sorted[..self.broadcasts],
            extras,
            &mut self.merged[start..start + len],
        );
        self.finish_row(receiver, start, len);
    }

    /// Records the row just written at `merged[start..start + len]`.
    fn finish_row(&mut self, receiver: usize, start: usize, len: usize) {
        self.extras_len = 0;
        if self.rows > 0 && len != self.lens[0] {
            self.uniform = false;
        }
        self.receivers[self.rows] = receiver;
        self.offsets[self.rows] = start;
        self.lens[self.rows] = len;
        self.rows += 1;
        self.total = start + len;
    }

    /// The number of active receivers collected this round.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The process index of the `row`-th active receiver.
    #[must_use]
    pub fn receiver(&self, row: usize) -> usize {
        self.receivers[row]
    }

    /// The values delivered to the `row`-th active receiver, ascending.
    #[must_use]
    pub fn row(&self, row: usize) -> &[Value] {
        &self.merged[self.offsets[row]..self.offsets[row] + self.lens[row]]
    }

    /// `Some(len)` when at least one row was collected and every row has
    /// the same width — the precondition of the k-wide MSR fold over
    /// [`DeliveryRows::flat`].
    #[must_use]
    pub fn uniform_len(&self) -> Option<usize> {
        (self.uniform && self.rows > 0).then(|| self.lens[0])
    }

    /// The packed flat buffer holding every collected row back to back.
    #[must_use]
    pub fn flat(&self) -> &[Value] {
        &self.merged[..self.total]
    }

    /// The width of the smallest collected row (the round's minimum
    /// multiset size), or `None` when no receiver was active.
    #[must_use]
    pub fn min_len(&self) -> Option<usize> {
        self.lens[..self.rows].iter().copied().min()
    }
}

/// Merges two ascending slices into `out` (exactly `a.len() + b.len()`
/// long) — the classic two-pointer merge. Ties take `a` first.
// mbaa: alloc-free
fn merge_sorted(a: &[Value], b: &[Value], out: &mut [Value]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// [`merge_sorted`] in place: merges the ascending `extras` into `row`,
/// whose first `row.len() - extras.len()` values are ascending, running
/// from the back so only the values above the smallest extra move. Ties
/// keep the prefix value first.
// mbaa: alloc-free
fn merge_in_place(row: &mut [Value], extras: &[Value]) {
    let mut i = row.len() - extras.len();
    let mut j = extras.len();
    while j > 0 {
        if i > 0 && row[i - 1] > extras[j - 1] {
            row[i + j - 1] = row[i - 1];
            i -= 1;
        } else {
            row[i + j - 1] = extras[j - 1];
            j -= 1;
        }
    }
}

/// The per-lane slice of a dynamic exchange: everything keyed on the lane
/// seed or advancing per lane round. Created by
/// [`SharedRealization::lane`]; static realizations carry no state at all
/// beyond the seed.
#[derive(Debug, Clone)]
pub struct LaneDelivery {
    seed: u64,
    /// The round the next exchange must carry (dynamic realizations only —
    /// the delay pipes and draw streams advance once per round).
    next_round: u64,
    /// In-order delay buffers, indexed `from * n + to`; allocated only when
    /// the compiled plan has a positive maximum delay.
    pipes: Vec<VecDeque<SendOutcome>>,
}

impl LaneDelivery {
    /// The lane seed driving this lane's churn and omission draws.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// One static graph with its precomputed closed in-neighbourhood lists:
/// `neighbors[offsets[r]..offsets[r + 1]]` are the senders receiver `r`
/// hears (itself included), ascending.
#[derive(Debug)]
struct StaticGraph {
    neighbors: Vec<u32>,
    offsets: Vec<u32>,
}

impl StaticGraph {
    fn new(adjacency: &Adjacency) -> Self {
        let n = adjacency.n();
        let mut neighbors = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for r in 0..n {
            for (s, &linked) in adjacency.row(ProcessId::new(r)).iter().enumerate() {
                if linked {
                    neighbors.push(s as u32);
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        StaticGraph { neighbors, offsets }
    }

    /// The indices into `neighbors` of receiver `r`'s list.
    fn span(&self, r: usize) -> Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    fn closed_neighborhood(&self, r: usize) -> &[u32] {
        &self.neighbors[self.span(r)]
    }

    /// For a symmetric graph: `mirror[i]` is the index of the reverse
    /// entry of list entry `i` (entry `b` in `a`'s list ↦ entry `a` in
    /// `b`'s list).
    fn mirrors(&self) -> Vec<u32> {
        let mut mirror = vec![0; self.neighbors.len()];
        for a in 0..self.offsets.len() - 1 {
            for i in self.span(a) {
                let b = self.neighbors[i] as usize;
                let back = self
                    .closed_neighborhood(b)
                    .binary_search(&(a as u32))
                    .expect("the graph is symmetric");
                mirror[i] = (self.offsets[b] as usize + back) as u32;
            }
        }
        mirror
    }
}

/// One phase of a dynamic schedule, with its connectivity precomputed once
/// per batch instead of once per lane round.
#[derive(Debug)]
struct PhaseGraph {
    graph: StaticGraph,
    connected: bool,
    components: usize,
}

impl PhaseGraph {
    fn new(adjacency: &Adjacency) -> Self {
        PhaseGraph {
            graph: StaticGraph::new(adjacency),
            connected: adjacency.is_connected(),
            components: adjacency.component_count(),
        }
    }
}

/// The per-round graph rule of a shared dynamic realization.
#[derive(Debug)]
enum DynGraphs {
    /// Round `r` uses `phases[r % phases.len()]` — static graphs are the
    /// single-phase case.
    Phases(Vec<PhaseGraph>),
    /// Round-indexed churn over a shared base; the per-`(seed, round,
    /// link)` down-draws are replayed per lane over the base's edges only.
    /// `mirror` (see [`StaticGraph::mirrors`]) lets one draw switch both
    /// list entries of an undirected link.
    Churn {
        base: StaticGraph,
        mirror: Vec<u32>,
        flip_rate: f64,
    },
}

/// Reusable per-round scratch of the dynamic path, shared across lanes —
/// each lane round overwrites it completely.
#[derive(Debug)]
struct DynScratch {
    /// Churn only: `up[i]` is whether base-list entry `i` is linked this
    /// round (self-entries always are).
    up: Vec<bool>,
    /// Churn only: the BFS state of the round's connectivity check.
    visited: Vec<bool>,
    stack: Vec<u32>,
    /// Delayed links only: one receiver's reachability row, `reach[s]`.
    reach: Vec<bool>,
}

#[derive(Debug)]
enum SharedKind {
    /// A static graph under a clean fault plan: the closed-form static
    /// exchange, one accounting line per receiver.
    Static(StaticGraph),
    /// The dynamic path: per-round graphs and/or per-link faults.
    Dynamic {
        graphs: DynGraphs,
        faults: CompiledLinkFaults,
        policy: DisconnectionPolicy,
        /// The largest compiled delay; 0 skips the pipe machinery entirely.
        max_delay: usize,
        scratch: DynScratch,
    },
}

/// The seed-independent structure of one network description, realized once
/// per batch and shared by every lane. The module documentation above
/// spells out what is shared and what stays lane-local.
#[derive(Debug)]
pub struct SharedRealization {
    n: usize,
    kind: SharedKind,
}

/// Seed-invariance of a topology description: everything but
/// [`Topology::RandomRegular`] realizes to the same graph under every seed.
fn topology_seed_invariant(topology: &Topology) -> bool {
    !matches!(topology, Topology::RandomRegular { .. })
}

fn schedule_seed_invariant(schedule: &TopologySchedule) -> bool {
    match schedule {
        TopologySchedule::Static(topology) => topology_seed_invariant(topology),
        TopologySchedule::Periodic { phases } => phases.iter().all(topology_seed_invariant),
        TopologySchedule::SeededChurn { base, .. } => topology_seed_invariant(base),
    }
}

/// Draws one lane round of churn over the base graph's edges into `up`:
/// each undirected link `a < b` is drawn once (a pure hash of
/// `(seed, round, a, b)`, so the visiting order is irrelevant) and both of
/// its list entries take the result.
fn draw_churn(
    base: &StaticGraph,
    mirror: &[u32],
    seed: u64,
    round: u64,
    flip_rate: f64,
    up: &mut [bool],
) {
    for a in 0..base.offsets.len() - 1 {
        for i in base.span(a) {
            let b = base.neighbors[i] as usize;
            if b == a {
                up[i] = true;
            } else if b > a {
                let linked = !churn_link_down(seed, round, a, b, flip_rate);
                up[i] = linked;
                up[mirror[i] as usize] = linked;
            }
        }
    }
}

/// Counts the connected components of the churned round graph — the base
/// lists filtered by `up` — the allocation-free equivalent of
/// [`Adjacency::component_count`] on it.
fn churn_components(
    base: &StaticGraph,
    up: &[bool],
    visited: &mut [bool],
    stack: &mut Vec<u32>,
) -> usize {
    visited.fill(false);
    let mut components = 0;
    for start in 0..visited.len() {
        if visited[start] {
            continue;
        }
        components += 1;
        visited[start] = true;
        stack.push(start as u32);
        while let Some(node) = stack.pop() {
            for i in base.span(node as usize) {
                let next = base.neighbors[i] as usize;
                if up[i] && !visited[next] {
                    visited[next] = true;
                    stack.push(next as u32);
                }
            }
        }
    }
    components
}

impl SharedRealization {
    /// Builds the shared structure for one network description, mirroring
    /// the lowering decisions of the scalar engine exactly: no schedule and
    /// a clean plan realize a static graph; a schedule whose per-round
    /// graphs cannot differ under a clean compiled plan lowers onto the
    /// static form; everything else takes the dynamic form.
    ///
    /// Returns `None` when the description is not shareable — a
    /// seed-dependent topology anywhere in it, or a description that fails
    /// to realize or compile (the caller's per-lane fallback reproduces the
    /// identical error per lane).
    #[must_use]
    pub fn try_build(
        n: usize,
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        link_faults: &LinkFaultPlan,
        policy: DisconnectionPolicy,
    ) -> Option<SharedRealization> {
        if schedule.is_none() && link_faults.is_clean() {
            if !topology_seed_invariant(topology) {
                return None;
            }
            let adjacency = topology.realize(n, 0).ok()?;
            return Some(SharedRealization {
                n,
                kind: SharedKind::Static(StaticGraph::new(&adjacency)),
            });
        }
        let implied;
        let schedule = match schedule {
            Some(schedule) => schedule,
            None => {
                implied = TopologySchedule::Static(topology.clone());
                &implied
            }
        };
        if !schedule_seed_invariant(schedule) {
            return None;
        }
        // Seed 0 stands in for every lane seed: the invariance check above
        // guarantees realization ignores it, and churn draws key on the
        // lane seed at exchange time, not here.
        let realized = schedule.realize(n, 0).ok()?;
        let faults = link_faults.compile(n).ok()?;
        if faults.is_clean() && !realized.is_dynamic() {
            let adjacency = realized.adjacency_at(Round::ZERO).into_owned();
            return Some(SharedRealization {
                n,
                kind: SharedKind::Static(StaticGraph::new(&adjacency)),
            });
        }
        let max_delay = faults.compiled_max_delay();
        let graphs = match realized.kind() {
            RealizedKind::Static(adjacency) => DynGraphs::Phases(vec![PhaseGraph::new(adjacency)]),
            RealizedKind::Periodic(phases) => {
                DynGraphs::Phases(phases.iter().map(PhaseGraph::new).collect())
            }
            // Frozen churn realizes the base every round.
            RealizedKind::Churn { base, flip_rate } if *flip_rate == 0.0 => {
                DynGraphs::Phases(vec![PhaseGraph::new(base)])
            }
            RealizedKind::Churn { base, flip_rate } => {
                let base = StaticGraph::new(base);
                DynGraphs::Churn {
                    mirror: base.mirrors(),
                    base,
                    flip_rate: *flip_rate,
                }
            }
        };
        let scratch = match &graphs {
            DynGraphs::Churn { base, .. } => DynScratch {
                up: vec![false; base.neighbors.len()],
                visited: vec![false; n],
                stack: Vec::with_capacity(n),
                reach: vec![false; n],
            },
            DynGraphs::Phases(_) => DynScratch {
                up: Vec::new(),
                visited: Vec::new(),
                stack: Vec::new(),
                reach: vec![false; n],
            },
        };
        Some(SharedRealization {
            n,
            kind: SharedKind::Dynamic {
                graphs,
                faults,
                policy,
                max_delay,
                scratch,
            },
        })
    }

    /// The number of processes every lane of this realization covers.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Creates the per-lane delivery state for one lane seed.
    #[must_use]
    pub fn lane(&self, seed: u64) -> LaneDelivery {
        let pipes = match &self.kind {
            SharedKind::Dynamic { max_delay, .. } if *max_delay > 0 => {
                vec![VecDeque::new(); self.n * self.n]
            }
            _ => Vec::new(),
        };
        LaneDelivery {
            seed,
            next_round: 0,
            pipes,
        }
    }

    /// Performs the send + receive phases of one lane's round, assembling
    /// the values delivered to every receiver whose `active` flag is set
    /// into `rows` — each row ascending, from one sort of the round's
    /// broadcasts (see [`DeliveryRows`]) — and accounting **all** `n²`
    /// slots into `stats` — delivered values, sender omissions,
    /// structural non-deliveries, link omissions/delays — with the exact
    /// counter semantics of the scalar [`SyncNetwork`](crate::SyncNetwork)
    /// exchange for the same lane-seeded configuration.
    ///
    /// `sends` classifies every sender; `outboxes` backs its
    /// [`LaneSend::PerReceiver`] entries (only those indices are read).
    ///
    /// # Errors
    ///
    /// Exactly as the scalar dynamic exchange: out-of-order rounds are
    /// rejected ([`Error::InvalidParameter`]) and a disconnected round
    /// under [`DisconnectionPolicy::Reject`] fails with
    /// [`Error::DisconnectedRound`]. Static realizations never fail.
    ///
    /// # Panics
    ///
    /// Panics if `sends` or `active` do not cover the universe.
    // The loops below walk receiver/sender indices into several parallel
    // flat n²-strided arrays at once; iterator zips would obscure the
    // statement-for-statement mirror of the scalar exchange.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    // mbaa: alloc-free
    pub fn exchange_rows(
        &mut self,
        lane: &mut LaneDelivery,
        round: Round,
        sends: &[LaneSend],
        outboxes: &[Outbox],
        active: &[bool],
        rows: &mut DeliveryRows,
        stats: &mut NetworkStats,
    ) -> Result<()> {
        let n = self.n;
        assert_eq!(sends.len(), n, "one send classification per process");
        assert_eq!(active.len(), n, "one active flag per process");
        rows.sort_broadcasts(sends);
        match &mut self.kind {
            SharedKind::Static(graph) => {
                stats.rounds += 1;
                for r in 0..n {
                    let receiver = ProcessId::new(r);
                    let row_active = active[r];
                    let hood = graph.closed_neighborhood(r);
                    let reachable = hood.len() as u64;
                    let mut delivered = 0u64;
                    for &s in hood {
                        let s = s as usize;
                        if let Some(value) = sends[s].slot(outboxes, receiver) {
                            delivered += 1;
                            if row_active {
                                rows.deliver(sends[s], s, value);
                            }
                        }
                    }
                    if row_active {
                        rows.push_row(r);
                    }
                    stats.messages_delivered += delivered;
                    stats.omissions += reachable - delivered;
                    stats.unreachable += n as u64 - reachable;
                }
                Ok(())
            }
            SharedKind::Dynamic {
                graphs,
                faults,
                policy,
                max_delay,
                scratch,
            } => {
                if round.index() != lane.next_round {
                    // mbaa: allow(hot-path/allocation, cold misuse error path)
                    return Err(Error::InvalidParameter(format!(
                        "a dynamic network exchanges rounds in order: expected r{}, got {round} \
                         (delay buffers advance once per round)",
                        lane.next_round
                    )));
                }
                lane.next_round += 1;
                let seed = lane.seed;
                let DynScratch {
                    up,
                    visited,
                    stack,
                    reach,
                } = scratch;

                // Resolve the round's graph — neighbour lists, plus under
                // churn the round's `up` flags over them — and its
                // connectivity. Phases were precomputed at build; churn
                // redraws its base edges from the lane seed, exactly the
                // scalar draw stream.
                let (graph, up, connected, components) = match graphs {
                    DynGraphs::Phases(phases) => {
                        let phase = &phases[(round.index() % phases.len() as u64) as usize];
                        (&phase.graph, None, phase.connected, phase.components)
                    }
                    DynGraphs::Churn {
                        base,
                        mirror,
                        flip_rate,
                    } => {
                        draw_churn(base, mirror, seed, round.index(), *flip_rate, up);
                        let components = churn_components(base, up, visited, stack);
                        (&*base, Some(&up[..]), components == 1, components)
                    }
                };
                let linked = |i: usize| up.is_none_or(|up| up[i]);
                if !connected {
                    match policy {
                        DisconnectionPolicy::Reject => {
                            return Err(Error::DisconnectedRound { round, components });
                        }
                        DisconnectionPolicy::Record => stats.disconnected_rounds += 1,
                    }
                }

                if *max_delay == 0 {
                    // No link ever buffers: classify and account each slot
                    // immediately, walking only the round graph's lists.
                    for r in 0..n {
                        let receiver = ProcessId::new(r);
                        let row_active = active[r];
                        let span = graph.span(r);
                        stats.unreachable += (n - span.len()) as u64;
                        for i in span {
                            if !linked(i) {
                                stats.unreachable += 1;
                                continue;
                            }
                            let s = graph.neighbors[i] as usize;
                            let Some(value) = sends[s].slot(outboxes, receiver) else {
                                stats.omissions += 1;
                                continue;
                            };
                            if omission_lost(seed, round.index(), s, r, faults.omit_at(s, r)) {
                                stats.link_omissions += 1;
                                continue;
                            }
                            stats.messages_delivered += 1;
                            if row_active {
                                rows.deliver(sends[s], s, value);
                            }
                        }
                        if row_active {
                            rows.push_row(r);
                        }
                    }
                } else {
                    // Delayed links buffer every outcome — even structural
                    // ones — so all n² slots must be visited, mirroring the
                    // scalar dynamic loop statement for statement.
                    for r in 0..n {
                        let receiver = ProcessId::new(r);
                        let row_active = active[r];
                        reach.fill(false);
                        for i in graph.span(r) {
                            if linked(i) {
                                reach[graph.neighbors[i] as usize] = true;
                            }
                        }
                        for s in 0..n {
                            let delay = faults.delay_at(s, r);
                            let sent = if !reach[s] {
                                SendOutcome::Unreachable
                            } else {
                                match sends[s].slot(outboxes, receiver) {
                                    None => SendOutcome::SenderOmitted,
                                    Some(value) => {
                                        if omission_lost(
                                            seed,
                                            round.index(),
                                            s,
                                            r,
                                            faults.omit_at(s, r),
                                        ) {
                                            SendOutcome::LinkOmitted
                                        } else {
                                            SendOutcome::Value(value)
                                        }
                                    }
                                }
                            };
                            let arrived = if delay == 0 {
                                Some(sent)
                            } else {
                                let pipe = &mut lane.pipes[s * n + r];
                                // mbaa: allow(hot-path/vec-growth, the pipe is popped whenever len > delay, so it holds at most delay + 1 entries after the first delay rounds)
                                pipe.push_back(sent);
                                if pipe.len() > delay {
                                    Some(pipe.pop_front().expect("pipe holds > delay entries"))
                                } else {
                                    None
                                }
                            };
                            match arrived {
                                Some(SendOutcome::Value(value)) => {
                                    stats.messages_delivered += 1;
                                    if delay > 0 {
                                        stats.link_delayed += 1;
                                    }
                                    if row_active {
                                        if delay == 0 {
                                            rows.deliver(sends[s], s, value);
                                        } else {
                                            // Sent in an earlier round: not
                                            // one of this round's ranks.
                                            rows.deliver_extra(value);
                                        }
                                    }
                                }
                                Some(SendOutcome::SenderOmitted) => stats.omissions += 1,
                                Some(SendOutcome::Unreachable) => stats.unreachable += 1,
                                Some(SendOutcome::LinkOmitted) => stats.link_omissions += 1,
                                None => stats.link_pending += 1,
                            }
                        }
                        if row_active {
                            rows.push_row(r);
                        }
                    }
                }
                stats.rounds += 1;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncNetwork;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn broadcast_sends(n: usize) -> Vec<LaneSend> {
        (0..n)
            .map(|i| LaneSend::Broadcast(Value::new(i as f64)))
            .collect()
    }

    fn broadcast_outboxes(n: usize) -> Vec<Outbox> {
        (0..n)
            .map(|i| Outbox::broadcast(n, pid(i), Value::new(i as f64)))
            .collect()
    }

    /// A mixed send phase full of ties: broadcasters whose values repeat
    /// (signed zeros included), silent senders, and per-receiver senders
    /// whose slots vary and sometimes omit — with the matching outboxes
    /// the scalar network takes.
    fn mixed_sends(n: usize) -> (Vec<LaneSend>, Vec<Outbox>) {
        let tie = |i: usize| Value::new([-0.0, 1.0, 0.0, -2.0][i % 4]);
        (0..n)
            .map(|i| match i % 5 {
                1 => (LaneSend::Silent, Outbox::silent(n, pid(i))),
                3 => {
                    let slots = (0..n).map(|r| (r % 3 != 0).then(|| tie(r + i))).collect();
                    (
                        LaneSend::PerReceiver(i),
                        Outbox::per_receiver(pid(i), slots),
                    )
                }
                _ => (
                    LaneSend::Broadcast(tie(i)),
                    Outbox::broadcast(n, pid(i), tie(i)),
                ),
            })
            .unzip()
    }

    /// Runs `rounds` rounds through both the scalar network and the shared
    /// realization, under both a plain broadcast send phase and a mixed
    /// one, and asserts that every row is the receiver's scalar multiset,
    /// ascending, and that the stats are identical.
    fn assert_matches_scalar(
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        plan: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        n: usize,
        seed: u64,
        rounds: u64,
    ) {
        for (sends, outboxes) in [(broadcast_sends(n), broadcast_outboxes(n)), mixed_sends(n)] {
            let mut scalar = if schedule.is_none() && plan.is_clean() {
                SyncNetwork::with_topology(topology.realize(n, seed).unwrap())
            } else {
                let desc = schedule
                    .cloned()
                    .unwrap_or_else(|| TopologySchedule::Static(topology.clone()));
                SyncNetwork::with_dynamics(desc.realize(n, seed).unwrap(), plan, policy, seed)
                    .unwrap()
            }
            .with_trace_recording(false);
            let mut shared = SharedRealization::try_build(n, topology, schedule, plan, policy)
                .expect("description is shareable");
            let mut lane = shared.lane(seed);
            let mut rows = DeliveryRows::new(n);
            let mut stats = NetworkStats::new();
            let active = vec![true; n];
            for round in 0..rounds {
                let round = Round::new(round);
                let deliveries = scalar.exchange(round, outboxes.clone()).unwrap();
                shared
                    .exchange_rows(
                        &mut lane, round, &sends, &outboxes, &active, &mut rows, &mut stats,
                    )
                    .unwrap();
                assert_eq!(rows.rows(), n);
                for row in 0..rows.rows() {
                    let r = rows.receiver(row);
                    let mut scalar_row: Vec<Value> =
                        deliveries[r].iter().filter_map(|(_, v)| v).collect();
                    scalar_row.sort_unstable();
                    assert_eq!(rows.row(row), &scalar_row[..], "round {round} receiver {r}");
                }
            }
            assert_eq!(stats, scalar.stats());
        }
    }

    #[test]
    fn merges_interleave_and_keep_prefix_ties_first() {
        let v = |x: f64| Value::new(x);
        let mut out = [v(0.0); 6];
        merge_sorted(
            &[v(1.0), v(3.0), v(5.0)],
            &[v(0.0), v(3.0), v(9.0)],
            &mut out,
        );
        assert_eq!(out, [v(0.0), v(1.0), v(3.0), v(3.0), v(5.0), v(9.0)]);
        let mut row = [v(1.0), v(3.0), v(5.0), v(0.0), v(0.0), v(0.0)];
        merge_in_place(&mut row, &[v(0.0), v(3.0), v(9.0)]);
        assert_eq!(row, [v(0.0), v(1.0), v(3.0), v(3.0), v(5.0), v(9.0)]);
        let mut only_extras = [v(0.0); 2];
        merge_in_place(&mut only_extras, &[v(-1.0), v(2.0)]);
        assert_eq!(only_extras, [v(-1.0), v(2.0)]);
    }

    #[test]
    fn static_masked_delivery_matches_scalar() {
        assert_matches_scalar(
            &Topology::Ring { k: 2 },
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            9,
            3,
            5,
        );
    }

    #[test]
    fn complete_delivery_matches_scalar() {
        assert_matches_scalar(
            &Topology::Complete,
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            7,
            1,
            4,
        );
    }

    #[test]
    fn churned_delivery_replays_the_lane_draw_stream() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.4,
        };
        for seed in [2, 9, 40] {
            assert_matches_scalar(
                &Topology::Complete,
                Some(&schedule),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                8,
                seed,
                12,
            );
        }
    }

    #[test]
    fn churned_partial_bases_match_scalar() {
        // A churn base with missing links: draws run over the base's
        // neighbour lists only, and both entries of a link share a draw.
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Ring { k: 2 },
            flip_rate: 0.3,
        };
        for seed in [1, 4] {
            for plan in [
                LinkFaultPlan::new(),
                LinkFaultPlan::new().omit_all(0.2).delay(1, 2, 2),
            ] {
                assert_matches_scalar(
                    &Topology::Complete,
                    Some(&schedule),
                    &plan,
                    DisconnectionPolicy::Record,
                    12,
                    seed,
                    10,
                );
            }
        }
    }

    #[test]
    fn rejected_churn_rounds_report_the_scalar_component_count() {
        let n = 12;
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Ring { k: 2 },
            flip_rate: 0.35,
        };
        let plan = LinkFaultPlan::new();
        let mut rejected = 0;
        for seed in 0..8 {
            let mut scalar = SyncNetwork::with_dynamics(
                schedule.realize(n, seed).unwrap(),
                &plan,
                DisconnectionPolicy::Reject,
                seed,
            )
            .unwrap()
            .with_trace_recording(false);
            let mut shared = SharedRealization::try_build(
                n,
                &Topology::Complete,
                Some(&schedule),
                &plan,
                DisconnectionPolicy::Reject,
            )
            .unwrap();
            let mut lane = shared.lane(seed);
            let mut rows = DeliveryRows::new(n);
            let mut stats = NetworkStats::new();
            for round in 0..20 {
                let round = Round::new(round);
                let expected = scalar
                    .exchange(round, broadcast_outboxes(n))
                    .map(|_| ())
                    .map_err(|e| e.to_string());
                let got = shared
                    .exchange_rows(
                        &mut lane,
                        round,
                        &broadcast_sends(n),
                        &broadcast_outboxes(n),
                        &vec![true; n],
                        &mut rows,
                        &mut stats,
                    )
                    .map_err(|e| e.to_string());
                assert_eq!(got, expected, "seed {seed} {round}");
                if got.is_err() {
                    rejected += 1;
                    break;
                }
            }
        }
        assert!(rejected > 0, "no seed produced a disconnected round");
    }

    #[test]
    fn periodic_phases_match_scalar() {
        let schedule = TopologySchedule::Periodic {
            phases: vec![Topology::Ring { k: 2 }, Topology::Complete],
        };
        assert_matches_scalar(
            &Topology::Complete,
            Some(&schedule),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            9,
            5,
            6,
        );
    }

    #[test]
    fn lossy_and_delayed_links_match_scalar() {
        let plan = LinkFaultPlan::new().omit_all(0.3).delay(0, 1, 2);
        for seed in [7, 11] {
            assert_matches_scalar(
                &Topology::Complete,
                None,
                &plan,
                DisconnectionPolicy::Record,
                6,
                seed,
                10,
            );
        }
    }

    #[test]
    fn random_regular_is_not_shareable() {
        assert!(SharedRealization::try_build(
            10,
            &Topology::RandomRegular { degree: 4 },
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
        )
        .is_none());
        let churned = TopologySchedule::SeededChurn {
            base: Topology::RandomRegular { degree: 4 },
            flip_rate: 0.2,
        };
        assert!(SharedRealization::try_build(
            10,
            &Topology::Complete,
            Some(&churned),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
        )
        .is_none());
    }

    #[test]
    fn rejecting_policy_fails_disconnected_rounds_like_scalar() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 1.0,
        };
        let mut shared = SharedRealization::try_build(
            3,
            &Topology::Complete,
            Some(&schedule),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Reject,
        )
        .unwrap();
        let mut lane = shared.lane(0);
        let mut rows = DeliveryRows::new(3);
        let mut stats = NetworkStats::new();
        let err = shared
            .exchange_rows(
                &mut lane,
                Round::ZERO,
                &broadcast_sends(3),
                &broadcast_outboxes(3),
                &[true; 3],
                &mut rows,
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedRound { components: 3, .. }
        ));
    }

    #[test]
    fn dynamic_rounds_must_arrive_in_order() {
        let plan = LinkFaultPlan::new().delay(0, 1, 1);
        let mut shared = SharedRealization::try_build(
            3,
            &Topology::Complete,
            None,
            &plan,
            DisconnectionPolicy::Record,
        )
        .unwrap();
        let mut lane = shared.lane(0);
        let mut rows = DeliveryRows::new(3);
        let mut stats = NetworkStats::new();
        let err = shared
            .exchange_rows(
                &mut lane,
                Round::new(2),
                &broadcast_sends(3),
                &broadcast_outboxes(3),
                &[true; 3],
                &mut rows,
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn inactive_receivers_are_accounted_but_not_collected() {
        let mut shared = SharedRealization::try_build(
            4,
            &Topology::Complete,
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
        )
        .unwrap();
        let mut lane = shared.lane(0);
        let mut rows = DeliveryRows::new(4);
        let mut stats = NetworkStats::new();
        let mut active = vec![true; 4];
        active[1] = false;
        shared
            .exchange_rows(
                &mut lane,
                Round::ZERO,
                &broadcast_sends(4),
                &broadcast_outboxes(4),
                &active,
                &mut rows,
                &mut stats,
            )
            .unwrap();
        assert_eq!(rows.rows(), 3);
        assert_eq!(
            (0..rows.rows())
                .map(|i| rows.receiver(i))
                .collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        // All 16 slots are accounted regardless of who computes.
        assert_eq!(stats.messages_delivered, 16);
        assert_eq!(rows.uniform_len(), Some(4));
        assert_eq!(rows.min_len(), Some(4));
    }
}
