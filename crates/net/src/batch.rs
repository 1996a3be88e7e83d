//! Shared-realization batch delivery: one structural network realization
//! serving many lanes (seeds) of the same configuration shape.
//!
//! The scalar [`SyncNetwork`](crate::SyncNetwork) bundles three things per
//! run: the *structure* (realized graphs, compiled link-fault matrices,
//! connectivity precomputation), the *per-seed draw streams* (churn and
//! omission draws keyed on the run seed), and the *per-run delivery state*
//! (delay pipes, round cursor, statistics). Only the first is shared across
//! the lanes of a batch — and it is by far the most expensive to build.
//!
//! [`SharedRealization`] splits the bundle: it holds the structure once per
//! batch (every graph as per-receiver sender bitmask rows, compiled fault
//! matrices, per-phase connectivity) plus reusable round scratch, while
//! each lane carries only a tiny [`LaneDelivery`] (seed, round cursor,
//! delay pipes when the plan needs them). A lane round is served by
//! [`SharedRealization::exchange_rows`], which classifies and accounts
//! every slot exactly as the scalar exchange would — same statistics
//! counters, same omission/churn draw streams, same delay buffering — but
//! assembles each active receiver's delivered values, already sorted, into
//! packed [`DeliveryRows`] instead of an `n × n` slot matrix, skipping the
//! quadratic outbox materialization for broadcasting senders via
//! [`LaneSend`] classification.
//!
//! The unmasked complete graph under a clean plan — the configuration
//! every paper table sweeps — needs no mask at all: every row takes every
//! broadcast, and traffic is accounted in closed form. Every other stage
//! of a lane round is a walk over `⌈n/64⌉`-word masks: row `r` of a graph
//! has bit `s` set when `r` hears `s` (itself included). The round's
//! broadcast values are sorted once and their senders form a broadcaster
//! mask; a receiver's row ANDed with it yields the ranks it received, and
//! the rest of the row names the few silent or per-receiver senders (see
//! [`DeliveryRows`]). Without delayed links the same walk serves static
//! graphs, periodic phases and churn, drawing link omissions per delivered
//! message when the plan is lossy.
//!
//! [`SharedRealization::build`] realizes a description under one seed. A
//! [`Topology::RandomRegular`] graph (static, a periodic phase, or a churn
//! base) realizes differently per seed, so its lanes need one realization
//! per seed ([`SharedRealization::realizes_per_seed`]); every other
//! description realizes identically under every seed, and
//! [`SharedRealization::try_build`] builds those once for all lanes.
//! Seeded churn *is* shareable: the base graph is realized once into mask
//! rows, each lane round copies them and clears the links whose
//! per-`(seed, round, link)` draw comes up down — the same draw stream as
//! the scalar path, bit for bit — and a bitset flood counts the round
//! graph's components.

use std::collections::VecDeque;

use mbaa_types::{Error, ProcessId, Result, Round, Value};

use crate::faults::{churn_draws, omission_lost, RealizedKind};
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
/// `Silent` for a `fill_silent` one, and `PerReceiver` borrows the outbox
/// of one of the few genuinely per-receiver senders (adversary outboxes,
/// poisoned queues).
#[derive(Debug, Clone, Copy)]
pub enum LaneSend<'a> {
    /// The sender broadcasts one value to every receiver (itself included).
    Broadcast(Value),
    /// The sender omits to every receiver.
    Silent,
    /// The sender's slots come from this outbox.
    PerReceiver(&'a Outbox),
}

impl LaneSend<'_> {
    /// The value this sender puts on its link to `receiver`.
    #[inline]
    fn slot(self, receiver: ProcessId) -> Option<Value> {
        match self {
            LaneSend::Broadcast(value) => Some(value),
            LaneSend::Silent => None,
            LaneSend::PerReceiver(outbox) => outbox.get(receiver),
        }
    }
}

/// Calls `f` with the index of every set bit of `word`, ascending, where
/// `word` is word `w` of a bitset.
#[inline]
fn for_each_bit(w: usize, mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(w * 64 + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Packed per-receiver delivery rows of one lane round, assembled already
/// sorted: row `i` holds the values delivered to the `i`-th *active*
/// receiver, ascending, back to back in one flat buffer sized once at `n²`.
///
/// A lane round sorts its broadcasting senders' values **once**:
/// `sorted[pos]` holds them ascending, `rank[sender]` is each
/// broadcaster's position, and the broadcasters form an `n/64`-word sender
/// mask. A receiver's row is that buffer filtered by the broadcasts the
/// receiver actually got — its graph row ANDed with the broadcaster mask,
/// each sender's bit moved to its rank in a second bitset that is walked
/// in order — merged with its few other deliveries ("extras": per-receiver
/// slots and delayed arrivals), which are sorted on their own. On the
/// unmasked complete graph every row takes every broadcast, so the whole
/// buffer is merged, without a bitset.
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
    /// The round's broadcasters as a sender mask.
    broadcasters: Vec<u64>,
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
            broadcasters: vec![0; n.div_ceil(64)],
            bits: vec![0; n.div_ceil(64)],
            extras: vec![Value::ZERO; n],
            extras_len: 0,
        }
    }

    /// Starts a lane round: clears the arena, classifies senders `0..n`
    /// through `send`, and sorts the broadcasters' values once for every
    /// row of the round, recording each broadcaster's rank and the
    /// broadcaster mask.
    // mbaa: alloc-free
    fn sort_broadcasts<'a>(&mut self, n: usize, send: impl Fn(usize) -> LaneSend<'a>) {
        self.clear();
        self.broadcasters.fill(0);
        let mut len = 0;
        for s in 0..n {
            if let LaneSend::Broadcast(value) = send(s) {
                self.ranked[len] = (value, s as u32);
                self.broadcasters[s / 64] |= 1 << (s % 64);
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

    /// Marks the broadcast of `sender` as delivered to the row being
    /// assembled.
    #[inline]
    fn mark(&mut self, sender: usize) {
        let pos = self.rank[sender] as usize;
        self.bits[pos / 64] |= 1 << (pos % 64);
    }

    /// Adds `value`, delivered from `sender` this round, to the row being
    /// assembled: a broadcast by its rank bit, anything else as an extra.
    #[inline]
    fn deliver(&mut self, send: LaneSend<'_>, sender: usize, value: Value) {
        if let LaneSend::Broadcast(_) = send {
            self.mark(sender);
        } else {
            self.deliver_extra(value);
        }
    }

    /// Adds a value that is not one of the round's ranked broadcasts — a
    /// per-receiver slot or a delayed arrival — to the row being assembled.
    #[inline]
    fn deliver_extra(&mut self, value: Value) {
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
            for_each_bit(w, std::mem::take(word), |pos| {
                self.merged[start + len] = self.sorted[pos];
                len += 1;
            });
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
    fn push_full_row(&mut self, receiver: usize) {
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

/// One graph as per-receiver sender bitmask rows: `words = ⌈n/64⌉` words
/// per receiver, bit `s` of row `r` set when `r` hears `s` (itself
/// included). Graphs here are symmetric, so row `r` is also `r`'s
/// neighbourhood.
#[derive(Debug, Clone)]
struct MaskRows {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl MaskRows {
    fn new(adjacency: &Adjacency) -> Self {
        let n = adjacency.n();
        let words = n.div_ceil(64);
        let mut bits = vec![0; n * words];
        for r in 0..n {
            for (s, &linked) in adjacency.row(ProcessId::new(r)).iter().enumerate() {
                if linked {
                    bits[r * words + s / 64] |= 1 << (s % 64);
                }
            }
        }
        MaskRows { n, words, bits }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    fn hears(&self, r: usize, s: usize) -> bool {
        self.bits[r * self.words + s / 64] >> (s % 64) & 1 == 1
    }
}

/// One phase of a dynamic schedule, with its connectivity precomputed once
/// per batch instead of once per lane round.
#[derive(Debug)]
struct PhaseGraph {
    graph: MaskRows,
    components: usize,
}

/// The per-round graph rule of a shared dynamic realization.
#[derive(Debug)]
enum DynGraphs {
    /// Round `r` uses `phases[r % phases.len()]` — static graphs are the
    /// single-phase case.
    Phases(Vec<PhaseGraph>),
    /// Round-indexed churn over a shared base; the per-`(seed, round,
    /// link)` down-draws are replayed per lane over the base's links only.
    Churn {
        base: MaskRows,
        flip_rate: f64,
        /// Scratch, overwritten every lane round: the churned round graph
        /// and the state of its connectivity flood.
        graph: MaskRows,
        visited: Vec<u64>,
        stack: Vec<u32>,
    },
}

#[derive(Debug)]
enum SharedKind {
    /// The unmasked complete graph under a clean fault plan: every
    /// broadcast reaches every receiver. `specials` is round scratch: the
    /// senders with per-receiver outboxes.
    Complete { specials: Vec<usize> },
    /// Any other static graph under a clean fault plan: no round cursor,
    /// no connectivity check.
    Static(MaskRows),
    /// The dynamic path: per-round graphs and/or per-link faults.
    Dynamic {
        graphs: DynGraphs,
        faults: CompiledLinkFaults,
        policy: DisconnectionPolicy,
        /// The largest compiled delay; 0 skips the pipe machinery entirely.
        max_delay: usize,
    },
}

impl SharedKind {
    fn complete(n: usize) -> Self {
        SharedKind::Complete {
            specials: vec![0; n],
        }
    }

    /// A static graph, lowered exactly as
    /// [`SyncNetwork::with_topology`](crate::SyncNetwork::with_topology)
    /// lowers it: a complete adjacency takes the unmasked path.
    fn fixed(adjacency: &Adjacency) -> Self {
        if adjacency.is_complete() {
            Self::complete(adjacency.n())
        } else {
            SharedKind::Static(MaskRows::new(adjacency))
        }
    }
}

/// The structure of one network description realized under one seed,
/// shared by every lane that realizes it identically. The module
/// documentation above spells out what is shared and what stays
/// lane-local.
#[derive(Debug)]
pub struct SharedRealization {
    n: usize,
    kind: SharedKind,
}

/// Draws one lane round of churn into `graph`: the base rows, less every
/// link `a — b` whose draw comes up down. Each undirected link is drawn
/// once, from its lower end (a pure hash of `(seed, round, a, b)`, so the
/// visiting order is irrelevant), and cleared from both rows.
// mbaa: alloc-free
fn draw_churn(base: &MaskRows, graph: &mut MaskRows, seed: u64, round: u64, flip_rate: f64) {
    graph.bits.copy_from_slice(&base.bits);
    let words = base.words;
    for a in 0..base.n {
        let down = churn_draws(seed, round, a, flip_rate);
        let (aw, abit) = (a / 64, 1u64 << (a % 64));
        for w in aw..words {
            let mut above = base.bits[a * words + w];
            if w == aw {
                above &= (!0 << (a % 64)) << 1;
            }
            let mut dropped = 0;
            for_each_bit(w, above, |b| {
                if down(b) {
                    dropped |= 1 << (b % 64);
                }
            });
            graph.bits[a * words + w] &= !dropped;
            for_each_bit(w, dropped, |b| graph.bits[b * words + aw] &= !abit);
        }
    }
}

/// Counts the connected components of the symmetric `graph` — a flood from
/// every process not yet reached, each step taking `row & !visited` — the
/// allocation-free equivalent of [`Adjacency::component_count`] on it.
// mbaa: alloc-free
fn count_components(graph: &MaskRows, visited: &mut [u64], stack: &mut [u32]) -> usize {
    visited.fill(0);
    let mut components = 0;
    for start in 0..graph.n {
        if visited[start / 64] >> (start % 64) & 1 == 1 {
            continue;
        }
        components += 1;
        visited[start / 64] |= 1 << (start % 64);
        stack[0] = start as u32;
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let node = stack[top] as usize;
            for (w, (&row, seen)) in graph.row(node).iter().zip(visited.iter_mut()).enumerate() {
                let reached = row & !*seen;
                *seen |= reached;
                for_each_bit(w, reached, |next| {
                    stack[top] = next as u32;
                    top += 1;
                });
            }
        }
    }
    components
}

/// The seed-keyed omission draws of a lossy plan in one lane round.
#[derive(Clone, Copy)]
struct Losses<'a> {
    faults: &'a CompiledLinkFaults,
    seed: u64,
    round: u64,
}

impl Losses<'_> {
    fn lost(self, s: usize, r: usize) -> bool {
        omission_lost(self.seed, self.round, s, r, self.faults.omit_at(s, r))
    }
}

/// The delivery walk of one round graph without delay pipes, shared by
/// static graphs, periodic phases and churn. Receiver `r`'s graph row
/// ANDed with the broadcaster mask names the broadcasts it hears — marked
/// by rank and counted by popcount, or drawn one by one against `losses`
/// under a lossy plan — and the rest of the row the few silent or
/// per-receiver senders, whose slots are read one by one. Accounting
/// follows the scalar exchange exactly.
// mbaa: alloc-free
fn deliver_masked<'a>(
    graph: &MaskRows,
    losses: Option<Losses<'_>>,
    send: impl Fn(usize) -> LaneSend<'a>,
    active: &[bool],
    rows: &mut DeliveryRows,
    stats: &mut NetworkStats,
) {
    let n = active.len();
    for (r, &row_active) in active.iter().enumerate() {
        let receiver = ProcessId::new(r);
        let lost = |s: usize| losses.is_some_and(|losses| losses.lost(s, r));
        let (mut heard, mut marked, mut dropped_total) = (0, 0, 0);
        for (w, &word) in graph.row(r).iter().enumerate() {
            // Sparse graphs leave most words of a row empty.
            if word == 0 {
                continue;
            }
            heard += word.count_ones();
            let broadcasts = word & rows.broadcasters[w];
            let mut dropped = 0;
            if losses.is_some() {
                for_each_bit(w, broadcasts, |s| {
                    if lost(s) {
                        dropped |= 1 << (s % 64);
                    }
                });
            }
            let delivered = broadcasts & !dropped;
            marked += delivered.count_ones();
            dropped_total += dropped.count_ones();
            if row_active {
                for_each_bit(w, delivered, |s| rows.mark(s));
            }
            for_each_bit(w, word & !rows.broadcasters[w], |s| {
                match send(s).slot(receiver) {
                    None => stats.omissions += 1,
                    Some(_) if lost(s) => stats.link_omissions += 1,
                    Some(value) => {
                        stats.messages_delivered += 1;
                        if row_active {
                            rows.deliver_extra(value);
                        }
                    }
                }
            });
        }
        stats.messages_delivered += u64::from(marked);
        stats.link_omissions += u64::from(dropped_total);
        stats.unreachable += n as u64 - u64::from(heard);
        if row_active {
            rows.push_row(r);
        }
    }
}

/// The delivery of the unmasked complete graph: every broadcast reaches
/// every receiver, so an active receiver's row is the round's whole sorted
/// buffer merged with its per-receiver slots. Traffic is accounted in
/// closed form — a broadcast delivers to all `n` receivers, a per-receiver
/// outbox to its `Some` slots, and every other slot is a sender omission —
/// matching the scalar exchange's counters exactly.
// mbaa: alloc-free
fn deliver_full<'a>(
    specials: &mut [usize],
    send: impl Fn(usize) -> LaneSend<'a>,
    active: &[bool],
    rows: &mut DeliveryRows,
    stats: &mut NetworkStats,
) {
    let n = active.len();
    let mut delivered = (rows.broadcasts * n) as u64;
    let mut specials_len = 0;
    for s in 0..n {
        if let LaneSend::PerReceiver(outbox) = send(s) {
            specials[specials_len] = s;
            specials_len += 1;
            delivered += outbox.iter().filter(|(_, slot)| slot.is_some()).count() as u64;
        }
    }
    stats.messages_delivered += delivered;
    stats.omissions += (n * n) as u64 - delivered;
    for (r, &row_active) in active.iter().enumerate() {
        if !row_active {
            continue;
        }
        let receiver = ProcessId::new(r);
        for &s in &specials[..specials_len] {
            if let Some(value) = send(s).slot(receiver) {
                rows.deliver_extra(value);
            }
        }
        rows.push_full_row(r);
    }
}

impl SharedRealization {
    /// Realizes one network description under `seed`, mirroring the
    /// lowering decisions of the scalar engine exactly: no schedule and a
    /// clean plan realize a static graph; a schedule whose per-round
    /// graphs cannot differ under a clean compiled plan lowers onto the
    /// static form; everything else takes the dynamic form. A complete
    /// static graph takes the unmasked path, as in the scalar network.
    ///
    /// The seed matters only where the description
    /// [realizes per seed](SharedRealization::realizes_per_seed); churn
    /// and omission draws key on each lane's own seed at exchange time.
    ///
    /// # Errors
    ///
    /// Exactly the error the scalar engine's network lowering returns for
    /// the same description and seed: a topology or schedule that fails
    /// to realize, or a link-fault plan that fails to compile.
    pub fn build(
        n: usize,
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        link_faults: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        seed: u64,
    ) -> Result<SharedRealization> {
        if schedule.is_none() && link_faults.is_clean() {
            let kind = match topology {
                Topology::Complete => SharedKind::complete(n),
                partial => SharedKind::fixed(&partial.realize(n, seed)?),
            };
            return Ok(SharedRealization { n, kind });
        }
        let implied;
        let schedule = match schedule {
            Some(schedule) => schedule,
            None => {
                implied = TopologySchedule::Static(topology.clone());
                &implied
            }
        };
        let realized = schedule.realize(n, seed)?;
        let faults = link_faults.compile(n)?;
        if faults.is_clean() && !realized.is_dynamic() {
            let kind = SharedKind::fixed(&realized.adjacency_at(Round::ZERO));
            return Ok(SharedRealization { n, kind });
        }
        let max_delay = faults.compiled_max_delay();
        let phase = |adjacency: &Adjacency| PhaseGraph {
            graph: MaskRows::new(adjacency),
            components: adjacency.component_count(),
        };
        let graphs = match realized.kind() {
            RealizedKind::Static(adjacency) => DynGraphs::Phases(vec![phase(adjacency)]),
            RealizedKind::Periodic(phases) => DynGraphs::Phases(phases.iter().map(phase).collect()),
            // Frozen churn realizes the base every round.
            RealizedKind::Churn { base, flip_rate } if *flip_rate == 0.0 => {
                DynGraphs::Phases(vec![phase(base)])
            }
            RealizedKind::Churn { base, flip_rate } => {
                let base = MaskRows::new(base);
                DynGraphs::Churn {
                    graph: base.clone(),
                    visited: vec![0; base.words],
                    stack: vec![0; n],
                    base,
                    flip_rate: *flip_rate,
                }
            }
        };
        Ok(SharedRealization {
            n,
            kind: SharedKind::Dynamic {
                graphs,
                faults,
                policy,
                max_delay,
            },
        })
    }

    /// Builds a realization that every lane seed shares: `None` when the
    /// description [realizes per seed](SharedRealization::realizes_per_seed)
    /// or fails to [build](SharedRealization::build).
    #[must_use]
    pub fn try_build(
        n: usize,
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        link_faults: &LinkFaultPlan,
        policy: DisconnectionPolicy,
    ) -> Option<SharedRealization> {
        if Self::realizes_per_seed(topology, schedule) {
            return None;
        }
        Self::build(n, topology, schedule, link_faults, policy, 0).ok()
    }

    /// Whether the description realizes a different graph per seed: a
    /// [`Topology::RandomRegular`] as the static graph (the `topology` when
    /// there is no schedule), a periodic phase, or a churn base. Every
    /// other description realizes identically under every seed.
    #[must_use]
    pub fn realizes_per_seed(topology: &Topology, schedule: Option<&TopologySchedule>) -> bool {
        let seeded = |topology: &Topology| matches!(topology, Topology::RandomRegular { .. });
        match schedule {
            None => seeded(topology),
            Some(TopologySchedule::Static(topology)) => seeded(topology),
            Some(TopologySchedule::Periodic { phases }) => phases.iter().any(seeded),
            Some(TopologySchedule::SeededChurn { base, .. }) => seeded(base),
        }
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
    /// `send(s)` classifies sender `s`, for every `s < n`; it is called
    /// whenever the exchange reads a sender, so it should be cheap.
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
    /// Panics if `active` does not cover the universe.
    // The delayed loop walks receiver/sender indices into several flat
    // n²-strided arrays at once, mirroring the scalar exchange.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    // mbaa: alloc-free
    pub fn exchange_rows<'a>(
        &mut self,
        lane: &mut LaneDelivery,
        round: Round,
        send: impl Fn(usize) -> LaneSend<'a>,
        active: &[bool],
        rows: &mut DeliveryRows,
        stats: &mut NetworkStats,
    ) -> Result<()> {
        let n = self.n;
        assert_eq!(active.len(), n, "one active flag per process");
        rows.sort_broadcasts(n, &send);
        let (graphs, faults, policy, max_delay) = match &mut self.kind {
            SharedKind::Complete { specials } => {
                deliver_full(specials, &send, active, rows, stats);
                stats.rounds += 1;
                return Ok(());
            }
            SharedKind::Static(graph) => {
                deliver_masked(graph, None, &send, active, rows, stats);
                stats.rounds += 1;
                return Ok(());
            }
            SharedKind::Dynamic {
                graphs,
                faults,
                policy,
                max_delay,
            } => (graphs, &*faults, *policy, *max_delay),
        };
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

        // Resolve the round's graph and its connectivity. Phases were
        // precomputed at build; churn redraws its base links from the lane
        // seed, exactly the scalar draw stream.
        let (graph, components) = match graphs {
            DynGraphs::Phases(phases) => {
                let phase = &phases[(round.index() % phases.len() as u64) as usize];
                (&phase.graph, phase.components)
            }
            DynGraphs::Churn {
                base,
                flip_rate,
                graph,
                visited,
                stack,
            } => {
                draw_churn(base, graph, seed, round.index(), *flip_rate);
                let components = count_components(graph, visited, stack);
                (&*graph, components)
            }
        };
        if components != 1 {
            match policy {
                DisconnectionPolicy::Reject => {
                    return Err(Error::DisconnectedRound { round, components });
                }
                DisconnectionPolicy::Record => stats.disconnected_rounds += 1,
            }
        }

        if max_delay == 0 {
            let losses = faults.lossy().then_some(Losses {
                faults,
                seed,
                round: round.index(),
            });
            deliver_masked(graph, losses, &send, active, rows, stats);
            stats.rounds += 1;
            return Ok(());
        }
        // Delayed links buffer every outcome — even structural ones — so
        // all n² slots must be visited, mirroring the scalar dynamic loop
        // statement for statement.
        for r in 0..n {
            let receiver = ProcessId::new(r);
            let row_active = active[r];
            for s in 0..n {
                let delay = faults.delay_at(s, r);
                let sending = send(s);
                let sent = if !graph.hears(r, s) {
                    SendOutcome::Unreachable
                } else {
                    match sending.slot(receiver) {
                        None => SendOutcome::SenderOmitted,
                        Some(value) => {
                            if omission_lost(seed, round.index(), s, r, faults.omit_at(s, r)) {
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
                                rows.deliver(sending, s, value);
                            } else {
                                // Sent in an earlier round: not one of this
                                // round's ranks.
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
        stats.rounds += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncNetwork;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn broadcast_send(s: usize) -> LaneSend<'static> {
        LaneSend::Broadcast(Value::new(s as f64))
    }

    fn broadcast_outboxes(n: usize) -> Vec<Outbox> {
        (0..n)
            .map(|i| Outbox::broadcast(n, pid(i), Value::new(i as f64)))
            .collect()
    }

    /// A mixed send phase full of ties: broadcasters whose values repeat
    /// (signed zeros included), silent senders, and per-receiver senders
    /// whose slots vary and sometimes omit — as the outboxes the scalar
    /// network takes.
    fn mixed_outboxes(n: usize) -> Vec<Outbox> {
        let tie = |i: usize| Value::new([-0.0, 1.0, 0.0, -2.0][i % 4]);
        (0..n)
            .map(|i| match i % 5 {
                1 => Outbox::silent(n, pid(i)),
                3 => {
                    let slots = (0..n).map(|r| (r % 3 != 0).then(|| tie(r + i))).collect();
                    Outbox::per_receiver(pid(i), slots)
                }
                _ => Outbox::broadcast(n, pid(i), tie(i)),
            })
            .collect()
    }

    /// The batched classification of a send phase given as outboxes.
    fn lane_sends(outboxes: &[Outbox]) -> Vec<LaneSend<'_>> {
        outboxes
            .iter()
            .map(|outbox| match outbox.get(pid(0)) {
                Some(value) if outbox.is_uniform() => LaneSend::Broadcast(value),
                _ if outbox.is_silent() => LaneSend::Silent,
                _ => LaneSend::PerReceiver(outbox),
            })
            .collect()
    }

    /// Runs `rounds` rounds through both the scalar network and the
    /// realization built under `seed`, under both a plain broadcast send
    /// phase and a mixed one, and asserts that every row is the receiver's
    /// scalar multiset, ascending, and that the stats are identical.
    fn assert_matches_scalar(
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        plan: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        n: usize,
        seed: u64,
        rounds: u64,
    ) {
        for outboxes in [broadcast_outboxes(n), mixed_outboxes(n)] {
            let sends = lane_sends(&outboxes);
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
            let mut shared =
                SharedRealization::build(n, topology, schedule, plan, policy, seed).unwrap();
            let mut lane = shared.lane(seed);
            let mut rows = DeliveryRows::new(n);
            let mut stats = NetworkStats::new();
            let active = vec![true; n];
            for round in 0..rounds {
                let round = Round::new(round);
                let deliveries = scalar.exchange(round, outboxes.clone()).unwrap();
                shared
                    .exchange_rows(
                        &mut lane,
                        round,
                        |s| sends[s],
                        &active,
                        &mut rows,
                        &mut stats,
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

    /// Universes whose masks fit in one word, fill one word exactly, spill
    /// one bit into a second word, and span three words.
    const UNIVERSES: [usize; 4] = [9, 64, 65, 130];

    #[test]
    fn static_masked_delivery_matches_scalar() {
        for n in UNIVERSES {
            assert_matches_scalar(
                &Topology::Ring { k: 2 },
                None,
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                n,
                3,
                5,
            );
        }
    }

    #[test]
    fn complete_delivery_matches_scalar() {
        let static_complete = TopologySchedule::Static(Topology::Complete);
        for n in UNIVERSES {
            // The complete graph itself, and complete graphs reached through
            // a static schedule or a ring wide enough to link everyone: all
            // lower onto the complete kind, as in the scalar network.
            for (topology, schedule) in [
                (Topology::Complete, None),
                (Topology::Complete, Some(&static_complete)),
                (Topology::Ring { k: n }, None),
            ] {
                let plan = LinkFaultPlan::new();
                let policy = DisconnectionPolicy::Record;
                let shared = SharedRealization::build(n, &topology, schedule, &plan, policy, 1);
                assert!(matches!(shared.unwrap().kind, SharedKind::Complete { .. }));
                assert_matches_scalar(&topology, schedule, &plan, policy, n, 1, 4);
            }
        }
    }

    #[test]
    fn churned_delivery_replays_the_lane_draw_stream() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.4,
        };
        for n in UNIVERSES {
            for seed in [2, 9, 40] {
                assert_matches_scalar(
                    &Topology::Complete,
                    Some(&schedule),
                    &LinkFaultPlan::new(),
                    DisconnectionPolicy::Record,
                    n,
                    seed,
                    12,
                );
            }
        }
    }

    #[test]
    fn churned_partial_bases_match_scalar() {
        // A churn base with missing links: draws run over the base's
        // links only, and both mask rows of a link share a draw. The plans:
        // clean, lossy without delays (the mask walk draws omissions), and
        // lossy with a delayed link (the pipe loop).
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Ring { k: 2 },
            flip_rate: 0.3,
        };
        for n in [12, 64, 65, 130] {
            for seed in [1, 4] {
                for plan in [
                    LinkFaultPlan::new(),
                    LinkFaultPlan::new().omit_all(0.2).omit(1, 0, 1.0),
                    LinkFaultPlan::new()
                        .omit_all(0.2)
                        .delay(1, 2, 2)
                        .delay(n - 1, 0, 1),
                ] {
                    assert_matches_scalar(
                        &Topology::Complete,
                        Some(&schedule),
                        &plan,
                        DisconnectionPolicy::Record,
                        n,
                        seed,
                        10,
                    );
                }
            }
        }
    }

    #[test]
    fn rejected_churn_rounds_report_the_scalar_component_count() {
        // n = 130: the flood crosses three mask words.
        for n in [12, 130] {
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
                            broadcast_send,
                            &vec![true; n],
                            &mut rows,
                            &mut stats,
                        )
                        .map_err(|e| e.to_string());
                    assert_eq!(got, expected, "n={n} seed {seed} {round}");
                    if got.is_err() {
                        rejected += 1;
                        break;
                    }
                }
            }
            assert!(rejected > 0, "n={n}: no seed produced a disconnected round");
        }
    }

    #[test]
    fn periodic_phases_match_scalar() {
        let schedule = TopologySchedule::Periodic {
            phases: vec![Topology::Ring { k: 2 }, Topology::Complete],
        };
        for n in UNIVERSES {
            assert_matches_scalar(
                &Topology::Complete,
                Some(&schedule),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                n,
                5,
                6,
            );
        }
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

    /// `RandomRegular` as the static graph, as a periodic phase, and as a
    /// churn base.
    fn random_regular_descriptions() -> [(Topology, Option<TopologySchedule>); 3] {
        let random = Topology::RandomRegular { degree: 4 };
        [
            (random.clone(), None),
            (
                Topology::Complete,
                Some(TopologySchedule::Periodic {
                    phases: vec![random.clone(), Topology::Ring { k: 2 }],
                }),
            ),
            (
                Topology::Complete,
                Some(TopologySchedule::SeededChurn {
                    base: random,
                    flip_rate: 0.2,
                }),
            ),
        ]
    }

    #[test]
    fn random_regular_is_not_shareable() {
        // Not across seeds: `try_build` refuses every description that
        // realizes per seed.
        for (topology, schedule) in random_regular_descriptions() {
            assert!(SharedRealization::realizes_per_seed(
                &topology,
                schedule.as_ref()
            ));
            assert!(SharedRealization::try_build(
                10,
                &topology,
                schedule.as_ref(),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
            )
            .is_none());
        }
    }

    #[test]
    fn random_regular_realizes_per_seed_like_scalar() {
        for (topology, schedule) in random_regular_descriptions() {
            for n in [12, 65] {
                for seed in [3, 8] {
                    assert_matches_scalar(
                        &topology,
                        schedule.as_ref(),
                        &LinkFaultPlan::new(),
                        DisconnectionPolicy::Record,
                        n,
                        seed,
                        6,
                    );
                }
            }
        }
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
                broadcast_send,
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
                broadcast_send,
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
                broadcast_send,
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
