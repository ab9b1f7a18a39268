//! Max-min fair rate allocation by progressive filling, over a persistent
//! incrementally-maintained flow set.
//!
//! Given resources with capacities and flows that each traverse a set of
//! resources, raise every flow's rate together until some resource
//! saturates; freeze the flows crossing it at that level; repeat. The
//! result is the unique max-min fair allocation — the steady state an
//! ensemble of equally aggressive bulk TCP flows approaches.
//!
//! # Architecture
//!
//! Two pieces replace the old per-call `&[Vec<u32>]` interface:
//!
//! * [`FlowArena`] — a CSR-style arena holding the *current* flow set:
//!   every flow's resource list lives in one flat `pool`, addressed by
//!   per-slot `(start, len)`, plus a **reverse index** `resource → [(slot,
//!   k)]` so the solver can enumerate the flows crossing a bottleneck
//!   without scanning all flows. Flows are added and removed in `O(path
//!   length)`; slots and pool blocks are recycled through free lists so a
//!   steady churn of flows performs no heap allocation.
//! * [`MaxMinSolver`] — progressive filling driven by a **lazy min-heap**
//!   over per-resource fair shares. All working state (`slack`, `users`,
//!   `frozen`, the heap, per-round scratch) is retained between calls;
//!   after the first solve at a given problem size, a solve allocates
//!   nothing. [`MaxMinSolver::solve_logged`] additionally records the
//!   freeze-round sequence (`SolveLog`), which powers both the batched
//!   what-if probes and [`MaxMinSolver::solve_warm`] — the warm-started
//!   delta solve that replays the log after arena churn and runs live
//!   rounds only for the perturbed cascade (see the crate docs for the
//!   cold → logged → warm lifecycle). The first probe against a fresh
//!   log folds it into a per-resource *saturation index* (`ProbeIndex`):
//!   for every resource, the round at which it would bottleneck one extra
//!   flow, and that flow's share there. Every probe after that reads the
//!   index in `O(path)`.
//!
//! # Arena invariants
//!
//! 1. For every live slot `f` and position `k < len[f]`, let `r =
//!    pool[start[f] + k]`. Then `rev[r][rev_pos[start[f] + k]]` is exactly
//!    the entry `(f, k)` — the forward and reverse indexes mirror each
//!    other.
//! 2. `rev[r].len()` equals the number of live flows crossing `r` (each
//!    flow lists a resource at most once), so the solver reads initial
//!    user counts in `O(1)` per resource.
//! 3. Vacant slots keep their pool block (capacity `cap[f]`); surplus
//!    blocks are banked in power-of-two free lists, never leaked.
//! 4. Resource ids are dense `0..n_resources`; [`FlowArena::grow_resources`]
//!    extends the id space without disturbing existing flows.
//!
//! Determinism: the solver freezes whole rounds with order-insensitive
//! arithmetic (`slack -= count × level`, applied per resource, bottleneck
//! chosen by minimal `(share, resource id)`), so the allocation is a pure
//! function of the *set* of live flows — independent of the
//! insertion/removal history that shaped the arena's internal ordering.
//! The property suite exploits this to bit-match incremental results
//! against a from-scratch reference solve.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a flow inside a [`FlowArena`].
///
/// Slots are recycled: a handle is valid from [`FlowArena::add`] until the
/// matching [`FlowArena::remove`], after which the arena may reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSlot(pub u32);

/// Reverse-index entry: packed `(slot, k)` where `k` is the position of
/// the resource within the slot's resource list.
#[inline]
fn pack(slot: u32, k: u32) -> u64 {
    ((slot as u64) << 32) | k as u64
}
#[inline]
fn unpack(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

/// CSR-style arena of flows over a dense resource id space.
#[derive(Debug, Default, Clone)]
pub struct FlowArena {
    /// Flat storage of resource ids; each slot owns a fixed-capacity block.
    pool: Vec<u32>,
    /// Per-incidence position inside `rev[resource]` (parallel to `pool`).
    rev_pos: Vec<u32>,
    /// Per-slot block offset into `pool`.
    start: Vec<u32>,
    /// Per-slot live resource count (`0` while vacant).
    len: Vec<u32>,
    /// Per-slot block capacity (a power of two).
    cap: Vec<u32>,
    /// Whether the slot currently holds a flow.
    live: Vec<bool>,
    /// Vacant slots, reusable by `add` (each keeps its pool block).
    free_slots: Vec<u32>,
    /// Spare pool blocks by log2(capacity).
    free_blocks: Vec<Vec<u32>>,
    /// Reverse index: resource id → packed `(slot, k)` of live crossings.
    rev: Vec<Vec<u64>>,
    /// Per-resource live-flow count (mirrors `rev[r].len()`, kept flat so
    /// solvers read initial user counts with one memcpy).
    users_cnt: Vec<u32>,
    n_live: usize,
    /// Mutation counter, bumped by every `add`/`remove`/`grow_resources`.
    /// [`MaxMinSolver::probe`] uses it to detect that its logged solve
    /// still describes this arena.
    generation: u64,
    /// Resources whose incident flow set changed since the last
    /// [`FlowArena::clear_dirty`] — the perturbation set a warm-started
    /// solve must re-validate. Deduplicated through `dirty_mark`, so the
    /// list is bounded by the resource count and steady churn appends
    /// without allocating once the buffer is warm.
    dirty: Vec<u32>,
    /// Per-resource membership flag for `dirty`.
    dirty_mark: Vec<bool>,
}

impl FlowArena {
    /// Arena over resources `0..n_resources`.
    pub fn new(n_resources: usize) -> FlowArena {
        FlowArena {
            rev: vec![Vec::new(); n_resources],
            users_cnt: vec![0; n_resources],
            dirty_mark: vec![false; n_resources],
            ..FlowArena::default()
        }
    }

    /// Number of resource ids the arena knows about.
    pub fn n_resources(&self) -> usize {
        self.rev.len()
    }

    /// Extend the resource id space to `n_resources` (no-op if smaller).
    pub fn grow_resources(&mut self, n_resources: usize) {
        if n_resources > self.rev.len() {
            self.rev.resize_with(n_resources, Vec::new);
            self.users_cnt.resize(n_resources, 0);
            self.dirty_mark.resize(n_resources, false);
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Mutation counter: two reads returning the same value bracket a span
    /// in which the arena was not structurally modified. Clones inherit the
    /// counter, so the stamp identifies a state within one mutation
    /// lineage, not across independently evolved clones.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live flows.
    pub fn n_flows(&self) -> usize {
        self.n_live
    }

    /// Upper bound (exclusive) on live slot indices; slots below this may
    /// be vacant. Rate buffers must be sized to this.
    pub fn slot_bound(&self) -> usize {
        self.len.len()
    }

    /// Number of live flows crossing resource `r`.
    pub fn users(&self, r: u32) -> usize {
        self.users_cnt[r as usize] as usize
    }

    /// Per-resource live-flow counts, indexed by resource id.
    pub fn users_counts(&self) -> &[u32] {
        &self.users_cnt
    }

    /// Is `slot` currently live?
    pub fn is_live(&self, slot: FlowSlot) -> bool {
        (slot.0 as usize) < self.live.len() && self.live[slot.0 as usize]
    }

    /// The resource list of a live flow.
    pub fn resources(&self, slot: FlowSlot) -> &[u32] {
        let f = slot.0 as usize;
        assert!(self.live[f], "slot {f} is vacant");
        let s = self.start[f] as usize;
        &self.pool[s..s + self.len[f] as usize]
    }

    /// Iterate `(slot, resources)` over live flows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowSlot, &[u32])> + '_ {
        (0..self.len.len()).filter(|&f| self.live[f]).map(move |f| {
            let s = self.start[f] as usize;
            (FlowSlot(f as u32), &self.pool[s..s + self.len[f] as usize])
        })
    }

    /// Add a flow crossing `resources`; returns its slot.
    ///
    /// Panics if `resources` is empty (a flow that crosses nothing has no
    /// bottleneck) or names an id `≥ n_resources()`. In debug builds also
    /// rejects duplicate ids (a flow would be double-charged).
    pub fn add(&mut self, resources: &[u32]) -> FlowSlot {
        assert!(!resources.is_empty(), "flow traverses no resources");
        for &r in resources {
            assert!((r as usize) < self.rev.len(), "flow: bad resource {r}");
        }
        // Allocation-free duplicate check (paths are short), so debug
        // builds keep the steady-state zero-alloc guarantee testable.
        debug_assert!(
            resources.iter().enumerate().all(|(i, r)| !resources[..i].contains(r)),
            "flow lists a resource twice (it would be double-charged)"
        );
        let need = resources.len() as u32;
        let f = match self.free_slots.pop() {
            Some(f) => f as usize,
            None => {
                self.start.push(0);
                self.len.push(0);
                self.cap.push(0);
                self.live.push(false);
                self.len.len() - 1
            }
        };
        if self.cap[f] < need {
            self.release_block(f);
            self.acquire_block(f, need);
        }
        let s = self.start[f] as usize;
        self.len[f] = need;
        self.live[f] = true;
        self.n_live += 1;
        self.generation = self.generation.wrapping_add(1);
        for (k, &r) in resources.iter().enumerate() {
            self.pool[s + k] = r;
            self.rev_pos[s + k] = self.rev[r as usize].len() as u32;
            self.rev[r as usize].push(pack(f as u32, k as u32));
            self.users_cnt[r as usize] += 1;
            self.mark_dirty(r);
        }
        FlowSlot(f as u32)
    }

    /// Remove a live flow. Its slot and pool block are recycled.
    pub fn remove(&mut self, slot: FlowSlot) {
        let f = slot.0 as usize;
        assert!(self.live[f], "remove: slot {f} is vacant");
        let s = self.start[f] as usize;
        for k in 0..self.len[f] as usize {
            let r = self.pool[s + k] as usize;
            self.users_cnt[r] -= 1;
            self.mark_dirty(r as u32);
            let p = self.rev_pos[s + k] as usize;
            let list = &mut self.rev[r];
            list.swap_remove(p);
            if p < list.len() {
                // Fix the moved entry's back-pointer.
                let (mf, mk) = unpack(list[p]);
                self.rev_pos[self.start[mf as usize] as usize + mk as usize] = p as u32;
            }
        }
        self.len[f] = 0;
        self.live[f] = false;
        self.n_live -= 1;
        self.generation = self.generation.wrapping_add(1);
        self.free_slots.push(f as u32);
    }

    /// Record that resource `r`'s incident flow set changed (idempotent
    /// between clears).
    #[inline]
    fn mark_dirty(&mut self, r: u32) {
        if !self.dirty_mark[r as usize] {
            self.dirty_mark[r as usize] = true;
            self.dirty.push(r);
        }
    }

    /// Record an **external** perturbation of resource `r` — a capacity
    /// change — in the same dirty window flow churn uses.
    ///
    /// The solver rebuilds per-resource slack from the caller's
    /// `capacities` slice on every solve, so a capacity change needs no
    /// state transfer: seeding `r` as perturbed is enough for
    /// [`MaxMinSolver::solve_warm`] to re-validate every logged round `r`
    /// participates in and fall back to live filling from the first
    /// round the new capacity actually changes — bit-identical to a cold
    /// solve at the new capacity.
    /// Bumps the generation, so probe logs recorded against the old
    /// capacity stop matching ([`MaxMinSolver::log_matches`]) and are
    /// re-recorded before the next what-if.
    pub fn touch_resource(&mut self, r: u32) {
        assert!((r as usize) < self.rev.len(), "touch: bad resource {r}");
        self.mark_dirty(r);
        self.generation = self.generation.wrapping_add(1);
    }

    /// Dirty set size (tests / diagnostics).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Resources mutated since the dirty window was last closed (warm
    /// solves consume and re-open it), in first-touch order. This is the perturbation set
    /// [`MaxMinSolver::solve_warm`] re-validates logged freeze rounds
    /// against; it is deliberately an *over*-approximation (entries are
    /// only removed by a clear), which is always safe — a falsely-dirty
    /// resource just gets an explicit share check.
    pub fn dirty_resources(&self) -> &[u32] {
        &self.dirty
    }

    /// Open a new dirty window. Called by [`MaxMinSolver::solve_warm`] at
    /// the moment its log is re-recorded against this arena, which keeps
    /// the invariant warm solving relies on: the dirty set always covers
    /// every mutation since the solver's log was written. (This is also
    /// why at most one warm-chaining solver should drive a given arena —
    /// a second one would consume the first one's window.)
    fn clear_dirty(&mut self) {
        for &r in &self.dirty {
            self.dirty_mark[r as usize] = false;
        }
        self.dirty.clear();
    }

    /// Hand slot `f`'s block (if any) to the free lists.
    fn release_block(&mut self, f: usize) {
        let cap = self.cap[f];
        if cap > 0 {
            let class = cap.trailing_zeros() as usize;
            if self.free_blocks.len() <= class {
                self.free_blocks.resize_with(class + 1, Vec::new);
            }
            self.free_blocks[class].push(self.start[f]);
            self.cap[f] = 0;
        }
    }

    /// Give slot `f` a block of capacity ≥ `need` (power of two).
    fn acquire_block(&mut self, f: usize, need: u32) {
        let cap = need.next_power_of_two();
        let class = cap.trailing_zeros() as usize;
        if let Some(start) = self.free_blocks.get_mut(class).and_then(Vec::pop) {
            self.start[f] = start;
        } else {
            self.start[f] = self.pool.len() as u32;
            self.pool.resize(self.pool.len() + cap as usize, 0);
            self.rev_pos.resize(self.pool.len(), 0);
        }
        self.cap[f] = cap;
    }

    /// Resource list of a slot, without the liveness assertion (solver
    /// hot path; callers guarantee the slot came from the reverse index,
    /// which only holds live flows).
    #[inline]
    fn resources_unchecked(&self, slot: u32) -> &[u32] {
        let f = slot as usize;
        let s = self.start[f] as usize;
        &self.pool[s..s + self.len[f] as usize]
    }

    /// Internal consistency check (tests / debug only): invariants 1–3.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut live_incidences = 0usize;
        for f in 0..self.len.len() {
            if !self.live[f] {
                assert_eq!(self.len[f], 0, "vacant slot {f} has length");
                continue;
            }
            let s = self.start[f] as usize;
            for k in 0..self.len[f] as usize {
                let r = self.pool[s + k] as usize;
                let p = self.rev_pos[s + k] as usize;
                assert_eq!(self.rev[r][p], pack(f as u32, k as u32), "rev mirror broken");
                live_incidences += 1;
            }
        }
        let rev_total: usize = self.rev.iter().map(Vec::len).sum();
        assert_eq!(rev_total, live_incidences, "reverse index leaks entries");
        for (r, list) in self.rev.iter().enumerate() {
            assert_eq!(self.users_cnt[r] as usize, list.len(), "user count drifted at {r}");
        }
    }
}

/// Heap key: per-resource fair share packed into one `u128` —
/// `share_bits(64) | resource(32) | version(32)`, ordered ascending.
///
/// Shares are finite and non-negative, so their raw IEEE-754 bit patterns
/// order exactly like the values; packing them above the resource id
/// yields `(share, resource)` ordering with a single integer compare, and
/// ties freeze the lowest-numbered resource first — matching the
/// reference solver's linear scan. The version stamp rides in the low
/// bits (it never influences which of two *distinct* resources pops
/// first) and invalidates stale entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ShareKey(u128);

impl ShareKey {
    #[inline]
    fn new(share: f64, res: u32, version: u32) -> ShareKey {
        debug_assert!(share >= 0.0 && share.is_finite());
        ShareKey(((share.to_bits() as u128) << 64) | ((res as u128) << 32) | version as u128)
    }
    #[inline]
    fn share(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }
    #[inline]
    fn res(self) -> u32 {
        (self.0 >> 32) as u32
    }
    #[inline]
    fn version(self) -> u32 {
        self.0 as u32
    }
}

/// A batch of candidate what-if flows for [`MaxMinSolver::probe_batch`].
///
/// Candidate resource lists are packed contiguously (CSR), so building and
/// draining a batch allocates nothing once the buffers are warm — reuse
/// one instance via [`ProbeBatch::clear`]. Every candidate is evaluated
/// **independently**: "what rate would this flow get if it alone joined
/// the current flow set", all candidates reading the saturation index of
/// a single logged solve instead of paying one full solve each.
#[derive(Debug, Default, Clone)]
pub struct ProbeBatch {
    /// Flat candidate resource ids.
    res: Vec<u32>,
    /// Candidate `i` occupies `res[ends[i - 1]..ends[i]]` (`ends[-1]` ≡ 0).
    ends: Vec<u32>,
}

impl ProbeBatch {
    /// Empty batch.
    pub fn new() -> ProbeBatch {
        ProbeBatch::default()
    }

    /// Drop all candidates, keeping the buffers.
    pub fn clear(&mut self) {
        self.res.clear();
        self.ends.clear();
    }

    /// Append a candidate flow crossing `resources`; returns its index in
    /// the batch (the position of its rate in the output of
    /// [`MaxMinSolver::probe_batch`]).
    ///
    /// Panics if `resources` is empty — like [`FlowArena::add`], a flow
    /// that crosses nothing has no bottleneck.
    pub fn push(&mut self, resources: &[u32]) -> usize {
        assert!(!resources.is_empty(), "candidate traverses no resources");
        self.res.extend_from_slice(resources);
        self.ends.push(self.res.len() as u32);
        self.ends.len() - 1
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Resource list of candidate `i`.
    pub fn resources(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.res[start..self.ends[i] as usize]
    }
}

/// Round log of one progressive-filling solve — the input of warm
/// solves and of the probes' saturation index.
///
/// Per freeze round it records the popped bottleneck key (version bits
/// zeroed), the freeze level, the per-resource `(id, frozen-count)`
/// deltas the round applied, and the slots it froze.
#[derive(Debug, Default)]
struct SolveLog {
    /// Per round: version-stripped bottleneck [`ShareKey`] at pop time.
    /// **Not monotone.** Levels rise in exact arithmetic, but a share
    /// recomputed after a round, `(slack − d × level) / users`, can round
    /// 1–2 ulp below the level that round froze at. So a later key can
    /// sit just below an earlier one at equal levels, e.g.
    /// `(1.4285714285714287e8, r107)` then `(1.4285714285714284e8, r152)`.
    keys: Vec<u128>,
    /// Per round: the freeze level (the key's share, clamped to ≥ 0).
    levels: Vec<f64>,
    /// Per round: end offset (exclusive) into the `touched_*` arrays.
    round_end: Vec<u32>,
    /// Flattened `(resource, flows frozen crossing it)` deltas, by round.
    touched_res: Vec<u32>,
    touched_delta: Vec<u32>,
    /// Flattened arena slots frozen per round (warm replay walks these
    /// sequentially instead of chasing the reverse index).
    freeze_slots: Vec<u32>,
    /// Per round: end offset (exclusive) into `freeze_slots`.
    freeze_end: Vec<u32>,
    /// Arena generation the log was recorded against.
    generation: u64,
    /// Resource-space size at record time.
    n_resources: u32,
    /// False until the first logged solve, and after a plain `solve`.
    valid: bool,
    /// Whether the owning solver's [`ProbeIndex`] describes this log.
    /// Set by the first probe after the log was recorded.
    indexed: bool,
}

impl SolveLog {
    fn clear(&mut self) {
        self.keys.clear();
        self.levels.clear();
        self.round_end.clear();
        self.touched_res.clear();
        self.touched_delta.clear();
        self.freeze_slots.clear();
        self.freeze_end.clear();
        self.valid = false;
        self.indexed = false;
    }
}

/// Per-resource "+1-user saturation index" over one [`SolveLog`]. It
/// answers a what-if probe in `O(path)`.
///
/// A candidate flow crossing resources `S` only *adds one user* to each
/// of them until it freezes: it consumes nothing. So the logged rounds
/// run unchanged until the first round `k` whose key some `r ∈ S`,
/// carrying that extra user, beats or ties:
/// `ShareKey(slack_r / (users_r + 1), r) ≤ keys[k]`. The candidate
/// freezes there, at that share. Each resource's `(slack, users)` moves
/// only through the log's own deltas to it, whatever else the candidate
/// crosses. The index therefore stores, per resource `r`, the first
/// round `k_r` at which `r` alone would fire (`rounds` if none) and its
/// key then.
///
/// A candidate fires at `K = min k_r` over its path. At round `K`, every
/// path resource that has not fired still holds a key above `keys[K]`,
/// and so above the key of each one that fires. The candidate's
/// bottleneck is therefore the lexicographic minimum of `(k_r, key_r)`
/// over its path. Each `key_r` comes from the same float operations, in
/// the same order, as in a round-by-round walk of the log for that
/// candidate, and that walk matches adding the flow and solving from
/// scratch bit for bit.
///
/// Logged keys dip (see [`SolveLog::keys`]), so a bisection of `keys`
/// can land on a later round than the first that fires. The search
/// bisects the keys' running maximum instead and, where that lands
/// before the resource's current state began, scans forward.
///
/// A resource the log never touches (an idle link: most of a large
/// cluster) keeps its base state through every round. Its entry is left
/// [`UNTOUCHED`] and computed by the probe that crosses it, from the same
/// state and with the same search. So a build costs a bisection per
/// *touched* resource, and per-event work does not grow with idle links.
#[derive(Debug, Default)]
struct ProbeIndex {
    /// Per resource: `k_r (32 bits) | share bits (64) | resource (32)`,
    /// so one integer `min` orders by `(k_r, key_r)`; [`UNTOUCHED`] for a
    /// resource the log never touches.
    entry: Vec<u128>,
    /// Running maximum of the log's keys.
    key_max: Vec<u128>,
    /// Per-resource slack and base users, advanced through the log's
    /// deltas in round order; an untouched resource's stay at its base
    /// state, which probes read.
    slack: Vec<f64>,
    users: Vec<u32>,
    /// Build scratch: the round since which the resource's state has
    /// held, or `SETTLED` once its entry is final.
    since: Vec<u32>,
}

/// `ProbeIndex::since` sentinel: the resource's entry is final.
const SETTLED: u32 = u32::MAX;

/// `ProbeIndex::entry` sentinel: the log never touches the resource. No
/// real entry reaches it: that would take a NaN share.
const UNTOUCHED: u128 = u128::MAX;

impl ProbeIndex {
    /// Index `log`, recorded against `capacities` and an arena with the
    /// per-resource live-flow counts `users`. Allocation-free once the
    /// buffers have reached the resource and round counts.
    fn build(&mut self, log: &SolveLog, capacities: &[f64], users: &[u32]) {
        let nr = log.n_resources as usize;
        let rounds = log.keys.len();
        self.key_max.clear();
        let mut max = 0;
        self.key_max.extend(log.keys.iter().map(|&k| {
            max = max.max(k);
            max
        }));
        self.slack.clear();
        self.slack.extend_from_slice(&capacities[..nr]);
        self.users.clear();
        self.users.extend_from_slice(&users[..nr]);
        self.since.clear();
        self.since.resize(nr, 0);
        self.entry.clear();
        self.entry.resize(nr, UNTOUCHED);
        let mut t0 = 0usize;
        for k in 0..rounds {
            let t1 = log.round_end[k] as usize;
            let level = log.levels[k];
            for t in t0..t1 {
                let r = log.touched_res[t] as usize;
                if self.since[r] == SETTLED {
                    continue;
                }
                // `r`'s state held from round `since[r]` through round
                // `k`, whose check precedes its deltas.
                let key = self.plus_one_key(r);
                if let Some(j) = self.first_fire(&log.keys, self.since[r] as usize, k + 1, key) {
                    self.entry[r] = pack_entry(j, key);
                    self.since[r] = SETTLED;
                    continue;
                }
                let d = log.touched_delta[t];
                self.users[r] -= d;
                self.slack[r] -= d as f64 * level;
                self.since[r] = k as u32 + 1;
            }
            t0 = t1;
        }
        for r in 0..nr {
            // `since` is 0 only for a resource no round touched.
            if self.since[r] != SETTLED && self.since[r] != 0 {
                let key = self.plus_one_key(r);
                let j = self.first_fire(&log.keys, self.since[r] as usize, rounds, key);
                self.entry[r] = pack_entry(j.unwrap_or(rounds), key);
            }
        }
    }

    /// Resource `r`'s current key with one extra user.
    #[inline]
    fn plus_one_key(&self, r: usize) -> u128 {
        let share = (self.slack[r] / (self.users[r] + 1) as f64).max(0.0);
        ShareKey::new(share, r as u32, 0).0
    }

    /// First round `j` in `from..end` with `key ≤ keys[j]`.
    #[inline]
    fn first_fire(&self, keys: &[u128], from: usize, end: usize, key: u128) -> Option<usize> {
        // The running maximum first reaches `key` exactly at the first
        // key that does.
        let j = self.key_max[..end].partition_point(|&m| m < key);
        if j >= from {
            return (j < end).then_some(j);
        }
        // An earlier round's key already reached `key`; the first one in
        // the window may still dip below it.
        (from..end).find(|&i| key <= keys[i])
    }

    /// Rate of a candidate crossing `s`, plus the rounds a walk of the
    /// log would have visited to reach it: the fire round + 1, or every
    /// round if none fires. With no round firing, every base flow froze
    /// without saturating the path, and the candidate's rate is the
    /// smallest share left on it, which is the same minimum. `keys` are
    /// the indexed log's keys.
    #[inline]
    fn rate(&self, s: &[u32], keys: &[u128]) -> (f64, u64) {
        let rounds = keys.len();
        assert!(!s.is_empty(), "probe flow traverses no resources");
        debug_assert!(
            s.iter().enumerate().all(|(i, r)| !s[..i].contains(r)),
            "probe flow lists a resource twice (it would be double-charged)"
        );
        let mut best = u128::MAX;
        for &r in s {
            assert!((r as usize) < self.entry.len(), "probe: bad resource {r}");
            let mut e = self.entry[r as usize];
            if e == UNTOUCHED {
                let key = self.plus_one_key(r as usize);
                e = pack_entry(self.first_fire(keys, 0, rounds, key).unwrap_or(rounds), key);
            }
            best = best.min(e);
        }
        let fired = (best >> 96) as usize;
        (f64::from_bits((best >> 32) as u64), (fired + 1).min(rounds) as u64)
    }
}

/// Pack a [`ProbeIndex`] entry: fire round above the version-stripped
/// key's `(share, resource)` bits.
#[inline]
fn pack_entry(round: usize, key: u128) -> u128 {
    ((round as u128) << 96) | (key >> 32)
}

/// Progressive-filling solver with persistent scratch state.
///
/// Reuse one instance across solves: after the first call at a given
/// problem size, [`MaxMinSolver::solve`] performs **no heap allocation**
/// (verified by the workspace's allocation-counter test).
///
/// [`MaxMinSolver::solve_logged`] additionally records the freeze-round
/// sequence, unlocking the batched what-if APIs ([`MaxMinSolver::probe`],
/// [`MaxMinSolver::probe_batch`], [`MaxMinSolver::solve_batch`]): rate a
/// hypothetical extra flow in `O(path)` from the log's saturation index,
/// bit-identical to adding the flow and solving from scratch.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    /// Backing buffer for the lazy min-heap of per-resource shares; kept
    /// between solves so heap construction is an alloc-free `O(R)`
    /// heapify.
    heap_buf: Vec<Reverse<ShareKey>>,
    /// Per-resource generation stamp, invalidating stale heap entries.
    version: Vec<u32>,
    /// Remaining capacity per resource.
    slack: Vec<f64>,
    /// Unfrozen flows per resource.
    users: Vec<u32>,
    /// Per-slot frozen flag.
    frozen: Vec<bool>,
    /// Scratch: resources touched by the current freeze round.
    touched: Vec<u32>,
    /// Scratch: per-resource count of flows frozen this round.
    delta: Vec<u32>,
    /// Freeze-round log of the last `solve_logged` or warm solve.
    log: SolveLog,
    /// Spare log buffers: [`MaxMinSolver::solve_warm`] re-records the log
    /// while reading the old one, so the two alternate between `log` and
    /// `log_spare` (no allocation once both are warm).
    log_spare: SolveLog,
    /// Warm-solve scratch: resources whose state has left the logged
    /// trajectory (the live-tracked perturbation set).
    perturbed: Vec<bool>,
    /// Warm-solve scratch: indexed min-heap over the perturbed resources'
    /// current share keys — exactly one entry per tracked resource,
    /// updated in place (no stale entries, O(1) min read).
    wheap: Vec<u128>,
    /// Warm-solve scratch: resource → position in `wheap` (`WPOS_NONE`
    /// when absent).
    wpos: Vec<u32>,
    /// Saturation index of `log`, built by the first probe after the
    /// log was recorded (valid while `log.indexed`).
    index: ProbeIndex,
    /// Observability: freeze rounds the last solve ran with the full
    /// cold-solve arithmetic (every round of a cold solve; the perturbed
    /// rounds of a warm one). Never read by the solve itself.
    last_live_rounds: u64,
    /// Observability: freeze rounds the last solve replayed verbatim
    /// from the previous log (zero for a cold solve).
    last_replayed_rounds: u64,
    /// Observability: logged rounds up to each candidate's fire round
    /// in the last [`MaxMinSolver::probe`] / [`MaxMinSolver::probe_batch`],
    /// summed over the batch's candidates.
    last_probe_replay_rounds: u64,
}

/// `wpos` sentinel: resource has no entry in the warm heap.
const WPOS_NONE: u32 = u32::MAX;

/// Indexed binary min-heap over [`ShareKey`]-packed `u128`s with a
/// resource → slot position map, used by the warm solve's live tracking.
/// Unlike the cold solve's lazy `BinaryHeap` (push-per-touch, stale
/// entries versioned out at pop time), every tracked resource has exactly
/// one entry, moved in place when its share changes — the root is always
/// the true minimum, so run-batched replay reads it in O(1). The pop
/// sequence is the sequence of minima either way, so the two structures
/// drive bit-identical solves.
mod wheap {
    use super::ShareKey;

    #[inline]
    fn res_of(key: u128) -> usize {
        ShareKey(key).res() as usize
    }

    fn sift_up(heap: &mut [u128], pos: &mut [u32], mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] <= heap[i] {
                break;
            }
            heap.swap(i, parent);
            pos[res_of(heap[i])] = i as u32;
            i = parent;
        }
        pos[res_of(heap[i])] = i as u32;
    }

    fn sift_down(heap: &mut [u128], pos: &mut [u32], mut i: usize) {
        loop {
            let l = 2 * i + 1;
            if l >= heap.len() {
                break;
            }
            let c = if l + 1 < heap.len() && heap[l + 1] < heap[l] { l + 1 } else { l };
            if heap[i] <= heap[c] {
                break;
            }
            heap.swap(i, c);
            pos[res_of(heap[i])] = i as u32;
            i = c;
        }
        pos[res_of(heap[i])] = i as u32;
    }

    /// Insert `key`; its resource must not already have an entry.
    pub(super) fn insert(heap: &mut Vec<u128>, pos: &mut [u32], key: u128) {
        debug_assert_eq!(pos[res_of(key)], super::WPOS_NONE);
        heap.push(key);
        let tail = heap.len() - 1;
        sift_up(heap, pos, tail);
    }

    /// Replace the existing entry of `key`'s resource with `key`.
    pub(super) fn update(heap: &mut [u128], pos: &mut [u32], key: u128) {
        let i = pos[res_of(key)] as usize;
        let old = heap[i];
        heap[i] = key;
        if key < old {
            sift_up(heap, pos, i);
        } else {
            sift_down(heap, pos, i);
        }
    }

    /// Drop resource `r`'s entry.
    pub(super) fn remove(heap: &mut Vec<u128>, pos: &mut [u32], r: usize) {
        let i = pos[r] as usize;
        pos[r] = super::WPOS_NONE;
        let last = heap.pop().expect("entry exists");
        if i < heap.len() {
            let old = heap[i];
            heap[i] = last;
            if last < old {
                sift_up(heap, pos, i);
            } else {
                sift_down(heap, pos, i);
            }
        }
    }

    /// Remove and return the minimum entry.
    pub(super) fn pop_min(heap: &mut Vec<u128>, pos: &mut [u32]) -> u128 {
        let min = heap[0];
        pos[res_of(min)] = super::WPOS_NONE;
        let last = heap.pop().expect("non-empty");
        if !heap.is_empty() {
            heap[0] = last;
            sift_down(heap, pos, 0);
        }
        min
    }
}

impl MaxMinSolver {
    /// Fresh solver (scratch grows on first use).
    pub fn new() -> MaxMinSolver {
        MaxMinSolver::default()
    }

    /// Compute max-min fair rates for every live flow in `arena`.
    ///
    /// * `capacities[r]` — capacity of resource `r` (bits/s, must be > 0
    ///   for any resource a flow crosses).
    /// * `rates` is resized to [`FlowArena::slot_bound`]; on return,
    ///   `rates[slot]` is the allocated rate of the flow in `slot`
    ///   (vacant slots read 0).
    ///
    /// Runs in `O(R + Σ_f path_f · log R)`. Invalidates any prior probe
    /// log; use [`MaxMinSolver::solve_logged`] when probes will follow.
    pub fn solve(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut Vec<f64>) {
        self.log.valid = false;
        self.solve_impl::<false>(capacities, arena, rates);
    }

    /// [`MaxMinSolver::solve`], additionally recording the freeze-round
    /// log that [`MaxMinSolver::probe`] and [`MaxMinSolver::probe_batch`]
    /// replay. Logging costs one append per round plus one per touched
    /// resource — a few percent of the solve — and stays allocation-free
    /// once the log buffers are warm.
    pub fn solve_logged(&mut self, capacities: &[f64], arena: &FlowArena, rates: &mut Vec<f64>) {
        self.solve_impl::<true>(capacities, arena, rates);
    }

    /// Warm-started [`MaxMinSolver::solve_logged`]: re-solve after arena
    /// churn with live work proportional to the *perturbed* rounds, by
    /// replaying the previous solve's freeze-round log.
    ///
    /// The arena's dirty set ([`FlowArena::dirty_resources`]) seeds a
    /// **perturbation set** — resources whose state may have left the
    /// logged trajectory. The walk interleaves two kinds of rounds, always
    /// picking whichever saturates first (exactly what a cold solve's heap
    /// would pop):
    ///
    /// * **replayed** — the next logged round, valid while its bottleneck
    ///   is unperturbed and no perturbed resource's current share beats
    ///   its key. Its level and user count are re-validated against the
    ///   mutated arena (the freeze set comes from the live reverse index
    ///   and is checked against the logged bottleneck delta), then the
    ///   logged per-resource deltas apply verbatim: no shares computed, no
    ///   heap traffic, no per-flow path walks.
    /// * **live** — a perturbed resource pops first and freezes its flows
    ///   with the full cold-solve arithmetic. Every resource it touches
    ///   joins the perturbation set (its future logged deltas are stale).
    ///
    /// Logged rounds whose bottleneck got perturbed are skipped — their
    /// touched resources join the perturbation set while their exact state
    /// still matches the old trajectory, and their flows freeze through
    /// live rounds instead. Single-flow churn therefore pays the flat log
    /// replay plus a handful of live rounds around the churned flow's
    /// freeze levels, not a full progressive filling.
    ///
    /// The result is **bit-identical** to a cold
    /// [`MaxMinSolver::solve_logged`] of the same arena, and the log is
    /// re-recorded as the walk runs (replayed rounds copied, live rounds
    /// freshly logged), so consecutive churn events chain warm and probes
    /// keep working. With no valid log to start from, this *is* a cold
    /// `solve_logged`. `capacities` must extend the slice used by the
    /// previous solve: growth for new resources is always fine, and an
    /// existing entry may change **only if** the resource was announced
    /// through [`FlowArena::touch_resource`] since the previous solve —
    /// the walk rebuilds slack from the current capacities and treats
    /// touched resources as perturbed, so announced capacity changes
    /// (link failure, degradation, recovery) re-solve bit-identical to a
    /// cold solve at the new capacities.
    ///
    /// Takes the arena mutably because the call *consumes* the dirty
    /// window (see [`FlowArena::dirty_resources`]); for the same reason at
    /// most one warm-chaining solver should drive a given arena.
    pub fn solve_warm(&mut self, capacities: &[f64], arena: &mut FlowArena, rates: &mut Vec<f64>) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        if !self.log.valid || self.log.n_resources as usize > nr {
            // Nothing to warm-start from: open a fresh dirty window at the
            // moment the log is recorded, so the next call chains warm.
            arena.clear_dirty();
            self.solve_logged(capacities, arena, rates);
            return;
        }
        // The old log is read-only input; the new one is re-recorded into
        // the spare buffers and swapped in (both stay warm across calls).
        let old = std::mem::take(&mut self.log);
        std::mem::swap(&mut self.log, &mut self.log_spare);
        // Cold-solve state init — the hybrid walk must evolve the exact
        // state a from-scratch solve would, or bit-identity is lost.
        let nslots = arena.slot_bound();
        rates.clear();
        rates.resize(nslots, 0.0);
        self.frozen.clear();
        self.frozen.resize(nslots, false);
        self.slack.clear();
        self.slack.extend_from_slice(&capacities[..nr]);
        self.users.clear();
        self.users.extend_from_slice(&arena.users_counts()[..nr]);
        // `delta` is always all-zero between solves; it only needs sizing
        // for growth. (`version` belongs to the cold solves' lazy heap —
        // the warm path's indexed heap has no stale entries to stamp.)
        if self.delta.len() < nr {
            self.delta.resize(nr, 0);
        }
        self.touched.clear();
        self.last_live_rounds = 0;
        self.last_replayed_rounds = 0;
        self.perturbed.clear();
        self.perturbed.resize(nr, false);
        let mut remaining = arena.n_flows();

        self.log.clear();
        self.log.generation = arena.generation();
        self.log.n_resources = nr as u32;
        self.log.valid = true;

        // Reset the indexed live heap (left-over entries from the last
        // warm solve release their positions) and seed the perturbation
        // set from the arena's dirty window, then close the window — it
        // re-opens exactly as this log is recorded.
        for &k in &self.wheap {
            self.wpos[ShareKey(k).res() as usize] = WPOS_NONE;
        }
        self.wheap.clear();
        if self.wpos.len() < nr {
            self.wpos.resize(nr, WPOS_NONE);
        }
        for &r in arena.dirty_resources() {
            let ri = r as usize;
            if !self.perturbed[ri] {
                self.perturbed[ri] = true;
                if self.users[ri] > 0 {
                    let share = (self.slack[ri] / self.users[ri] as f64).max(0.0);
                    wheap::insert(&mut self.wheap, &mut self.wpos, ShareKey::new(share, r, 0).0);
                }
            }
        }
        arena.clear_dirty();

        // The hybrid replayed/live round loop over `old`.
        let rounds = old.keys.len();
        let mut kcur = 0usize;
        let mut t0 = 0usize;
        let mut f0 = 0usize;
        while remaining > 0 {
            // Advance the cursor past logged rounds whose bottleneck was
            // perturbed: their freeze sets are stale, so their flows are
            // handed to the live heap instead. Every resource such a round
            // touched joins the perturbation set *now*, while its exact
            // state still matches the old trajectory (its share is ≥ the
            // skipped key, so it cannot have deserved an earlier pop).
            let logged_key = loop {
                if kcur >= rounds {
                    break u128::MAX;
                }
                let key = old.keys[kcur];
                if !self.perturbed[ShareKey(key).res() as usize] {
                    break key;
                }
                let t1 = old.round_end[kcur] as usize;
                for t in t0..t1 {
                    let r2 = old.touched_res[t];
                    let ri = r2 as usize;
                    if !self.perturbed[ri] {
                        self.perturbed[ri] = true;
                        if self.users[ri] > 0 {
                            let share = (self.slack[ri] / self.users[ri] as f64).max(0.0);
                            wheap::insert(
                                &mut self.wheap,
                                &mut self.wpos,
                                ShareKey::new(share, r2, 0).0,
                            );
                        }
                    }
                }
                t0 = t1;
                f0 = old.freeze_end[kcur] as usize;
                kcur += 1;
            };
            // Minimum over the live-tracked resources: the indexed heap's
            // root, always current.
            let live_key = self.wheap.first().map(|&k| ShareKey(k));
            // Unperturbed resources sit exactly on the logged trajectory,
            // so their shares are ≥ the next logged key: the true global
            // minimum is whichever of (live top, logged key) is smaller,
            // and a tie is impossible (the ids would have to match, but a
            // perturbed bottleneck never reaches the comparison).
            match live_key {
                Some(k) if k.0 < logged_key => {
                    // Live round: identical arithmetic to a cold round —
                    // this body is a deliberate copy of `fill_rounds`'s
                    // freeze-round core (over the indexed heap instead of
                    // the lazy one) and must stay in lockstep with it.
                    let popped = wheap::pop_min(&mut self.wheap, &mut self.wpos);
                    debug_assert_eq!(popped, k.0);
                    let b = k.res() as usize;
                    let level = k.share();
                    self.touched.clear();
                    let mut froze = 0usize;
                    for &e in &arena.rev[b] {
                        let (slot, _) = unpack(e);
                        let f = slot as usize;
                        if self.frozen[f] {
                            continue;
                        }
                        self.frozen[f] = true;
                        rates[f] = level;
                        froze += 1;
                        self.log.freeze_slots.push(slot);
                        for &r2 in arena.resources_unchecked(slot) {
                            let r2 = r2 as usize;
                            if self.delta[r2] == 0 {
                                self.touched.push(r2 as u32);
                            }
                            self.delta[r2] += 1;
                        }
                    }
                    debug_assert!(froze > 0, "live bottleneck had users but froze nothing");
                    remaining -= froze;
                    self.last_live_rounds += 1;
                    self.log.keys.push(ShareKey::new(level, b as u32, 0).0);
                    self.log.levels.push(level);
                    self.log.freeze_end.push(self.log.freeze_slots.len() as u32);
                    for i in 0..self.touched.len() {
                        let r2 = self.touched[i] as usize;
                        let d = self.delta[r2];
                        self.delta[r2] = 0;
                        self.users[r2] -= d;
                        self.slack[r2] -= d as f64 * level;
                        self.log.touched_res.push(r2 as u32);
                        self.log.touched_delta.push(d);
                        // A live freeze drags every touched resource off
                        // the logged trajectory: it joins the live set.
                        self.perturbed[r2] = true;
                        self.wheap_upsert(r2);
                    }
                    self.log.round_end.push(self.log.touched_res.len() as u32);
                }
                _ if logged_key != u128::MAX => {
                    // Replayed rounds: the logged freeze sets are still
                    // exact (no flow crossing these bottlenecks was added,
                    // removed or live-frozen — any of those would have
                    // perturbed them), so the recorded slots and deltas
                    // apply verbatim: sequential walks, no shares, no heap.
                    // Consecutive clean rounds run as one batch — the heap
                    // cannot change under them — and their log segment is
                    // copied over in bulk afterwards.
                    let k_start = kcur;
                    let t_start = t0;
                    let f_start = f0;
                    loop {
                        let key = old.keys[kcur];
                        let b = ShareKey(key).res() as usize;
                        let level = old.levels[kcur];
                        let f1 = old.freeze_end[kcur] as usize;
                        // Re-validate the bottleneck against the mutated
                        // arena: its current unfrozen user count must
                        // equal the logged freeze count (kept in release
                        // builds — it is O(1) per round and turns a
                        // contract violation, e.g. a solver driven across
                        // two arenas or a second warm solver consuming
                        // this one's dirty window, into a panic instead
                        // of silently corrupt rates); each logged flow
                        // must also still be live and unfrozen (debug).
                        assert_eq!(
                            self.users[b] as usize,
                            f1 - f0,
                            "replayed bottleneck user count diverged from the log \
                             (was this solver's log recorded against a different arena?)"
                        );
                        for &slot in &old.freeze_slots[f0..f1] {
                            let f = slot as usize;
                            debug_assert!(
                                arena.is_live(FlowSlot(slot)) && !self.frozen[f],
                                "replayed freeze set diverged from the log"
                            );
                            self.frozen[f] = true;
                            rates[f] = level;
                        }
                        remaining -= f1 - f0;
                        let t1 = old.round_end[kcur] as usize;
                        for (&r2, &d) in
                            old.touched_res[t0..t1].iter().zip(&old.touched_delta[t0..t1])
                        {
                            let r2 = r2 as usize;
                            self.users[r2] -= d;
                            self.slack[r2] -= d as f64 * level;
                            if self.perturbed[r2] {
                                self.wheap_upsert(r2);
                            }
                        }
                        f0 = f1;
                        t0 = t1;
                        kcur += 1;
                        // Extend the run only while the decision the outer
                        // loop would make is unchanged: flows left, next
                        // round clean and still beating the live minimum
                        // (the root read is O(1) and always current, so
                        // perturbed touches inside the run are handled).
                        if remaining == 0 || kcur >= rounds {
                            break;
                        }
                        let nk = old.keys[kcur];
                        if self.perturbed[ShareKey(nk).res() as usize]
                            || self.wheap.first().is_some_and(|&k| k < nk)
                        {
                            break;
                        }
                    }
                    self.last_replayed_rounds += (kcur - k_start) as u64;
                    // Bulk-copy the run's log segment, shifting the
                    // per-round end offsets onto the new log's bases.
                    let nt_base = self.log.touched_res.len() as u32;
                    let nf_base = self.log.freeze_slots.len() as u32;
                    self.log.keys.extend_from_slice(&old.keys[k_start..kcur]);
                    self.log.levels.extend_from_slice(&old.levels[k_start..kcur]);
                    self.log.freeze_slots.extend_from_slice(&old.freeze_slots[f_start..f0]);
                    self.log.touched_res.extend_from_slice(&old.touched_res[t_start..t0]);
                    self.log.touched_delta.extend_from_slice(&old.touched_delta[t_start..t0]);
                    for k in k_start..kcur {
                        self.log.round_end.push(old.round_end[k] - t_start as u32 + nt_base);
                        self.log.freeze_end.push(old.freeze_end[k] - f_start as u32 + nf_base);
                    }
                }
                _ => {
                    debug_assert!(false, "flows remain but no live or logged round to run");
                    break;
                }
            }
        }
        self.log_spare = old;
    }

    /// Would [`MaxMinSolver::solve_warm`] on `arena` fall back to a cold
    /// solve? True with no valid log to replay (or one recorded against a
    /// larger resource space). Observability only — the answer never
    /// changes what the solve computes, just how much of it runs live.
    pub fn will_solve_cold(&self, arena: &FlowArena) -> bool {
        !self.log.valid || self.log.n_resources as usize > arena.n_resources()
    }

    /// Freeze rounds the last solve ran with the full cold-solve
    /// arithmetic (all of them for a cold solve; only the perturbed ones
    /// for a warm solve). Diagnostics only.
    pub fn last_live_rounds(&self) -> u64 {
        self.last_live_rounds
    }

    /// Freeze rounds the last solve replayed verbatim from the previous
    /// log (zero for a cold solve). Diagnostics only.
    pub fn last_replayed_rounds(&self) -> u64 {
        self.last_replayed_rounds
    }

    /// Logged rounds up to and including each candidate's fire round (all
    /// of them if none fires) in the last [`MaxMinSolver::probe`] or
    /// [`MaxMinSolver::probe_batch`], summed over the batch's candidates:
    /// how deep into the solve each what-if answer lies. Diagnostics only.
    pub fn last_probe_replay_rounds(&self) -> u64 {
        self.last_probe_replay_rounds
    }

    /// Refresh perturbed resource `r2`'s entry in the warm heap after its
    /// `(slack, users)` changed: update in place, insert on first touch,
    /// drop once its last unfrozen flow froze.
    #[inline]
    fn wheap_upsert(&mut self, r2: usize) {
        if self.users[r2] > 0 {
            let share = (self.slack[r2] / self.users[r2] as f64).max(0.0);
            let key = ShareKey::new(share, r2 as u32, 0).0;
            if self.wpos[r2] == WPOS_NONE {
                wheap::insert(&mut self.wheap, &mut self.wpos, key);
            } else {
                wheap::update(&mut self.wheap, &mut self.wpos, key);
            }
        } else if self.wpos[r2] != WPOS_NONE {
            wheap::remove(&mut self.wheap, &mut self.wpos, r2);
        }
    }

    fn solve_impl<const LOG: bool>(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        rates: &mut Vec<f64>,
    ) {
        let nr = arena.n_resources();
        assert!(capacities.len() >= nr, "capacities shorter than resource space");
        self.last_live_rounds = 0;
        self.last_replayed_rounds = 0;
        if LOG {
            self.log.clear();
            self.log.generation = arena.generation();
            self.log.n_resources = nr as u32;
            self.log.valid = true;
        }
        let nslots = arena.slot_bound();
        rates.clear();
        rates.resize(nslots, 0.0);
        self.frozen.clear();
        self.frozen.resize(nslots, false);
        self.slack.clear();
        self.slack.extend_from_slice(&capacities[..nr]);
        self.users.clear();
        self.users.resize(nr, 0);
        self.version.clear();
        self.version.resize(nr, 0);
        self.delta.clear();
        self.delta.resize(nr, 0);
        self.touched.clear();
        let remaining = arena.n_flows();
        if remaining == 0 {
            return;
        }
        // Build the initial heap by O(R) heapify over the retained buffer
        // (cheaper than R sift-up pushes, and alloc-free after warm-up).
        self.heap_buf.clear();
        for r in 0..nr {
            let u = arena.users(r as u32) as u32;
            self.users[r] = u;
            if u > 0 {
                let share = (self.slack[r] / u as f64).max(0.0);
                self.heap_buf.push(Reverse(ShareKey::new(share, r as u32, 0)));
            }
        }
        self.fill_rounds::<LOG>(arena, rates, remaining);
    }

    /// Progressive filling from the solver's *current* `(slack, users,
    /// frozen, version)` state until `remaining` flows freeze. The heap is
    /// seeded by heapifying `heap_buf`, which must hold one entry per
    /// resource that still carries unfrozen flows, keyed at the current
    /// share and version. Appends freeze rounds to the log when `LOG`.
    ///
    /// Used by the cold solves (state initialised from scratch).
    /// [`MaxMinSolver::solve_warm`] does **not** call this: its live
    /// rounds deliberately duplicate this freeze-round arithmetic over
    /// the indexed warm heap — the two bodies must stay in lockstep
    /// (same operations in the same order) or bit-identity between warm
    /// and cold solves breaks; the workspace property suite pins that.
    fn fill_rounds<const LOG: bool>(
        &mut self,
        arena: &FlowArena,
        rates: &mut [f64],
        mut remaining: usize,
    ) {
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.heap_buf));
        while remaining > 0 {
            let Some(Reverse(key)) = heap.pop() else {
                debug_assert!(false, "flows remain but no resource has users");
                break;
            };
            let b = key.res() as usize;
            if key.version() != self.version[b] {
                continue; // stale entry
            }
            self.last_live_rounds += 1;
            let level = key.share();
            // Freeze every unfrozen flow crossing the bottleneck at
            // `level`, accumulating per-resource counts so the slack
            // update is independent of reverse-index ordering.
            self.touched.clear();
            for &e in &arena.rev[b] {
                let (slot, _) = unpack(e);
                let f = slot as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                rates[f] = level;
                remaining -= 1;
                if LOG {
                    self.log.freeze_slots.push(slot);
                }
                for &r2 in arena.resources_unchecked(slot) {
                    let r2 = r2 as usize;
                    if self.delta[r2] == 0 {
                        self.touched.push(r2 as u32);
                    }
                    self.delta[r2] += 1;
                }
            }
            debug_assert!(!self.touched.is_empty(), "bottleneck had users but froze nothing");
            if LOG {
                self.log.keys.push(ShareKey::new(level, b as u32, 0).0);
                self.log.levels.push(level);
                self.log.freeze_end.push(self.log.freeze_slots.len() as u32);
            }
            for i in 0..self.touched.len() {
                let r2 = self.touched[i] as usize;
                let d = self.delta[r2];
                self.delta[r2] = 0;
                self.users[r2] -= d;
                self.slack[r2] -= d as f64 * level;
                if LOG {
                    self.log.touched_res.push(r2 as u32);
                    self.log.touched_delta.push(d);
                }
                let v = self.version[r2].wrapping_add(1);
                self.version[r2] = v;
                if self.users[r2] > 0 {
                    let share = (self.slack[r2] / self.users[r2] as f64).max(0.0);
                    heap.push(Reverse(ShareKey::new(share, r2 as u32, v)));
                }
            }
            if LOG {
                self.log.round_end.push(self.log.touched_res.len() as u32);
            }
        }
        // Return the heap's buffer for the next solve.
        self.heap_buf = heap.into_vec();
    }

    /// Does the probe log describe the current state of `arena`?
    ///
    /// True after a [`MaxMinSolver::solve_logged`] with no arena mutation
    /// since. Probing requires this; callers that let the arena drift must
    /// re-solve first.
    pub fn log_matches(&self, arena: &FlowArena) -> bool {
        self.log.valid
            && self.log.generation == arena.generation()
            && self.log.n_resources as usize == arena.n_resources()
    }

    /// Rate a hypothetical extra flow crossing `resources` would receive
    /// if it joined the flow set last solved by
    /// [`MaxMinSolver::solve_logged`] — **bit-identical** to adding the
    /// flow to `arena`, solving from scratch, and reading its rate, but in
    /// `O(path · log rounds)` at most from the log's saturation index. The
    /// first probe after the log was recorded builds the index, in about
    /// `O(logged deltas · log rounds + resources)`.
    ///
    /// The committed solution is untouched: neither `arena` nor the base
    /// rates change (the only writes are to internal scratch), so probing
    /// is observably side-effect-free and allocation-free once warm.
    ///
    /// Panics if the log is missing or stale ([`MaxMinSolver::log_matches`]),
    /// or if `resources` is empty or out of range. `capacities` must be
    /// the slice passed to the logged solve.
    pub fn probe(&mut self, capacities: &[f64], arena: &FlowArena, resources: &[u32]) -> f64 {
        assert!(
            self.log_matches(arena),
            "probe without a current logged solve (call solve_logged first)"
        );
        self.ensure_index(capacities, arena);
        let (rate, rounds) = self.index.rate(resources, &self.log.keys);
        self.last_probe_replay_rounds = rounds;
        rate
    }

    /// [`MaxMinSolver::probe`] over a whole batch: `out[i]` becomes the
    /// what-if rate of `batch.resources(i)`. Candidates are independent —
    /// each is rated against the base flow set alone, all sharing the one
    /// logged solve.
    pub fn probe_batch(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        batch: &ProbeBatch,
        out: &mut Vec<f64>,
    ) {
        assert!(
            self.log_matches(arena),
            "probe_batch without a current logged solve (call solve_logged first)"
        );
        self.ensure_index(capacities, arena);
        self.last_probe_replay_rounds = 0;
        out.clear();
        out.reserve(batch.len());
        for i in 0..batch.len() {
            let (rate, rounds) = self.index.rate(batch.resources(i), &self.log.keys);
            self.last_probe_replay_rounds += rounds;
            out.push(rate);
        }
    }

    /// One logged solve plus a batched what-if evaluation: computes the
    /// base allocation into `rates` and each candidate's rate into `out`.
    /// This is the placement engine's entry point — one solver pass per
    /// *batch*, not per candidate.
    pub fn solve_batch(
        &mut self,
        capacities: &[f64],
        arena: &FlowArena,
        batch: &ProbeBatch,
        rates: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.solve_logged(capacities, arena, rates);
        self.probe_batch(capacities, arena, batch, out);
    }

    /// Build the saturation index of the current log unless it is
    /// already built. The log must match `arena`.
    fn ensure_index(&mut self, capacities: &[f64], arena: &FlowArena) {
        if !self.log.indexed {
            assert!(capacities.len() >= self.log.n_resources as usize, "capacities too short");
            self.index.build(&self.log, capacities, arena.users_counts());
            self.log.indexed = true;
        }
    }
}

/// Compute max-min fair rates from a one-shot flow list.
///
/// Compatibility wrapper over [`FlowArena`] + [`MaxMinSolver`]: builds the
/// arena, solves once, and returns one rate per flow (in input order).
/// Long-lived callers that mutate the flow set should hold an arena and a
/// solver instead — this wrapper reconstructs both on every call.
///
/// * `capacities[r]` — capacity of resource `r` (bits/s, must be > 0).
/// * `flows[f]` — indices of the resources flow `f` traverses (each must
///   be non-empty: a flow that crosses nothing has no bottleneck).
pub fn max_min_rates(capacities: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
    let mut arena = FlowArena::new(capacities.len());
    for f in flows {
        arena.add(f);
    }
    let mut solver = MaxMinSolver::new();
    let mut rates = Vec::new();
    solver.solve(capacities, &arena, &mut rates);
    rates.truncate(flows.len());
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[100.0], &[vec![0]]);
        assert!(close(rates[0], 100.0));
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[90.0], &[vec![0], vec![0], vec![0]]);
        for r in rates {
            assert!(close(r, 30.0));
        }
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: links capacities 10, 10; flow A uses both,
        // flows B and C use one each.
        // A shares link0 with B and link1 with C: A=5, B=5, C=5.
        let caps = [10.0, 10.0];
        let flows = vec![vec![0, 1], vec![0], vec![1]];
        let rates = max_min_rates(&caps, &flows);
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 5.0));
        assert!(close(rates[2], 5.0));
    }

    #[test]
    fn unbalanced_bottlenecks() {
        // link0 cap 6 carries f0,f1,f2; link1 cap 10 carries f2,f3.
        // Round 1: link0 share 2 -> freeze f0,f1,f2 at 2.
        // Round 2: link1 slack 8, f3 alone -> 8.
        let caps = [6.0, 10.0];
        let flows = vec![vec![0], vec![0], vec![0, 1], vec![1]];
        let rates = max_min_rates(&caps, &flows);
        assert!(close(rates[0], 2.0));
        assert!(close(rates[1], 2.0));
        assert!(close(rates[2], 2.0));
        assert!(close(rates[3], 8.0));
    }

    #[test]
    fn hose_cap_limits_all_flows_from_a_source() {
        // Two flows out of the same VM with a 300 unit hose, over separate
        // 1000 unit links: each gets 150 (the hose is the bottleneck).
        let caps = [1000.0, 1000.0, 300.0];
        let flows = vec![vec![0, 2], vec![1, 2]];
        let rates = max_min_rates(&caps, &flows);
        assert!(close(rates[0], 150.0));
        assert!(close(rates[1], 150.0));
    }

    #[test]
    fn allocation_is_work_conserving_on_single_link() {
        let caps = [500.0];
        let flows: Vec<Vec<u32>> = (0..7).map(|_| vec![0]).collect();
        let rates = max_min_rates(&caps, &flows);
        let total: f64 = rates.iter().sum();
        assert!(close(total, 500.0));
    }

    #[test]
    fn no_flow_exceeds_any_resource_capacity() {
        let caps = [10.0, 3.0, 7.0];
        let flows = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![2]];
        let rates = max_min_rates(&caps, &flows);
        // Per-resource usage within capacity.
        for (r, cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&(r as u32)))
                .map(|(_, rate)| rate)
                .sum();
            assert!(used <= cap + 1e-6, "resource {r} over capacity: {used}");
        }
    }

    #[test]
    fn empty_problem_is_fine() {
        assert!(max_min_rates(&[10.0], &[]).is_empty());
        assert!(max_min_rates(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "traverses no resources")]
    fn empty_flow_rejected() {
        max_min_rates(&[10.0], &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "bad resource")]
    fn out_of_range_resource_rejected() {
        max_min_rates(&[10.0], &[vec![3]]);
    }

    #[test]
    fn maxmin_dominance_property() {
        // In a max-min allocation, a flow's rate can only be below another's
        // if it shares a saturated resource with it. Spot-check: the flow
        // crossing both links never gets less than the fair share of its
        // tightest link.
        let caps = [12.0, 4.0];
        let flows = vec![vec![0], vec![0, 1], vec![1]];
        let rates = max_min_rates(&caps, &flows);
        // link1 share = 2 each for f1,f2; link0 then gives f0 = 10.
        assert!(close(rates[1], 2.0));
        assert!(close(rates[2], 2.0));
        assert!(close(rates[0], 10.0));
    }

    // ------------------------------------------------- incremental arena

    #[test]
    fn arena_add_remove_roundtrip_keeps_invariants() {
        let mut a = FlowArena::new(8);
        let s0 = a.add(&[0, 1, 2]);
        let s1 = a.add(&[2, 3]);
        let s2 = a.add(&[4]);
        a.check_invariants();
        assert_eq!(a.n_flows(), 3);
        assert_eq!(a.users(2), 2);
        a.remove(s1);
        a.check_invariants();
        assert_eq!(a.users(2), 1);
        assert_eq!(a.users(3), 0);
        // Slot reuse: a new flow lands in the vacated slot.
        let s3 = a.add(&[5, 6]);
        assert_eq!(s3, s1);
        a.check_invariants();
        assert_eq!(a.resources(s0), &[0, 1, 2]);
        assert_eq!(a.resources(s2), &[4]);
        assert_eq!(a.resources(s3), &[5, 6]);
    }

    #[test]
    fn incremental_solution_tracks_flow_set() {
        let caps = [10.0, 10.0];
        let mut arena = FlowArena::new(2);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        let a = arena.add(&[0, 1]);
        let b = arena.add(&[0]);
        let c = arena.add(&[1]);
        solver.solve(&caps, &arena, &mut rates);
        assert!(close(rates[a.0 as usize], 5.0));
        // Remove the long flow: b and c each get a full link.
        arena.remove(a);
        solver.solve(&caps, &arena, &mut rates);
        assert!(close(rates[b.0 as usize], 10.0));
        assert!(close(rates[c.0 as usize], 10.0));
        // Re-adding an equivalent flow restores the original allocation.
        let a2 = arena.add(&[0, 1]);
        solver.solve(&caps, &arena, &mut rates);
        assert!(close(rates[a2.0 as usize], 5.0));
        assert!(close(rates[b.0 as usize], 5.0));
        assert!(close(rates[c.0 as usize], 5.0));
    }

    #[test]
    fn block_recycling_reuses_pool_space() {
        let mut a = FlowArena::new(16);
        let s = a.add(&[0, 1, 2, 3, 4]); // capacity rounds to 8
        let pool_len = a.pool.len();
        a.remove(s);
        // Same-size flow reuses the same block: the pool must not grow.
        let s2 = a.add(&[5, 6, 7, 8, 9]);
        assert_eq!(a.pool.len(), pool_len);
        a.remove(s2);
        // A shorter flow fits the banked block too (cap 8 ≥ 2).
        let s3 = a.add(&[1, 2]);
        let _ = s3;
        a.check_invariants();
    }

    #[test]
    fn grow_resources_extends_id_space() {
        let mut a = FlowArena::new(2);
        a.grow_resources(4);
        let s = a.add(&[3]);
        assert_eq!(a.users(3), 1);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve(&[5.0, 5.0, 5.0, 7.0], &a, &mut rates);
        assert!(close(rates[s.0 as usize], 7.0));
    }

    // ------------------------------------------------- batched what-if

    /// Reference for a probe: add the candidate for real, solve from
    /// scratch, read its rate.
    fn full_solve_probe(caps: &[f64], base: &[Vec<u32>], candidate: &[u32]) -> f64 {
        let mut arena = FlowArena::new(caps.len());
        for f in base {
            arena.add(f);
        }
        let probe = arena.add(candidate);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve(caps, &arena, &mut rates);
        rates[probe.0 as usize]
    }

    #[test]
    fn probe_batch_bitmatches_full_solves() {
        // Mixed bottlenecks: shared link, private links, a hose-like cap.
        let caps = [10.0, 10.0, 6.0, 300.0];
        let base: Vec<Vec<u32>> = vec![vec![0, 1], vec![0], vec![1], vec![2], vec![2, 3]];
        let mut arena = FlowArena::new(caps.len());
        for f in &base {
            arena.add(f);
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        let mut batch = ProbeBatch::new();
        let candidates: Vec<Vec<u32>> =
            vec![vec![0], vec![1], vec![2], vec![3], vec![0, 1], vec![0, 2, 3], vec![1, 3]];
        for c in &candidates {
            batch.push(c);
        }
        let mut out = Vec::new();
        solver.solve_batch(&caps, &arena, &batch, &mut rates, &mut out);
        assert_eq!(out.len(), candidates.len());
        for (c, got) in candidates.iter().zip(&out) {
            let want = full_solve_probe(&caps, &base, c);
            assert_eq!(got.to_bits(), want.to_bits(), "candidate {c:?}: {got} vs {want}");
        }
    }

    #[test]
    fn probe_index_handles_key_dips() {
        // r0 and r1 tie at 10/3; r0 pops first (lower id) and freezes the
        // flow it shares with r1, whose share is then recomputed as
        // (10 − 10/3)/2, which rounds 1 ulp *below* 10/3: the logged keys
        // dip. r2 also loses a flow in round 0; with one extra user its
        // key is then that same dipped share at a higher id, so it falls
        // between the two logged keys. It does not fire at round 1 and
        // fires at round 2, even though round 0's key already exceeds it.
        // r3 is idle.
        let caps = [10.0, 10.0, 10.0, 10.0];
        let base: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 2], vec![0], vec![1], vec![1], vec![2]];
        let mut arena = FlowArena::new(caps.len());
        for f in &base {
            arena.add(f);
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        let keys = &solver.log.keys;
        assert_eq!(keys.len(), 3);
        assert!(keys[1] < keys[0], "tie-heavy arena must log a key dip: {keys:?}");
        // (candidate, rounds up to its fire round): r0/r1 fire at once;
        // r2 fires at round 2 (a search that trusted the running maximum
        // alone would say round 1); idle r3 never fires.
        let cases: [(&[u32], u64); 6] =
            [(&[0], 1), (&[1], 1), (&[2], 3), (&[3], 3), (&[2, 3], 3), (&[1, 2], 1)];
        for (cand, rounds) in cases {
            let got = solver.probe(&caps, &arena, cand);
            let want = full_solve_probe(&caps, &base, cand);
            assert_eq!(got.to_bits(), want.to_bits(), "candidate {cand:?}: {got} vs {want}");
            assert_eq!(solver.last_probe_replay_rounds(), rounds, "candidate {cand:?}");
        }
    }

    /// What the saturation index must reproduce, by definition: walk the
    /// log with one extra user on each candidate resource and stop at the
    /// first round some candidate key beats or ties. Returns the rate and
    /// the rounds visited.
    fn walk_log(solver: &MaxMinSolver, caps: &[f64], arena: &FlowArena, s: &[u32]) -> (f64, u64) {
        let log = &solver.log;
        let mut slack: Vec<f64> = s.iter().map(|&r| caps[r as usize]).collect();
        let mut users: Vec<u32> = s.iter().map(|&r| arena.users(r) as u32).collect();
        let cmin = |slack: &[f64], users: &[u32]| {
            let keys = s
                .iter()
                .enumerate()
                .map(|(i, &r)| ShareKey::new((slack[i] / (users[i] + 1) as f64).max(0.0), r, 0).0);
            keys.min().unwrap()
        };
        let mut t0 = 0;
        for k in 0..log.keys.len() {
            let key = cmin(&slack, &users);
            if key <= log.keys[k] {
                return (ShareKey(key).share(), k as u64 + 1);
            }
            let t1 = log.round_end[k] as usize;
            for t in t0..t1 {
                if let Some(i) = s.iter().position(|&r| r == log.touched_res[t]) {
                    users[i] -= log.touched_delta[t];
                    slack[i] -= log.touched_delta[t] as f64 * log.levels[k];
                }
            }
            t0 = t1;
        }
        (ShareKey(cmin(&slack, &users)).share(), log.keys.len() as u64)
    }

    #[test]
    fn probe_index_matches_log_walk_on_tie_heavy_arenas() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut dips = 0;
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        for _ in 0..2000 {
            // Few distinct capacities and short paths: many equal shares.
            let nr = 3 + next(5) as usize;
            let caps: Vec<f64> =
                (0..nr).map(|_| [10.0, 10.0, 20.0, 30.0][next(4) as usize]).collect();
            let mut arena = FlowArena::new(nr);
            for _ in 0..next(16) {
                let mut f: Vec<u32> = (0..1 + next(3)).map(|_| next(nr as u64) as u32).collect();
                f.sort_unstable();
                f.dedup();
                arena.add(&f);
            }
            solver.solve_logged(&caps, &arena, &mut rates);
            dips += solver.log.keys.windows(2).filter(|w| w[1] < w[0]).count();
            for a in 0..nr as u32 {
                for b in a..nr as u32 {
                    let cand: &[u32] = if a == b { &[a] } else { &[a, b] };
                    let got = solver.probe(&caps, &arena, cand);
                    let (want, rounds) = walk_log(&solver, &caps, &arena, cand);
                    assert_eq!(got.to_bits(), want.to_bits(), "candidate {cand:?}");
                    assert_eq!(solver.last_probe_replay_rounds(), rounds, "candidate {cand:?}");
                }
            }
        }
        assert!(dips > 0, "no logged key dip: the arenas do not exercise the dip search");
    }

    #[test]
    fn probe_on_empty_flow_set_sees_raw_capacity() {
        let caps = [7.0, 3.0];
        let arena = FlowArena::new(2);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(close(solver.probe(&caps, &arena, &[0]), 7.0));
        assert!(close(solver.probe(&caps, &arena, &[0, 1]), 3.0));
    }

    #[test]
    fn probe_leaves_committed_state_untouched() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        let a = arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        let before = rates.clone();
        let gen = arena.generation();
        let r = solver.probe(&caps, &arena, &[0]);
        assert!(close(r, 5.0), "probe shares with the one live flow: {r}");
        assert_eq!(rates, before, "base rates untouched");
        assert_eq!(arena.generation(), gen, "arena untouched");
        assert!(close(rates[a.0 as usize], 10.0));
    }

    #[test]
    #[should_panic(expected = "logged solve")]
    fn probe_rejects_stale_log() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        arena.add(&[0]); // mutate after the logged solve
        let _ = solver.probe(&caps, &arena, &[0]);
    }

    #[test]
    #[should_panic(expected = "logged solve")]
    fn plain_solve_invalidates_probe_log() {
        let caps = [10.0];
        let arena = FlowArena::new(1);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        solver.solve(&caps, &arena, &mut rates);
        let _ = solver.probe(&caps, &arena, &[0]);
    }

    // ------------------------------------------------- warm-started solves

    /// Bit-compare a warm-chained solver against per-step cold solves.
    fn assert_warm_matches_cold(warm: &[f64], arena: &FlowArena, caps: &[f64]) {
        let mut cold_solver = MaxMinSolver::new();
        let mut cold = Vec::new();
        cold_solver.solve(caps, arena, &mut cold);
        assert_eq!(warm.len(), cold.len());
        for (slot, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(w.to_bits(), c.to_bits(), "slot {slot}: warm {w} vs cold {c}");
        }
    }

    #[test]
    fn warm_solve_bitmatches_cold_across_churn() {
        let caps = [10.0, 8.0, 6.0, 12.0, 5.0, 300.0];
        let mut arena = FlowArena::new(caps.len());
        let mut slots = Vec::new();
        for f in [vec![0u32, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5], vec![0, 5]] {
            slots.push(arena.add(&f));
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        // First warm call has no log: exactly a cold logged solve.
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Single-flow churn chains warm.
        arena.remove(slots[2]);
        slots[2] = arena.add(&[1, 3, 5]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Pure removal.
        arena.remove(slots[4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Pure addition into the recycled slot.
        slots[4] = arena.add(&[0, 2, 4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // No-op churn (identical flow set): the whole log revalidates.
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
    }

    #[test]
    fn warm_solve_bitmatches_cold_after_capacity_changes() {
        let mut caps = vec![10.0, 8.0, 6.0, 12.0, 5.0, 300.0];
        let mut arena = FlowArena::new(caps.len());
        let mut slots = Vec::new();
        for f in [vec![0u32, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5], vec![0, 5]] {
            slots.push(arena.add(&f));
        }
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        // Degradation: fractional cut on one resource.
        caps[1] = 2.0;
        arena.touch_resource(1);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Failure: capacity to (nearly) nothing.
        caps[3] = 1e-3;
        arena.touch_resource(3);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Recovery mixed with flow churn in the same dirty window.
        caps[3] = 12.0;
        arena.touch_resource(3);
        arena.remove(slots[1]);
        slots[1] = arena.add(&[1, 4]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
        // A touch with no actual change still chains exactly.
        arena.touch_resource(0);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
    }

    #[test]
    fn touch_resource_invalidates_probe_log() {
        let caps = [10.0];
        let mut arena = FlowArena::new(1);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_logged(&caps, &arena, &mut rates);
        assert!(solver.log_matches(&arena));
        arena.clear_dirty();
        arena.touch_resource(0);
        assert!(!solver.log_matches(&arena), "stale capacities must not serve probes");
        assert_eq!(arena.dirty_resources(), &[0], "capacity touch recorded");
    }

    #[test]
    fn warm_solve_handles_grow_and_empty_sets() {
        let mut caps = vec![9.0, 7.0];
        let mut arena = FlowArena::new(2);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates); // empty arena, empty log
        let a = arena.add(&[0]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(close(rates[a.0 as usize], 9.0));
        // Grow the resource space and land a flow on the new resource.
        arena.grow_resources(3);
        caps.push(4.0);
        let b = arena.add(&[1, 2]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(close(rates[b.0 as usize], 4.0));
        assert_warm_matches_cold(&rates, &arena, &caps);
        // Empty out the arena again.
        arena.remove(a);
        arena.remove(b);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(rates.iter().all(|r| *r == 0.0));
    }

    #[test]
    fn warm_solve_leaves_a_hot_probe_log() {
        let caps = [10.0, 10.0];
        let mut arena = FlowArena::new(2);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        arena.add(&[1]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert!(solver.log_matches(&arena), "warm solve re-stamps the log");
        // Probes replay the warm-maintained log like a cold-logged one.
        assert!(close(solver.probe(&caps, &arena, &[0]), 5.0));
        assert!(close(solver.probe(&caps, &arena, &[0, 1]), 5.0));
    }

    #[test]
    fn dirty_window_survives_interleaved_cold_solves() {
        // solve_logged/solve do not clear the dirty window, so a warm
        // solve after an interleaved cold solve still sees a (super)set of
        // its own perturbations and stays exact.
        let caps = [12.0, 6.0, 8.0];
        let mut arena = FlowArena::new(3);
        let s0 = arena.add(&[0, 1]);
        arena.add(&[1, 2]);
        let mut solver = MaxMinSolver::new();
        let mut rates = Vec::new();
        solver.solve_warm(&caps, &mut arena, &mut rates);
        arena.remove(s0);
        // Interleaved cold logged solve (e.g. a probe-driven path).
        solver.solve_logged(&caps, &arena, &mut rates);
        arena.add(&[0, 2]);
        solver.solve_warm(&caps, &mut arena, &mut rates);
        assert_warm_matches_cold(&rates, &arena, &caps);
    }

    #[test]
    fn probe_batch_reuse_keeps_candidates_independent() {
        let caps = [9.0, 9.0];
        let mut arena = FlowArena::new(2);
        arena.add(&[0]);
        let mut solver = MaxMinSolver::new();
        let (mut rates, mut out) = (Vec::new(), Vec::new());
        let mut batch = ProbeBatch::new();
        // Three identical candidates: each must see the same what-if world
        // (4.5 each on link 0), not stack on one another.
        for _ in 0..3 {
            batch.push(&[0]);
        }
        solver.solve_batch(&caps, &arena, &batch, &mut rates, &mut out);
        for r in &out {
            assert!(close(*r, 4.5), "{r}");
        }
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&[1]);
        solver.probe_batch(&caps, &arena, &batch, &mut out);
        assert_eq!(out.len(), 1);
        assert!(close(out[0], 9.0), "cleared batch rates the idle link: {}", out[0]);
    }
}
