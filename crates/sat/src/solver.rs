//! A from-scratch CDCL SAT solver with native pseudo-Boolean constraints.
//!
//! The search core is the classic conflict-driven clause-learning loop:
//! two-watched-literal propagation, VSIDS-style variable activity with
//! phase saving, first-UIP conflict analysis with one-step local
//! minimisation, Luby restarts and activity-based learnt-clause deletion.
//!
//! On top of plain clauses the solver handles linear pseudo-Boolean
//! constraints `Σ cᵢ·[litᵢ] ≤ bound` with `f64` coefficients, propagated by
//! the counter method: the running sum of true-literal coefficients is
//! maintained incrementally along the trail, a constraint conflicts when
//! the sum exceeds its bound and it implies `¬l` whenever `sum + c_l`
//! would. Conflict analysis sees pseudo-Boolean constraints through
//! implied clausal reasons (`¬t₁ ∨ … ∨ ¬tₖ ∨ q`), which keeps first-UIP
//! learning sound without cutting-plane machinery. Bounds may only be
//! tightened in place ([`Solver::set_pb_bound`]), so every learnt clause
//! remains implied — that is exactly what the objective layer's iterative
//! bound-tightening needs.
//!
//! # Data layout
//!
//! The inner loops touch three structures, each laid out so a step reads
//! what it needs and nothing else:
//!
//! * **Clause arena.** Every clause lives in one `Vec<u32>` as
//!   `[len, clause index, lit₀, lit₁, …]`; watch lists and clausal reasons
//!   hold arena offsets, so a watch visit is one indexed read instead of a
//!   pointer chase. The clause index names the clause's `ClauseInfo`
//!   (activity, learnt flag, offset). `reduce_db` compacts the arena and
//!   rebuilds the watch lists in clause order.
//! * **True-literal masks.** Each pseudo-Boolean constraint keeps two
//!   bitmasks of its currently-true literals, one in `terms` order and one
//!   in descending-coefficient order, updated beside `sum_true` whenever a
//!   literal is assigned or unassigned. The exact sum adds only the set
//!   bits — in `terms` order, so the `f64` result is the one a full scan
//!   would give — and reason extraction walks only the true literals of
//!   the coefficient-sorted copy.
//! * **Order heap.** Branching pops an indexed binary max-heap keyed
//!   (activity descending, variable index ascending), a total order, so
//!   the pick is the highest-activity unassigned variable with the lowest
//!   index on ties, whatever shape the heap is in.
//!
//! # Determinism
//!
//! Everything is counter-based and free of wall-clock or randomness
//! dependence: the same formula gives the same trajectory — the same
//! decisions, trail order, learnt clauses and therefore the same model and
//! the same [`SatStats`]. `tests/trajectory.rs` pins that trajectory on
//! five scheduling instances; a change that only makes steps cheaper
//! leaves those numbers alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(u32);

impl Var {
    /// The variable's dense index (assignment order of [`Solver::new_var`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The underlying variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// The underlying variable.
    pub fn variable(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    #[must_use]
    pub fn inverse(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget ran out before an answer.
    Limit,
    /// The stop flag was raised ([`Solver::set_stop`]).
    Canceled,
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Conflicts encountered (learnt clauses).
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Why a variable holds its value — or, returned by propagation, the
/// constraint a conflict violates. Clauses are named by arena offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Decision,
    Clause(u32),
    Pb(u32),
}

/// Words of an arena entry before its literals: length, clause index.
const CLAUSE_HEADER: usize = 2;

/// Per-clause bookkeeping, indexed by the clause index in the arena header.
#[derive(Debug)]
struct ClauseInfo {
    /// Activity: bumped when the clause participates in conflict
    /// analysis; low-activity learnt clauses are periodically deleted.
    act: f64,
    /// Arena offset of the clause's header.
    off: u32,
    /// `true` for conflict-learnt clauses (deletion candidates).
    learnt: bool,
}

/// One occurrence of a literal in a pseudo-Boolean constraint.
#[derive(Debug, Clone, Copy)]
struct PbOcc {
    pb: u32,
    /// Position of the literal in the constraint's `terms`.
    term: u32,
    /// Position of the literal in the constraint's `by_coef`.
    rank: u32,
    coef: f64,
}

#[derive(Debug)]
struct Pb {
    /// `(coefficient, literal)` terms in ascending literal order;
    /// coefficients are strictly positive and each variable appears at
    /// most once.
    terms: Vec<(f64, Lit)>,
    /// The same terms by descending coefficient (ties in `terms` order):
    /// greedy reason extraction walks this to keep learnt clauses short.
    by_coef: Vec<(f64, Lit)>,
    /// Bit `i` set iff `terms[i]`'s literal is currently true.
    true_terms: Vec<u64>,
    /// Bit `i` set iff `by_coef[i]`'s literal is currently true.
    true_by_coef: Vec<u64>,
    bound: f64,
    /// Difference between the stored (normalized) bound and the bound the
    /// caller supplied, so [`Solver::set_pb_bound`] can keep accepting
    /// caller-scale values.
    norm_offset: f64,
    /// Incremental sum of coefficients of currently-true literals.
    sum_true: f64,
    max_coef: f64,
}

impl Pb {
    /// Exact fixed-order recomputation of the true-coefficient sum; used
    /// near the bound so incremental floating-point drift can never flip a
    /// feasibility decision. Adds the true terms in `terms` order.
    fn exact_sum(&self) -> f64 {
        let mut s = 0.0;
        for i in set_bits(&self.true_terms) {
            s += self.terms[i].0;
        }
        s
    }
}

/// Indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

fn set_bit(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1 << (i & 63);
}

fn clear_bit(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] &= !(1 << (i & 63));
}

/// The literals (as codes) of the clause at offset `off` of `arena`.
fn clause_lits(arena: &[u32], off: u32) -> &[u32] {
    let start = off as usize + CLAUSE_HEADER;
    &arena[start..start + arena[off as usize] as usize]
}

fn lit_value(assign: &[i8], l: Lit) -> i8 {
    let v = assign[l.var()];
    if l.is_neg() {
        -v
    } else {
        v
    }
}

/// `true` when `a` is branched on before `b`: higher activity first,
/// lower index on ties. A total order, so the maximum is unique.
fn branches_before(activity: &[f64], a: u32, b: u32) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a < b)
}

/// Indexed binary max-heap of variables under [`branches_before`]. Holds
/// every unassigned variable (and possibly some assigned ones, dropped as
/// they surface).
#[derive(Debug, Default)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, [`OrderHeap::ABSENT`] if out.
    slot: Vec<u32>,
}

impl OrderHeap {
    const ABSENT: u32 = u32::MAX;

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.slot[v as usize] == OrderHeap::ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restore the heap after `v`'s activity grew.
    fn bumped(&mut self, v: u32, activity: &[f64]) {
        let i = self.slot[v as usize];
        if i != OrderHeap::ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.slot[top as usize] = OrderHeap::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establish the heap from scratch (activities changed wholesale).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if !branches_before(activity, v, pv) {
                break;
            }
            self.heap[i] = pv;
            self.slot[pv as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.slot[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len()
                && branches_before(activity, self.heap[child + 1], self.heap[child])
            {
                child += 1;
            }
            let cv = self.heap[child];
            if !branches_before(activity, cv, v) {
                break;
            }
            self.heap[i] = cv;
            self.slot[cv as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.slot[v as usize] = i as u32;
    }
}

/// Number of conflicts per Luby-sequence unit.
const RESTART_UNIT: u64 = 128;
/// Stop-flag poll interval, in search-loop iterations.
const STOP_POLL: u64 = 128;
/// Activity decay applied after each conflict.
const ACT_DECAY: f64 = 1.0 / 0.95;
/// Clause-activity decay applied after each conflict.
const CLA_DECAY: f64 = 1.0 / 0.999;

/// The CDCL solver.
#[derive(Debug)]
pub struct Solver {
    // Assignment state.
    assign: Vec<i8>, // 0 unassigned, 1 true, -1 false
    level: Vec<u32>,
    pos: Vec<u32>,
    reason: Vec<Reason>,
    saved_phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    // Clause database: `[len, clause index, lits…]` entries back to back.
    arena: Vec<u32>,
    clauses: Vec<ClauseInfo>,
    watches: Vec<Vec<u32>>, // per literal code: arena offsets watching it

    // Pseudo-Boolean constraints.
    pbs: Vec<Pb>,
    pb_occ: Vec<Vec<PbOcc>>, // per literal code

    // Branching heuristic.
    activity: Vec<f64>,
    act_inc: f64,
    order: OrderHeap,

    // Learnt-clause management.
    cla_inc: f64,
    num_learnts: usize,
    max_learnts: usize,

    // Scratch reused across calls (no allocation in the steady state).
    seen: Vec<bool>,
    reason_buf: Vec<Lit>,
    learnt_buf: Vec<Lit>,
    implied_buf: Vec<Lit>,

    ok: bool,
    stop: Option<Arc<AtomicBool>>,
    /// Search statistics (cumulative across `solve` calls).
    pub stats: SatStats,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            assign: Vec::new(),
            level: Vec::new(),
            pos: Vec::new(),
            reason: Vec::new(),
            saved_phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: Vec::new(),
            pbs: Vec::new(),
            pb_occ: Vec::new(),
            activity: Vec::new(),
            act_inc: 1.0,
            order: OrderHeap::default(),
            cla_inc: 1.0,
            num_learnts: 0,
            max_learnts: 0,
            seen: Vec::new(),
            reason_buf: Vec::new(),
            learnt_buf: Vec::new(),
            implied_buf: Vec::new(),
            ok: true,
            stop: None,
            stats: SatStats::default(),
        }
    }

    /// A solver whose learnt-clause database is first reduced at
    /// `max_learnts` clauses instead of the size-derived default.
    #[cfg(test)]
    fn with_max_learnts(max_learnts: usize) -> Solver {
        Solver {
            max_learnts,
            ..Solver::new()
        }
    }

    /// Install a cooperative cancellation flag, polled inside the search
    /// loop; once it reads `true`, [`Solver::solve`] returns
    /// [`SolveOutcome::Canceled`].
    pub fn set_stop(&mut self, stop: Option<Arc<AtomicBool>>) {
        self.stop = stop;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Add a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(0);
        self.level.push(0);
        self.pos.push(0);
        self.reason.push(Reason::Decision);
        self.saved_phase.push(false);
        self.activity.push(0.0);
        self.order.slot.push(OrderHeap::ABSENT);
        self.order.insert(v.0, &self.activity);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.pb_occ.push(Vec::new());
        self.pb_occ.push(Vec::new());
        v
    }

    /// Model value of `v`; only meaningful after [`SolveOutcome::Sat`].
    pub fn value(&self, v: Var) -> bool {
        self.assign[v.index()] == 1
    }

    /// `false` once the clause database is known unsatisfiable outright.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Add a clause (must be called at decision level 0, i.e. outside
    /// `solve`). Returns `false` if the database became trivially
    /// unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause at level 0 only");
        if !self.ok {
            return false;
        }
        // Simplify: sort/dedup, drop false literals, detect tautologies and
        // already-satisfied clauses.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut simplified = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == l.inverse() {
                return true; // tautology
            }
            match lit_value(&self.assign, l) {
                1 => return true, // satisfied at level 0
                -1 => {}          // false at level 0: drop
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(simplified[0], Reason::Decision) {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.push_clause(&simplified, false, 0.0);
                true
            }
        }
    }

    /// Append a clause of two or more literals to the arena, watched by
    /// its first two; returns its offset.
    fn push_clause(&mut self, lits: &[Lit], learnt: bool, act: f64) -> u32 {
        let off = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.push(self.clauses.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.clauses.push(ClauseInfo { act, off, learnt });
        self.watches[lits[0].code()].push(off);
        self.watches[lits[1].code()].push(off);
        off
    }

    /// Add the pseudo-Boolean constraint `Σ coef·[lit] ≤ bound`. Negative
    /// coefficients are normalized onto negated literals; duplicate and
    /// complementary literals are merged. Returns the constraint's handle
    /// for later [`Solver::set_pb_bound`] tightening, or `None` when the
    /// constraint is trivially satisfied (and was dropped).
    pub fn add_pb_le(&mut self, terms: &[(f64, Lit)], bound: f64) -> Option<usize> {
        self.cancel_until(0); // constraints are installed at the root
        let caller_bound = bound;
        // Aggregate duplicate literals.
        let mut agg: Vec<(Lit, f64)> = Vec::with_capacity(terms.len());
        for &(c, l) in terms {
            agg.push((l, c));
        }
        agg.sort_unstable_by_key(|(l, _)| *l);
        let mut merged: Vec<(Lit, f64)> = Vec::with_capacity(agg.len());
        for (l, c) in agg {
            match merged.last_mut() {
                Some((pl, pc)) if *pl == l => *pc += c,
                _ => merged.push((l, c)),
            }
        }
        // Normalize negative coefficients: c·[l] = |c|·[¬l] − |c|.
        let mut bound = bound;
        let mut norm: Vec<(Lit, f64)> = Vec::with_capacity(merged.len());
        for (l, c) in merged {
            if c < 0.0 {
                bound += -c;
                norm.push((l.inverse(), -c));
            } else if c > 0.0 {
                norm.push((l, c));
            }
        }
        norm.sort_unstable_by_key(|(l, _)| *l);
        // A flipped term can land on a literal that already had one
        // (2·[x] − 3·[¬x] → 2·[x] + 3·[x]): aggregate again.
        norm.dedup_by(|later, kept| {
            kept.0 == later.0 && {
                kept.1 += later.1;
                true
            }
        });
        // Merge complementary pairs: a·[l] + b·[¬l] = min + (a−min)[l] + …
        let mut final_terms: Vec<(f64, Lit)> = Vec::with_capacity(norm.len());
        let mut i = 0;
        while i < norm.len() {
            let (l, c) = norm[i];
            if i + 1 < norm.len() && norm[i + 1].0 == l.inverse() {
                let (l2, c2) = norm[i + 1];
                let m = c.min(c2);
                bound -= m;
                if c - m > 1e-15 {
                    final_terms.push((c - m, l));
                }
                if c2 - m > 1e-15 {
                    final_terms.push((c2 - m, l2));
                }
                i += 2;
            } else {
                if c > 1e-15 {
                    final_terms.push((c, l));
                }
                i += 1;
            }
        }
        let norm_offset = bound - caller_bound;
        if bound < 0.0 {
            // Even the all-false assignment (sum 0) exceeds the bound.
            self.ok = false;
            return Some(self.push_pb(final_terms, bound, norm_offset));
        }
        let total: f64 = final_terms.iter().map(|(c, _)| c).sum();
        if total <= bound {
            return None; // trivially satisfied
        }
        Some(self.push_pb(final_terms, bound, norm_offset))
    }

    fn push_pb(&mut self, terms: Vec<(f64, Lit)>, bound: f64, norm_offset: f64) -> usize {
        debug_assert!(
            terms.windows(2).all(|w| w[0].1.var() < w[1].1.var()),
            "terms ascend by literal, one per variable"
        );
        let pi = self.pbs.len() as u32;
        let mut order: Vec<u32> = (0..terms.len() as u32).collect();
        order.sort_by(|&a, &b| {
            terms[b as usize]
                .0
                .partial_cmp(&terms[a as usize].0)
                .expect("coefficients are finite")
                .then(a.cmp(&b))
        });
        let words = terms.len().div_ceil(64);
        let mut pb = Pb {
            by_coef: order.iter().map(|&ti| terms[ti as usize]).collect(),
            true_terms: vec![0; words],
            true_by_coef: vec![0; words],
            bound,
            norm_offset,
            sum_true: 0.0,
            max_coef: order.first().map_or(0.0, |&ti| terms[ti as usize].0),
            terms,
        };
        for (rank, &term) in (0u32..).zip(&order) {
            let (coef, l) = pb.terms[term as usize];
            self.pb_occ[l.code()].push(PbOcc {
                pb: pi,
                term,
                rank,
                coef,
            });
            if lit_value(&self.assign, l) == 1 {
                set_bit(&mut pb.true_terms, term);
                set_bit(&mut pb.true_by_coef, rank);
            }
        }
        pb.sum_true = pb.exact_sum();
        self.pbs.push(pb);
        pi as usize
    }

    /// Tighten the bound of pseudo-Boolean constraint `idx` in place
    /// (`bound` is on the caller's scale, as passed to
    /// [`Solver::add_pb_le`]). Only tightening (a smaller bound) is sound:
    /// learnt clauses derived under the old bound stay implied under the
    /// new one.
    pub fn set_pb_bound(&mut self, idx: usize, bound: f64) {
        self.cancel_until(0);
        let stored = bound + self.pbs[idx].norm_offset;
        debug_assert!(
            stored <= self.pbs[idx].bound + 1e-12,
            "pb bounds may only be tightened"
        );
        self.pbs[idx].bound = stored;
    }

    /// Install — or retighten, when `companion` is given — the implied
    /// cardinality companion of pseudo-Boolean constraint `idx`: if even
    /// the `m + 1` smallest coefficients sum past the bound, then at most
    /// `m` of the constraint's literals can be true. The unit-coefficient
    /// form propagates far more eagerly than the weighted original (once
    /// `m` literals hold, every other literal is implied false at once),
    /// which matters most during UNSAT proofs over near-uniform weights.
    /// Returns the companion's handle; `None` when no strict cardinality
    /// is implied (and none was installed).
    pub fn refresh_pb_cardinality(
        &mut self,
        idx: usize,
        companion: Option<usize>,
    ) -> Option<usize> {
        let pb = &self.pbs[idx];
        // Safety margin errs toward a LARGER (weaker, still implied) cap.
        let margin = 1e-9 * pb.bound.abs().max(1.0);
        let mut sum = 0.0;
        let mut m = 0usize;
        for &(c, _) in pb.by_coef.iter().rev() {
            let next = sum + c;
            if next > pb.bound + margin {
                break;
            }
            sum = next;
            m += 1;
        }
        if m >= pb.terms.len() {
            debug_assert!(companion.is_none(), "cardinality caps only tighten");
            return None; // no strict cardinality implied
        }
        match companion {
            Some(ci) => {
                self.set_pb_bound(ci, m as f64);
                Some(ci)
            }
            None => {
                let unit: Vec<(f64, Lit)> =
                    self.pbs[idx].terms.iter().map(|&(_, l)| (1.0, l)).collect();
                self.add_pb_le(&unit, m as f64)
            }
        }
    }

    /// Search for a model, stopping after `max_conflicts` additional
    /// conflicts if given. Callable repeatedly; learnt clauses and
    /// activities persist across calls.
    pub fn solve(&mut self, max_conflicts: Option<u64>) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        self.cancel_until(0);
        // Re-establish level-0 pseudo-Boolean state exactly: bounds may
        // have been tightened between calls, and exact recomputation also
        // clears any accumulated floating-point drift.
        for pb in &mut self.pbs {
            pb.sum_true = pb.exact_sum();
            if pb.sum_true > pb.bound {
                self.ok = false;
                return SolveOutcome::Unsat;
            }
        }
        for pi in 0..self.pbs.len() {
            if self.pb_implications(pi as u32).is_some() {
                self.ok = false;
                return SolveOutcome::Unsat;
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveOutcome::Unsat;
        }

        if self.max_learnts == 0 {
            self.max_learnts = (self.clauses.len() * 2).max(4_000);
        }
        let budget_end = max_conflicts.map(|m| self.stats.conflicts + m);
        let mut restart_seq = 1u64; // index into the Luby sequence
        let mut restart_limit = luby(restart_seq) * RESTART_UNIT;
        let mut conflicts_since_restart = 0u64;
        let mut iters = 0u64;

        loop {
            // `iters == 0` included: a pre-set flag must cancel even
            // instances that would otherwise solve in a handful of steps.
            if iters.is_multiple_of(STOP_POLL) {
                if let Some(stop) = &self.stop {
                    if stop.load(Ordering::Relaxed) {
                        self.cancel_until(0);
                        return SolveOutcome::Canceled;
                    }
                }
            }
            iters += 1;
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                let back_level = self.analyze(confl);
                self.cancel_until(back_level);
                self.attach_learnt();
                self.act_inc *= ACT_DECAY;
                if self.act_inc > 1e100 {
                    for a in &mut self.activity {
                        *a *= 1e-100;
                    }
                    self.act_inc *= 1e-100;
                    // Scaling can merge activities that differed, turning
                    // an activity order into an index order.
                    self.order.rebuild(&self.activity);
                }
                self.cla_inc *= CLA_DECAY;
                if self.cla_inc > 1e20 {
                    for c in &mut self.clauses {
                        c.act *= 1e-20;
                    }
                    self.cla_inc *= 1e-20;
                }
                if let Some(end) = budget_end {
                    if self.stats.conflicts >= end {
                        self.cancel_until(0);
                        return SolveOutcome::Limit;
                    }
                }
                if conflicts_since_restart >= restart_limit {
                    restart_seq += 1;
                    restart_limit = luby(restart_seq) * RESTART_UNIT;
                    conflicts_since_restart = 0;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    if self.num_learnts > self.max_learnts {
                        self.reduce_db();
                        self.max_learnts += self.max_learnts / 10;
                    }
                }
            } else {
                // Decide the unassigned variable with the highest activity
                // (lowest index on ties) on its saved phase.
                let Some(v) = self.pick_branch_var() else {
                    return SolveOutcome::Sat; // full assignment
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.saved_phase[v] {
                    Lit::pos(Var(v as u32))
                } else {
                    Lit::neg(Var(v as u32))
                };
                let ok = self.enqueue(lit, Reason::Decision);
                debug_assert!(ok, "decision variable was unassigned");
            }
        }
    }

    fn pick_branch_var(&mut self) -> Option<usize> {
        let picked = loop {
            match self.order.pop(&self.activity) {
                Some(v) if self.assign[v as usize] != 0 => {}
                other => break other.map(|v| v as usize),
            }
        };
        debug_assert_eq!(
            picked,
            (0..self.assign.len())
                .filter(|&v| self.assign[v] == 0)
                .reduce(|best, v| if self.activity[v] > self.activity[best] {
                    v
                } else {
                    best
                }),
            "heap pick is the max-activity, lowest-index unassigned variable"
        );
        picked
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) -> bool {
        match lit_value(&self.assign, l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var();
                self.assign[v] = if l.is_neg() { -1 } else { 1 };
                self.level[v] = self.current_level();
                self.pos[v] = self.trail.len() as u32;
                self.reason[v] = reason;
                for o in &self.pb_occ[l.code()] {
                    let pb = &mut self.pbs[o.pb as usize];
                    pb.sum_true += o.coef;
                    set_bit(&mut pb.true_terms, o.term);
                    set_bit(&mut pb.true_by_coef, o.rank);
                }
                self.trail.push(l);
                true
            }
        }
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.current_level() <= lvl {
            return;
        }
        let target = self.trail_lim[lvl as usize];
        while self.trail.len() > target {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var();
            for o in &self.pb_occ[l.code()] {
                let pb = &mut self.pbs[o.pb as usize];
                pb.sum_true -= o.coef;
                clear_bit(&mut pb.true_terms, o.term);
                clear_bit(&mut pb.true_by_coef, o.rank);
            }
            self.saved_phase[v] = !l.is_neg();
            self.assign[v] = 0;
            self.order.insert(v as u32, &self.activity);
        }
        self.trail_lim.truncate(lvl as usize);
        self.qhead = target;
        debug_assert!(self.pb_masks_match_assignment());
    }

    /// Both masks of every pseudo-Boolean constraint mark exactly its
    /// currently-true literals (debug cross-check).
    fn pb_masks_match_assignment(&self) -> bool {
        let agrees = |order: &[(f64, Lit)], mask: &[u64]| {
            order.iter().enumerate().all(|(i, &(_, l))| {
                (mask[i >> 6] >> (i & 63) & 1 == 1) == (lit_value(&self.assign, l) == 1)
            })
        };
        self.pbs
            .iter()
            .all(|pb| agrees(&pb.terms, &pb.true_terms) && agrees(&pb.by_coef, &pb.true_by_coef))
    }

    /// Propagate until fixpoint; returns a conflict if one arises.
    fn propagate(&mut self) -> Option<Reason> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Clause propagation: clauses watching ¬p just lost a watch.
            // Replacement watches never target the falsified literal, so
            // its list can be lifted out while the others grow.
            let false_lit = p.inverse();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = 0;
            let mut confl: Option<Reason> = None;
            'clauses: for wi in 0..ws.len() {
                let off = ws[wi];
                let start = off as usize + CLAUSE_HEADER;
                let len = self.arena[off as usize] as usize;
                let lits = &mut self.arena[start..start + len];
                // Ensure the false literal sits in slot 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                let first = Lit(lits[0]);
                if lit_value(&self.assign, first) == 1 {
                    ws[keep] = off;
                    keep += 1;
                    continue; // satisfied
                }
                // Look for a replacement watch.
                for k in 2..len {
                    if lit_value(&self.assign, Lit(lits[k])) != -1 {
                        lits.swap(1, k);
                        self.watches[lits[1] as usize].push(off);
                        continue 'clauses;
                    }
                }
                // Unit or conflicting.
                ws[keep] = off;
                keep += 1;
                if !self.enqueue(first, Reason::Clause(off)) {
                    // Conflict: keep remaining watches, stop.
                    ws.copy_within(wi + 1.., keep);
                    keep += ws.len() - (wi + 1);
                    confl = Some(Reason::Clause(off));
                    break;
                }
            }
            ws.truncate(keep);
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = ws;
            if confl.is_some() {
                return confl;
            }

            // Pseudo-Boolean propagation for constraints containing p.
            for i in 0..self.pb_occ[p.code()].len() {
                let pi = self.pb_occ[p.code()][i].pb;
                let confl = self.pb_implications(pi);
                if confl.is_some() {
                    return confl;
                }
            }
        }
        None
    }

    /// Check one pseudo-Boolean constraint for conflict / implications.
    fn pb_implications(&mut self, pi: u32) -> Option<Reason> {
        let pb = &mut self.pbs[pi as usize];
        // Fast path: nothing can happen while the slack clears the largest
        // coefficient by a safe margin.
        if pb.bound - pb.sum_true > pb.max_coef + 1e-3 {
            return None;
        }
        // Near the bound: recompute the sum in fixed term order so
        // incremental drift cannot flip a decision.
        let exact = pb.exact_sum();
        debug_assert_eq!(
            exact.to_bits(),
            pb.terms
                .iter()
                .filter(|t| lit_value(&self.assign, t.1) == 1)
                .fold(0.0, |s, t| s + t.0)
                .to_bits(),
            "masked sum is the term-order sum"
        );
        pb.sum_true = exact;
        if exact > pb.bound {
            return Some(Reason::Pb(pi));
        }
        // Every unassigned literal whose coefficient exceeds the slack is
        // implied false. Those coefficients are a prefix of the descending
        // order; the implications are enqueued in `terms` order.
        let slack = pb.bound - exact;
        let mut implied = std::mem::take(&mut self.implied_buf);
        implied.clear();
        for &(c, l) in &pb.by_coef {
            if c <= slack {
                break;
            }
            if lit_value(&self.assign, l) == 0 {
                implied.push(l);
            }
        }
        implied.sort_unstable();
        for &l in &implied {
            // Distinct variables, none in this constraint negated: no
            // implication can falsify another.
            let ok = self.enqueue(l.inverse(), Reason::Pb(pi));
            debug_assert!(ok, "implied literal was unassigned");
        }
        self.implied_buf = implied;
        None
    }

    /// Walk the clausal form of constraint `why` as the reason for the trail
    /// literal of variable `implied` — every literal handed to `f` is false
    /// and was assigned before it — or, with `None`, as a conflict. Stops
    /// early and returns `false` as soon as `f` does.
    fn walk_reason(
        &self,
        why: Reason,
        implied: Option<usize>,
        mut f: impl FnMut(Lit) -> bool,
    ) -> bool {
        match why {
            Reason::Decision => true,
            Reason::Clause(off) => clause_lits(&self.arena, off)
                .iter()
                .all(|&q| Some(Lit(q).var()) == implied || f(Lit(q))),
            Reason::Pb(pi) => {
                // Lazy reason: negations of true literals assigned before
                // the implied one (trail position makes "before" precise)
                // whose coefficients, plus its own, exceed the bound.
                let (mut sum, before) = match implied {
                    None => (0.0, u32::MAX),
                    Some(v) => {
                        // The constraint holds the literal v's assignment falsifies.
                        let falsified = self.trail[self.pos[v] as usize].inverse();
                        let mut occ = self.pb_occ[falsified.code()].iter();
                        let own = occ.find(|o| o.pb == pi);
                        (own.expect("implied by this constraint").coef, self.pos[v])
                    }
                };
                // Greedy over descending coefficients, so the clause stays
                // short and prunes hard; the margin covers floating-point
                // reassociation error. Falls back to the whole true set.
                let pb = &self.pbs[pi as usize];
                let margin = 1e-9 * pb.bound.abs().max(1.0);
                for i in set_bits(&pb.true_by_coef) {
                    let (c, l) = pb.by_coef[i];
                    if self.pos[l.var()] >= before {
                        continue;
                    }
                    sum += c;
                    if !f(l.inverse()) {
                        return false;
                    }
                    if sum > pb.bound + margin {
                        break;
                    }
                }
                true
            }
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `learnt_buf` and returns the backtrack level.
    fn analyze(&mut self, confl: Reason) -> u32 {
        let cur = self.current_level();
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        let mut reason = std::mem::take(&mut self.reason_buf);
        learnt.clear();
        learnt.push(Lit(0)); // slot 0 is the asserting literal's
        let mut counter = 0u32;
        let mut idx = self.trail.len();
        let (mut why, mut implied) = (confl, None);
        loop {
            if let Reason::Clause(off) = why {
                self.bump_clause(off);
            }
            reason.clear();
            self.walk_reason(why, implied, |q| {
                reason.push(q);
                true
            });
            for &q in &reason {
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.activity[v] += self.act_inc;
                    self.order.bumped(v as u32, &self.activity);
                    if self.level[v] >= cur {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            let v = p.var();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.inverse();
                break;
            }
            (why, implied) = (self.reason[v], Some(v));
        }
        // Minimize: a non-asserting literal whose whole reason lies inside
        // the clause (`seen`, still marked here) or at level 0 is implied
        // by the rest and can be dropped. Reasons point strictly backwards
        // on the trail, so dropping in any order stays sound. Exactly the
        // non-asserting literals are still marked, and dropped ones must
        // stay marked until the end: remember them all for the unmarking.
        reason.clear();
        reason.extend_from_slice(&learnt[1..]);
        let mut i = 1;
        while i < learnt.len() {
            let v = learnt[i].var();
            let in_clause = |r: Lit| self.level[r.var()] == 0 || self.seen[r.var()];
            let redundant = self.reason[v] != Reason::Decision
                && self.walk_reason(self.reason[v], Some(v), in_clause);
            if redundant {
                learnt.swap_remove(i);
            } else {
                i += 1;
            }
        }
        for q in &reason {
            self.seen[q.var()] = false;
        }
        self.reason_buf = reason;
        // Backtrack level: highest level among the non-asserting literals;
        // keep one literal of that level in slot 1 (watch invariant).
        let mut back = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            back = self.level[learnt[1].var()];
        }
        self.learnt_buf = learnt;
        back
    }

    /// Attach the clause `analyze` left in `learnt_buf` and enqueue its
    /// asserting literal.
    fn attach_learnt(&mut self) {
        let learnt = std::mem::take(&mut self.learnt_buf);
        let reason = if learnt.len() == 1 {
            Reason::Decision
        } else {
            self.num_learnts += 1;
            Reason::Clause(self.push_clause(&learnt, true, self.cla_inc))
        };
        let ok = self.enqueue(learnt[0], reason);
        debug_assert!(ok, "asserting literal must be unassigned after backtrack");
        self.learnt_buf = learnt;
    }

    fn bump_clause(&mut self, off: u32) {
        let c = &mut self.clauses[self.arena[off as usize + 1] as usize];
        if c.learnt {
            c.act += self.cla_inc;
        }
    }

    /// Delete the less active half of the learnt clauses (binary and
    /// reason-locked clauses are exempt), compacting the arena and
    /// rebuilding watches in clause order. Must run at decision level 0.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce_db at level 0 only");
        let index_of = |arena: &[u32], off: u32| arena[off as usize + 1] as usize;
        let mut locked = vec![false; self.clauses.len()];
        for &l in &self.trail {
            if let Reason::Clause(off) = self.reason[l.var()] {
                locked[index_of(&self.arena, off)] = true;
            }
        }
        // Deletion candidates, least active first (ties: oldest first).
        let mut cands: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&ci| {
                let c = &self.clauses[ci as usize];
                c.learnt && self.arena[c.off as usize] > 2 && !locked[ci as usize]
            })
            .collect();
        cands.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .act
                .partial_cmp(&self.clauses[b as usize].act)
                .expect("activities are finite")
                .then(a.cmp(&b))
        });
        let mut remove = vec![false; self.clauses.len()];
        for &ci in &cands[..cands.len() / 2] {
            remove[ci as usize] = true;
        }
        // Copy the survivors, in order, into a fresh arena; `moved` maps an
        // old clause index to the clause's new offset.
        let old_arena = std::mem::take(&mut self.arena);
        let mut moved = vec![u32::MAX; self.clauses.len()];
        for w in &mut self.watches {
            w.clear();
        }
        self.num_learnts = 0;
        for (i, c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if !remove[i] {
                let lits = clause_lits(&old_arena, c.off).iter().map(|&q| Lit(q));
                let lits: Vec<Lit> = lits.collect();
                moved[i] = self.push_clause(&lits, c.learnt, c.act);
                self.num_learnts += usize::from(c.learnt);
            }
        }
        for &l in &self.trail {
            if let Reason::Clause(off) = self.reason[l.var()] {
                let new_off = moved[index_of(&old_arena, off)];
                debug_assert_eq!(self.arena[new_off as usize + CLAUSE_HEADER], l.0);
                self.reason[l.var()] = Reason::Clause(new_off);
            }
        }
        debug_assert!(self.watches_match_clauses());
    }

    /// Every clause is watched by exactly its first two literals (debug
    /// cross-check after the watch lists were rebuilt).
    fn watches_match_clauses(&self) -> bool {
        let mut expected = vec![Vec::new(); self.watches.len()];
        for c in &self.clauses {
            let lits = clause_lits(&self.arena, c.off);
            expected[lits[0] as usize].push(c.off);
            expected[lits[1] as usize].push(c.off);
        }
        expected == self.watches
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        assert!(s.value(v[0]));
        assert!(s.value(v[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(None), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon somewhere; no hole holds
        // two pigeons. Requires real conflict analysis to refute.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for j in 0..2 {
            for (a, pa) in p.iter().enumerate() {
                for pb in &p[a + 1..] {
                    s.add_clause(&[Lit::neg(pa[j]), Lit::neg(pb[j])]);
                }
            }
        }
        assert_eq!(s.solve(None), SolveOutcome::Unsat);
    }

    #[test]
    fn graph_coloring_sat() {
        // 3-color a 5-cycle (chromatic number 3): satisfiable.
        let mut s = Solver::new();
        let c: Vec<Vec<Var>> = (0..5).map(|_| vars(&mut s, 3)).collect();
        for row in &c {
            let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&lits);
        }
        for i in 0..5 {
            let j = (i + 1) % 5;
            for (&u, &v) in c[i].iter().zip(&c[j]) {
                s.add_clause(&[Lit::neg(u), Lit::neg(v)]);
            }
        }
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        for i in 0..5 {
            let j = (i + 1) % 5;
            for (&u, &v) in c[i].iter().zip(&c[j]) {
                assert!(!(s.value(u) && s.value(v)), "edge {i}-{j}");
            }
        }
    }

    #[test]
    fn pb_cardinality_enforced() {
        // Σ x_i ≤ 2 over 5 vars, with three forced true → conflict.
        let mut s = Solver::new();
        let v = vars(&mut s, 5);
        let terms: Vec<(f64, Lit)> = v.iter().map(|&x| (1.0, Lit::pos(x))).collect();
        let idx = s.add_pb_le(&terms, 2.0);
        assert!(idx.is_some());
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::pos(v[1])]);
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        let true_count = v.iter().filter(|&&x| s.value(x)).count();
        assert!(true_count <= 2, "cardinality violated: {true_count}");
        s.add_clause(&[Lit::pos(v[2])]);
        s.add_clause(&[Lit::pos(v[3])]);
        assert_eq!(s.solve(None), SolveOutcome::Unsat);
    }

    #[test]
    fn pb_at_least_via_negations() {
        // Σ x_i ≥ 3 over 4 vars ⇔ Σ [¬x_i] ≤ 1.
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let terms: Vec<(f64, Lit)> = v.iter().map(|&x| (1.0, Lit::neg(x))).collect();
        s.add_pb_le(&terms, 1.0);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        let true_count = v.iter().filter(|&&x| s.value(x)).count();
        assert_eq!(true_count, 3);
    }

    #[test]
    fn pb_negative_coefficients_normalize() {
        // 2x − 3y ≤ −1 ⇔ 2x + 3¬y ≤ 2 ⇒ y must be true, x free… check
        // with x forced: 2 − 3y ≤ −1 requires y.
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_pb_le(&[(2.0, Lit::pos(v[0])), (-3.0, Lit::pos(v[1]))], -1.0);
        s.add_clause(&[Lit::pos(v[0])]);
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        assert!(s.value(v[1]), "y forced true by the PB constraint");
    }

    #[test]
    fn pb_flipped_term_merges_into_its_duplicate() {
        // 2x − 3¬x + y ≤ 1 ⇔ 5x + y ≤ 4: one term per variable, and only
        // the merged coefficient (5 > 4, neither 2 nor 3 is) rules x out.
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        let (x, y) = (Lit::pos(v[0]), Lit::pos(v[1]));
        let idx = s.add_pb_le(&[(2.0, x), (-3.0, x.inverse()), (1.0, y)], 1.0);
        let pb = &s.pbs[idx.expect("not trivial")];
        assert_eq!(pb.terms, vec![(5.0, x), (1.0, y)]);
        assert_eq!(pb.bound, 4.0);
        s.add_clause(&[x, y]);
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        assert!(!s.value(v[0]) && s.value(v[1]));
        assert_eq!(s.stats.decisions, 0, "x is implied false at the root");
    }

    #[test]
    fn pb_weighted_knapsack_matches_brute_force() {
        // Feasibility of Σ c_i x_i ≤ B with an at-least-k side constraint,
        // checked against brute force over all 2^6 assignments.
        let coefs = [3.0, 5.0, 7.0, 2.0, 4.0, 6.0];
        for bound in [5.0, 9.0, 13.0, 20.0] {
            for min_true in 0..=4usize {
                let brute = (0u32..64).any(|m| {
                    let w: f64 = (0..6).filter(|&i| m >> i & 1 == 1).map(|i| coefs[i]).sum();
                    let k = (0..6).filter(|&i| m >> i & 1 == 1).count();
                    w <= bound && k >= min_true
                });
                let mut s = Solver::new();
                let v = vars(&mut s, 6);
                let terms: Vec<(f64, Lit)> = v
                    .iter()
                    .zip(coefs)
                    .map(|(&x, c)| (c, Lit::pos(x)))
                    .collect();
                s.add_pb_le(&terms, bound);
                let neg: Vec<(f64, Lit)> = v.iter().map(|&x| (1.0, Lit::neg(x))).collect();
                s.add_pb_le(&neg, (6 - min_true) as f64);
                let got = s.solve(None) == SolveOutcome::Sat;
                assert_eq!(got, brute, "bound={bound} min_true={min_true}");
                if got {
                    let w: f64 = v
                        .iter()
                        .zip(coefs)
                        .filter(|(&x, _)| s.value(x))
                        .map(|(_, c)| c)
                        .sum();
                    assert!(w <= bound + 1e-9);
                    assert!(v.iter().filter(|&&x| s.value(x)).count() >= min_true);
                }
            }
        }
    }

    #[test]
    fn bound_tightening_reaches_optimum() {
        // Minimize Σ c_i x_i subject to "at least 2 true": optimum picks
        // the two cheapest items. Solve-then-tighten until UNSAT.
        let coefs = [9.0, 1.0, 5.0, 3.0];
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let neg: Vec<(f64, Lit)> = v.iter().map(|&x| (1.0, Lit::neg(x))).collect();
        s.add_pb_le(&neg, 2.0); // ≥ 2 true
        let obj: Vec<(f64, Lit)> = v
            .iter()
            .zip(coefs)
            .map(|(&x, c)| (c, Lit::pos(x)))
            .collect();
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        let eval = |s: &Solver| -> f64 {
            v.iter()
                .zip(coefs)
                .filter(|(&x, _)| s.value(x))
                .map(|(_, c)| c)
                .sum()
        };
        let mut best = eval(&s);
        let idx = s.add_pb_le(&obj, best - 1e-7).expect("non-trivial bound");
        loop {
            match s.solve(None) {
                SolveOutcome::Sat => {
                    best = eval(&s);
                    s.set_pb_bound(idx, best - 1e-7);
                }
                SolveOutcome::Unsat => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!((best - 4.0).abs() < 1e-9, "optimum 1+3, got {best}");
    }

    #[test]
    fn pb_cardinality_companion_is_implied_and_tightens() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let terms: Vec<(f64, Lit)> = vec![
            (2.0, Lit::pos(v[0])),
            (2.0, Lit::pos(v[1])),
            (2.0, Lit::pos(v[2])),
            (0.5, Lit::pos(v[3])),
        ];
        let idx = s.add_pb_le(&terms, 3.0).unwrap();
        let card = s.refresh_pb_cardinality(idx, None);
        assert!(card.is_some(), "a strict cardinality cap must be derived");
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        assert!(v.iter().filter(|&&x| s.value(x)).count() <= 2);

        s.set_pb_bound(idx, 1.9);
        let card2 = s.refresh_pb_cardinality(idx, card);
        assert_eq!(card2, card, "companion handle is stable across tightening");
        assert_eq!(s.solve(None), SolveOutcome::Sat);
        // Under bound 1.9 no 2.0-coefficient literal can hold.
        assert!(!s.value(v[0]) && !s.value(v[1]) && !s.value(v[2]));
    }

    #[test]
    fn pre_set_stop_flag_cancels() {
        let mut s = Solver::new();
        let v = vars(&mut s, 30);
        for w in v.windows(2) {
            s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1])]);
        }
        let stop = Arc::new(AtomicBool::new(true));
        s.set_stop(Some(stop));
        assert_eq!(s.solve(None), SolveOutcome::Canceled);
    }

    #[test]
    fn deterministic_models_across_fresh_solvers() {
        let build = || {
            let mut s = Solver::new();
            let v: Vec<Var> = (0..40).map(|_| s.new_var()).collect();
            for i in 0..39 {
                s.add_clause(&[Lit::pos(v[i]), Lit::pos(v[i + 1])]);
                if i % 3 == 0 {
                    s.add_clause(&[Lit::neg(v[i]), Lit::neg(v[(i + 7) % 40])]);
                }
            }
            let terms: Vec<(f64, Lit)> = v.iter().map(|&x| (1.0, Lit::pos(x))).collect();
            s.add_pb_le(&terms, 25.0);
            assert_eq!(s.solve(None), SolveOutcome::Sat);
            v.iter().map(|&x| s.value(x)).collect::<Vec<bool>>()
        };
        assert_eq!(build(), build(), "solver must be deterministic");
    }
}
