//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! Feature set: two-watched-literal propagation with blocking literals,
//! first-UIP conflict analysis with self-subsumption clause minimization
//! and non-chronological backtracking, heap-ordered VSIDS decisions,
//! phase saving, Luby restarts, learned-clause database reduction (LBD +
//! clause activities, glue clauses kept), and incremental solving under
//! assumptions with on-the-fly variable/clause addition. Every query
//! goes through [`Solver::solve`], which takes the assumptions and a
//! [`Budget`]; an unlimited budget skips every budget check.
//!
//! Layout, for the propagation loop's sake:
//!
//! * every clause lives in one flat `u32` arena: a header of
//!   [`HEADER`] words (length; LBD and flag bits; the clause activity as
//!   the two halves of an `f64`) followed by its literal codes. A clause
//!   reference is its header's offset, and reduction compacts the arena
//!   in clause order;
//! * a binary clause's watches are *implicit*: the entry carries a flag
//!   and the other literal as its blocker, so propagation settles the
//!   clause without reading the arena;
//! * literal values are indexed by literal code, one load per test;
//! * the VSIDS heap stores each variable's activity beside it, so a sift
//!   compares keys without a second array.

use crate::budget::{Budget, SolveOutcome, StopReason};
use crate::cnf::{Cnf, CnfBuilder, Lit, Var};

const UNASSIGNED: i8 = -1;
const FALSE: i8 = 0;
const TRUE: i8 = 1;
const NO_REASON: u32 = u32::MAX;
/// Learned clauses with LBD at or below this are "glue" and never deleted.
const GLUE_LBD: u32 = 2;
/// Conflicts-per-restart multiplier on the Luby sequence.
const RESTART_BASE: u64 = 64;
/// VSIDS activity decay (`var_inc /= VAR_DECAY` per conflict).
const VAR_DECAY: f64 = 0.95;
/// Growth factor of the learned-clause budget after each reduction.
const REDUCE_GROWTH: f64 = 1.2;

/// Words in front of a clause's literals in the arena: its length, its
/// flags (`lbd << 2 | DELETED | LEARNED`) and its activity's low and
/// high halves.
const HEADER: usize = 4;
const LEARNED: u32 = 1;
/// Set on reduction victims just before the arena is compacted.
const DELETED: u32 = 2;

/// A watch-list entry: the clause reference plus a *blocking literal* —
/// some other literal of the clause (usually the other watch). If the
/// blocker is already true the clause is satisfied and propagation skips
/// the clause body entirely. For a binary clause (flagged by
/// [`Watch::BINARY`] in `clause`) the blocker is always the other
/// literal, which is all propagation needs to know.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

impl Watch {
    /// Flag bit of binary-clause entries; clause references stay below it.
    const BINARY: u32 = 1 << 31;
}

/// Indexed binary max-heap of `(activity, variable)` pairs.
///
/// Ordering: higher activity first, lowest variable index on ties — the
/// same variable a linear argmax scan would pick. Each entry's key is a
/// copy of the solver's activity for that variable, refreshed on every
/// bump and rescale. Assigned variables are removed lazily (skipped at
/// pop time, re-inserted on backtrack).
#[derive(Debug, Clone, Default)]
struct VarOrder {
    heap: Vec<(f64, u32)>,
    /// `pos[v]` is the heap slot of `v`, or `ABSENT`.
    pos: Vec<u32>,
}

impl VarOrder {
    const ABSENT: u32 = u32::MAX;

    /// Every variable at activity zero: index order is heap order.
    fn new(num_vars: usize) -> Self {
        VarOrder {
            heap: (0..num_vars as u32).map(|v| (0.0, v)).collect(),
            pos: (0..num_vars as u32).collect(),
        }
    }

    fn better(a: (f64, u32), b: (f64, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// Registers a freshly allocated variable (activity zero) and inserts it.
    fn push_var(&mut self, v: usize) {
        debug_assert_eq!(self.pos.len(), v);
        self.pos.push(Self::ABSENT);
        self.insert(v, 0.0);
    }

    fn insert(&mut self, v: usize, activity: f64) {
        if self.pos[v] != Self::ABSENT {
            return;
        }
        self.heap.push((activity, v as u32));
        self.sift_up(self.heap.len() - 1);
    }

    /// Moves the entry at slot `i` up through a hole until its parent is
    /// better.
    fn sift_up(&mut self, mut i: usize) {
        let x = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::better(x, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p.1 as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = x;
        self.pos[x.1 as usize] = i as u32;
    }

    /// Moves the entry at slot `i` down through a hole until no child is
    /// better.
    fn sift_down(&mut self, mut i: usize) {
        let x = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::better(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::better(c, x) {
                break;
            }
            self.heap[i] = c;
            self.pos[c.1 as usize] = i as u32;
            i = child;
        }
        self.heap[i] = x;
        self.pos[x.1 as usize] = i as u32;
    }

    fn peek(&self) -> Option<usize> {
        self.heap.first().map(|&(_, v)| v as usize)
    }

    fn pop(&mut self) -> Option<usize> {
        let (_, top) = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top as usize)
    }

    /// Restores heap order after `v`'s activity rose to `activity`.
    fn bumped(&mut self, v: usize, activity: f64) {
        let slot = self.pos[v];
        if slot != Self::ABSENT {
            self.heap[slot as usize].0 = activity;
            self.sift_up(slot as usize);
        }
    }

    /// Refreshes every key after a global activity rescale and
    /// re-heapifies (a rescale can collapse distinct activities into
    /// ties, invalidating the order).
    fn rescaled(&mut self, activity: &[f64]) {
        for entry in &mut self.heap {
            entry.0 = activity[entry.1 as usize];
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use seceda_sat::{Budget, Cnf, Solver};
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var();
/// cnf.add_clause([a.pos()]);
/// cnf.add_clause([a.neg()]);
/// assert!(!Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()).is_sat());
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// Every stored clause, header then literal codes (see [`HEADER`]).
    arena: Vec<u32>,
    /// Clauses in the arena (problem + live learned).
    num_clauses: usize,
    /// `watches[l.code()]`: entries for clauses in which literal `l` is
    /// one of the two watched literals, each with a blocking literal.
    watches: Vec<Vec<Watch>>,
    /// `values[l.code()]`: [`TRUE`], [`FALSE`] or [`UNASSIGNED`].
    values: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    cla_inc: f64,
    /// Live learned clauses that reduction may delete (LBD above the
    /// glue threshold). Glue clauses are kept forever, so counting them
    /// against the budget would wedge the trigger permanently open once
    /// enough glue accumulates.
    num_deletable_live: usize,
    /// Budget of deletable learned clauses before the next
    /// [`reduce_db`]; `0.0` means "initialize from the problem size at
    /// first solve".
    max_learnts: f64,
    /// `true` once [`Solver::set_reduce_db_limit`] pinned the budget.
    reduce_pinned: bool,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    /// The clause [`Solver::analyze`] learns, asserting literal first.
    learnt: Vec<Lit>,
    /// Variables whose `seen` mark `analyze` clears after minimizing.
    to_clear: Vec<usize>,
    /// The decision levels of a learned clause, for its LBD.
    levels: Vec<u32>,
    /// The clause [`Solver::add_clause`] normalizes.
    adding: Vec<Lit>,
    unsat: bool,
    /// Statistics: total conflicts encountered.
    pub num_conflicts: u64,
    /// Statistics: total decisions taken.
    pub num_decisions: u64,
    /// Statistics: total literals propagated.
    pub num_propagations: u64,
    /// Statistics: total restarts performed.
    pub num_restarts: u64,
    /// Statistics: total clauses learned from conflicts.
    pub num_learned: u64,
    /// Statistics: learned-clause database reductions performed.
    pub num_db_reductions: u64,
    /// Statistics: literals removed from learned clauses by
    /// self-subsumption minimization.
    pub num_minimized_lits: u64,
    /// Statistics: budgeted solve calls made so far (the chaos salt for
    /// the `sat.budget` injection point).
    pub num_budgeted_solves: u64,
}

impl Solver {
    /// Creates a solver over `num_vars` variables and no clauses.
    pub fn new(num_vars: usize) -> Self {
        Solver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: vec![Vec::new(); num_vars * 2],
            values: vec![UNASSIGNED; num_vars * 2],
            level: vec![0; num_vars],
            reason: vec![NO_REASON; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::new(num_vars),
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            cla_inc: 1.0,
            num_deletable_live: 0,
            max_learnts: 0.0,
            reduce_pinned: false,
            saved_phase: vec![false; num_vars],
            seen: vec![false; num_vars],
            learnt: Vec::new(),
            to_clear: Vec::new(),
            levels: Vec::new(),
            adding: Vec::new(),
            unsat: false,
            num_conflicts: 0,
            num_decisions: 0,
            num_propagations: 0,
            num_restarts: 0,
            num_learned: 0,
            num_db_reductions: 0,
            num_minimized_lits: 0,
            num_budgeted_solves: 0,
        }
    }

    /// Builds a solver preloaded with the clauses of `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new(cnf.num_vars());
        for clause in cnf.clauses() {
            s.add_clause(clause.iter().copied());
        }
        s
    }

    /// Allocates a fresh variable (for incremental encodings).
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.level.len());
        self.values.extend([UNASSIGNED, UNASSIGNED]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var(v.index());
        v
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses currently stored (problem + live learned).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Number of problem (non-learned) clauses currently stored. This is
    /// not the number delivered through [`CnfBuilder::add_clause`]:
    /// adding drops tautologies and clauses already satisfied at the
    /// root, and keeps a unit as a root assignment, not a clause; a
    /// learned-clause reduction deletes problem clauses that have become
    /// satisfied at the root (and strips root-false literals from the
    /// rest).
    pub fn num_problem_clauses(&self) -> usize {
        self.clause_refs()
            .filter(|&c| self.arena[c as usize + 1] & LEARNED == 0)
            .count()
    }

    /// The current VSIDS activity of a variable.
    pub fn var_activity(&self, v: Var) -> f64 {
        self.activity[v.index()]
    }

    /// The root-level value of a variable, if the solver is idle at the
    /// root (after a [`Solver::solve`] call the trail is backtracked, so
    /// only root-implied variables report a value).
    pub fn var_value(&self, v: Var) -> Option<bool> {
        match self.values[v.pos().code()] {
            UNASSIGNED => None,
            x => Some(x == TRUE),
        }
    }

    fn value_lit(&self, l: Lit) -> i8 {
        self.values[l.code()]
    }

    /// Adds a clause. May be called between [`Solver::solve`] calls; the
    /// solver backtracks to the root level first.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unknown variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.backtrack(0);
        let mut clause = std::mem::take(&mut self.adding);
        clause.clear();
        clause.extend(lits);
        for l in &clause {
            assert!(l.var().index() < self.num_vars(), "literal out of range");
        }
        clause.sort_unstable();
        clause.dedup();
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            // tautology
        } else if clause.iter().any(|&l| self.value_lit(l) == TRUE) {
            // satisfied at root level
        } else {
            clause.retain(|&l| self.value_lit(l) != FALSE); // drop root-false lits
            match clause.len() {
                0 => self.unsat = true,
                1 => {
                    self.enqueue(clause[0], NO_REASON);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
                _ => {
                    self.alloc(&clause, 0, 0.0);
                }
            }
        }
        self.adding = clause;
    }

    /// Appends a clause of at least two literals to the arena and watches
    /// its first two; returns its reference. `flags` holds the LBD and
    /// the learned bit.
    fn alloc(&mut self, lits: &[Lit], flags: u32, activity: f64) -> u32 {
        let c = u32::try_from(self.arena.len())
            .ok()
            .filter(|&c| c < Watch::BINARY)
            .expect("clause arena overflow");
        let bits = activity.to_bits();
        self.arena
            .extend([lits.len() as u32, flags, bits as u32, (bits >> 32) as u32]);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.num_clauses += 1;
        self.watch_clause(c);
        c
    }

    /// Adds clause `c`'s two watches: on its first two literals, each
    /// blocked by the other, flagged if the clause is binary.
    fn watch_clause(&mut self, c: u32) {
        let at = c as usize;
        let (a, b) = (
            Lit(self.arena[at + HEADER]),
            Lit(self.arena[at + HEADER + 1]),
        );
        let clause = if self.arena[at] == 2 {
            c | Watch::BINARY
        } else {
            c
        };
        self.watches[a.code()].push(Watch { clause, blocker: b });
        self.watches[b.code()].push(Watch { clause, blocker: a });
    }

    /// The literals of clause `c`, as codes.
    fn lits(&self, c: u32) -> &[u32] {
        let at = c as usize + HEADER;
        &self.arena[at..at + self.arena[c as usize] as usize]
    }

    fn clause_activity(&self, c: u32) -> f64 {
        let at = c as usize;
        f64::from_bits(u64::from(self.arena[at + 2]) | u64::from(self.arena[at + 3]) << 32)
    }

    fn set_clause_activity(&mut self, c: u32, activity: f64) {
        let at = c as usize;
        let bits = activity.to_bits();
        self.arena[at + 2] = bits as u32;
        self.arena[at + 3] = (bits >> 32) as u32;
    }

    /// Every clause reference, in arena order.
    fn clause_refs(&self) -> impl Iterator<Item = u32> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let c = at;
            at += HEADER + *self.arena.get(c)? as usize;
            Some(c as u32)
        })
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(l), UNASSIGNED);
        let v = l.var().index();
        self.values[l.code()] = TRUE;
        self.values[(!l).code()] = FALSE;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.saved_phase[v] = l.is_positive();
        self.trail.push(l);
        self.num_propagations += 1;
    }

    /// Propagates all pending assignments; returns the conflicting
    /// clause on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let false_lit = !self.trail[self.qhead]; // literal that just became false
            self.qhead += 1;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut conflict = None;
            while i < watch_list.len() {
                let Watch { clause, blocker } = watch_list[i];
                let blocker_value = self.values[blocker.code()];
                // blocking literal: clause already satisfied, skip body
                if blocker_value == TRUE {
                    i += 1;
                    continue;
                }
                if clause & Watch::BINARY != 0 {
                    let c = clause & !Watch::BINARY;
                    if blocker_value == FALSE {
                        // analysis bumps a conflict's variables in clause
                        // order, which decides where an activity rescale
                        // falls; store the clause as a long clause's visit
                        // leaves it, the false watch second
                        let at = c as usize + HEADER;
                        self.arena[at] = blocker.0;
                        self.arena[at + 1] = false_lit.0;
                        conflict = Some(c);
                        break;
                    }
                    self.enqueue(blocker, c);
                    i += 1;
                    continue;
                }
                // a long clause: its false watch goes to position 1
                let at = clause as usize + HEADER;
                let end = at + self.arena[clause as usize] as usize;
                if self.arena[at] == false_lit.0 {
                    self.arena.swap(at, at + 1);
                }
                let first = Lit(self.arena[at]);
                let first_value = self.values[first.code()];
                // the blocker becomes the other watch, which is left (or
                // made) satisfied or free unless the clause conflicts
                if first_value == TRUE {
                    watch_list[i].blocker = first;
                    i += 1;
                    continue;
                }
                let free = (at + 2..end).find(|&k| self.values[self.arena[k] as usize] != FALSE);
                if let Some(k) = free {
                    self.arena.swap(at + 1, k);
                    let new_watch = Lit(self.arena[at + 1]);
                    self.watches[new_watch.code()].push(Watch {
                        clause,
                        blocker: first,
                    });
                    watch_list.swap_remove(i);
                } else if first_value == FALSE {
                    conflict = Some(clause);
                    break;
                } else {
                    self.enqueue(first, clause);
                    watch_list[i].blocker = first;
                    i += 1;
                }
            }
            self.watches[false_lit.code()] = watch_list;
            if conflict.is_some() {
                // flush the propagation queue so the trail stays coherent
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn backtrack(&mut self, target_level: usize) {
        if self.trail_lim.len() <= target_level {
            return;
        }
        let lim = self.trail_lim[target_level];
        while self.trail.len() > lim {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var().index();
            self.values[l.code()] = UNASSIGNED;
            self.values[(!l).code()] = UNASSIGNED;
            self.reason[v] = NO_REASON;
            self.order.insert(v, self.activity[v]);
        }
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rescaled(&self.activity);
        } else {
            self.order.bumped(v, self.activity[v]);
        }
    }

    fn bump_clause(&mut self, c: u32) {
        let activity = self.clause_activity(c) + self.cla_inc;
        self.set_clause_activity(c, activity);
        if activity > 1e20 {
            let mut at = 0;
            while at < self.arena.len() {
                let c = at as u32;
                self.set_clause_activity(c, self.clause_activity(c) * 1e-20);
                at += HEADER + self.arena[at] as usize;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// `true` if `l` (a literal of a learned clause) is implied by the
    /// clause's other literals: every other literal of its reason is
    /// marked `seen` or root-false.
    fn implied(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        r != NO_REASON
            && self.lits(r).iter().all(|&q| {
                let qv = Lit(q).var();
                // the reason's asserted literal is `!l` itself
                qv == l.var() || self.seen[qv.index()] || self.level[qv.index()] == 0
            })
    }

    /// First-UIP conflict analysis with self-subsumption minimization.
    /// Leaves the learned clause in `self.learnt`, the asserting literal
    /// first and a literal of the backtrack level second, and returns
    /// `(backtrack level, LBD)`.
    fn analyze(&mut self, confl: u32) -> (usize, u32) {
        let current = self.trail_lim.len() as u32;
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit(0)); // the asserting literal's slot
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut reason_clause = confl;
        // the literal a reason clause asserted; the conflict clause
        // asserted none, so all of its literals count
        let mut asserted: Option<Var> = None;
        loop {
            if self.arena[reason_clause as usize + 1] & LEARNED != 0 {
                self.bump_clause(reason_clause);
            }
            let at = reason_clause as usize + HEADER;
            for j in at..at + self.arena[reason_clause as usize] as usize {
                let q = Lit(self.arena[j]);
                let v = q.var().index();
                if Some(q.var()) != asserted && !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // walk the trail backwards to the next marked literal
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            asserted = Some(lit.var());
            reason_clause = self.reason[v];
            debug_assert_ne!(reason_clause, NO_REASON, "non-UIP literal lacks reason");
        }
        // Self-subsumption against reason clauses: a literal whose reason's
        // other literals are all already in the clause (seen) or root-false
        // is implied by the rest and can be dropped. Reasons form an
        // acyclic implication graph, so dropping several such literals at
        // once stays sound. The `seen` marks of dropped literals are kept
        // until all checks ran, then cleared together.
        self.to_clear.clear();
        self.to_clear
            .extend(learnt[1..].iter().map(|l| l.var().index()));
        let before = learnt.len();
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.implied(learnt[i]) {
                learnt[kept] = learnt[i];
                kept += 1;
            }
        }
        learnt.truncate(kept);
        self.num_minimized_lits += (before - kept) as u64;
        for &v in &self.to_clear {
            self.seen[v] = false;
        }
        // backtrack to the second-highest decision level in the clause
        let mut bt = 0usize;
        let mut max_idx = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()] as usize;
            if lv > bt {
                bt = lv;
                max_idx = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_idx);
        }
        // LBD: number of distinct decision levels in the clause (the UIP
        // sits at the current level, distinct from every other literal)
        self.levels.clear();
        self.levels
            .extend(learnt[1..].iter().map(|l| self.level[l.var().index()]));
        self.levels.sort_unstable();
        self.levels.dedup();
        let lbd = self.levels.len() as u32 + 1;
        self.learnt = learnt;
        (bt, lbd)
    }

    /// Installs the clause in `self.learnt`; returns its reference if it
    /// is non-unit.
    fn learn(&mut self, lbd: u32) -> u32 {
        self.num_learned += 1;
        if self.learnt.len() < 2 {
            return NO_REASON;
        }
        let learnt = std::mem::take(&mut self.learnt);
        let c = self.alloc(&learnt, lbd << 2 | LEARNED, self.cla_inc);
        self.learnt = learnt;
        if lbd > GLUE_LBD {
            self.num_deletable_live += 1;
        }
        c
    }

    /// Pins the learned-clause budget that triggers database reduction
    /// (a test/tuning hook). The budget counts deletable (non-glue)
    /// learned clauses. By default it starts at
    /// `max(2000, problem clauses / 3)` and grows 1.2× per reduction;
    /// a pinned budget never grows.
    pub fn set_reduce_db_limit(&mut self, limit: usize) {
        self.max_learnts = limit.max(1) as f64;
        self.reduce_pinned = true;
    }

    /// Learned-clause database reduction with root-level simplification.
    ///
    /// Runs at the root level with a fully propagated trail. Deletes the
    /// worst half of the non-glue learned clauses (highest LBD, then
    /// lowest activity), drops every clause satisfied at the root, strips
    /// root-false literals, compacts the arena in clause order and
    /// rebuilds the watch lists over it (a clause stripped to two
    /// literals is watched as a binary from then on). Root-level reason
    /// links are cleared first — they are never dereferenced (conflict
    /// analysis skips level-0 literals), and clearing them unlocks every
    /// clause for deletion.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce_db runs at root level");
        debug_assert_eq!(self.qhead, self.trail.len(), "trail fully propagated");
        self.num_db_reductions += 1;
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            self.reason[v] = NO_REASON;
        }
        let flags = |c: u32| self.arena[c as usize + 1];
        let mut victims: Vec<u32> = self
            .clause_refs()
            .filter(|&c| flags(c) & LEARNED != 0 && flags(c) >> 2 > GLUE_LBD)
            .collect();
        // worst first: high LBD, then low activity, then oldest
        victims.sort_by(|&a, &b| {
            (flags(b) >> 2)
                .cmp(&(flags(a) >> 2))
                .then(self.clause_activity(a).total_cmp(&self.clause_activity(b)))
                .then(a.cmp(&b))
        });
        victims.truncate(victims.len() / 2);
        for &c in &victims {
            self.arena[c as usize + 1] |= DELETED;
        }
        for w in &mut self.watches {
            w.clear();
        }
        self.num_clauses = 0;
        self.num_deletable_live = 0;
        let (mut read, mut write) = (0, 0);
        while read < self.arena.len() {
            let (len, flags) = (self.arena[read] as usize, self.arena[read + 1]);
            let lits = read + HEADER..read + HEADER + len;
            read = lits.end;
            if flags & DELETED != 0
                || self.arena[lits.clone()]
                    .iter()
                    .any(|&l| self.values[l as usize] == TRUE)
            {
                continue; // deleted, or satisfied at root forever
            }
            // the clause moves down to `write`, header first, root-false
            // literals dropped; every word is read before it is overwritten
            self.arena
                .copy_within(lits.start - 3..lits.start, write + 1);
            let mut kept = 0;
            for j in lits.start..lits.end {
                let l = self.arena[j];
                if self.values[l as usize] != FALSE {
                    self.arena[write + HEADER + kept] = l;
                    kept += 1;
                }
            }
            self.arena[write] = kept as u32;
            // full root propagation guarantees >= 2 unassigned literals in
            // any clause that is not root-satisfied
            debug_assert!(kept >= 2, "root propagation incomplete");
            self.watch_clause(write as u32);
            self.num_clauses += 1;
            if flags & LEARNED != 0 && flags >> 2 > GLUE_LBD {
                self.num_deletable_live += 1;
            }
            write += HEADER + kept;
        }
        self.arena.truncate(write);
    }

    fn is_free(&self, v: usize) -> bool {
        self.values[Var::from_index(v).pos().code()] == UNASSIGNED
    }

    /// Picks the unassigned variable with the highest activity (lowest
    /// index on ties) from the order heap — O(log n) per call.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop() {
            if self.is_free(v) {
                return Some(Var::from_index(v).lit(self.saved_phase[v]));
            }
        }
        None
    }

    /// The variable `decide` would branch on next: highest
    /// activity, lowest index on ties. Introspection hook pinned by the
    /// differential suite against a linear argmax scan. Lazily drops
    /// assigned entries from the heap top; otherwise read-only.
    pub fn next_decision_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.peek() {
            if self.is_free(v) {
                return Some(Var::from_index(v));
            }
            self.order.pop();
        }
        None
    }

    /// Solves under `assumptions` (literals forced true for this call
    /// only) within `budget`: a determined [`SolveOutcome::Sat`] /
    /// [`SolveOutcome::Unsat`], or [`SolveOutcome::Indeterminate`] once
    /// any limit trips. The solver stays fully usable afterwards, with
    /// different assumptions or additional clauses, and keeps everything
    /// it learned — re-solving with a larger budget resumes from
    /// accumulated knowledge.
    ///
    /// The conflict cap limits the conflicts this call spends (see
    /// [`Budget`]). It is checked at entry, so a spent budget stops
    /// before any search, and once per conflict; [`Budget::unlimited`]
    /// skips both checks, so an unlimited solve always returns a
    /// determined answer.
    ///
    /// Each call emits one `sat.solve` trace span plus per-call deltas of
    /// the decision/propagation/conflict/restart/learning statistics.
    pub fn solve(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        let conflict_target = if let Some(max_conflicts) = budget.max_conflicts() {
            // Chaos-injected exhaustion: only limited budgets are
            // eligible, so unlimited solves keep their total contract
            // even under chaos. Salted by the budgeted-call ordinal,
            // which is deterministic per solver.
            let salt = self.num_budgeted_solves;
            self.num_budgeted_solves += 1;
            if seceda_testkit::chaos::active()
                && seceda_testkit::chaos::maybe_exhaust("sat.budget", salt)
            {
                seceda_trace::counter("chaos.injections", 1);
                seceda_trace::counter("sat.indeterminate", 1);
                return SolveOutcome::Indeterminate(StopReason::ChaosInjected);
            }
            Some(self.num_conflicts.saturating_add(max_conflicts))
        } else {
            None
        };
        let mut sp = seceda_trace::span("sat.solve");
        sp.attr("vars", self.num_vars());
        sp.attr("clauses", self.num_clauses);
        sp.attr("assumptions", assumptions.len());
        let (d0, p0, c0, r0) = (
            self.num_decisions,
            self.num_propagations,
            self.num_conflicts,
            self.num_restarts,
        );
        let (l0, db0, m0) = (
            self.num_learned,
            self.num_db_reductions,
            self.num_minimized_lits,
        );
        let result = self.search(assumptions, conflict_target);
        seceda_trace::counter("sat.decisions", self.num_decisions - d0);
        seceda_trace::counter("sat.propagations", self.num_propagations - p0);
        seceda_trace::counter("sat.conflicts", self.num_conflicts - c0);
        seceda_trace::counter("sat.restarts", self.num_restarts - r0);
        seceda_trace::counter("sat.learned", self.num_learned - l0);
        seceda_trace::counter("sat.db_reductions", self.num_db_reductions - db0);
        seceda_trace::counter("sat.minimized_lits", self.num_minimized_lits - m0);
        match &result {
            SolveOutcome::Sat(_) => sp.attr("result", "sat"),
            SolveOutcome::Unsat => sp.attr("result", "unsat"),
            SolveOutcome::Indeterminate(reason) => {
                seceda_trace::counter("sat.indeterminate", 1);
                sp.attr("result", "indeterminate");
                if seceda_trace::enabled() {
                    sp.attr("stop_reason", format!("{reason}"));
                }
            }
        }
        result
    }

    /// Searches until `conflict_target` (an absolute conflict count, if
    /// any) is reached; a target already reached stops before any search.
    fn search(&mut self, assumptions: &[Lit], conflict_target: Option<u64>) -> SolveOutcome {
        if self.unsat {
            return SolveOutcome::Unsat;
        }
        for a in assumptions {
            assert!(a.var().index() < self.num_vars(), "assumption out of range");
        }
        if self.max_learnts == 0.0 {
            self.max_learnts = (self.num_clauses as f64 / 3.0).max(2000.0);
        }
        if conflict_target.is_some_and(|t| self.num_conflicts >= t) {
            return SolveOutcome::Indeterminate(StopReason::Conflicts);
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveOutcome::Unsat;
        }
        let mut restart_count = 0u32;
        let mut conflicts_until_restart = RESTART_BASE * luby(restart_count);
        loop {
            match self.propagate() {
                Some(confl) => {
                    self.num_conflicts += 1;
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SolveOutcome::Unsat;
                    }
                    // the conflict budget is checked here — once per
                    // conflict, off the propagation fast path; root
                    // conflicts above still return the determined Unsat
                    if conflict_target.is_some_and(|t| self.num_conflicts >= t) {
                        self.backtrack(0);
                        return SolveOutcome::Indeterminate(StopReason::Conflicts);
                    }
                    let (bt, lbd) = self.analyze(confl);
                    self.backtrack(bt);
                    let asserting = self.learnt[0];
                    let reason = self.learn(lbd);
                    debug_assert_eq!(self.value_lit(asserting), UNASSIGNED);
                    self.enqueue(asserting, reason);
                    self.var_inc /= VAR_DECAY;
                    self.cla_inc /= 0.999;
                    conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                    if conflicts_until_restart == 0 {
                        restart_count += 1;
                        self.num_restarts += 1;
                        conflicts_until_restart = RESTART_BASE * luby(restart_count);
                        self.backtrack(0);
                    }
                    // an oversized learned DB forces a restart so the
                    // reduction below runs from a fully propagated root
                    if self.num_deletable_live as f64 >= self.max_learnts {
                        self.backtrack(0);
                    }
                }
                None => {
                    if self.trail_lim.is_empty()
                        && self.num_deletable_live as f64 >= self.max_learnts
                    {
                        self.reduce_db();
                        if !self.reduce_pinned {
                            self.max_learnts *= REDUCE_GROWTH;
                        }
                    }
                    // place assumptions as pseudo-decisions first
                    if self.trail_lim.len() < assumptions.len() {
                        let a = assumptions[self.trail_lim.len()];
                        match self.value_lit(a) {
                            TRUE => self.trail_lim.push(self.trail.len()),
                            FALSE => {
                                self.backtrack(0);
                                return SolveOutcome::Unsat;
                            }
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, NO_REASON);
                            }
                        }
                        continue;
                    }
                    match self.decide() {
                        None => {
                            let model: Vec<bool> =
                                self.values.iter().step_by(2).map(|&x| x == TRUE).collect();
                            self.backtrack(0);
                            return SolveOutcome::Sat(model);
                        }
                        Some(d) => {
                            self.num_decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(d, NO_REASON);
                        }
                    }
                }
            }
        }
    }
}

impl CnfBuilder for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        Solver::add_clause(self, lits);
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
fn luby(i: u32) -> u64 {
    // find k with 2^k - 1 > i, i.e. the subsequence containing i
    let mut i = i as u64 + 1;
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    loop {
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;

    #[test]
    fn trivial_sat() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.pos(), b.pos()]);
        cnf.add_clause([a.neg(), b.pos()]);
        let result = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited());
        let model = result.model().expect("sat");
        assert!(model[b.index()]);
    }

    #[test]
    fn trivial_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([a.pos()]);
        cnf.add_clause([a.neg()]);
        assert_eq!(
            Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()),
            SolveOutcome::Unsat
        );
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new();
        assert!(Solver::from_cnf(&cnf)
            .solve(&[], &Budget::unlimited())
            .is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        let _ = cnf.new_var();
        cnf.add_clause([]);
        assert_eq!(
            Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()),
            SolveOutcome::Unsat
        );
    }

    /// Pigeonhole PHP(n+1, n): n+1 pigeons in n holes — UNSAT and forces
    /// real conflict analysis.
    fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let mut grid = Vec::new();
        for _ in 0..pigeons {
            let row: Vec<Var> = (0..holes).map(|_| cnf.new_var()).collect();
            grid.push(row);
        }
        for row in &grid {
            cnf.add_clause(row.iter().map(|v| v.pos()));
        }
        for h in 0..holes {
            let column: Vec<Var> = grid.iter().map(|row| row[h]).collect();
            for (p1, a) in column.iter().enumerate() {
                for b in &column[p1 + 1..] {
                    cnf.add_clause([a.neg(), b.neg()]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=5 {
            let cnf = pigeonhole(n + 1, n);
            assert_eq!(
                Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited()),
                SolveOutcome::Unsat,
                "PHP({}, {n})",
                n + 1
            );
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let cnf = pigeonhole(4, 4);
        let result = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited());
        let model = result.model().expect("sat");
        assert!(cnf.is_satisfied_by(model));
    }

    #[test]
    fn pigeonhole_unsat_with_forced_db_reduction() {
        // A tiny pinned budget forces constant reduction; the proof must
        // still go through (PHP(6,5) alone needs hundreds of reductions
        // at this budget). Much smaller budgets make resolution-hard
        // instances blow up combinatorially, which is the expected
        // trade-off of an aggressive clause diet, not a bug.
        for n in 3..=5 {
            let cnf = pigeonhole(n + 1, n);
            let mut solver = Solver::from_cnf(&cnf);
            solver.set_reduce_db_limit(16);
            assert_eq!(
                solver.solve(&[], &Budget::unlimited()),
                SolveOutcome::Unsat,
                "PHP({}, {n})",
                n + 1
            );
            if n == 5 {
                assert!(
                    solver.num_db_reductions > 0,
                    "limit 16 must force reductions on PHP({}, {n})",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.pos(), b.pos()]);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver
            .solve(&[a.neg(), b.pos()], &Budget::unlimited())
            .is_sat());
        assert_eq!(
            solver.solve(&[a.neg(), b.neg()], &Budget::unlimited()),
            SolveOutcome::Unsat
        );
        // solver remains usable
        assert!(solver.solve(&[], &Budget::unlimited()).is_sat());
    }

    #[test]
    fn incremental_clause_addition() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.pos(), b.pos()]);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver.solve(&[], &Budget::unlimited()).is_sat());
        solver.add_clause([a.neg()]);
        assert!(solver.solve(&[], &Budget::unlimited()).is_sat());
        solver.add_clause([b.neg()]);
        assert_eq!(solver.solve(&[], &Budget::unlimited()), SolveOutcome::Unsat);
    }

    #[test]
    fn incremental_vars_and_clauses_between_solves() {
        let mut solver = Solver::new(0);
        let a = CnfBuilder::new_var(&mut solver);
        solver.add_clause([a.pos()]);
        assert!(solver.solve(&[], &Budget::unlimited()).is_sat());
        let b = CnfBuilder::new_var(&mut solver);
        solver.gate_buf(b.pos(), a.neg());
        match solver.solve(&[], &Budget::unlimited()) {
            SolveOutcome::Sat(model) => {
                assert!(model[a.index()]);
                assert!(!model[b.index()]);
            }
            other => panic!("satisfiable: {other:?}"),
        }
        solver.add_clause([b.pos()]);
        assert_eq!(solver.solve(&[], &Budget::unlimited()), SolveOutcome::Unsat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(99);
        for iter in 0..80 {
            let nv = rng.gen_range(3..10usize);
            let nc = rng.gen_range(1..45usize);
            let mut cnf = Cnf::new();
            let vars = cnf.new_vars(nv);
            for _ in 0..nc {
                let lits: Vec<Lit> = (0..3)
                    .map(|_| vars[rng.gen_range(0..nv)].lit(rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(lits);
            }
            let brute_sat = (0..(1u32 << nv)).any(|m| {
                let model: Vec<bool> = (0..nv).map(|i| (m >> i) & 1 == 1).collect();
                cnf.is_satisfied_by(&model)
            });
            let result = Solver::from_cnf(&cnf).solve(&[], &Budget::unlimited());
            assert_eq!(result.is_sat(), brute_sat, "iteration {iter}");
            if let SolveOutcome::Sat(model) = result {
                assert!(cnf.is_satisfied_by(&model), "iteration {iter} bad model");
            }
        }
    }

    #[test]
    fn assumptions_agree_with_unit_clauses() {
        use seceda_testkit::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(1234);
        for iter in 0..40 {
            let nv = rng.gen_range(4..9usize);
            let nc = rng.gen_range(5..30usize);
            let mut cnf = Cnf::new();
            let vars = cnf.new_vars(nv);
            for _ in 0..nc {
                let lits: Vec<Lit> = (0..3)
                    .map(|_| vars[rng.gen_range(0..nv)].lit(rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(lits);
            }
            let assumps: Vec<Lit> = (0..rng.gen_range(1..=3))
                .map(|_| vars[rng.gen_range(0..nv)].lit(rng.gen_bool(0.5)))
                .collect();
            let via_assumptions = Solver::from_cnf(&cnf)
                .solve(&assumps, &Budget::unlimited())
                .is_sat();
            let mut cnf2 = cnf.clone();
            for &a in &assumps {
                cnf2.add_clause([a]);
            }
            let via_units = Solver::from_cnf(&cnf2)
                .solve(&[], &Budget::unlimited())
                .is_sat();
            assert_eq!(via_assumptions, via_units, "iteration {iter}");
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }

    #[test]
    fn statistics_accumulate() {
        let cnf = pigeonhole(5, 4);
        let mut solver = Solver::from_cnf(&cnf);
        let _ = solver.solve(&[], &Budget::unlimited());
        assert!(solver.num_conflicts > 0);
        assert!(solver.num_propagations > 0);
        assert!(solver.num_learned > 0);
    }

    #[test]
    fn fresh_solver_decides_lowest_index_on_equal_activity() {
        // all activities zero: the tie-break must pick the lowest index,
        // exactly like the old linear scan
        let mut solver = Solver::new(8);
        assert_eq!(solver.next_decision_var(), Some(Var::from_index(0)));
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(6);
        cnf.add_clause([vars[2].pos(), vars[4].pos()]);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.next_decision_var(), Some(Var::from_index(0)));
    }

    /// The order heap's invariants: every inline key is its variable's
    /// current activity, every position entry points at its slot, and
    /// no entry is better than its parent.
    fn check_heap(solver: &Solver) {
        let order = &solver.order;
        for (slot, &(key, v)) in order.heap.iter().enumerate() {
            assert_eq!(
                key.to_bits(),
                solver.activity[v as usize].to_bits(),
                "key of {v}"
            );
            assert_eq!(order.pos[v as usize], slot as u32, "position of {v}");
            if slot > 0 {
                let parent = order.heap[(slot - 1) / 2];
                assert!(!VarOrder::better((key, v), parent), "{v} above its parent");
            }
        }
    }

    /// The unassigned variable of highest activity, lowest index on ties.
    fn linear_argmax(solver: &Solver) -> Option<Var> {
        let mut best: Option<Var> = None;
        for i in 0..solver.num_vars() {
            let v = Var::from_index(i);
            let better = match best {
                _ if solver.var_value(v).is_some() => false,
                None => true,
                Some(b) => solver.var_activity(v) > solver.var_activity(b),
            };
            if better {
                best = Some(v);
            }
        }
        best
    }

    #[test]
    fn activity_rescale_refreshes_inline_heap_keys() {
        // `var_inc` grows by 1/0.95 per analyzed conflict and passes
        // 1e100 after about 4,490 of them; an activity passes it a little
        // earlier, and then every activity (and every inline heap key) is
        // scaled by 1e-100. One solve runs up to just short of that; then
        // slices of two conflicts (the first is analyzed, the second stops
        // the solve) check the heap right after each step, before
        // decisions and backtracks re-key most variables anyway.
        let mut solver = Solver::from_cnf(&pigeonhole(10, 9));
        let outcome = solver.solve(&[], &Budget::unlimited().with_max_conflicts(4_000));
        assert_eq!(outcome, SolveOutcome::Indeterminate(StopReason::Conflicts));
        let slice = Budget::unlimited().with_max_conflicts(2);
        let mut slices_since_rescale = None;
        while slices_since_rescale.is_none_or(|n| n < 100) {
            let var_inc = solver.var_inc;
            let outcome = solver.solve(&[], &slice);
            assert_eq!(outcome, SolveOutcome::Indeterminate(StopReason::Conflicts));
            if solver.var_inc < var_inc {
                slices_since_rescale = Some(0);
            }
            slices_since_rescale = slices_since_rescale.map(|n| n + 1);
            assert!(
                solver.num_conflicts < 6_000,
                "no rescale in 6,000 conflicts"
            );
            check_heap(&solver);
            let expected = linear_argmax(&solver);
            let at = solver.num_conflicts;
            assert_eq!(solver.next_decision_var(), expected, "at {at} conflicts");
        }
    }

    #[test]
    fn reduction_watches_stripped_clauses_as_binaries() {
        let mut solver = Solver::new(4);
        let [a, b, c, d] = [0, 1, 2, 3].map(Var::from_index);
        solver.add_clause([a.pos(), b.pos(), c.pos()]);
        solver.add_clause([a.neg(), c.pos(), d.pos()]);
        solver.add_clause([c.neg()]);
        // both ternaries hold a root-false literal until a reduction
        // strips it
        for l in [a.pos(), b.pos(), a.neg(), d.pos()] {
            assert!(solver.watches[l.code()]
                .iter()
                .all(|w| w.clause & Watch::BINARY == 0));
        }
        solver.reduce_db();
        assert_eq!(solver.num_clauses(), 2);
        assert_eq!(solver.arena.len(), 2 * (HEADER + 2));
        for (l, other) in [
            (a.pos(), b.pos()),
            (b.pos(), a.pos()),
            (a.neg(), d.pos()),
            (d.pos(), a.neg()),
        ] {
            let watches = &solver.watches[l.code()];
            assert_eq!(watches.len(), 1, "one watch on {l:?}");
            assert_ne!(
                watches[0].clause & Watch::BINARY,
                0,
                "{l:?} watches a binary"
            );
            assert_eq!(watches[0].blocker, other);
        }
        // and they propagate: a false forces b, a true forces d
        let model = solver.solve(&[a.neg()], &Budget::unlimited());
        assert!(model.model().expect("sat")[b.index()]);
        let model = solver.solve(&[a.pos()], &Budget::unlimited());
        assert!(model.model().expect("sat")[d.index()]);
        assert_eq!(
            solver.solve(&[a.neg(), b.neg()], &Budget::unlimited()),
            SolveOutcome::Unsat
        );
    }

    #[test]
    fn minimization_shrinks_clauses_without_changing_results() {
        // pigeonhole instances exercise minimization heavily; the result
        // must stay UNSAT and literals must actually be removed
        let cnf = pigeonhole(6, 5);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(&[], &Budget::unlimited()), SolveOutcome::Unsat);
        assert!(
            solver.num_minimized_lits > 0,
            "PHP(6,5) must trigger self-subsumption"
        );
    }
}
