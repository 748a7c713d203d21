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

use crate::budget::{Budget, SolveOutcome, StopReason};
use crate::cnf::{Cnf, CnfBuilder, Lit, Var};

const UNASSIGNED: i8 = -1;
const NO_REASON: u32 = u32::MAX;
/// Learned clauses with LBD at or below this are "glue" and never deleted.
const GLUE_LBD: u32 = 2;
/// Conflicts-per-restart multiplier on the Luby sequence.
const RESTART_BASE: u64 = 64;
/// VSIDS activity decay (`var_inc /= VAR_DECAY` per conflict).
const VAR_DECAY: f64 = 0.95;
/// Growth factor of the learned-clause budget after each reduction.
const REDUCE_GROWTH: f64 = 1.2;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    lbd: u32,
    activity: f64,
}

/// A watch-list entry: the clause index plus a *blocking literal* — some
/// other literal of the clause (usually the other watch). If the blocker
/// is already true the clause is satisfied and propagation skips the
/// clause body entirely, avoiding the cache miss on `Clause::lits`.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// Indexed binary max-heap over variable activities.
///
/// Ordering: higher activity first, lowest variable index on ties — the
/// same variable a linear argmax scan would pick. Assigned variables are
/// removed lazily (skipped at pop time, re-inserted on backtrack).
#[derive(Debug, Clone, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]` is the heap slot of `v`, or `ABSENT`.
    pos: Vec<u32>,
}

impl VarOrder {
    const ABSENT: u32 = u32::MAX;

    fn new(num_vars: usize, activity: &[f64]) -> Self {
        let mut order = VarOrder {
            heap: Vec::with_capacity(num_vars),
            pos: Vec::with_capacity(num_vars),
        };
        for v in 0..num_vars {
            order.pos.push(Self::ABSENT);
            order.insert(activity, v);
        }
        order
    }

    fn better(activity: &[f64], a: u32, b: u32) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn in_heap(&self, v: usize) -> bool {
        self.pos[v] != Self::ABSENT
    }

    /// Registers a freshly allocated variable and inserts it.
    fn push_var(&mut self, activity: &[f64], v: usize) {
        debug_assert_eq!(self.pos.len(), v);
        self.pos.push(Self::ABSENT);
        self.insert(activity, v);
    }

    fn insert(&mut self, activity: &[f64], v: usize) {
        if self.in_heap(v) {
            return;
        }
        let slot = self.heap.len();
        self.heap.push(v as u32);
        self.pos[v] = slot as u32;
        self.sift_up(activity, slot);
    }

    fn swap_slots(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }

    fn sift_up(&mut self, activity: &[f64], mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::better(activity, self.heap[i], self.heap[parent]) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, activity: &[f64], mut i: usize) {
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let mut best = i;
            if left < self.heap.len() && Self::better(activity, self.heap[left], self.heap[best]) {
                best = left;
            }
            if right < self.heap.len() && Self::better(activity, self.heap[right], self.heap[best])
            {
                best = right;
            }
            if best == i {
                break;
            }
            self.swap_slots(i, best);
            i = best;
        }
    }

    fn peek(&self) -> Option<usize> {
        self.heap.first().map(|&v| v as usize)
    }

    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(activity, 0);
        }
        Some(top)
    }

    /// Restores heap order after `v`'s activity increased.
    fn bumped(&mut self, activity: &[f64], v: usize) {
        if self.in_heap(v) {
            self.sift_up(activity, self.pos[v] as usize);
        }
    }

    /// Re-heapifies after a global activity rescale (which can collapse
    /// distinct activities into ties, invalidating the order).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(activity, i);
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
    clauses: Vec<Clause>,
    /// `watches[l.code()]`: entries for clauses in which literal `l` is
    /// one of the two watched literals, each with a blocking literal.
    watches: Vec<Vec<Watch>>,
    assign: Vec<i8>, // -1 unassigned / 0 false / 1 true
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
        let activity = vec![0.0; num_vars];
        Solver {
            clauses: Vec::new(),
            watches: vec![Vec::new(); num_vars * 2],
            assign: vec![UNASSIGNED; num_vars],
            level: vec![0; num_vars],
            reason: vec![NO_REASON; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::new(num_vars, &activity),
            activity,
            var_inc: 1.0,
            cla_inc: 1.0,
            num_deletable_live: 0,
            max_learnts: 0.0,
            reduce_pinned: false,
            saved_phase: vec![false; num_vars],
            seen: vec![false; num_vars],
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
        let v = Var::from_index(self.assign.len());
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var(&self.activity, v.index());
        v
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses currently stored (problem + live learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of problem (non-learned) clauses currently stored — the
    /// size of the encoding as delivered by [`CnfBuilder::add_clause`],
    /// excluding anything the search derived itself.
    pub fn num_problem_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learned).count()
    }

    /// The current VSIDS activity of a variable.
    pub fn var_activity(&self, v: Var) -> f64 {
        self.activity[v.index()]
    }

    /// The root-level value of a variable, if the solver is idle at the
    /// root (after a [`Solver::solve`] call the trail is backtracked, so
    /// only root-implied variables report a value).
    pub fn var_value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            UNASSIGNED => None,
            x => Some(x == 1),
        }
    }

    fn value_lit(&self, l: Lit) -> i8 {
        match self.assign[l.var().index()] {
            UNASSIGNED => UNASSIGNED,
            v => i8::from((v == 1) == l.is_positive()),
        }
    }

    /// Adds a clause. May be called between [`Solver::solve`] calls; the
    /// solver backtracks to the root level first.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unknown variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.backtrack(0);
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            assert!(l.var().index() < self.num_vars(), "literal out of range");
        }
        clause.sort_unstable();
        clause.dedup();
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            return; // tautology
        }
        if clause.iter().any(|&l| self.value_lit(l) == 1) {
            return; // satisfied at root level
        }
        clause.retain(|&l| self.value_lit(l) != 0); // drop root-false lits
        match clause.len() {
            0 => self.unsat = true,
            1 => {
                self.enqueue(clause[0], NO_REASON);
                if matches!(self.propagate(), Propagation::Conflict(_)) {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watch(clause[0], idx, clause[1]);
                self.watch(clause[1], idx, clause[0]);
                self.clauses.push(Clause {
                    lits: clause,
                    learned: false,
                    lbd: 0,
                    activity: 0.0,
                });
            }
        }
    }

    fn watch(&mut self, on: Lit, clause: u32, blocker: Lit) {
        self.watches[on.code()].push(Watch { clause, blocker });
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(l), UNASSIGNED);
        let v = l.var().index();
        self.assign[v] = l.is_positive() as i8;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.saved_phase[v] = l.is_positive();
        self.trail.push(l);
        self.num_propagations += 1;
    }

    /// Propagates all pending assignments; returns a conflicting clause
    /// index on conflict.
    fn propagate(&mut self) -> Propagation {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p; // literal that just became false
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut conflict = None;
            while i < watch_list.len() {
                let w = watch_list[i];
                // blocking literal: clause already satisfied, skip body
                if self.value_lit(w.blocker) == 1 {
                    i += 1;
                    continue;
                }
                match self.visit_clause(w.clause, false_lit) {
                    VisitOutcome::Keep => {
                        // refresh the blocker to the other watch, which
                        // visit_clause left (or made) satisfied-or-free
                        watch_list[i].blocker = self.clauses[w.clause as usize].lits[0];
                        i += 1;
                    }
                    VisitOutcome::Moved => {
                        watch_list.swap_remove(i);
                    }
                    VisitOutcome::Conflict => {
                        conflict = Some(w.clause);
                        break;
                    }
                }
            }
            self.watches[false_lit.code()] = watch_list;
            if let Some(ci) = conflict {
                // flush the propagation queue so the trail stays coherent
                self.qhead = self.trail.len();
                return Propagation::Conflict(ci);
            }
        }
        Propagation::Quiescent
    }

    fn visit_clause(&mut self, ci: u32, false_lit: Lit) -> VisitOutcome {
        // ensure the false watch sits at position 1
        {
            let c = &mut self.clauses[ci as usize].lits;
            if c[0] == false_lit {
                c.swap(0, 1);
            }
        }
        let first = self.clauses[ci as usize].lits[0];
        if self.value_lit(first) == 1 {
            return VisitOutcome::Keep;
        }
        let len = self.clauses[ci as usize].lits.len();
        for k in 2..len {
            let lk = self.clauses[ci as usize].lits[k];
            if self.value_lit(lk) != 0 {
                let c = &mut self.clauses[ci as usize].lits;
                c.swap(1, k);
                let (new_watch, blocker) = (c[1], c[0]);
                self.watch(new_watch, ci, blocker);
                return VisitOutcome::Moved;
            }
        }
        if self.value_lit(first) == 0 {
            VisitOutcome::Conflict
        } else {
            self.enqueue(first, ci);
            VisitOutcome::Keep
        }
    }

    fn backtrack(&mut self, target_level: usize) {
        if self.trail_lim.len() <= target_level {
            return;
        }
        let lim = self.trail_lim[target_level];
        while self.trail.len() > lim {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var().index();
            self.assign[v] = UNASSIGNED;
            self.reason[v] = NO_REASON;
            self.order.insert(&self.activity, v);
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
            // rescaling can merge activities into ties; restore heap order
            self.order.rebuild(&self.activity);
        } else {
            self.order.bumped(&self.activity, v);
        }
    }

    fn bump_clause(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis with self-subsumption minimization.
    /// Returns `(learned clause, backtrack level, LBD)` with the asserting
    /// literal at position 0.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, usize, u32) {
        let current = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut p: Option<Lit> = None;
        let mut reason_clause = confl;
        loop {
            if self.clauses[reason_clause as usize].learned {
                self.bump_clause(reason_clause);
            }
            // For reason clauses, lits[0] is the literal that was asserted
            // (p); skip it. For the initial conflict clause take all.
            let start = usize::from(p.is_some());
            for j in start..self.clauses[reason_clause as usize].lits.len() {
                let q = self.clauses[reason_clause as usize].lits[j];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
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
            p = Some(lit);
            if counter == 0 {
                break;
            }
            reason_clause = self.reason[v];
            debug_assert_ne!(reason_clause, NO_REASON, "non-UIP literal lacks reason");
        }
        let uip = !p.expect("1-UIP literal");
        // Self-subsumption against reason clauses: a literal whose reason's
        // other literals are all already in the clause (seen) or root-false
        // is implied by the rest and can be dropped. Reasons form an
        // acyclic implication graph, so dropping several such literals at
        // once stays sound. The `seen` marks of dropped literals are kept
        // until all checks ran, then cleared together.
        let premin_vars: Vec<usize> = learnt.iter().map(|l| l.var().index()).collect();
        let before = learnt.len();
        learnt.retain(|&l| {
            let r = self.reason[l.var().index()];
            if r == NO_REASON {
                return true;
            }
            // lits[0] of a reason clause is the asserted literal (= !l)
            !self.clauses[r as usize].lits[1..].iter().all(|&q| {
                let qv = q.var().index();
                self.seen[qv] || self.level[qv] == 0
            })
        });
        self.num_minimized_lits += (before - learnt.len()) as u64;
        for v in premin_vars {
            self.seen[v] = false;
        }
        // backtrack to the second-highest decision level in the clause
        let mut bt = 0usize;
        let mut max_idx = 0usize;
        for (i, l) in learnt.iter().enumerate() {
            let lv = self.level[l.var().index()] as usize;
            if lv > bt {
                bt = lv;
                max_idx = i;
            }
        }
        if !learnt.is_empty() {
            learnt.swap(0, max_idx);
        }
        // LBD: number of distinct decision levels in the clause (the UIP
        // sits at the current level, distinct from every other literal)
        let mut levels: Vec<u32> = learnt.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32 + 1;
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(uip);
        clause.extend(learnt);
        (clause, bt, lbd)
    }

    /// Installs a learned clause; returns its index if it is non-unit.
    fn learn(&mut self, clause: &[Lit], lbd: u32) -> u32 {
        self.num_learned += 1;
        if clause.len() < 2 {
            return NO_REASON;
        }
        let idx = self.clauses.len() as u32;
        self.watch(clause[0], idx, clause[1]);
        self.watch(clause[1], idx, clause[0]);
        self.clauses.push(Clause {
            lits: clause.to_vec(),
            learned: true,
            lbd,
            activity: self.cla_inc,
        });
        if lbd > GLUE_LBD {
            self.num_deletable_live += 1;
        }
        idx
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
    /// root-false literals, and rebuilds the watch lists over the
    /// compacted arena. Root-level reason links are cleared first — they
    /// are never dereferenced (conflict analysis skips level-0 literals),
    /// and clearing them unlocks every clause for deletion.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce_db runs at root level");
        debug_assert_eq!(self.qhead, self.trail.len(), "trail fully propagated");
        self.num_db_reductions += 1;
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            self.reason[v] = NO_REASON;
        }
        let mut victims: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learned && c.lbd > GLUE_LBD
            })
            .collect();
        // worst first: high LBD, then low activity, then oldest
        victims.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.total_cmp(&cb.activity))
                .then(a.cmp(&b))
        });
        victims.truncate(victims.len() / 2);
        let mut drop = vec![false; self.clauses.len()];
        for &i in &victims {
            drop[i as usize] = true;
        }
        let old = std::mem::take(&mut self.clauses);
        for w in &mut self.watches {
            w.clear();
        }
        for (i, mut c) in old.into_iter().enumerate() {
            if drop[i] {
                continue;
            }
            if c.lits.iter().any(|&l| self.value_lit(l) == 1) {
                continue; // satisfied at root, forever
            }
            c.lits.retain(|&l| self.value_lit(l) != 0);
            // full root propagation guarantees >= 2 unassigned literals in
            // any clause that is not root-satisfied
            debug_assert!(c.lits.len() >= 2, "root propagation incomplete");
            let idx = self.clauses.len() as u32;
            self.watch(c.lits[0], idx, c.lits[1]);
            self.watch(c.lits[1], idx, c.lits[0]);
            self.clauses.push(c);
        }
        self.num_deletable_live = self
            .clauses
            .iter()
            .filter(|c| c.learned && c.lbd > GLUE_LBD)
            .count();
    }

    /// Picks the unassigned variable with the highest activity (lowest
    /// index on ties) from the order heap — O(log n) per call.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v] == UNASSIGNED {
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
            if self.assign[v] == UNASSIGNED {
                return Some(Var::from_index(v));
            }
            self.order.pop(&self.activity);
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
        sp.attr("clauses", self.clauses.len());
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
            self.max_learnts = (self.clauses.len() as f64 / 3.0).max(2000.0);
        }
        if conflict_target.is_some_and(|t| self.num_conflicts >= t) {
            return SolveOutcome::Indeterminate(StopReason::Conflicts);
        }
        self.backtrack(0);
        if let Propagation::Conflict(_) = self.propagate() {
            self.unsat = true;
            return SolveOutcome::Unsat;
        }
        let mut restart_count = 0u32;
        let mut conflicts_until_restart = RESTART_BASE * luby(restart_count);
        loop {
            match self.propagate() {
                Propagation::Conflict(confl) => {
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
                    let (clause, bt, lbd) = self.analyze(confl);
                    self.backtrack(bt);
                    let asserting = clause[0];
                    let reason = self.learn(&clause, lbd);
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
                Propagation::Quiescent => {
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
                            1 => self.trail_lim.push(self.trail.len()),
                            0 => {
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
                            let model: Vec<bool> = self.assign.iter().map(|&v| v == 1).collect();
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VisitOutcome {
    Keep,
    Moved,
    Conflict,
}

/// Outcome of a [`Solver::propagate`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Propagation {
    /// Queue drained without conflict.
    Quiescent,
    /// Conflict in the given clause.
    Conflict(u32),
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
