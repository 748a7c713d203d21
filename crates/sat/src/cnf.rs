//! CNF formula representation: variables, literals, clauses.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from a dense index.
    pub fn from_index(index: usize) -> Self {
        Var(u32::try_from(index).expect("variable index overflow"))
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    // named for symmetry with `pos`; this is literal polarity, not
    // arithmetic negation, so `std::ops::Neg` would be misleading
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given sign (`true` = positive).
    pub fn lit(self, sign: bool) -> Lit {
        if sign {
            self.pos()
        } else {
            self.neg()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `2*var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code (used to index watch lists).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Evaluates the literal under a variable assignment.
    pub fn eval(self, value: bool) -> bool {
        value == self.is_positive()
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A sink for CNF clauses: anything that can allocate variables and
/// receive clauses.
///
/// Implemented by [`Cnf`] (builds a formula in memory) and by
/// [`Solver`](crate::Solver) (adds clauses to a *live* solver, enabling
/// incremental encodings that keep learned clauses across queries — the
/// persistent-solver SAT attack and incremental ATPG encode netlist
/// copies straight into the solver through this trait). The gate helpers
/// ([`gate_and`](CnfBuilder::gate_and) etc.) are provided for every
/// implementation.
pub trait CnfBuilder {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause (a disjunction of literals).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>);

    /// Allocates `n` fresh variables.
    fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Adds clauses forcing `y <-> (a AND b)`.
    fn gate_and(&mut self, y: Lit, a: Lit, b: Lit) {
        self.add_clause([!y, a]);
        self.add_clause([!y, b]);
        self.add_clause([y, !a, !b]);
    }

    /// Adds clauses forcing `y <-> (a OR b)`.
    fn gate_or(&mut self, y: Lit, a: Lit, b: Lit) {
        self.add_clause([y, !a]);
        self.add_clause([y, !b]);
        self.add_clause([!y, a, b]);
    }

    /// Adds clauses forcing `y <-> (a XOR b)`.
    fn gate_xor(&mut self, y: Lit, a: Lit, b: Lit) {
        self.add_clause([!y, a, b]);
        self.add_clause([!y, !a, !b]);
        self.add_clause([y, !a, b]);
        self.add_clause([y, a, !b]);
    }

    /// Adds clauses forcing `y <-> (s ? b : a)`.
    fn gate_mux(&mut self, y: Lit, s: Lit, a: Lit, b: Lit) {
        // s=0: y <-> a ; s=1: y <-> b
        self.add_clause([s, !y, a]);
        self.add_clause([s, y, !a]);
        self.add_clause([!s, !y, b]);
        self.add_clause([!s, y, !b]);
    }

    /// Adds clauses forcing `y <-> a`.
    fn gate_buf(&mut self, y: Lit, a: Lit) {
        self.add_clause([!y, a]);
        self.add_clause([y, !a]);
    }
}

/// A [`CnfBuilder`] adapter that appends a fixed guard literal to every
/// clause, making the whole clause group conditional: the clauses bind
/// only under the assumption `!guard`, and a root-level unit `guard`
/// retires the group forever.
///
/// This is the selector mechanism behind
/// [`FaultMiter`](crate::FaultMiter): each fault's cone is lowered
/// gated on a fresh selector, activated via assumptions, and retired
/// after its query instead of rebuilding the solver.
pub(crate) struct GatedCnf<'a, B: CnfBuilder> {
    inner: &'a mut B,
    guard: Lit,
}

impl<'a, B: CnfBuilder> GatedCnf<'a, B> {
    /// Wraps `inner`, adding `guard` to every clause added through the
    /// wrapper. Variables are allocated ungated.
    pub(crate) fn new(inner: &'a mut B, guard: Lit) -> Self {
        GatedCnf { inner, guard }
    }
}

impl<B: CnfBuilder> CnfBuilder for GatedCnf<'_, B> {
    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let guard = self.guard;
        self.inner.add_clause(lits.into_iter().chain([guard]));
    }
}

/// A CNF formula under construction.
///
/// # Example
///
/// ```
/// use seceda_sat::Cnf;
///
/// let mut cnf = Cnf::new();
/// let x = cnf.new_var();
/// let y = cnf.new_var();
/// cnf.add_clause([x.pos(), y.neg()]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.clauses().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            assert!(l.var().0 < self.num_vars, "literal {l} out of range");
        }
        self.clauses.push(clause);
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Checks a full assignment against every clause (testing helper).
    pub fn is_satisfied_by(&self, model: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|&l| l.eval(model[l.var().index()])))
    }
}

impl CnfBuilder for Cnf {
    fn new_var(&mut self) -> Var {
        Cnf::new_var(self)
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        Cnf::add_clause(self, lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::from_index(5);
        assert_eq!(v.pos().code(), 10);
        assert_eq!(v.neg().code(), 11);
        assert_eq!(!v.pos(), v.neg());
        assert_eq!((!v.neg()).var(), v);
        assert!(v.pos().is_positive());
        assert!(!v.neg().is_positive());
        assert_eq!(v.lit(true), v.pos());
        assert_eq!(v.lit(false), v.neg());
    }

    #[test]
    fn literal_eval() {
        let v = Var::from_index(0);
        assert!(v.pos().eval(true));
        assert!(!v.pos().eval(false));
        assert!(v.neg().eval(false));
    }

    #[test]
    fn gate_encodings_match_semantics() {
        // exhaustively check each gate encoding against its truth table
        let check = |build: &dyn Fn(&mut Cnf, Lit, Lit, Lit), f: &dyn Fn(bool, bool) -> bool| {
            for a_val in [false, true] {
                for b_val in [false, true] {
                    for y_val in [false, true] {
                        let mut cnf = Cnf::new();
                        let y = cnf.new_var();
                        let a = cnf.new_var();
                        let b = cnf.new_var();
                        build(&mut cnf, y.pos(), a.pos(), b.pos());
                        let model = vec![y_val, a_val, b_val];
                        let consistent = y_val == f(a_val, b_val);
                        assert_eq!(cnf.is_satisfied_by(&model), consistent);
                    }
                }
            }
        };
        check(&|c, y, a, b| c.gate_and(y, a, b), &|a, b| a & b);
        check(&|c, y, a, b| c.gate_or(y, a, b), &|a, b| a | b);
        check(&|c, y, a, b| c.gate_xor(y, a, b), &|a, b| a ^ b);
    }

    #[test]
    fn mux_encoding() {
        for s in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    for y in [false, true] {
                        let mut cnf = Cnf::new();
                        let vy = cnf.new_var();
                        let vs = cnf.new_var();
                        let va = cnf.new_var();
                        let vb = cnf.new_var();
                        cnf.gate_mux(vy.pos(), vs.pos(), va.pos(), vb.pos());
                        let expect = if s { b } else { a };
                        assert_eq!(
                            cnf.is_satisfied_by(&[y, s, a, b]),
                            y == expect,
                            "s={s} a={a} b={b} y={y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clause_with_unallocated_var_panics() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Var::from_index(3).pos()]);
    }
}
