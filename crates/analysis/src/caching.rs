//! Caching analysis (paper §3.2): labels every term `static`, `cached` or
//! `dynamic` by solving the consistency constraints of the paper's Figure 3
//! as rewrite rules over a monotone label lattice.
//!
//! * **Rule 1** — dependent terms are dynamic.
//! * **Rule 2** — terms with global effects (here: `trace` calls) are dynamic.
//! * **Rule 3** — terms under dependent control are dynamic (speculation
//!   avoidance; the paper's implementation does not speculate either — §7.1
//!   lists loader speculation as future work).
//! * **Rule 4** — the reaching definitions of a dynamic variable reference
//!   are dynamic.
//! * **Rule 5** — the control constructs guarding a dynamic term are dynamic.
//! * **Rules 6/7** — every value operand of a dynamic term is either cached
//!   (if independent, single-valued and non-trivial) or dynamic.
//! * **Rule 8** — everything else is static.
//!
//! Additionally, the fragment's `return` statements are seeded dynamic: the
//! reader must produce the fragment's result.
//!
//! The solver prefers Rule 6 over Rule 7 (cache rather than recompute), is
//! monotone in the order `static < cached < dynamic`, and is **restartable**:
//! [`CacheSolver::force_dynamic`] relabels any term and re-establishes
//! Rules 4–7, which is exactly the primitive the cache-size limiting
//! algorithm of §4.3 needs.
//!
//! Per §4.1, bare variable references are never cached **except** the
//! right-hand side of a join-point pseudo-phi assignment — the mechanism that
//! avoids the duplicate-slot problem of the paper's Figures 4–5.

use crate::costmodel::is_trivial;
use crate::depend::Dependence;
use crate::index::TermIndex;
use crate::reachdef::{DefId, ReachingDefs};
use crate::table::TermTable;
use ds_lang::{BinOp, ExprKind, StmtKind, TermId, Type, TypeInfo};

/// Configuration of the caching analysis.
///
/// The paper's implementation never speculates (Rule 3 forces every term
/// under dependent control to be dynamic); §7.1 lists exploring loader
/// speculation as future work. With [`CachingOptions::speculate`] enabled,
/// an independent term guarded by a dependent predicate may still be cached
/// when it is *hoistable* — its free variables are all defined outside the
/// guarded region and its evaluation cannot fault (no integer division) —
/// in which case the loader computes it unconditionally ahead of the guard.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachingOptions {
    /// Allow speculative caching under dependent control (§7.1).
    pub speculate: bool,
}

/// The three-point label lattice, ordered `Static < Cached < Dynamic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Label {
    /// Evaluated only by the loader; absent from the reader.
    #[default]
    Static,
    /// Evaluated by the loader, which stores the value into a cache slot the
    /// reader then reads.
    Cached,
    /// Evaluated by both loader and reader.
    Dynamic,
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Label::Static => "static",
            Label::Cached => "cached",
            Label::Dynamic => "dynamic",
        })
    }
}

/// Why a term received its (non-static) label — the rule of Figure 3 that
/// fired first. [`CacheSolver::explain`] follows these to a basis cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Rule 1: the term's value or effects depend on a varying input.
    Dependent,
    /// Rule 2: the term reads or writes global state (`trace`).
    GlobalEffect,
    /// Rule 3: the term is guarded by a dependent predicate.
    UnderDependentControl,
    /// Seed: the reader must produce the fragment's result.
    ReturnValue,
    /// Rule 4: the term defines a variable referenced by this dynamic term.
    DefinitionOfDynamicRef(TermId),
    /// Rule 5: the term guards this dynamic term.
    GuardsDynamicTerm(TermId),
    /// Rule 7: the term is a value operand of this dynamic term and could
    /// not be cached.
    OperandOfDynamicTerm(TermId),
    /// Rule 6: the term is cached for this dynamic consumer.
    CachedOperandOf(TermId),
    /// §4.3: the cache-size limiter evicted this term.
    LimiterEviction,
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reason::Dependent => write!(f, "depends on a varying input (Rule 1)"),
            Reason::GlobalEffect => write!(f, "has a global effect (Rule 2)"),
            Reason::UnderDependentControl => {
                write!(f, "guarded by a dependent predicate (Rule 3)")
            }
            Reason::ReturnValue => write!(f, "produces the fragment's result"),
            Reason::DefinitionOfDynamicRef(t) => {
                write!(
                    f,
                    "defines a variable referenced by dynamic term {t} (Rule 4)"
                )
            }
            Reason::GuardsDynamicTerm(t) => {
                write!(f, "guards dynamic term {t} (Rule 5)")
            }
            Reason::OperandOfDynamicTerm(t) => {
                write!(f, "uncacheable operand of dynamic term {t} (Rule 7)")
            }
            Reason::CachedOperandOf(t) => {
                write!(f, "cached for dynamic consumer {t} (Rule 6)")
            }
            Reason::LimiterEviction => {
                write!(f, "evicted by the cache-size limiter (§4.3)")
            }
        }
    }
}

/// The restartable constraint solver over caching labels.
#[derive(Debug)]
pub struct CacheSolver<'a, 'p> {
    ix: &'a TermIndex<'p>,
    rd: &'a ReachingDefs,
    dep: &'a Dependence,
    types: &'a TypeInfo,
    opts: CachingOptions,
    labels: TermTable<Label>,
    reasons: TermTable<Reason>,
    worklist: Vec<TermId>,
    /// Cached terms under dependent control (speculation only), mapped to
    /// the hoist anchor: the outermost dependent guard *statement* before
    /// which the loader must fill the slot.
    speculative: TermTable<TermId>,
    /// Telemetry: total worklist items processed across `run()` calls
    /// (including limiter-triggered reruns).
    worklist_pops: u64,
}

impl<'a, 'p> CacheSolver<'a, 'p> {
    /// Builds the solver, applies the basis rules (1–3 plus the return-value
    /// seed) and runs the closure rules (4–7) to a fixpoint.
    pub fn solve(
        ix: &'a TermIndex<'p>,
        rd: &'a ReachingDefs,
        dep: &'a Dependence,
        types: &'a TypeInfo,
    ) -> Self {
        Self::solve_with(ix, rd, dep, types, CachingOptions::default())
    }

    /// [`CacheSolver::solve`] with explicit options (loader speculation).
    pub fn solve_with(
        ix: &'a TermIndex<'p>,
        rd: &'a ReachingDefs,
        dep: &'a Dependence,
        types: &'a TypeInfo,
        opts: CachingOptions,
    ) -> Self {
        let mut solver = CacheSolver {
            ix,
            rd,
            dep,
            types,
            opts,
            labels: ix.table(),
            reasons: ix.table(),
            worklist: Vec::new(),
            speculative: ix.table(),
            worklist_pops: 0,
        };
        solver.seed_basis();
        solver.run();
        solver
    }

    /// For a speculatively cached term, the statement before which the
    /// loader must hoist the slot fill; `None` for ordinarily cached terms.
    pub fn speculative_anchor(&self, id: TermId) -> Option<TermId> {
        if self.label(id) == Label::Cached {
            self.speculative.get(id).copied()
        } else {
            None
        }
    }

    /// The label of term `id` (Rule 8: unlabeled means static).
    pub fn label(&self, id: TermId) -> Label {
        self.labels.get(id).copied().unwrap_or(Label::Static)
    }

    /// All currently cached terms, in ascending id order (i.e. program
    /// order), which gives cache slots a deterministic layout. The dense
    /// table iterates in id order already, so no sort is needed.
    pub fn cached_terms(&self) -> Vec<TermId> {
        self.labels
            .iter()
            .filter(|(_, &l)| l == Label::Cached)
            .map(|(id, _)| id)
            .collect()
    }

    /// Counts of (static, cached, dynamic) labels over all terms.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut cached = 0;
        let mut dynamic = 0;
        for &l in self.labels.values() {
            match l {
                Label::Cached => cached += 1,
                Label::Dynamic => dynamic += 1,
                Label::Static => {}
            }
        }
        let total = self.ix.term_count();
        (total - cached - dynamic, cached, dynamic)
    }

    /// Relabels `id` (typically a cached term chosen as a limiting victim)
    /// as dynamic and re-establishes Rules 4–7. Monotonicity makes this
    /// equivalent to having started with the label (paper §3.2).
    pub fn force_dynamic(&mut self, id: TermId) {
        self.raise(id, Label::Dynamic, Reason::LimiterEviction);
        self.run();
    }

    /// The first rule that fired for `id`, or `None` for static terms.
    pub fn reason(&self, id: TermId) -> Option<Reason> {
        self.reasons.get(id).copied()
    }

    /// Telemetry: worklist items processed so far (Rules 4–7 firings plus
    /// limiter-triggered reruns) — the solver's fixpoint iteration count.
    pub fn worklist_pops(&self) -> u64 {
        self.worklist_pops
    }

    /// Every non-static term with its final label and the first rule that
    /// fired for it, in ascending term-id (program) order — the decision
    /// trace the telemetry events are built from.
    pub fn labeled_terms(&self) -> Vec<(TermId, Label, Reason)> {
        self.labels
            .iter()
            .filter(|(_, &l)| l != Label::Static)
            .map(|(id, &l)| {
                let reason = self.reason(id).expect("labeled terms carry a reason");
                (id, l, reason)
            })
            .collect()
    }

    /// Follows the provenance chain from `id` back to a basis cause:
    /// each entry is `(term, reason)`, ending at a Rule 1/2/3 or seed
    /// justification (or the limiter).
    pub fn explain(&self, id: TermId) -> Vec<(TermId, Reason)> {
        let mut chain = Vec::new();
        let mut cur = id;
        let mut seen = std::collections::HashSet::new();
        while seen.insert(cur) {
            let Some(reason) = self.reason(cur) else {
                break;
            };
            chain.push((cur, reason));
            match reason {
                Reason::DefinitionOfDynamicRef(next)
                | Reason::GuardsDynamicTerm(next)
                | Reason::OperandOfDynamicTerm(next)
                | Reason::CachedOperandOf(next) => cur = next,
                _ => break,
            }
        }
        chain
    }

    fn seed_basis(&mut self) {
        // Sorted so the solve (and every recorded reason) is deterministic:
        // the worklist's pop order is a function of push order, and pushes
        // happen in the order basis rules fire here.
        let mut ids: Vec<TermId> = self.ix.stmt_ids().chain(self.ix.expr_ids()).collect();
        ids.sort_unstable();
        for id in ids {
            // Rule 1: dependent => dynamic.
            if self.dep.is_dependent(id) {
                self.raise(id, Label::Dynamic, Reason::Dependent);
            }
            // Rule 3: under dependent control => dynamic — unless
            // speculation is enabled, in which case Rules 6/7 decide per
            // term whether a hoistable cache slot can replace it. Effects
            // and statements are never speculated.
            if self.dep.is_under_dependent_control(id)
                && !(self.opts.speculate && self.ix.is_expr(id))
            {
                self.raise(id, Label::Dynamic, Reason::UnderDependentControl);
            }
            // Rule 2: global effects => dynamic. For an expression the
            // effect may sit anywhere in its subtree; for a statement, in
            // any of its value operands.
            let effectful = if self.ix.is_expr(id) {
                self.ix.expr_has_global_effect(id)
            } else {
                self.ix
                    .value_operands(id)
                    .iter()
                    .any(|&o| self.ix.expr_has_global_effect(o))
            };
            if effectful {
                self.raise(id, Label::Dynamic, Reason::GlobalEffect);
            }
            // Seed: the fragment's result must be produced by the reader.
            if let Some(s) = self.ix.stmt(id) {
                if matches!(s.kind, StmtKind::Return(_)) {
                    self.raise(id, Label::Dynamic, Reason::ReturnValue);
                }
            }
        }
    }

    /// Raises `id`'s label to at least `to` (labels never decrease),
    /// recording the rule that justified the change.
    fn raise(&mut self, id: TermId, to: Label, why: Reason) {
        let cur = self.label(id);
        if to > cur {
            self.labels.insert(id, to);
            self.reasons.insert(id, why);
            if to == Label::Dynamic {
                self.speculative.remove(id);
                self.worklist.push(id);
            }
        }
    }

    /// Processes the worklist: Rules 4–7 for every newly dynamic term.
    fn run(&mut self) {
        while let Some(id) = self.worklist.pop() {
            self.worklist_pops += 1;
            // Rule 4: a dynamic variable or array-element reference drags
            // its reaching definitions into the reader. Array-element
            // *writes* participate too: an element write is a
            // read-modify-write whose consumed definitions (the elements it
            // preserves) are recorded under the statement's own id.
            // (The analyses are shared borrows, not parts of the solver's
            // own state, so raising labels while iterating them is fine.)
            let (rd, ix) = (self.rd, self.ix);
            for d in rd.defs_of(id) {
                if let DefId::Stmt(sid) = *d {
                    self.raise(sid, Label::Dynamic, Reason::DefinitionOfDynamicRef(id));
                } // parameters are reader inputs
            }
            // Rule 5: guards of a dynamic term are dynamic.
            for &g in &ix.ctx(id).guards {
                self.raise(g, Label::Dynamic, Reason::GuardsDynamicTerm(id));
            }
            // Rules 6/7: each value operand is cached if possible, else
            // dynamic. Rule 6 is tried first (prefer caching).
            for o in self.ix.value_operands(id) {
                if self.label(o) == Label::Dynamic {
                    continue;
                }
                if self.cacheable(o) {
                    if self.label(o) != Label::Cached {
                        if let Some(anchor) = self.speculation_anchor_for(o) {
                            self.speculative.insert(o, anchor);
                        }
                    }
                    self.raise(o, Label::Cached, Reason::CachedOperandOf(id));
                } else {
                    self.raise(o, Label::Dynamic, Reason::OperandOfDynamicTerm(id));
                }
            }
        }
    }

    /// Rule 6 side conditions: independent, single-valued, non-trivial, and
    /// a representable value.
    fn cacheable(&self, id: TermId) -> bool {
        let Some(e) = self.ix.expr(id) else {
            return false; // statements are never cached
        };
        if self.dep.is_dependent(id) || self.ix.expr_has_global_effect(id) {
            return false;
        }
        if self.dep.is_under_dependent_control(id)
            && (!self.opts.speculate || self.speculation_anchor_for(id).is_none())
        {
            return false;
        }
        // Only scalar value-typed results fit in a slot: cache slots never
        // hold whole arrays (an array phi RHS stays uncached; its *element*
        // reads are the cacheable unit).
        match self.types.try_expr_type(id) {
            Some(t) if t.is_scalar() && t != Type::Void => {}
            _ => return false,
        }
        if !self.single_valued(id) {
            return false;
        }
        match &e.kind {
            // §4.1: bare variable references are cacheable only as phi RHS.
            ExprKind::Var(_) => self.rd.is_phi_rhs(id),
            _ => !is_trivial(e),
        }
    }

    /// If `id` may be cached speculatively, returns the hoist anchor: the
    /// outermost dependent guard statement. Returns `None` when the term is
    /// not under dependent control, or cannot be soundly hoisted:
    ///
    /// * a dependent guard is a ternary expression (no statement anchor);
    /// * a free variable has a reaching definition inside the anchored
    ///   region (the hoisted evaluation would see a stale value);
    /// * the subtree contains integer division or remainder (speculative
    ///   evaluation could fault where the original would not).
    fn speculation_anchor_for(&self, id: TermId) -> Option<TermId> {
        let guards = &self.ix.ctx(id).guards;
        let mut anchor = None;
        for &g in guards {
            let Some(gs) = self.ix.stmt(g) else {
                // A ternary guard: check whether its condition is
                // dependent; if so we cannot hoist (no statement anchor).
                if let Some(ge) = self.ix.expr(g) {
                    if let ExprKind::Cond(c, _, _) = &ge.kind {
                        if self.dep.is_dependent(c.id) {
                            return None;
                        }
                    }
                }
                continue;
            };
            let cond_dep = match &gs.kind {
                StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                    self.dep.is_dependent(cond.id)
                }
                _ => false,
            };
            if cond_dep {
                anchor = Some(g);
                break; // guards are ordered outermost-first
            }
        }
        let anchor = anchor?;
        let e = self.ix.expr(id)?;
        // Faultless evaluation: no integer division/remainder anywhere.
        let mut safe = true;
        e.walk(&mut |sub| {
            if let ExprKind::Binary(op, ..) = &sub.kind {
                if matches!(op, BinOp::Div | BinOp::Rem)
                    && self.types.try_expr_type(sub.id) == Some(Type::Int)
                {
                    safe = false;
                }
            }
        });
        if !safe {
            return None;
        }
        // Every free variable's reaching definitions lie outside the
        // anchored region (i.e. the anchor does not guard them).
        let mut hoistable = true;
        // An element read's array is named by the `Index` term itself (the
        // name is not a `Var` subexpression), so both kinds carry reaching
        // definitions.
        e.walk(&mut |sub| {
            if !hoistable || !matches!(sub.kind, ExprKind::Var(_) | ExprKind::Index { .. }) {
                return;
            }
            for def in self.rd.defs_of(sub.id) {
                if let DefId::Stmt(d) = def {
                    if self.ix.ctx(*d).guards.contains(&anchor) || *d == anchor {
                        hoistable = false;
                        return;
                    }
                }
            }
        });
        hoistable.then_some(anchor)
    }

    /// Rule 6's single-valuedness: the term is outside all loops, or
    /// invariant in every enclosing loop (no free variable has a reaching
    /// definition inside an enclosing loop).
    fn single_valued(&self, id: TermId) -> bool {
        let loops = &self.ix.ctx(id).loops;
        if loops.is_empty() {
            return true;
        }
        let Some(e) = self.ix.expr(id) else {
            return false;
        };
        let mut invariant = true;
        e.walk(&mut |sub| {
            if !invariant {
                return;
            }
            // `Index` terms carry their array's reaching definitions under
            // their own id (the array name is not a `Var` subexpression):
            // an element read whose array is written inside the loop is
            // loop-variant exactly like a scalar would be.
            if matches!(sub.kind, ExprKind::Var(_) | ExprKind::Index { .. }) {
                for def in self.rd.defs_of(sub.id) {
                    if let DefId::Stmt(d) = def {
                        let def_loops = &self.ix.ctx(*d).loops;
                        if loops.iter().any(|l| def_loops.contains(l)) {
                            invariant = false;
                            return;
                        }
                    }
                }
            }
        });
        invariant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze_dependence;
    use crate::index::TermIndex;
    use crate::reachdef::reaching_defs;
    use ds_lang::{parse_program, typecheck, BinOp, Proc, Program};
    use std::collections::HashSet;

    struct Ctx {
        prog: Program,
        types: TypeInfo,
        varying: HashSet<String>,
    }

    use ds_lang::TypeInfo;

    fn ctx(src: &str, varying: &[&str]) -> Ctx {
        let prog = parse_program(src).expect("parse");
        let types = typecheck(&prog).expect("typecheck");
        Ctx {
            prog,
            types,
            varying: varying.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn solve(
        c: &Ctx,
    ) -> (
        TermIndex<'_>,
        ReachingDefs,
        Dependence,
        Vec<(String, Label)>,
    ) {
        let p = &c.prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &c.types);
        let mut pretty = Vec::new();
        p.walk_exprs(&mut |e| {
            pretty.push((ds_lang::print_expr(e), solver.label(e.id)));
        });
        (ix, rd, dep, pretty)
    }

    fn label_of(pretty: &[(String, Label)], text: &str) -> Label {
        pretty
            .iter()
            .find(|(s, _)| s == text)
            .unwrap_or_else(|| panic!("no expr printed as `{text}`; have {pretty:?}"))
            .1
    }

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
                                         float x2, float y2, float z2, float scale) {
                               if (scale != 0.0) {
                                   return (x1*x2 + y1*y2 + z1*z2) / scale;
                               } else {
                                   return -1.0;
                               }
                           }";

    #[test]
    fn dotprod_labels_match_paper_figure_2() {
        // §3.2: "the term (x1*x2+y1*y2) is marked as cached, with all of its
        // subterms marked as static. Everything else is marked as dynamic
        // ((scale != 0) is dynamic because it is trivial)."
        let c = ctx(DOTPROD, &["z1", "z2"]);
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(label_of(&pretty, "x1 * x2 + y1 * y2"), Label::Cached);
        assert_eq!(label_of(&pretty, "x1 * x2"), Label::Static);
        assert_eq!(label_of(&pretty, "y1 * y2"), Label::Static);
        assert_eq!(label_of(&pretty, "scale != 0.0"), Label::Dynamic);
        assert_eq!(label_of(&pretty, "z1 * z2"), Label::Dynamic);
        assert_eq!(
            label_of(&pretty, "(x1 * x2 + y1 * y2 + z1 * z2) / scale"),
            Label::Dynamic
        );
    }

    #[test]
    fn fully_fixed_partition_caches_the_result() {
        // Nothing varies: the expensive result expression itself is cached;
        // the reader is just `return CACHE[slot0]`.
        let c = ctx(DOTPROD, &[]);
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(
            label_of(&pretty, "(x1 * x2 + y1 * y2 + z1 * z2) / scale"),
            Label::Cached
        );
    }

    #[test]
    fn trivial_terms_are_recomputed_not_cached() {
        let c = ctx(
            "float f(float k, float v) { return (k + 1.0) + v; }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        // k + 1.0 costs 1 <= threshold: dynamic (recomputed), not cached.
        assert_eq!(label_of(&pretty, "k + 1.0"), Label::Dynamic);
    }

    #[test]
    fn expensive_independent_terms_are_cached() {
        let c = ctx(
            "float f(float k, float v) { return fbm3(k, k, k, 4) + v; }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(label_of(&pretty, "fbm3(k, k, k, 4)"), Label::Cached);
    }

    #[test]
    fn global_effects_are_dynamic_rule_2() {
        let c = ctx(
            "float f(float k, float v) { return trace(k * k * k * k) + v; }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        // Despite being independent and expensive, the trace call must
        // re-execute in the reader.
        assert_eq!(label_of(&pretty, "trace(k * k * k * k)"), Label::Dynamic);
        // Its argument, however, is independent, expensive, cacheable.
        assert_eq!(label_of(&pretty, "k * k * k * k"), Label::Cached);
    }

    #[test]
    fn under_dependent_control_is_dynamic_rule_3() {
        // sin(k) is independent and expensive, but guarded by a dependent
        // predicate: caching it would make the loader speculate.
        let c = ctx(
            "float f(float k, float v) {
                 float r = 0.0;
                 if (v > 0.0) { r = sin(k); }
                 return r;
             }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(label_of(&pretty, "sin(k)"), Label::Dynamic);
    }

    #[test]
    fn rule_4_drags_definitions_into_the_reader() {
        let c = ctx(
            "float f(float k, float v) {
                 float t = sin(k);
                 return t * v;
             }",
            &["v"],
        );
        let p = &c.prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &c.types);
        // The decl must appear in the reader (its ref is dynamic)...
        let decl_id = p.body.stmts[0].id;
        assert_eq!(solver.label(decl_id), Label::Dynamic);
        // ...but its RHS sin(k) is cached, giving reader `t = CACHE[0]`.
        let mut sin_label = None;
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Call(name, _) if name == "sin") {
                sin_label = Some(solver.label(e.id));
            }
        });
        assert_eq!(sin_label, Some(Label::Cached));
    }

    #[test]
    fn rule_5_guards_of_dynamic_terms_are_dynamic() {
        let c = ctx(
            "float f(float k, float v) {
                 float r = 0.0;
                 if (k > 0.0) { r = v; }
                 return r;
             }",
            &["v"],
        );
        let p = &c.prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &c.types);
        // The if statement guards the dependent assignment: dynamic.
        let if_id = p.body.stmts[1].id;
        assert_eq!(solver.label(if_id), Label::Dynamic);
    }

    #[test]
    fn loop_variant_terms_are_not_cached() {
        let c = ctx(
            "float f(float k, float v, int n) {
                 float acc = 0.0;
                 int i = 0;
                 while (i < n) {
                     acc = acc + sin(itof(i) * k) * v;
                     i = i + 1;
                 }
                 return acc;
             }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        // sin(itof(i) * k) varies per iteration: single-valuedness fails,
        // so it is dynamic despite being independent and expensive.
        assert_eq!(label_of(&pretty, "sin(itof(i) * k)"), Label::Dynamic);
    }

    #[test]
    fn loop_carried_element_reads_are_not_cached() {
        // Fuzzer finding (tests/corpus/array_loop_carried_element_read.mc):
        // the `v[1]` read is loop-carried — its array is written inside the
        // loop — but an `Index` term has no `Var` subexpression for its
        // array, so a Var-only single-valuedness walk judged it invariant
        // and cached a different value per iteration into one slot.
        let c = ctx(
            "float f(float k, float v) {
                 float a[2] = k;
                 int i = 0;
                 while (i < 3) {
                     a[1] = trace(a[1]) + v;
                     i = i + 1;
                 }
                 return a[1];
             }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(label_of(&pretty, "a[1]"), Label::Dynamic);
    }

    #[test]
    fn loop_invariant_element_reads_are_cached() {
        // The array is only written before the loop, so the in-loop element
        // read is invariant and one slot summarizes it.
        let c = ctx(
            "float f(float k, float v) {
                 float a[2] = sqrt(abs(k) + 1.0);
                 int i = 0;
                 float acc = 0.0;
                 while (i < 3) {
                     acc = acc + a[1] * v;
                     i = i + 1;
                 }
                 return acc;
             }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(label_of(&pretty, "a[1]"), Label::Cached);
    }

    #[test]
    fn loop_invariant_terms_are_cached() {
        let c = ctx(
            "float f(float k, float v, int n) {
                 float acc = 0.0;
                 int i = 0;
                 while (i < n) {
                     acc = acc + fbm3(k, k, k, 4) * v;
                     i = i + 1;
                 }
                 return acc;
             }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        // fbm3(k,...) is invariant in the loop: one slot summarizes it.
        assert_eq!(label_of(&pretty, "fbm3(k, k, k, 4)"), Label::Cached);
    }

    #[test]
    fn phi_rhs_is_cached_figure_6() {
        // The paper's Figure 4/6 shape: an independent conditional defines
        // x; a dynamic consumer uses it. With the phi inserted, the phi RHS
        // is cached, and f/g stay in the loader only.
        let src = "float f(bool p, float a, float v) {
                       float x = sin(a);
                       if (p) { x = cos(a); }
                       x = x;
                       return x * v;
                   }";
        let c = ctx(src, &["v"]);
        // Mark the x = x as phi (normally done by join-point normalization).
        let mut prog = c.prog.clone();
        if let StmtKind::Assign { is_phi, .. } = &mut prog.procs[0].body.stmts[2].kind {
            *is_phi = true;
        }
        prog.renumber();
        let types = typecheck(&prog).unwrap();
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &types);
        // The phi assignment is dynamic; its RHS (bare x) is cached.
        let phi_id = p.body.stmts[2].id;
        assert_eq!(solver.label(phi_id), Label::Dynamic);
        let rhs_id = match &p.body.stmts[2].kind {
            StmtKind::Assign { value, .. } => value.id,
            _ => unreachable!(),
        };
        assert_eq!(solver.label(rhs_id), Label::Cached);
        // sin(a) and cos(a) stay out of the reader entirely.
        let mut sin_cos_labels = Vec::new();
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Call(name, _) if name == "sin" || name == "cos") {
                sin_cos_labels.push(solver.label(e.id));
            }
        });
        assert_eq!(sin_cos_labels, vec![Label::Static, Label::Static]);
    }

    #[test]
    fn force_dynamic_is_monotone_and_restartable() {
        let c = ctx(DOTPROD, &["z1", "z2"]);
        let p = &c.prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let mut solver = CacheSolver::solve(&ix, &rd, &dep, &c.types);
        let cached = solver.cached_terms();
        assert_eq!(cached.len(), 1);
        let victim = cached[0];
        solver.force_dynamic(victim);
        assert_eq!(solver.label(victim), Label::Dynamic);
        assert!(solver.cached_terms().is_empty());
        // Its subterms (x1*x2 etc.) must now be re-labeled dynamic — they
        // are needed as execution context in the reader...
        let mut mul_labels = Vec::new();
        p.walk_exprs(&mut |e| {
            if let ExprKind::Binary(BinOp::Mul, ..) = &e.kind {
                mul_labels.push(solver.label(e.id));
            }
        });
        assert_eq!(mul_labels, vec![Label::Dynamic; 3]);
    }

    #[test]
    fn counts_partition_all_terms() {
        let c = ctx(DOTPROD, &["z1", "z2"]);
        let p = &c.prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &c.types);
        let (s, cch, d) = solver.counts();
        assert_eq!(s + cch + d, ix.term_count());
        assert_eq!(cch, 1);
        assert!(d > 0 && s > 0);
    }

    #[test]
    fn invariant_element_reads_are_cached() {
        // An independent const-index element read costs INDEX_COST (> the
        // triviality threshold), so it is worth a slot; the expensive
        // element fill stays loader-only.
        let c = ctx(
            "float f(float k, float v) {
                 float w[2] = k;
                 w[0] = sin(k);
                 return w[0] + v;
             }",
            &["v"],
        );
        let (_, _, _, pretty) = solve(&c);
        assert_eq!(label_of(&pretty, "w[0]"), Label::Cached);
        assert_eq!(label_of(&pretty, "sin(k)"), Label::Static);
    }

    #[test]
    fn dynamic_element_write_drags_array_into_reader() {
        // `w[0] = v` is dependent, hence dynamic; being a read-modify-write
        // of the elements it preserves, Rule 4 must drag the declaration
        // into the reader too — but the expensive fill value gets cached.
        let c = ctx(
            "float f(int i, float k, float v) {
                 float w[2] = sin(k);
                 w[0] = v;
                 return w[i];
             }",
            &["v"],
        );
        let p = &c.prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &c.types);
        let decl_id = p.body.stmts[0].id;
        let write_id = p.body.stmts[1].id;
        assert_eq!(solver.label(write_id), Label::Dynamic);
        assert_eq!(solver.label(decl_id), Label::Dynamic);
        // The decl's fill value sin(k) is independent and expensive: cached.
        let mut sin_label = None;
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Call(name, _) if name == "sin") {
                sin_label = Some(solver.label(e.id));
            }
        });
        assert_eq!(sin_label, Some(Label::Cached));
    }

    #[test]
    fn array_phi_rhs_is_not_cached() {
        // Cache slots are scalar: a whole-array phi RHS must not be cached
        // even though §4.1 permits scalar phi RHS caching.
        let src = "float f(bool p, float k, float v) {
                       float w[2] = k;
                       if (p) { w[0] = sin(k); }
                       w = w;
                       return w[1] * v;
                   }";
        let c = ctx(src, &["v"]);
        let mut prog = c.prog.clone();
        if let StmtKind::Assign { is_phi, .. } = &mut prog.procs[0].body.stmts[2].kind {
            *is_phi = true;
        }
        prog.renumber();
        let types = typecheck(&prog).unwrap();
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        let rd = reaching_defs(p);
        let dep = analyze_dependence(p, &c.varying);
        let solver = CacheSolver::solve(&ix, &rd, &dep, &types);
        let rhs_id = match &p.body.stmts[2].kind {
            StmtKind::Assign { value, .. } => value.id,
            _ => unreachable!(),
        };
        // A scalar phi RHS this invariant would be Cached under §4.1; the
        // array stays Static (loader-only) because cache slots are scalar.
        assert_eq!(solver.label(rhs_id), Label::Static);
    }

    fn _unused(_: &Proc) {}
}
