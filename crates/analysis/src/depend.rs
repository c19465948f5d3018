//! Dependence analysis (paper §3.1).
//!
//! Determines, for every term, whether its value or effects may depend on the
//! *varying* part of the input partition. A term is dependent if (paper's
//! cases 1–4):
//!
//! 1. it is a varying input,
//! 2. it has a dependent operand,
//! 3. it is reached by a dependent definition, or
//! 4. it is conditionally reached by a definition along a path that is
//!    control dependent on a dependent predicate.
//!
//! The analysis is a forward abstract interpretation over the structured AST
//! with per-variable dependence bits; loops iterate to a fixpoint (the state
//! lattice is finite and merges are monotone unions). Case 4 falls out of
//! structured control flow exactly as the paper notes: "each join point
//! corresponds to a single conditional", so assignments executed under a
//! dependent predicate simply mark their targets dependent.
//!
//! Alongside dependence, the pass records which terms are **under dependent
//! control** (guarded by a dependent predicate, including ternary branches) —
//! the input to caching Rule 3's speculation avoidance.

use crate::table::TermSet;
use ds_lang::{Block, Expr, ExprKind, Proc, Stmt, StmtKind, TermId};
use ds_telemetry::StageMap;
use std::collections::HashSet;

/// Per-variable dependence, keyed on the procedure's own variable names.
type State<'p> = StageMap<&'p str, bool>;

/// Result of dependence analysis for one procedure.
#[derive(Debug, Clone, Default)]
pub struct Dependence {
    dependent: TermSet,
    under_dep_control: TermSet,
    fixpoint_passes: u64,
}

impl Dependence {
    /// Whether term `id`'s value or effects may depend on a varying input.
    pub fn is_dependent(&self, id: TermId) -> bool {
        self.dependent.contains(id)
    }

    /// Whether term `id` is guarded by a predicate that is itself dependent.
    pub fn is_under_dependent_control(&self, id: TermId) -> bool {
        self.under_dep_control.contains(id)
    }

    /// Number of dependent terms (used by tests and diagnostics).
    pub fn dependent_count(&self) -> usize {
        self.dependent.len()
    }

    /// Loop-fixpoint iterations performed across all `while` statements
    /// (0 for straight-line fragments). A telemetry counter: each inner
    /// re-walk of a loop body until its variable state stabilizes counts
    /// as one pass.
    pub fn fixpoint_passes(&self) -> u64 {
        self.fixpoint_passes
    }
}

/// Runs dependence analysis on `proc`, treating the parameters named in
/// `varying` as the varying part of the input partition.
///
/// Parameters not in `varying` are fixed; unknown names in `varying` are
/// ignored (callers validate the partition).
pub fn analyze_dependence(proc: &Proc, varying: &HashSet<String>) -> Dependence {
    let mut out = Dependence::default();
    let mut state: State = proc
        .params
        .iter()
        .map(|p| (p.name.as_str(), varying.contains(&p.name)))
        .collect();
    // One forward pass suffices (loops reach their fixpoints internally);
    // recording into the insert-only sets during iteration is sound because
    // dependence is monotone.
    walk_block(&proc.body, &mut state, false, &mut out);
    out
}

fn walk_block<'p>(b: &'p Block, state: &mut State<'p>, cdep: bool, out: &mut Dependence) {
    for s in &b.stmts {
        walk_stmt(s, state, cdep, out);
    }
}

fn walk_stmt<'p>(s: &'p Stmt, state: &mut State<'p>, cdep: bool, out: &mut Dependence) {
    if cdep {
        out.under_dep_control.insert(s.id);
    }
    match &s.kind {
        StmtKind::Decl { name, init, .. }
        | StmtKind::Assign {
            name, value: init, ..
        } => {
            let d = walk_expr(init, state, cdep, out) || cdep;
            state.insert(name, d);
            if d {
                out.dependent.insert(s.id);
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            let cd = walk_expr(cond, state, cdep, out);
            if cd {
                out.dependent.insert(s.id);
            }
            let branch_cdep = cdep || cd;
            let mut then_state = state.clone();
            walk_block(then_blk, &mut then_state, branch_cdep, out);
            walk_block(else_blk, state, branch_cdep, out);
            for (k, v) in then_state {
                let e = state.entry(k).or_insert(false);
                *e = *e || v;
            }
        }
        StmtKind::While { cond, body } => {
            loop {
                out.fixpoint_passes += 1;
                let before = state.clone();
                let cd = walk_expr(cond, state, cdep, out);
                if cd {
                    out.dependent.insert(s.id);
                }
                let mut body_state = state.clone();
                walk_block(body, &mut body_state, cdep || cd, out);
                for (k, v) in body_state {
                    let e = state.entry(k).or_insert(false);
                    *e = *e || v;
                }
                if *state == before {
                    break;
                }
            }
            // Final recording pass at the fixpoint (inserts are monotone, so
            // this only completes the record, never contradicts it).
            let cd = walk_expr(cond, state, cdep, out);
            let mut body_state = state.clone();
            walk_block(body, &mut body_state, cdep || cd, out);
        }
        StmtKind::ArrayAssign { name, index, value } => {
            // Dependence is tracked per whole array: an element write can
            // only add dependence (the untouched elements keep their old,
            // possibly dependent, values), never remove it.
            let di = walk_expr(index, state, cdep, out);
            let dv = walk_expr(value, state, cdep, out);
            let old = state.get(name.as_str()).copied().unwrap_or(false);
            let d = old || di || dv || cdep;
            state.insert(name, d);
            if d {
                out.dependent.insert(s.id);
            }
        }
        StmtKind::Return(opt) => {
            let mut d = cdep;
            if let Some(e) = opt {
                d |= walk_expr(e, state, cdep, out);
            }
            if d {
                out.dependent.insert(s.id);
            }
        }
        StmtKind::ExprStmt(e) => {
            if walk_expr(e, state, cdep, out) {
                out.dependent.insert(s.id);
            }
        }
    }
}

fn walk_expr(e: &Expr, state: &State<'_>, cdep: bool, out: &mut Dependence) -> bool {
    if cdep {
        out.under_dep_control.insert(e.id);
    }
    let dep = match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::BoolLit(_) => false,
        ExprKind::Var(name) => state.get(name.as_str()).copied().unwrap_or(false),
        ExprKind::Unary(_, a) => walk_expr(a, state, cdep, out),
        ExprKind::Binary(_, l, r) => {
            // Evaluate both sides unconditionally: `|` not `||`.
            let dl = walk_expr(l, state, cdep, out);
            let dr = walk_expr(r, state, cdep, out);
            dl | dr
        }
        ExprKind::Cond(c, t, f) => {
            let dc = walk_expr(c, state, cdep, out);
            let branch_cdep = cdep || dc;
            let dt = walk_expr(t, state, branch_cdep, out);
            let df = walk_expr(f, state, branch_cdep, out);
            dc | dt | df
        }
        // Element reads see the whole array's dependence bit (plus the
        // index computation's own dependence).
        ExprKind::Index { array, index } => {
            let di = walk_expr(index, state, cdep, out);
            state.get(array.as_str()).copied().unwrap_or(false) | di
        }
        ExprKind::Call(_, args) => {
            let mut d = false;
            for a in args {
                d |= walk_expr(a, state, cdep, out);
            }
            d
        }
        // Synthesized cache forms: a CacheRef holds a value the loader
        // computed from fixed inputs, hence independent; a CacheStore has
        // its operand's dependence. (Analyses normally run before splitting;
        // this keeps them total.)
        ExprKind::CacheRef(..) => false,
        ExprKind::CacheStore(_, inner) => walk_expr(inner, state, cdep, out),
    };
    if dep {
        out.dependent.insert(e.id);
    }
    dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::parse_program;

    fn analyze(src: &str, varying: &[&str]) -> (ds_lang::Program, Dependence) {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        let vs: HashSet<String> = varying.iter().map(|s| s.to_string()).collect();
        let dep = analyze_dependence(&prog.procs[0], &vs);
        (prog, dep)
    }

    /// Ids of Var refs with a given name.
    fn var_refs(p: &Proc, name: &str) -> Vec<TermId> {
        let mut v = Vec::new();
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Var(n) if n == name) {
                v.push(e.id);
            }
        });
        v
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
    fn dotprod_matches_paper_s31() {
        // §3.1: "the references to variables z1 and z2 are marked as
        // dependent, as are the multiplication z1*z2 and the surrounding
        // addition and division. All other terms are marked as independent."
        let (prog, dep) = analyze(DOTPROD, &["z1", "z2"]);
        let p = &prog.procs[0];
        for zref in var_refs(p, "z1").into_iter().chain(var_refs(p, "z2")) {
            assert!(dep.is_dependent(zref));
        }
        for xref in var_refs(p, "x1").into_iter().chain(var_refs(p, "y2")) {
            assert!(!dep.is_dependent(xref));
        }
        let mut mul_flags = Vec::new();
        let mut div_dep = false;
        p.walk_exprs(&mut |e| match &e.kind {
            ExprKind::Binary(ds_lang::BinOp::Mul, ..) => mul_flags.push(dep.is_dependent(e.id)),
            ExprKind::Binary(ds_lang::BinOp::Div, ..) => div_dep = dep.is_dependent(e.id),
            _ => {}
        });
        // x1*x2 and y1*y2 independent; z1*z2 dependent.
        assert_eq!(mul_flags, vec![false, false, true]);
        assert!(div_dep);
        // The condition (scale != 0.0) is independent.
        let mut ne_dep = true;
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Binary(ds_lang::BinOp::Ne, ..)) {
                ne_dep = dep.is_dependent(e.id);
            }
        });
        assert!(!ne_dep);
    }

    #[test]
    fn case3_reached_by_dependent_definition() {
        let (prog, dep) = analyze(
            "float f(float v, float k) { float t = v * 2.0; float u = t + k; return u; }",
            &["v"],
        );
        let p = &prog.procs[0];
        // u's use in return is dependent through t.
        let u_ref = *var_refs(p, "u").last().unwrap();
        assert!(dep.is_dependent(u_ref));
        // k alone is independent.
        assert!(!dep.is_dependent(var_refs(p, "k")[0]));
    }

    #[test]
    fn case4_conditional_definition_under_dependent_predicate() {
        // x is set to one of two *independent* values, but the choice is
        // governed by a dependent predicate: x becomes dependent.
        let (prog, dep) = analyze(
            "float f(float v, float a, float b) {
                 float x = a;
                 if (v > 0.0) { x = b; }
                 return x;
             }",
            &["v"],
        );
        let p = &prog.procs[0];
        let ret_use = *var_refs(p, "x").last().unwrap();
        assert!(dep.is_dependent(ret_use));
        // And the branch assignment is under dependent control.
        let mut assign_id = None;
        p.walk_stmts(&mut |s| {
            if matches!(&s.kind, StmtKind::Assign { name, .. } if name == "x") {
                assign_id = Some(s.id);
            }
        });
        assert!(dep.is_under_dependent_control(assign_id.unwrap()));
    }

    #[test]
    fn independent_predicate_does_not_taint() {
        let (prog, dep) = analyze(
            "float f(float v, float k, float a, float b) {
                 float x = a;
                 if (k > 0.0) { x = b; }
                 return x + v;
             }",
            &["v"],
        );
        let p = &prog.procs[0];
        // x stays independent: the predicate and both values are fixed.
        let x_ret = *var_refs(p, "x").last().unwrap();
        assert!(!dep.is_dependent(x_ret));
    }

    #[test]
    fn loop_carried_dependence_reaches_fixpoint() {
        // acc starts independent but absorbs v inside the loop; i stays
        // independent.
        let (prog, dep) = analyze(
            "float f(float v, int n) {
                 float acc = 0.0;
                 int i = 0;
                 while (i < n) {
                     acc = acc + v;
                     i = i + 1;
                 }
                 return acc;
             }",
            &["v"],
        );
        let p = &prog.procs[0];
        let acc_ret = *var_refs(p, "acc").last().unwrap();
        assert!(dep.is_dependent(acc_ret));
        for iref in var_refs(p, "i") {
            assert!(!dep.is_dependent(iref), "i must stay independent");
        }
    }

    #[test]
    fn dependent_loop_condition_taints_body_modifications() {
        // The loop bound is varying: everything assigned in the body becomes
        // dependent (case 4 through the back edge).
        let (prog, dep) = analyze(
            "float f(int n) {
                 float acc = 0.0;
                 int i = 0;
                 while (i < n) {
                     acc = acc + 1.0;
                     i = i + 1;
                 }
                 return acc;
             }",
            &["n"],
        );
        let p = &prog.procs[0];
        let acc_ret = *var_refs(p, "acc").last().unwrap();
        assert!(dep.is_dependent(acc_ret));
        // Body statements are under dependent control.
        let mut saw_guarded_assign = false;
        p.walk_stmts(&mut |s| {
            if matches!(&s.kind, StmtKind::Assign { name, .. } if name == "acc") {
                saw_guarded_assign = dep.is_under_dependent_control(s.id);
            }
        });
        assert!(saw_guarded_assign);
    }

    #[test]
    fn ternary_branches_under_dependent_control() {
        let (prog, dep) = analyze(
            "float f(float v, float a, float b) { return v > 0.0 ? a * 2.0 : b; }",
            &["v"],
        );
        let p = &prog.procs[0];
        let mut mul_under = false;
        let mut cond_dep = false;
        p.walk_exprs(&mut |e| match &e.kind {
            ExprKind::Binary(ds_lang::BinOp::Mul, ..) => {
                mul_under = dep.is_under_dependent_control(e.id);
            }
            ExprKind::Cond(..) => cond_dep = dep.is_dependent(e.id),
            _ => {}
        });
        assert!(mul_under);
        assert!(cond_dep);
    }

    #[test]
    fn array_dependence_is_whole_array() {
        // One dependent element write taints every later element read, even
        // at a different constant index (sound whole-array granularity).
        let (prog, dep) = analyze(
            "float f(float v, float k) {
                 float a[3] = 0.0;
                 a[0] = k;
                 float fixed = a[1];
                 a[2] = v;
                 return a[0] + fixed;
             }",
            &["v"],
        );
        let p = &prog.procs[0];
        let mut reads = Vec::new();
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Index { array, .. } if array == "a") {
                reads.push(dep.is_dependent(e.id));
            }
        });
        // a[1] read before the dependent write is independent; the a[0] read
        // after it is dependent despite touching a different element.
        assert_eq!(reads, vec![false, true]);
        // `fixed` captured the pre-taint value and stays independent.
        assert!(!dep.is_dependent(*var_refs(p, "fixed").last().unwrap()));
    }

    #[test]
    fn empty_varying_set_means_everything_independent() {
        let (prog, dep) = analyze(DOTPROD, &[]);
        let p = &prog.procs[0];
        let mut any_dep = false;
        p.walk_exprs(&mut |e| any_dep |= dep.is_dependent(e.id));
        assert!(!any_dep);
        assert_eq!(dep.dependent_count(), 0);
    }

    #[test]
    fn all_varying_means_everything_with_inputs_dependent() {
        let (prog, dep) = analyze(DOTPROD, &["x1", "y1", "z1", "x2", "y2", "z2", "scale"]);
        let p = &prog.procs[0];
        for name in ["x1", "y1", "z1", "x2", "y2", "z2", "scale"] {
            for r in var_refs(p, name) {
                assert!(dep.is_dependent(r));
            }
        }
    }
}
