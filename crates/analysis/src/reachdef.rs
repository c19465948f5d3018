//! Reaching definitions for MiniC procedures.
//!
//! The caching analysis needs, for every variable reference, the set of
//! definitions (parameter bindings, declarations, assignments) that may reach
//! it: Rule 4 (§3.2) forces the reaching definitions of a dynamic reference
//! into the reader, and the single-valuedness test of Rule 6 asks whether any
//! reaching definition of a term's free variables lies inside an enclosing
//! loop.
//!
//! MiniC is structured and pointer-free, so a straightforward abstract
//! interpretation with set-union merges at joins (iterated to fixpoint for
//! loops) is exact up to path-insensitivity.
//!
//! Array variables are tracked **per element**: a constant-index write
//! `v[2] = e` kills only element 2's definition set, so a later `v[2]` read
//! can see a single reaching definition and become cacheable. A write through
//! a *dynamic* index degrades soundly to a whole-array read-modify-write: the
//! statement consumes every element's old definitions (recorded under the
//! statement's own [`TermId`]) and becomes the sole definition of every
//! element.

use crate::table::{TermSet, TermTable};
use ds_lang::{Block, Expr, ExprKind, Proc, Stmt, StmtKind, TermId};
use ds_telemetry::StageMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One definition set. Environments are copied at every branch and every
/// loop pass, and each variable reference records the set it sees, so sets
/// are shared and copied only when a merge adds to them.
type DefSet = Arc<BTreeSet<DefId>>;

/// A definition site of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefId {
    /// The binding of the `i`-th procedure parameter.
    Param(usize),
    /// A `Decl` or `Assign` statement.
    Stmt(TermId),
}

/// Result of reaching-definition analysis over one procedure.
#[derive(Debug, Clone, Default)]
pub struct ReachingDefs {
    uses: TermTable<DefSet>,
    phi_rhs: TermSet,
}

impl ReachingDefs {
    /// The definitions reaching the variable reference `use_id`.
    ///
    /// Returns an empty set for ids that are not variable references.
    pub fn defs_of(&self, use_id: TermId) -> &BTreeSet<DefId> {
        static EMPTY: std::sync::OnceLock<BTreeSet<DefId>> = std::sync::OnceLock::new();
        match self.uses.get(use_id) {
            Some(defs) => defs,
            None => EMPTY.get_or_init(BTreeSet::new),
        }
    }

    /// Whether `use_id` is the right-hand-side variable reference of a
    /// join-point pseudo-phi assignment (`v = v /* phi */`). These are the
    /// only bare variable references the caching analysis may cache (§4.1).
    pub fn is_phi_rhs(&self, use_id: TermId) -> bool {
        self.phi_rhs.contains(use_id)
    }

    /// Iterates over all recorded (use, defs) pairs, in ascending id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &BTreeSet<DefId>)> {
        self.uses.iter().map(|(id, defs)| (id, &**defs))
    }
}

/// Abstract value of one environment entry: scalars carry one definition
/// set, arrays one set per element.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Defs {
    Scalar(DefSet),
    Array(Vec<DefSet>),
}

impl Defs {
    /// Union of every definition site, collapsing array elements.
    fn all(&self) -> DefSet {
        match self {
            Defs::Scalar(s) => Arc::clone(s),
            Defs::Array(v) => Arc::new(v.iter().flat_map(|s| s.iter()).copied().collect()),
        }
    }

    /// Element-wise union of `other` into `self`; returns whether anything
    /// was added. Shapes always agree in typechecked code (no shadowing).
    fn union_in(&mut self, other: &Defs) -> bool {
        match (self, other) {
            (Defs::Scalar(a), Defs::Scalar(b)) => union_set(a, b),
            (Defs::Array(a), Defs::Array(b)) if a.len() == b.len() => {
                let mut changed = false;
                for (ae, be) in a.iter_mut().zip(b) {
                    changed |= union_set(ae, be);
                }
                changed
            }
            (me, other) => {
                // Shape mismatch cannot occur after typechecking; degrade to
                // a collapsed scalar set rather than lose soundness.
                let mut u = BTreeSet::clone(&me.all());
                let before = u.len();
                u.extend(other.all().iter().copied());
                let changed = u.len() != before || !matches!(me, Defs::Scalar(_));
                *me = Defs::Scalar(Arc::new(u));
                changed
            }
        }
    }
}

/// Adds `b` to `a`; returns whether anything was added. `a` is copied only
/// when it grows and is shared.
fn union_set(a: &mut DefSet, b: &DefSet) -> bool {
    if Arc::ptr_eq(a, b) || b.is_subset(a) {
        return false;
    }
    Arc::make_mut(a).extend(b.iter().copied());
    true
}

/// The abstract environment, keyed on the procedure's own variable names.
type Env<'p> = StageMap<&'p str, Defs>;

/// Computes reaching definitions for `proc`.
pub fn reaching_defs(proc: &Proc) -> ReachingDefs {
    let mut out = ReachingDefs::default();
    let mut env: Env = proc
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.name.as_str(),
                Defs::Scalar(Arc::new(BTreeSet::from([DefId::Param(i)]))),
            )
        })
        .collect();
    block(&proc.body, &mut env, &mut out);
    out
}

fn merge<'p>(into: &mut Env<'p>, other: &Env<'p>) -> bool {
    let mut changed = false;
    for (&k, v) in other {
        match into.get_mut(k) {
            Some(entry) => changed |= entry.union_in(v),
            None => {
                into.insert(k, v.clone());
                changed = true;
            }
        }
    }
    changed
}

/// The index expression's value, when it is a non-negative literal.
fn const_index(e: &Expr) -> Option<usize> {
    match e.kind {
        ExprKind::IntLit(i) if i >= 0 => Some(i as usize),
        _ => None,
    }
}

fn block<'p>(b: &'p Block, env: &mut Env<'p>, out: &mut ReachingDefs) {
    for s in &b.stmts {
        stmt(s, env, out);
    }
}

fn stmt<'p>(s: &'p Stmt, env: &mut Env<'p>, out: &mut ReachingDefs) {
    match &s.kind {
        StmtKind::Decl { name, ty, init } => {
            record_uses(init, env, out);
            let def = Arc::new(BTreeSet::from([DefId::Stmt(s.id)]));
            let entry = match ty.array_len() {
                Some(n) => Defs::Array(vec![def; n as usize]),
                None => Defs::Scalar(def),
            };
            env.insert(name, entry);
        }
        StmtKind::Assign {
            name,
            value,
            is_phi,
        } => {
            record_uses(value, env, out);
            if *is_phi {
                if let ExprKind::Var(_) = value.kind {
                    out.phi_rhs.insert(value.id);
                }
            }
            let def = Arc::new(BTreeSet::from([DefId::Stmt(s.id)]));
            // A whole-array assignment (copy or phi) redefines every element.
            let entry = match env.get(name.as_str()) {
                Some(Defs::Array(elems)) => Defs::Array(vec![def; elems.len()]),
                _ => Defs::Scalar(def),
            };
            env.insert(name, entry);
        }
        StmtKind::ArrayAssign { name, index, value } => {
            record_uses(index, env, out);
            record_uses(value, env, out);
            let def = Arc::new(BTreeSet::from([DefId::Stmt(s.id)]));
            if let Some(Defs::Array(elems)) = env.get_mut(name.as_str()) {
                match const_index(index).filter(|&i| i < elems.len()) {
                    // Literal in-bounds index: strong kill of one element.
                    // The write is still a read-modify-write of the *other*
                    // elements (they persist through it), so their old
                    // definitions are consumed — recorded under the
                    // statement's own id so that Rule 4 drags the rest of
                    // the array into the reader when this write is dynamic.
                    Some(i) => {
                        let rest: BTreeSet<DefId> = elems
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .flat_map(|(_, e)| e.iter().copied())
                            .collect();
                        out.uses.insert(s.id, Arc::new(rest));
                        elems[i] = def;
                    }
                    // Dynamic (or doomed out-of-bounds) index: degrade to a
                    // whole-array read-modify-write. The statement consumes
                    // every element's old definitions — recorded under its
                    // own id so dependence still flows through it — and
                    // becomes the sole definition of every element.
                    None => {
                        let old: BTreeSet<DefId> =
                            elems.iter().flat_map(|e| e.iter()).copied().collect();
                        out.uses.insert(s.id, Arc::new(old));
                        for e in elems.iter_mut() {
                            *e = def.clone();
                        }
                    }
                }
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            record_uses(cond, env, out);
            let mut env_then = env.clone();
            block(then_blk, &mut env_then, out);
            block(else_blk, env, out);
            merge(env, &env_then);
        }
        StmtKind::While { cond, body } => {
            // Iterate to fixpoint; definitions only accumulate, so this
            // terminates. Uses are overwritten each pass and the final pass
            // records them against the fixpoint environment.
            loop {
                let before = env.clone();
                record_uses(cond, env, out);
                let mut env_body = env.clone();
                block(body, &mut env_body, out);
                let changed = merge(env, &env_body);
                if !changed && env.len() == before.len() {
                    break;
                }
            }
            // One more pass so that uses inside the loop see the full
            // fixpoint environment (merge above may have added defs after
            // the last recording).
            record_uses(cond, env, out);
            let mut env_body = env.clone();
            block(body, &mut env_body, out);
        }
        StmtKind::Return(Some(e)) => record_uses(e, env, out),
        StmtKind::Return(None) => {}
        StmtKind::ExprStmt(e) => record_uses(e, env, out),
    }
}

fn record_uses(e: &Expr, env: &Env<'_>, out: &mut ReachingDefs) {
    e.walk(&mut |sub| match &sub.kind {
        ExprKind::Var(name) => {
            let defs = env.get(name.as_str()).map(Defs::all).unwrap_or_default();
            out.uses.insert(sub.id, defs);
        }
        ExprKind::Index { array, index } => {
            // A constant-index read sees exactly that element's definitions;
            // a dynamic read may touch any element.
            let defs = match (env.get(array.as_str()), const_index(index)) {
                (Some(Defs::Array(elems)), Some(i)) if i < elems.len() => Arc::clone(&elems[i]),
                (Some(d), _) => d.all(),
                (None, _) => DefSet::default(),
            };
            out.uses.insert(sub.id, defs);
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::parse_program;

    /// Finds the Var expr ids with the given name, in pre-order.
    fn var_refs(p: &Proc, name: &str) -> Vec<TermId> {
        let mut v = Vec::new();
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Var(n) if n == name) {
                v.push(e.id);
            }
        });
        v
    }

    fn stmt_ids(p: &Proc) -> Vec<TermId> {
        let mut v = Vec::new();
        p.walk_stmts(&mut |s| v.push(s.id));
        v
    }

    #[test]
    fn param_use_reaches_param() {
        let prog = parse_program("float f(float x) { return x; }").unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let uses = var_refs(p, "x");
        assert_eq!(rd.defs_of(uses[0]), &BTreeSet::from([DefId::Param(0)]));
    }

    #[test]
    fn straightline_kill() {
        let prog =
            parse_program("float f(float x) { float t = x; t = t + 1.0; return t; }").unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let sids = stmt_ids(p);
        let t_uses = var_refs(p, "t");
        // First use (inside `t = t + 1.0`) sees the decl; the return use
        // sees only the assignment (decl killed).
        assert_eq!(
            rd.defs_of(t_uses[0]),
            &BTreeSet::from([DefId::Stmt(sids[0])])
        );
        assert_eq!(
            rd.defs_of(t_uses[1]),
            &BTreeSet::from([DefId::Stmt(sids[1])])
        );
    }

    #[test]
    fn branches_merge() {
        let prog = parse_program(
            "float f(bool p, float x) {
                 float t = 0.0;
                 if (p) { t = x; }
                 return t;
             }",
        )
        .unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let sids = stmt_ids(p);
        let ret_use = *var_refs(p, "t").last().unwrap();
        // Both the decl (else path) and the branch assignment reach.
        assert_eq!(
            rd.defs_of(ret_use),
            &BTreeSet::from([DefId::Stmt(sids[0]), DefId::Stmt(sids[2])])
        );
    }

    #[test]
    fn loop_back_edge_reaches_condition_and_body() {
        let prog = parse_program(
            "float f(int n) {
                 int i = 0;
                 float acc = 0.0;
                 while (i < n) {
                     acc = acc + 1.0;
                     i = i + 1;
                 }
                 return acc;
             }",
        )
        .unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let sids = stmt_ids(p);
        let (decl_i, incr_i) = (sids[0], sids[4]);
        // The condition's use of i sees both the initial decl and the
        // increment (via the back edge).
        let cond_use = var_refs(p, "i")[0];
        assert_eq!(
            rd.defs_of(cond_use),
            &BTreeSet::from([DefId::Stmt(decl_i), DefId::Stmt(incr_i)])
        );
        // The use of acc in the return sees decl + loop assignment.
        let ret_use = *var_refs(p, "acc").last().unwrap();
        assert_eq!(rd.defs_of(ret_use).len(), 2);
    }

    #[test]
    fn phi_rhs_detection() {
        let mut prog = parse_program(
            "float f(bool p) { float x = 1.0; if (p) { x = 2.0; } x = x; return x; }",
        )
        .unwrap();
        // Mark `x = x` as a phi.
        {
            let p = &mut prog.procs[0];
            if let StmtKind::Assign { is_phi, .. } = &mut p.body.stmts[2].kind {
                *is_phi = true;
            } else {
                panic!("expected assign");
            }
        }
        prog.renumber();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let x_uses = var_refs(p, "x");
        // The phi's RHS is the first standalone x use.
        assert!(rd.is_phi_rhs(x_uses[0]));
        // The return's use is not a phi RHS.
        assert!(!rd.is_phi_rhs(*x_uses.last().unwrap()));
    }

    /// Finds the Index expr ids over the given array name, in pre-order.
    fn index_refs(p: &Proc, name: &str) -> Vec<TermId> {
        let mut v = Vec::new();
        p.walk_exprs(&mut |e| {
            if matches!(&e.kind, ExprKind::Index { array, .. } if array == name) {
                v.push(e.id);
            }
        });
        v
    }

    #[test]
    fn const_index_write_kills_one_element() {
        let prog = parse_program(
            "float f(float x) {
                 float v[3] = 0.0;
                 v[0] = x;
                 return v[0] + v[1];
             }",
        )
        .unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let sids = stmt_ids(p);
        let (decl, write) = (sids[0], sids[1]);
        let reads = index_refs(p, "v");
        // v[0] sees only the element write; v[1] still sees the declaration.
        assert_eq!(rd.defs_of(reads[0]), &BTreeSet::from([DefId::Stmt(write)]));
        assert_eq!(rd.defs_of(reads[1]), &BTreeSet::from([DefId::Stmt(decl)]));
    }

    #[test]
    fn dynamic_index_write_degrades_to_whole_array() {
        let prog = parse_program(
            "float f(int i, float x) {
                 float v[3] = 0.0;
                 v[0] = x;
                 v[i] = x + 1.0;
                 return v[2];
             }",
        )
        .unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let sids = stmt_ids(p);
        let (decl, w0, wi) = (sids[0], sids[1], sids[2]);
        // The dynamic write consumed every element's old defs (recorded
        // under the statement id) ...
        assert_eq!(
            rd.defs_of(wi),
            &BTreeSet::from([DefId::Stmt(decl), DefId::Stmt(w0)])
        );
        // ... and is now the sole definition of every element.
        let reads = index_refs(p, "v");
        assert_eq!(
            rd.defs_of(*reads.last().unwrap()),
            &BTreeSet::from([DefId::Stmt(wi)])
        );
    }

    #[test]
    fn dynamic_index_read_unions_elements() {
        let prog = parse_program(
            "float f(int i, float x) {
                 float v[2] = 0.0;
                 v[0] = x;
                 return v[i];
             }",
        )
        .unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        let sids = stmt_ids(p);
        let reads = index_refs(p, "v");
        assert_eq!(
            rd.defs_of(*reads.last().unwrap()),
            &BTreeSet::from([DefId::Stmt(sids[0]), DefId::Stmt(sids[1])])
        );
    }

    #[test]
    fn non_var_ids_have_no_defs() {
        let prog = parse_program("float f(float x) { return x + 1.0; }").unwrap();
        let p = &prog.procs[0];
        let rd = reaching_defs(p);
        // The literal's id has no defs.
        let mut lit_id = None;
        p.walk_exprs(&mut |e| {
            if matches!(e.kind, ExprKind::FloatLit(_)) {
                lit_id = Some(e.id);
            }
        });
        assert!(rd.defs_of(lit_id.unwrap()).is_empty());
    }
}
