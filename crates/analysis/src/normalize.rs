//! Join-point normalization (paper §4.1): the SSA-like source-to-source
//! transform that inserts `v = v` pseudo-phi assignments at control-flow
//! joins.
//!
//! "Starting at each control flow split, we analyze the branches for
//! possible effects to variables. At the join point, we insert statements of
//! the form `v = v` for each variable that may have been affected within the
//! control term." The caching analysis then only allows *these* introduced
//! references to be cached, which collapses what would otherwise be one
//! cache slot per use (the paper's Figure 5 redundancy) into a single slot
//! per join (Figure 6).
//!
//! A phi is inserted only for variables that are definitely initialized
//! after the join — inserting `v = v` for a variable that some fall-through
//! path never initialized would read an unbound name.

use ds_lang::{Block, Expr, ExprKind, Proc, Stmt, StmtKind};
use ds_telemetry::StageSet;

/// Inserts join-point phis into `proc` (idempotent), returning how many were
/// added. Call [`ds_lang::Program::renumber`] on the owning program
/// afterwards.
pub fn insert_phis(proc: &mut Proc) -> usize {
    let mut init: StageSet<String> = proc.params.iter().map(|p| p.name.clone()).collect();
    walk_block(&mut proc.body, &mut init)
}

/// Variables assigned (by `Assign` or `Decl`) anywhere inside a block,
/// including nested control.
fn assigned_vars(b: &Block, out: &mut StageSet<String>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Decl { name, .. } => {
                out.insert(name.clone());
            }
            StmtKind::Assign { name, .. } => {
                out.insert(name.clone());
            }
            // An element write modifies the whole array value, so the array
            // variable needs a pseudo-phi at the join like any assignee.
            StmtKind::ArrayAssign { name, .. } => {
                out.insert(name.clone());
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assigned_vars(then_blk, out);
                assigned_vars(else_blk, out);
            }
            StmtKind::While { body, .. } => assigned_vars(body, out),
            StmtKind::Return(_) | StmtKind::ExprStmt(_) => {}
        }
    }
}

/// Whether every path through the block returns (mirrors the type checker).
fn always_returns(b: &Block) -> bool {
    b.stmts.iter().any(|s| match &s.kind {
        StmtKind::Return(_) => true,
        StmtKind::If {
            then_blk, else_blk, ..
        } => !else_blk.stmts.is_empty() && always_returns(then_blk) && always_returns(else_blk),
        _ => false,
    })
}

fn walk_block(b: &mut Block, init: &mut StageSet<String>) -> usize {
    let mut added = 0;
    let mut i = 0;
    while i < b.stmts.len() {
        let mut phis: Vec<String> = Vec::new();
        match &mut b.stmts[i].kind {
            StmtKind::Decl { name, .. } | StmtKind::Assign { name, .. } => {
                init.insert(name.clone());
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                let mut affected = StageSet::default();
                assigned_vars(then_blk, &mut affected);
                assigned_vars(else_blk, &mut affected);

                let before = init.clone();
                let mut init_then = before.clone();
                added += walk_block(then_blk, &mut init_then);
                let mut init_else = before.clone();
                added += walk_block(else_blk, &mut init_else);
                let t_ret = always_returns(then_blk);
                let e_ret = always_returns(else_blk);
                *init = match (t_ret, e_ret) {
                    (true, true) | (true, false) => init_else,
                    (false, true) => init_then,
                    (false, false) => init_then.intersection(&init_else).cloned().collect(),
                };
                phis = affected.into_iter().filter(|v| init.contains(v)).collect();
            }
            StmtKind::While { body, .. } => {
                let mut affected = StageSet::default();
                assigned_vars(body, &mut affected);
                let before = init.clone();
                let mut init_body = before.clone();
                added += walk_block(body, &mut init_body);
                *init = before; // zero-trip possibility
                phis = affected.into_iter().filter(|v| init.contains(v)).collect();
            }
            // An element write requires the array to be initialized already,
            // so it adds nothing to the definitely-init set.
            StmtKind::ArrayAssign { .. } | StmtKind::Return(_) | StmtKind::ExprStmt(_) => {}
        }
        phis.sort_unstable();
        let mut insert_at = i + 1;
        for v in phis {
            if is_phi_for(b.stmts.get(insert_at), &v) {
                insert_at += 1;
                continue; // idempotence: phi already present
            }
            b.stmts.insert(
                insert_at,
                Stmt::synth(StmtKind::Assign {
                    name: v.clone(),
                    value: Expr::var(v),
                    is_phi: true,
                }),
            );
            added += 1;
            insert_at += 1;
        }
        i = insert_at.max(i + 1);
    }
    added
}

fn is_phi_for(s: Option<&Stmt>, var: &str) -> bool {
    matches!(
        s.map(|s| &s.kind),
        Some(StmtKind::Assign {
            name,
            value: Expr { kind: ExprKind::Var(rhs), .. },
            is_phi: true,
        }) if name == var && rhs == var
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::{parse_program, print_proc, typecheck, Program};

    fn normalize(src: &str) -> (Program, usize) {
        let mut prog = parse_program(src).expect("parse");
        typecheck(&prog).expect("typecheck before");
        let n = insert_phis(&mut prog.procs[0]);
        prog.renumber();
        typecheck(&prog).expect("typecheck after phi insertion");
        (prog, n)
    }

    #[test]
    fn inserts_phi_after_if_figure_6() {
        // The paper's Figure 4 shape.
        let (prog, n) = normalize(
            "float f(bool p, bool q, float v) {
                 float x = sin(1.0);
                 if (p) { x = cos(2.0); }
                 if (q) { trace(x); }
                 return x + v;
             }",
        );
        assert_eq!(n, 1);
        let text = print_proc(&prog.procs[0]);
        assert!(text.contains("x = x; /* phi */"), "{text}");
        // Exactly one phi, placed right after the first if.
        assert_eq!(text.matches("/* phi */").count(), 1);
    }

    #[test]
    fn inserts_phi_after_while() {
        let (prog, n) = normalize(
            "float f(int n) {
                 float acc = 0.0;
                 int i = 0;
                 while (i < n) { acc = acc + 1.0; i = i + 1; }
                 return acc;
             }",
        );
        // acc and i both modified in the loop and initialized before it.
        assert_eq!(n, 2);
        let text = print_proc(&prog.procs[0]);
        assert!(text.contains("acc = acc; /* phi */"), "{text}");
        assert!(text.contains("i = i; /* phi */"), "{text}");
    }

    #[test]
    fn no_phi_for_branch_local_declarations() {
        // t is declared inside the branch and unusable after the join: no
        // phi (it would reference an unbound name on the else path).
        let (prog, n) = normalize(
            "float f(bool p) {
                 if (p) { float t = 1.0; trace(t); }
                 return 0.0;
             }",
        );
        assert_eq!(n, 0);
        let text = print_proc(&prog.procs[0]);
        assert!(!text.contains("phi"), "{text}");
    }

    #[test]
    fn phi_when_initialized_on_all_paths() {
        let (_, n) = normalize(
            "float f(bool p) {
                 float t = 0.0;
                 if (p) { t = 1.0; } else { t = 2.0; }
                 return t;
             }",
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn phi_respects_returning_branches() {
        // Then-branch returns: only the else path falls through, where t is
        // initialized; phi is inserted and is safe.
        let (prog, n) = normalize(
            "float f(bool p) {
                 float t = 0.5;
                 if (p) { return 0.0; } else { t = 2.0; }
                 return t;
             }",
        );
        assert_eq!(n, 1);
        let _ = prog;
    }

    #[test]
    fn nested_joins_get_phis_inside_out() {
        let (prog, n) = normalize(
            "float f(bool p, bool q) {
                 float x = 0.0;
                 if (p) {
                     if (q) { x = 1.0; }
                     x = x + 1.0;
                 }
                 return x;
             }",
        );
        // Inner if-join phi (inside then-branch) + outer if-join phi.
        assert_eq!(n, 2);
        let text = print_proc(&prog.procs[0]);
        assert_eq!(text.matches("x = x; /* phi */").count(), 2, "{text}");
    }

    #[test]
    fn element_writes_trigger_phis() {
        let (prog, n) = normalize(
            "float f(bool p, int i) {
                 float v[4] = 0.0;
                 if (p) { v[i] = 1.0; }
                 return v[0];
             }",
        );
        assert_eq!(n, 1);
        let text = print_proc(&prog.procs[0]);
        assert!(text.contains("v = v; /* phi */"), "{text}");
    }

    #[test]
    fn idempotent() {
        let src = "float f(bool p) {
                       float x = 0.0;
                       if (p) { x = 1.0; }
                       return x;
                   }";
        let mut prog = parse_program(src).unwrap();
        let first = insert_phis(&mut prog.procs[0]);
        prog.renumber();
        let second = insert_phis(&mut prog.procs[0]);
        assert_eq!(first, 1);
        assert_eq!(second, 0);
    }

    #[test]
    fn semantics_preserved() {
        use ds_interp::{Evaluator, Value};
        let src = "float f(bool p, int n) {
                       float acc = 0.5;
                       int i = 0;
                       while (i < n) {
                           if (p) { acc = acc * 2.0; } else { acc = acc + 1.0; }
                           i = i + 1;
                       }
                       return acc;
                   }";
        let prog0 = parse_program(src).unwrap();
        let (prog1, _) = normalize(src);
        for p in [true, false] {
            for n in [0i64, 1, 5] {
                let args = [Value::Bool(p), Value::Int(n)];
                let a = Evaluator::new(&prog0).run("f", &args).unwrap();
                let b = Evaluator::new(&prog1).run("f", &args).unwrap();
                assert_eq!(a.value, b.value, "p={p} n={n}");
            }
        }
    }
}
