//! Term indexing: random access to terms by [`TermId`] plus structural
//! context (parents, guarding control constructs, enclosing loops).
//!
//! Both analyses and the splitting transformation are driven by per-term
//! side tables indexed by the dense ids that [`ds_lang::Program::renumber`]
//! assigns. This module builds those tables in one pass.

use crate::table::{TermSet, TermTable};
use ds_lang::{Block, Builtin, Expr, ExprKind, Proc, Stmt, StmtKind, TermId};

/// Borrowed random-access view of a procedure's terms.
#[derive(Debug)]
pub struct TermIndex<'p> {
    exprs: TermTable<&'p Expr>,
    stmts: TermTable<&'p Stmt>,
    ctx: TermTable<TermCtx>,
    /// Expressions whose subtree calls a builtin with a global effect.
    effectful: TermSet,
    /// Lowest term id of the procedure (ids are program-wide dense, so a
    /// procedure's terms occupy `base..base + span`).
    base: TermId,
    /// Width of the id range (== `term_count` once ids are dense).
    span: usize,
    term_count: usize,
}

/// Structural context of one term.
#[derive(Debug, Clone, Default)]
pub struct TermCtx {
    /// The term's parent (enclosing expression, or the statement owning this
    /// expression, or the enclosing control statement for statements).
    pub parent: Option<TermId>,
    /// Enclosing control constructs whose predicate *guards* execution of
    /// this term: `if`/`while` statement ids (for terms inside a branch or
    /// loop body) and `Cond` expression ids (for terms inside a ternary
    /// branch). A condition is not guarded by its own construct.
    pub guards: Vec<TermId>,
    /// Enclosing `while` statements in whose iteration this term
    /// participates. Unlike [`TermCtx::guards`], a loop's *condition* counts
    /// as inside the loop here, because it is re-evaluated every iteration —
    /// this is the context that matters for single-valuedness (§3.2 Rule 6)
    /// and the ×5 frequency multiplier (§4.3).
    pub loops: Vec<TermId>,
}

impl<'p> TermIndex<'p> {
    /// Indexes every term of `proc`.
    ///
    /// # Panics
    ///
    /// Panics if two terms share an id (call [`ds_lang::Program::renumber`]
    /// after tree rewrites).
    pub fn build(proc: &'p Proc) -> Self {
        // First pass: the procedure's id range, so the dense tables are
        // allocated once instead of growing during the walk.
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        let mut count = 0usize;
        let mut span = |id: TermId| {
            lo = lo.min(id.0);
            hi = hi.max(id.0);
            count += 1;
        };
        proc.walk_stmts(&mut |s| span(s.id));
        proc.walk_exprs(&mut |e| span(e.id));
        let base = TermId(if count == 0 { 0 } else { lo });
        let span_len = if count == 0 {
            0
        } else {
            (hi - base.0) as usize + 1
        };
        let mut ix = TermIndex {
            exprs: TermTable::with_range(base, span_len),
            stmts: TermTable::with_range(base, span_len),
            ctx: TermTable::with_range(base, span_len),
            effectful: TermSet::default(),
            base,
            span: span_len,
            term_count: 0,
        };
        let mut walk = Walk {
            ix: &mut ix,
            guards: Vec::new(),
            loops: Vec::new(),
        };
        walk.block(&proc.body, None);
        ix.term_count = ix.exprs.len() + ix.stmts.len();
        ix
    }

    /// The procedure's id range as `(base, span)`: every term id `t`
    /// satisfies `base.0 <= t.0 < base.0 + span`. Use [`TermIndex::table`]
    /// to allocate a side table aligned to it.
    pub fn id_range(&self) -> (TermId, usize) {
        (self.base, self.span)
    }

    /// An empty dense side table sized for this procedure's terms.
    pub fn table<T>(&self) -> TermTable<T> {
        let (base, span) = self.id_range();
        TermTable::with_range(base, span)
    }

    /// The expression with id `id`, if any.
    pub fn expr(&self, id: TermId) -> Option<&'p Expr> {
        self.exprs.get(id).copied()
    }

    /// The statement with id `id`, if any.
    pub fn stmt(&self, id: TermId) -> Option<&'p Stmt> {
        self.stmts.get(id).copied()
    }

    /// Whether `id` names an expression (as opposed to a statement).
    pub fn is_expr(&self, id: TermId) -> bool {
        self.exprs.contains(id)
    }

    /// The structural context of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a term of the indexed procedure.
    pub fn ctx(&self, id: TermId) -> &TermCtx {
        self.ctx
            .get(id)
            .unwrap_or_else(|| panic!("{id} is not a term of the indexed procedure"))
    }

    /// Total number of indexed terms.
    pub fn term_count(&self) -> usize {
        self.term_count
    }

    /// All statement ids, in ascending (program) order.
    pub fn stmt_ids(&self) -> impl Iterator<Item = TermId> + '_ {
        self.stmts.ids()
    }

    /// All expression ids, in ascending (program) order.
    pub fn expr_ids(&self) -> impl Iterator<Item = TermId> + '_ {
        self.exprs.ids()
    }

    /// Whether the subtree rooted at expression `id` contains a call with a
    /// global effect (Rule 2's `HasGlobalEffect`).
    pub fn expr_has_global_effect(&self, id: TermId) -> bool {
        self.effectful.contains(id)
    }

    /// Direct *value operands* of term `id` (Rules 6–7): the subexpressions
    /// whose runtime values the term consumes.
    pub fn value_operands(&self, id: TermId) -> Vec<TermId> {
        if let Some(e) = self.expr(id) {
            return e.children().iter().map(|c| c.id).collect();
        }
        if let Some(s) = self.stmt(id) {
            return match &s.kind {
                StmtKind::Decl { init, .. } => vec![init.id],
                StmtKind::Assign { value, .. } => vec![value.id],
                StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => vec![cond.id],
                StmtKind::ArrayAssign { index, value, .. } => vec![index.id, value.id],
                StmtKind::Return(Some(e)) => vec![e.id],
                StmtKind::Return(None) => vec![],
                StmtKind::ExprStmt(e) => vec![e.id],
            };
        }
        Vec::new()
    }
}

struct Walk<'a, 'p> {
    ix: &'a mut TermIndex<'p>,
    guards: Vec<TermId>,
    loops: Vec<TermId>,
}

impl<'a, 'p> Walk<'a, 'p> {
    fn record(&mut self, id: TermId, parent: Option<TermId>) {
        let prev = self.ix.ctx.insert(
            id,
            TermCtx {
                parent,
                guards: self.guards.clone(),
                loops: self.loops.clone(),
            },
        );
        assert!(
            prev.is_none(),
            "duplicate term id {id}; renumber the program"
        );
    }

    fn block(&mut self, b: &'p Block, parent: Option<TermId>) {
        for s in &b.stmts {
            self.stmt(s, parent);
        }
    }

    fn stmt(&mut self, s: &'p Stmt, parent: Option<TermId>) {
        self.ix.stmts.insert(s.id, s);
        self.record(s.id, parent);
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                self.expr(init, s.id);
            }
            StmtKind::Assign { value, .. } => {
                self.expr(value, s.id);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond, s.id);
                self.guards.push(s.id);
                self.block(then_blk, Some(s.id));
                self.block(else_blk, Some(s.id));
                self.guards.pop();
            }
            StmtKind::While { cond, body } => {
                // The condition participates in the loop's iteration but is
                // not guarded by it (it always runs at least once).
                self.loops.push(s.id);
                self.expr(cond, s.id);
                self.guards.push(s.id);
                self.block(body, Some(s.id));
                self.guards.pop();
                self.loops.pop();
            }
            StmtKind::ArrayAssign { index, value, .. } => {
                self.expr(index, s.id);
                self.expr(value, s.id);
            }
            StmtKind::Return(Some(e)) => {
                self.expr(e, s.id);
            }
            StmtKind::Return(None) => {}
            StmtKind::ExprStmt(e) => {
                self.expr(e, s.id);
            }
        }
    }

    /// Indexes expression `e` and its subtree; returns whether the subtree
    /// has a global effect.
    fn expr(&mut self, e: &'p Expr, parent: TermId) -> bool {
        self.ix.exprs.insert(e.id, e);
        self.record(e.id, Some(parent));
        let effect = match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Var(_)
            | ExprKind::CacheRef(..) => false,
            ExprKind::Unary(_, a) | ExprKind::CacheStore(_, a) => self.expr(a, e.id),
            ExprKind::Index { index, .. } => self.expr(index, e.id),
            ExprKind::Binary(_, l, r) => self.expr(l, e.id) | self.expr(r, e.id),
            ExprKind::Cond(c, t, f) => {
                let ec = self.expr(c, e.id);
                // Ternary branches are guarded by the Cond expression.
                self.guards.push(e.id);
                let eb = self.expr(t, e.id) | self.expr(f, e.id);
                self.guards.pop();
                ec | eb
            }
            ExprKind::Call(name, args) => {
                let mut effect = Builtin::from_name(name).is_some_and(|b| b.has_global_effect());
                for a in args {
                    effect |= self.expr(a, e.id);
                }
                effect
            }
        };
        if effect {
            self.ix.effectful.insert(e.id);
        }
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::parse_program;

    fn index_of(src: &str) -> (ds_lang::Program, Vec<TermId>) {
        let prog = parse_program(src).expect("parse");
        let ids = {
            let p = &prog.procs[0];
            let mut v = Vec::new();
            p.walk_stmts(&mut |s| v.push(s.id));
            v
        };
        (prog, ids)
    }

    #[test]
    fn indexes_every_term() {
        let (prog, _) = index_of(
            "float f(float x, int n) {
                 float acc = 0.0;
                 while (acc < itof(n)) { acc = acc + x; }
                 return acc;
             }",
        );
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        assert_eq!(ix.term_count(), p.node_count());
        p.walk_exprs(&mut |e| assert!(ix.expr(e.id).is_some()));
        p.walk_stmts(&mut |s| assert!(ix.stmt(s.id).is_some()));
    }

    #[test]
    fn guards_and_loops_distinguish_condition_from_body() {
        let (prog, stmt_ids) = index_of(
            "float f(float x) {
                 float acc = 0.0;
                 while (acc < x) {
                     if (acc > 1.0) { acc = acc + 0.5; }
                     acc = acc + 1.0;
                 }
                 return acc;
             }",
        );
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        let while_id = stmt_ids[1];
        let while_stmt = ix.stmt(while_id).unwrap();
        let (cond_id, body_first) = match &while_stmt.kind {
            StmtKind::While { cond, body } => (cond.id, body.stmts[0].id),
            _ => panic!("expected while"),
        };
        // Condition: in the loop's iteration set, but not guarded by it.
        assert_eq!(ix.ctx(cond_id).loops, vec![while_id]);
        assert!(ix.ctx(cond_id).guards.is_empty());
        // Body statement (the inner if): both guarded and looped.
        assert_eq!(ix.ctx(body_first).loops, vec![while_id]);
        assert_eq!(ix.ctx(body_first).guards, vec![while_id]);
        // Inner if's branch statement is guarded by both if and while.
        let if_stmt = ix.stmt(body_first).unwrap();
        if let StmtKind::If { then_blk, .. } = &if_stmt.kind {
            let inner = then_blk.stmts[0].id;
            assert_eq!(ix.ctx(inner).guards, vec![while_id, body_first]);
        } else {
            panic!("expected if");
        }
    }

    #[test]
    fn ternary_branches_are_guarded_by_cond_expr() {
        let (prog, _) = index_of("float f(bool p, float a, float b) { return p ? a : b; }");
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        let mut checked = 0;
        p.walk_exprs(&mut |e| {
            if let ExprKind::Cond(c, t, f) = &e.kind {
                assert!(ix.ctx(c.id).guards.is_empty());
                assert_eq!(ix.ctx(t.id).guards, vec![e.id]);
                assert_eq!(ix.ctx(f.id).guards, vec![e.id]);
                checked += 1;
            }
        });
        assert_eq!(checked, 1);
    }

    #[test]
    fn global_effect_detection() {
        let (prog, _) = index_of(
            "float f(float x) { float t = trace(x) + 1.0; float u = x + 1.0; return t + u; }",
        );
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        let mut effectful = 0;
        let mut pure = 0;
        p.walk_exprs(&mut |e| {
            if ix.expr_has_global_effect(e.id) {
                effectful += 1;
            } else {
                pure += 1;
            }
        });
        // trace(x) itself, the `trace(x) + 1.0` add: 2 effectful exprs.
        assert_eq!(effectful, 2);
        assert!(pure > 0);
    }

    #[test]
    fn value_operands_of_statements() {
        let (prog, stmt_ids) =
            index_of("float f(bool p) { float t = 1.0; if (p) { t = 2.0; } return t; }");
        let p = &prog.procs[0];
        let ix = TermIndex::build(p);
        // Decl -> init; If -> cond; Return -> expr.
        for &sid in &stmt_ids {
            let ops = ix.value_operands(sid);
            match &ix.stmt(sid).unwrap().kind {
                StmtKind::Return(None) => assert!(ops.is_empty()),
                _ => assert_eq!(ops.len(), 1),
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate term id")]
    fn duplicate_ids_are_rejected() {
        let mut prog = parse_program("float f(float x) { return x + x; }").unwrap();
        // Sabotage: clear ids so they collide.
        prog.procs[0].body.stmts[0].id = TermId(0);
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            e.id = TermId(0);
        }
        let _ = TermIndex::build(&prog.procs[0]);
    }
}
