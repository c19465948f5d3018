//! Bounded procedure inlining.
//!
//! The paper's prototype "assumes that the fragment to be specialized is a
//! single nonrecursive procedure" (§5). MiniC programs may still factor
//! helper procedures; this pass inlines every user call reachable from the
//! entry procedure so that the specializer sees one self-contained fragment
//! whose only calls are builtins.
//!
//! The inliner is structured-splice based: each user call is hoisted out of
//! its containing statement in evaluation order — argument bindings, then
//! the (renamed) callee body, then a result binding — and the call
//! expression is replaced by the result variable. This preserves effect
//! order (`trace`) because MiniC expressions are otherwise pure.
//!
//! # Restrictions
//!
//! * callees must end in a single trailing `return` (no early returns);
//! * user calls may not appear in `while` conditions (the splice point would
//!   hoist a per-iteration computation out of the loop);
//! * user calls may not appear in the branches of a ternary (hoisting would
//!   evaluate a conditionally-skipped call unconditionally).
//!
//! Violations are reported as [`InlineError`]s; the benchmark shaders comply.

use ds_lang::{Block, Expr, ExprKind, Proc, Program, Span, Stmt, StmtKind, Type};
use ds_telemetry::StageMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Why inlining failed. Every variant carries the source [`Span`] of the
/// offending construct so diagnostics can point at it: the call site for
/// restriction violations, the stray `return` (or the procedure header) for
/// return-shape problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineError {
    /// The entry (or a callee) procedure does not exist.
    UnknownProc {
        /// The missing procedure's name.
        name: String,
        /// The call site, or [`Span::DUMMY`] when the *entry* is missing.
        span: Span,
    },
    /// A callee has an early or missing trailing return.
    UnsupportedReturnShape {
        /// The callee's name.
        name: String,
        /// The early `return` statement, or the procedure header when the
        /// body does not end in a return at all.
        span: Span,
    },
    /// A user call appears in a `while` condition.
    CallInLoopCondition {
        /// The callee's name.
        name: String,
        /// The call expression inside the condition.
        span: Span,
    },
    /// A user call appears inside a ternary branch.
    CallInCondBranch {
        /// The callee's name.
        name: String,
        /// The call expression inside the branch.
        span: Span,
    },
}

impl InlineError {
    /// The source location of the offending construct.
    pub fn span(&self) -> Span {
        match self {
            InlineError::UnknownProc { span, .. }
            | InlineError::UnsupportedReturnShape { span, .. }
            | InlineError::CallInLoopCondition { span, .. }
            | InlineError::CallInCondBranch { span, .. } => *span,
        }
    }
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::UnknownProc { name, .. } => write!(f, "unknown procedure `{name}`"),
            InlineError::UnsupportedReturnShape { name, .. } => write!(
                f,
                "procedure `{name}` cannot be inlined: it must end in a single trailing return"
            ),
            InlineError::CallInLoopCondition { name, .. } => {
                write!(f, "call to `{name}` in a while condition cannot be inlined")
            }
            InlineError::CallInCondBranch { name, .. } => {
                write!(
                    f,
                    "call to `{name}` inside a ternary branch cannot be inlined"
                )
            }
        }
    }
}

impl Error for InlineError {}

/// Inlines all user calls reachable from `entry`, returning a new
/// single-procedure program (renumbered and ready for analysis).
///
/// # Errors
///
/// Returns an [`InlineError`] when the entry is missing or a call site or
/// callee violates the restrictions listed in the module docs.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ds_analysis::inline_entry;
/// let prog = ds_lang::parse_program(
///     "float half(float x) { return x / 2.0; }
///      float f(float a) { return half(a) + half(1.0); }",
/// )?;
/// let inlined = inline_entry(&prog, "f")?;
/// assert_eq!(inlined.procs.len(), 1);
/// let text = ds_lang::print_program(&inlined);
/// assert!(!text.contains("half("));
/// # Ok(())
/// # }
/// ```
pub fn inline_entry(program: &Program, entry: &str) -> Result<Program, InlineError> {
    let mut cx = Inliner {
        // The first definition of a name wins, as in `Program::proc`.
        procs: program
            .procs
            .iter()
            .rev()
            .map(|p| (p.name.as_str(), p))
            .collect(),
        done: StageMap::default(),
        fresh: 0,
        var_types: StageMap::default(),
    };
    let proc = match cx.fully_inlined(entry, Span::DUMMY)? {
        Inlined::Leaf(p) => p.clone(),
        Inlined::Rewritten(p) => {
            // Only the entry's own copy is left once the inliner is gone.
            drop(cx);
            Rc::try_unwrap(p).unwrap_or_else(|shared| (*shared).clone())
        }
    };
    let mut out = Program { procs: vec![proc] };
    out.renumber();
    Ok(out)
}

struct Inliner<'p> {
    /// The program's procedures by name.
    procs: UserProcs<'p>,
    /// Each callee inlined so far, shared by every call site that splices
    /// (a renamed copy of) it.
    done: StageMap<&'p str, Inlined<'p>>,
    fresh: u32,
    /// Types of variables in scope in the procedure currently being
    /// inlined (parameters, declarations, splice temporaries) — used to
    /// type the temporaries that preserve effect order.
    var_types: StageMap<String, Type>,
}

/// The procedures of the program being inlined, by name. A call to a name
/// in this table is a user call; any other call is a builtin.
type UserProcs<'p> = StageMap<&'p str, &'p Proc>;

/// A fully inlined procedure: the program's own when it calls no user
/// procedure (inlining would copy it unchanged), else the rewritten copy.
#[derive(Clone)]
enum Inlined<'p> {
    Leaf(&'p Proc),
    Rewritten(Rc<Proc>),
}

impl std::ops::Deref for Inlined<'_> {
    type Target = Proc;

    fn deref(&self) -> &Proc {
        match self {
            Inlined::Leaf(p) => p,
            Inlined::Rewritten(p) => p,
        }
    }
}

impl<'p> Inliner<'p> {
    fn fully_inlined(&mut self, name: &str, site: Span) -> Result<Inlined<'p>, InlineError> {
        if let Some(p) = self.done.get(name) {
            return Ok(p.clone());
        }
        let (&key, &proc) =
            self.procs
                .get_key_value(name)
                .ok_or_else(|| InlineError::UnknownProc {
                    name: name.to_string(),
                    span: site,
                })?;
        let mut leaf = true;
        proc.walk_exprs(&mut |e| {
            if let ExprKind::Call(callee, _) = &e.kind {
                leaf &= !self.procs.contains_key(callee.as_str());
            }
        });
        if leaf {
            self.done.insert(key, Inlined::Leaf(proc));
            return Ok(Inlined::Leaf(proc));
        }
        let saved_types = std::mem::take(&mut self.var_types);
        for p in &proc.params {
            self.var_types.insert(p.name.clone(), p.ty);
        }
        let mut body = Block::new();
        for s in &proc.body.stmts {
            self.stmt(s.clone(), &mut body)?;
        }
        self.var_types = saved_types;
        let result = Inlined::Rewritten(Rc::new(Proc {
            name: proc.name.clone(),
            params: proc.params.clone(),
            ret: proc.ret,
            body,
            span: proc.span,
        }));
        self.done.insert(key, result.clone());
        Ok(result)
    }

    /// Processes one statement: hoists user calls out of its expressions,
    /// then pushes the rewritten statement.
    fn stmt(&mut self, mut s: Stmt, out: &mut Block) -> Result<(), InlineError> {
        if let StmtKind::Decl { name, ty, .. } = &s.kind {
            self.var_types.insert(name.clone(), *ty);
        }
        match &mut s.kind {
            StmtKind::Decl { init: e, .. }
            | StmtKind::Assign { value: e, .. }
            | StmtKind::ExprStmt(e)
            | StmtKind::Return(Some(e)) => {
                self.hoist_calls(e, out)?;
            }
            StmtKind::Return(None) => {}
            StmtKind::If { cond, .. } => {
                self.hoist_calls(cond, out)?;
            }
            StmtKind::ArrayAssign { index, value, .. } => {
                self.hoist_calls(index, out)?;
                self.hoist_calls(value, out)?;
            }
            StmtKind::While { cond, .. } => {
                if let Some((name, span)) = first_user_call(cond, &self.procs) {
                    let name = name.to_string();
                    return Err(InlineError::CallInLoopCondition { name, span });
                }
            }
        }
        // Recurse into nested blocks.
        match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                let mut new_then = Block::new();
                for st in std::mem::take(&mut then_blk.stmts) {
                    self.stmt(st, &mut new_then)?;
                }
                *then_blk = new_then;
                let mut new_else = Block::new();
                for st in std::mem::take(&mut else_blk.stmts) {
                    self.stmt(st, &mut new_else)?;
                }
                *else_blk = new_else;
            }
            StmtKind::While { body, .. } => {
                let mut new_body = Block::new();
                for st in std::mem::take(&mut body.stmts) {
                    self.stmt(st, &mut new_body)?;
                }
                *body = new_body;
            }
            _ => {}
        }
        out.stmts.push(s);
        Ok(())
    }

    /// Replaces every user call in `e` (evaluation order) with a fresh
    /// result variable, pushing the splice statements onto `out`.
    ///
    /// Splicing moves a call's execution *before* the enclosing statement,
    /// so every **effectful** sibling that the original program would have
    /// evaluated earlier must move out with it: such siblings are bound to
    /// typed temporaries first, preserving `trace` order. Pure siblings can
    /// stay in place — the splice only defines fresh temporaries, so their
    /// values are unaffected.
    fn hoist_calls(&mut self, e: &mut Expr, out: &mut Block) -> Result<(), InlineError> {
        if first_user_call(e, &self.procs).is_none() {
            return Ok(()); // nothing to splice, and no effect to reorder
        }
        self.hoist_calls_in(e, out)
    }

    /// [`Inliner::hoist_calls`] over an expression that contains a user
    /// call.
    fn hoist_calls_in(&mut self, e: &mut Expr, out: &mut Block) -> Result<(), InlineError> {
        match &mut e.kind {
            ExprKind::Cond(c, t, f) => {
                self.hoist_calls(c, out)?;
                for branch in [t, f] {
                    if let Some((name, span)) = first_user_call(branch, &self.procs) {
                        let name = name.to_string();
                        return Err(InlineError::CallInCondBranch { name, span });
                    }
                }
                Ok(())
            }
            ExprKind::Unary(_, a) | ExprKind::CacheStore(_, a) => self.hoist_calls(a, out),
            ExprKind::Index { index, .. } => self.hoist_calls(index, out),
            ExprKind::Binary(_, l, r) => {
                let children: Vec<&mut Expr> = vec![l, r];
                self.hoist_children(children, out)
            }
            ExprKind::Call(name, args) => {
                {
                    let children: Vec<&mut Expr> = args.iter_mut().collect();
                    self.hoist_children(children, out)?;
                }
                if !self.procs.contains_key(name.as_str()) {
                    return Ok(()); // builtin call stays
                }
                let name = name.clone();
                let args = std::mem::take(args);
                let result_var = self.splice_call(&name, args, e.span, out)?;
                e.kind = ExprKind::Var(result_var);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Processes sibling expressions in evaluation order: children
    /// containing user calls recurse (and splice); effectful children with
    /// a *later* call-containing sibling are hoisted to temporaries.
    fn hoist_children(
        &mut self,
        mut children: Vec<&mut Expr>,
        out: &mut Block,
    ) -> Result<(), InlineError> {
        let has_call: Vec<bool> = children
            .iter()
            .map(|c| first_user_call(c, &self.procs).is_some())
            .collect();
        let n = children.len();
        for (i, child) in children.iter_mut().enumerate() {
            if has_call[i] {
                self.hoist_calls_in(child, out)?;
            } else if has_trace(child) && has_call[i + 1..n].iter().any(|&b| b) {
                let ty = self.infer_type(child);
                let temp = format!("__eff{}", self.fresh);
                self.fresh += 1;
                let init = std::mem::replace(*child, Expr::var(temp.clone()));
                self.var_types.insert(temp.clone(), ty);
                out.stmts.push(Stmt::synth(StmtKind::Decl {
                    name: temp,
                    ty,
                    init,
                }));
            }
        }
        Ok(())
    }

    /// Syntactic type inference for well-typed expressions (the program was
    /// type-checked before inlining, so every case is determined).
    fn infer_type(&self, e: &Expr) -> Type {
        match &e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::FloatLit(_) => Type::Float,
            ExprKind::BoolLit(_) => Type::Bool,
            ExprKind::Var(name) => *self
                .var_types
                .get(name)
                .unwrap_or_else(|| panic!("untyped variable `{name}` during inlining")),
            ExprKind::Unary(ds_lang::UnOp::Not, _) => Type::Bool,
            ExprKind::Unary(ds_lang::UnOp::Neg, a) => self.infer_type(a),
            ExprKind::Binary(op, l, _) => {
                if op.is_comparison() {
                    Type::Bool
                } else {
                    self.infer_type(l)
                }
            }
            ExprKind::Cond(_, t, _) => self.infer_type(t),
            ExprKind::Index { array, .. } => self
                .var_types
                .get(array)
                .and_then(|t| t.elem())
                .unwrap_or_else(|| panic!("untyped array `{array}` during inlining")),
            ExprKind::Call(name, _) => ds_lang::Builtin::from_name(name)
                .map(|b| b.ret_type())
                .or_else(|| self.procs.get(name.as_str()).map(|p| p.ret))
                .unwrap_or_else(|| panic!("unknown callee `{name}` during inlining")),
            ExprKind::CacheRef(_, ty) => *ty,
            ExprKind::CacheStore(_, inner) => self.infer_type(inner),
        }
    }

    /// Splices `callee(args)` into `out`; returns the result variable name.
    fn splice_call(
        &mut self,
        callee_name: &str,
        args: Vec<Expr>,
        site: Span,
        out: &mut Block,
    ) -> Result<String, InlineError> {
        let callee = self.fully_inlined(callee_name, site)?;
        let (lead, ret_expr) = split_trailing_return(&callee)?;
        let n = self.fresh;
        self.fresh += 1;
        let prefix = format!("__inl{n}_");
        let rename = |name: &str| -> String { format!("{prefix}{name}") };
        // Bind arguments to renamed parameters, in order.
        for (param, arg) in callee.params.iter().zip(args) {
            let name = rename(&param.name);
            self.var_types.insert(name.clone(), param.ty);
            out.stmts.push(Stmt::synth(StmtKind::Decl {
                name,
                ty: param.ty,
                init: arg,
            }));
        }
        // Splice the renamed body, registering its declarations' types.
        for s in lead {
            let renamed = rename_stmt(s, &prefix);
            record_decl_types(&renamed, &mut self.var_types);
            out.stmts.push(renamed);
        }
        // Bind the result.
        let result_var = format!("{prefix}ret");
        self.var_types.insert(result_var.clone(), callee.ret);
        let ret_expr = rename_expr(ret_expr, &prefix);
        out.stmts.push(Stmt::synth(StmtKind::Decl {
            name: result_var.clone(),
            ty: callee.ret,
            init: ret_expr,
        }));
        Ok(result_var)
    }
}

/// Splits a callee into (leading statements, trailing return expression).
fn split_trailing_return(p: &Proc) -> Result<(&[Stmt], &Expr), InlineError> {
    let err = |span: Span| InlineError::UnsupportedReturnShape {
        name: p.name.clone(),
        span,
    };
    let (last, lead) = p.body.stmts.split_last().ok_or_else(|| err(p.span))?;
    let ret_expr = match &last.kind {
        StmtKind::Return(Some(e)) => e,
        _ => return Err(err(last.span)),
    };
    // No other returns anywhere; report the first stray one.
    let mut early: Option<Span> = None;
    for s in lead {
        find_return(s, &mut early);
    }
    if let Some(span) = early {
        return Err(err(span));
    }
    Ok((lead, ret_expr))
}

fn find_return(s: &Stmt, found: &mut Option<Span>) {
    if found.is_some() {
        return;
    }
    match &s.kind {
        StmtKind::Return(_) => *found = Some(s.span),
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            for st in then_blk.stmts.iter().chain(&else_blk.stmts) {
                find_return(st, found);
            }
        }
        StmtKind::While { body, .. } => {
            for st in &body.stmts {
                find_return(st, found);
            }
        }
        _ => {}
    }
}

/// Whether `e` contains a call with a global effect (`trace`).
fn has_trace(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if let ExprKind::Call(name, _) = &sub.kind {
            if ds_lang::Builtin::from_name(name).is_some_and(|b| b.has_global_effect()) {
                found = true;
            }
        }
    });
    found
}

/// Records the declared types of `s` and its nested statements.
fn record_decl_types(s: &Stmt, types: &mut StageMap<String, Type>) {
    match &s.kind {
        StmtKind::Decl { name, ty, .. } => {
            types.insert(name.clone(), *ty);
        }
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            for st in then_blk.stmts.iter().chain(&else_blk.stmts) {
                record_decl_types(st, types);
            }
        }
        StmtKind::While { body, .. } => {
            for st in &body.stmts {
                record_decl_types(st, types);
            }
        }
        _ => {}
    }
}

fn first_user_call<'e>(e: &'e Expr, procs: &UserProcs<'_>) -> Option<(&'e str, Span)> {
    let mut found = None;
    e.walk(&mut |sub| {
        if found.is_none() {
            if let ExprKind::Call(name, _) = &sub.kind {
                if procs.contains_key(name.as_str()) {
                    found = Some((name.as_str(), sub.span));
                }
            }
        }
    });
    found
}

fn rename_stmt(s: &Stmt, prefix: &str) -> Stmt {
    let kind = match &s.kind {
        StmtKind::Decl { name, ty, init } => StmtKind::Decl {
            name: format!("{prefix}{name}"),
            ty: *ty,
            init: rename_expr(init, prefix),
        },
        StmtKind::Assign {
            name,
            value,
            is_phi,
        } => StmtKind::Assign {
            name: format!("{prefix}{name}"),
            value: rename_expr(value, prefix),
            is_phi: *is_phi,
        },
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => StmtKind::If {
            cond: rename_expr(cond, prefix),
            then_blk: Block {
                stmts: then_blk
                    .stmts
                    .iter()
                    .map(|s| rename_stmt(s, prefix))
                    .collect(),
            },
            else_blk: Block {
                stmts: else_blk
                    .stmts
                    .iter()
                    .map(|s| rename_stmt(s, prefix))
                    .collect(),
            },
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: rename_expr(cond, prefix),
            body: Block {
                stmts: body.stmts.iter().map(|s| rename_stmt(s, prefix)).collect(),
            },
        },
        StmtKind::ArrayAssign { name, index, value } => StmtKind::ArrayAssign {
            name: format!("{prefix}{name}"),
            index: rename_expr(index, prefix),
            value: rename_expr(value, prefix),
        },
        StmtKind::Return(v) => StmtKind::Return(v.as_ref().map(|e| rename_expr(e, prefix))),
        StmtKind::ExprStmt(e) => StmtKind::ExprStmt(rename_expr(e, prefix)),
    };
    Stmt {
        id: s.id,
        kind,
        span: s.span,
    }
}

/// A copy of `e` with every variable and array name prefixed, built in one
/// pass (no intermediate copy of the old names).
fn rename_expr(e: &Expr, prefix: &str) -> Expr {
    let sub = |x: &Expr| Box::new(rename_expr(x, prefix));
    let kind = match &e.kind {
        ExprKind::Var(name) => ExprKind::Var(format!("{prefix}{name}")),
        ExprKind::Index { array, index } => ExprKind::Index {
            array: format!("{prefix}{array}"),
            index: sub(index),
        },
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, sub(a)),
        ExprKind::CacheStore(slot, a) => ExprKind::CacheStore(*slot, sub(a)),
        ExprKind::Binary(op, l, r) => ExprKind::Binary(*op, sub(l), sub(r)),
        ExprKind::Cond(c, t, f) => ExprKind::Cond(sub(c), sub(t), sub(f)),
        ExprKind::Call(name, args) => ExprKind::Call(
            name.clone(),
            args.iter().map(|a| rename_expr(a, prefix)).collect(),
        ),
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::CacheRef(..) => e.kind.clone(),
    };
    Expr {
        id: e.id,
        kind,
        span: e.span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_interp::{Evaluator, Value};
    use ds_lang::{parse_program, typecheck};

    fn inline_ok(src: &str, entry: &str) -> Program {
        let prog = parse_program(src).expect("parse");
        typecheck(&prog).expect("typecheck input");
        let out = inline_entry(&prog, entry).expect("inline");
        typecheck(&out).expect("typecheck inlined output");
        out
    }

    #[test]
    fn simple_call_is_inlined() {
        let out = inline_ok(
            "float half(float x) { return x / 2.0; }
             float f(float a) { return half(a + 1.0); }",
            "f",
        );
        let text = ds_lang::print_program(&out);
        assert!(!text.contains("half("), "{text}");
        assert!(text.contains("__inl0_x"), "{text}");
    }

    #[test]
    fn semantics_preserved_including_trace_order() {
        let src = "float noisy(float x) { trace(x); return x * 3.0; }
                   float f(float a, float b) { return noisy(a) + noisy(b); }";
        let prog = parse_program(src).unwrap();
        let out = inline_ok(src, "f");
        let args = [Value::Float(1.0), Value::Float(2.0)];
        let orig = Evaluator::new(&prog).run("f", &args).unwrap();
        let flat = Evaluator::new(&out).run("f", &args).unwrap();
        assert_eq!(orig.value, flat.value);
        assert_eq!(orig.trace, flat.trace);
        assert_eq!(flat.trace, vec![1.0, 2.0]);
    }

    #[test]
    fn nested_and_transitive_calls() {
        let src = "float sq(float x) { return x * x; }
                   float quad(float x) { return sq(sq(x)); }
                   float f(float a) { return quad(a + 1.0); }";
        let prog = parse_program(src).unwrap();
        let out = inline_ok(src, "f");
        assert_eq!(out.procs.len(), 1);
        let args = [Value::Float(2.0)];
        let orig = Evaluator::new(&prog).run("f", &args).unwrap();
        let flat = Evaluator::new(&out).run("f", &args).unwrap();
        assert_eq!(orig.value, flat.value); // 81
        assert_eq!(flat.value, Some(Value::Float(81.0)));
    }

    #[test]
    fn callee_with_internal_control_flow() {
        let src = "float saturate(float x) {
                       float r = x;
                       if (x > 1.0) { r = 1.0; }
                       if (x < 0.0) { r = 0.0; }
                       return r;
                   }
                   float f(float a) { return saturate(a * 2.0); }";
        let prog = parse_program(src).unwrap();
        let out = inline_ok(src, "f");
        for v in [-1.0, 0.25, 3.0] {
            let args = [Value::Float(v)];
            let orig = Evaluator::new(&prog).run("f", &args).unwrap();
            let flat = Evaluator::new(&out).run("f", &args).unwrap();
            assert_eq!(orig.value, flat.value, "at {v}");
        }
    }

    #[test]
    fn call_in_if_condition_is_hoisted() {
        let src = "float sq(float x) { return x * x; }
                   float f(float a) {
                       float r = 0.0;
                       if (sq(a) > 4.0) { r = 1.0; }
                       return r;
                   }";
        let prog = parse_program(src).unwrap();
        let out = inline_ok(src, "f");
        for v in [1.0, 3.0] {
            let args = [Value::Float(v)];
            assert_eq!(
                Evaluator::new(&prog).run("f", &args).unwrap().value,
                Evaluator::new(&out).run("f", &args).unwrap().value
            );
        }
    }

    /// The source text the error's span points at.
    fn spanned<'s>(src: &'s str, err: &InlineError) -> &'s str {
        let span = err.span();
        &src[span.start as usize..span.end as usize]
    }

    #[test]
    fn early_return_callee_rejected_with_span() {
        let src = "float weird(float x) { if (x > 0.0) { return 1.0; } return 0.0; }
                   float f(float a) { return weird(a); }";
        let prog = parse_program(src).unwrap();
        let err = inline_entry(&prog, "f").unwrap_err();
        assert!(
            matches!(&err, InlineError::UnsupportedReturnShape { name, .. } if name == "weird")
        );
        // The span pins the stray early return (the parser spans return
        // statements at the keyword), not the whole procedure.
        assert_eq!(spanned(src, &err), "return");
    }

    #[test]
    fn call_in_while_condition_rejected_with_span() {
        let src = "float sq(float x) { return x * x; }
                   float f(float a) {
                       float t = a;
                       while (sq(t) < 10.0) { t = t + 1.0; }
                       return t;
                   }";
        let prog = parse_program(src).unwrap();
        let err = inline_entry(&prog, "f").unwrap_err();
        assert!(matches!(&err, InlineError::CallInLoopCondition { name, .. } if name == "sq"));
        // The span pins the offending call expression in the condition.
        assert_eq!(spanned(src, &err), "sq(t)");
    }

    #[test]
    fn call_in_ternary_branch_rejected_with_span() {
        let src = "float sq(float x) { return x * x; }
                   float f(bool p, float a) { return p ? sq(a) : 0.0; }";
        let prog = parse_program(src).unwrap();
        let err = inline_entry(&prog, "f").unwrap_err();
        assert!(matches!(&err, InlineError::CallInCondBranch { name, .. } if name == "sq"));
        assert_eq!(spanned(src, &err), "sq(a)");
    }

    #[test]
    fn call_in_ternary_condition_is_fine() {
        let src = "float sq(float x) { return x * x; }
                   float f(float a) { return sq(a) > 4.0 ? 1.0 : 0.0; }";
        let prog = parse_program(src).unwrap();
        let out = inline_entry(&prog, "f").unwrap();
        let args = [Value::Float(3.0)];
        assert_eq!(
            Evaluator::new(&prog).run("f", &args).unwrap().value,
            Evaluator::new(&out).run("f", &args).unwrap().value
        );
    }

    #[test]
    fn unknown_entry_rejected() {
        let prog = parse_program("float f(float x) { return x; }").unwrap();
        assert!(matches!(
            inline_entry(&prog, "nope").unwrap_err(),
            InlineError::UnknownProc { .. }
        ));
    }

    #[test]
    fn array_locals_are_renamed_through_inlining() {
        let src = "float pick(int i, float x) {
                       float v[3] = 0.0;
                       v[1] = x;
                       v[i] = v[1] * 2.0;
                       return v[i];
                   }
                   float f(int k, float a) { return pick(k, a) + 1.0; }";
        let prog = parse_program(src).unwrap();
        let out = inline_ok(src, "f");
        let text = ds_lang::print_program(&out);
        assert!(text.contains("__inl0_v[1]"), "{text}");
        for (k, a) in [(0i64, 2.0f64), (1, 3.5), (2, -1.0)] {
            let args = [Value::Int(k), Value::Float(a)];
            assert_eq!(
                Evaluator::new(&prog).run("f", &args).unwrap().value,
                Evaluator::new(&out).run("f", &args).unwrap().value,
                "k={k} a={a}"
            );
        }
    }

    #[test]
    fn inlined_program_is_renumbered() {
        let out = inline_ok(
            "float sq(float x) { return x * x; }
             float f(float a) { return sq(a) + sq(a * 2.0); }",
            "f",
        );
        let p = &out.procs[0];
        let mut ids = Vec::new();
        p.walk_stmts(&mut |s| ids.push(s.id.0));
        p.walk_exprs(&mut |e| ids.push(e.id.0));
        ids.sort_unstable();
        let expect: Vec<u32> = (0..ids.len() as u32).collect();
        assert_eq!(ids, expect);
    }
}
