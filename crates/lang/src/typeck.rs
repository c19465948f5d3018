//! Type checker for MiniC.
//!
//! Beyond ordinary typing, the checker enforces the paper's §5 restrictions
//! and the structural invariants the specializer relies on:
//!
//! * variable names are unique per procedure (no shadowing) — join-point
//!   normalization and the flat evaluator environment depend on this;
//! * every variable is declared (with an initializer) before use;
//! * procedures are non-recursive (call-graph cycle check);
//! * non-void procedures return on every control path.
//!
//! The checker also produces a [`TypeInfo`] table mapping every expression
//! [`TermId`] to its type; the splitting transformation uses it to give cache
//! slots their widths.

use crate::ast::*;
use crate::builtins::Builtin;
use crate::error::{FrontendError, Phase};
use crate::span::Span;
use ds_telemetry::{StageMap, StageSet};

/// Per-program typing facts produced by [`typecheck`].
#[derive(Debug, Clone, Default)]
pub struct TypeInfo {
    expr_types: ExprTypes,
    var_types: StageMap<String, StageMap<String, Type>>,
    /// Whether the checker records facts at all ([`check_procs`] only
    /// wants the verdict).
    unrecorded: bool,
}

impl TypeInfo {
    /// The type of expression `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an expression of the checked program (e.g. after
    /// a rewriting pass without re-checking).
    pub fn expr_type(&self, id: TermId) -> Type {
        self.expr_types
            .get(id)
            .unwrap_or_else(|| panic!("no type recorded for {id}; re-run typecheck after rewrites"))
    }

    /// The type of expression `id`, if recorded.
    pub fn try_expr_type(&self, id: TermId) -> Option<Type> {
        self.expr_types.get(id)
    }

    /// The declared type of variable `var` in procedure `proc` (parameters
    /// included).
    pub fn var_type(&self, proc: &str, var: &str) -> Option<Type> {
        self.var_types.get(proc)?.get(var).copied()
    }

    /// Number of typed expressions (mainly for tests).
    pub fn len(&self) -> usize {
        self.expr_types.len
    }

    /// Whether no expressions were typed.
    pub fn is_empty(&self) -> bool {
        self.expr_types.len == 0
    }

    fn record_expr(&mut self, id: TermId, ty: Type) {
        if !self.unrecorded {
            self.expr_types.insert(id, ty);
        }
    }
}

/// Expression types by [`TermId`]. Renumbered programs have dense ids, so
/// those index a `Vec`; any other id (a synthesized node's
/// [`TermId::UNASSIGNED`], or an id past [`ExprTypes::DENSE_LIMIT`]) goes
/// to a map.
#[derive(Debug, Clone, Default)]
struct ExprTypes {
    dense: Vec<Option<Type>>,
    sparse: StageMap<TermId, Type>,
    /// Distinct ids recorded.
    len: usize,
}

impl ExprTypes {
    /// Ids below this are stored densely.
    const DENSE_LIMIT: u32 = 1 << 20;

    fn insert(&mut self, id: TermId, ty: Type) {
        let fresh = if id.0 < Self::DENSE_LIMIT {
            let i = id.0 as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, None);
            }
            self.dense[i].replace(ty).is_none()
        } else {
            self.sparse.insert(id, ty).is_none()
        };
        self.len += usize::from(fresh);
    }

    fn get(&self, id: TermId) -> Option<Type> {
        if id.0 < Self::DENSE_LIMIT {
            self.dense.get(id.0 as usize).copied().flatten()
        } else {
            self.sparse.get(&id).copied()
        }
    }
}

/// Type-checks a program.
///
/// # Errors
///
/// Returns the first type error: unknown names, arity or type mismatches,
/// duplicate or shadowed variables, recursion, a non-void procedure that can
/// fall off the end, or a user procedure whose name collides with a builtin.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ds_lang::FrontendError> {
/// use ds_lang::{parse_program, typecheck, Type};
/// let prog = parse_program("float sq(float x) { return x * x; }")?;
/// let info = typecheck(&prog)?;
/// assert!(info.len() > 0);
/// # Ok(())
/// # }
/// ```
pub fn typecheck(program: &Program) -> Result<TypeInfo, FrontendError> {
    check_into(&program.procs, TypeInfo::default())
}

/// Checks `procs` in place, for the verdict alone: the same checks as
/// [`typecheck`] over a [`Program`] holding exactly these procedures, with
/// no copy of them and no [`TypeInfo`] recorded. The verdict does not
/// depend on [`TermId`]s, so the procedures need not be renumbered.
///
/// # Errors
///
/// Returns the first front-end error, exactly as [`typecheck`] would.
pub fn check_procs(procs: &[Proc]) -> Result<(), FrontendError> {
    let unrecorded = TypeInfo {
        unrecorded: true,
        ..TypeInfo::default()
    };
    check_into(procs, unrecorded).map(drop)
}

fn check_into(procs: &[Proc], mut info: TypeInfo) -> Result<TypeInfo, FrontendError> {
    // Procedure table; reject duplicates and builtin-name collisions.
    let mut table: StageMap<&str, &Proc> = StageMap::default();
    for p in procs {
        if Builtin::from_name(&p.name).is_some() {
            return Err(err(
                format!("procedure `{}` shadows a builtin", p.name),
                p.span,
            ));
        }
        if table.insert(p.name.as_str(), p).is_some() {
            return Err(err(format!("duplicate procedure `{}`", p.name), p.span));
        }
    }

    // Non-recursion: DFS over the call graph.
    check_nonrecursive(procs, &table)?;

    for p in procs {
        check_proc(p, &table, &mut info)?;
    }
    Ok(info)
}

/// Validity checker for synthesized or mutated ASTs: renumbers the program
/// to restore dense [`TermId`]s, then type-checks it. This is the single
/// entry point the generator and shrinker use to decide whether an
/// arbitrary AST edit produced a legal MiniC program.
///
/// # Errors
///
/// Returns the first front-end error, exactly as [`typecheck`] would.
pub fn validate(program: &mut Program) -> Result<TypeInfo, FrontendError> {
    program.renumber();
    typecheck(program)
}

fn err(message: impl Into<String>, span: Span) -> FrontendError {
    FrontendError::new(Phase::Type, message, span)
}

fn check_nonrecursive<'p>(
    procs: &'p [Proc],
    table: &StageMap<&'p str, &'p Proc>,
) -> Result<(), FrontendError> {
    // Colors: 0 unvisited, 1 on stack, 2 done.
    let mut color: StageMap<&str, u8> = StageMap::default();
    fn dfs<'p>(
        name: &'p str,
        table: &StageMap<&'p str, &'p Proc>,
        color: &mut StageMap<&'p str, u8>,
    ) -> Result<(), FrontendError> {
        match color.get(name).copied().unwrap_or(0) {
            1 => {
                let span = table.get(name).map(|p| p.span).unwrap_or(Span::DUMMY);
                return Err(err(
                    format!("recursion detected through procedure `{name}`"),
                    span,
                ));
            }
            2 => return Ok(()),
            _ => {}
        }
        color.insert(name, 1);
        if let Some(p) = table.get(name) {
            let mut callees = Vec::new();
            p.walk_exprs(&mut |e| {
                if let ExprKind::Call(callee, _) = &e.kind {
                    if let Some((&key, _)) = table.get_key_value(callee.as_str()) {
                        callees.push(key);
                    }
                }
            });
            for callee in callees {
                dfs(callee, table, color)?;
            }
        }
        color.insert(name, 2);
        Ok(())
    }
    for p in procs {
        dfs(p.name.as_str(), table, &mut color)?;
    }
    Ok(())
}

struct ProcChecker<'a> {
    procs: &'a StageMap<&'a str, &'a Proc>,
    vars: StageMap<&'a str, Type>,
    /// Definitely-initialized variables at the current program point. MiniC
    /// blocks do not open scopes, so a declaration inside one branch of an
    /// `if` leaves the variable *declared* afterwards but only
    /// *definitely initialized* if every path initialized it.
    init: StageSet<&'a str>,
    ret: Type,
}

fn check_proc<'a>(
    p: &'a Proc,
    procs: &'a StageMap<&'a str, &'a Proc>,
    info: &mut TypeInfo,
) -> Result<(), FrontendError> {
    let mut ck = ProcChecker {
        procs,
        vars: StageMap::default(),
        init: StageSet::default(),
        ret: p.ret,
    };
    // Arrays are procedure-local only: parameters, return values and cache
    // slots stay scalar, so the cache layout and the calling convention never
    // carry aggregates.
    if !p.ret.is_scalar() && p.ret != Type::Void {
        return Err(err(
            format!("procedure `{}` cannot return an array", p.name),
            p.span,
        ));
    }
    for param in &p.params {
        if !param.ty.is_scalar() {
            return Err(err(
                format!("parameter `{}` cannot have array type", param.name),
                p.span,
            ));
        }
        if ck.vars.insert(param.name.as_str(), param.ty).is_some() {
            return Err(err(format!("duplicate parameter `{}`", param.name), p.span));
        }
        ck.init.insert(param.name.as_str());
    }
    // Pre-scan for duplicate declarations anywhere in the procedure (blocks
    // do not open scopes in MiniC).
    let mut declared: StageSet<&str> = p.params.iter().map(|q| q.name.as_str()).collect();
    let mut dup: Option<(String, Span)> = None;
    p.walk_stmts(&mut |s| {
        if let StmtKind::Decl { name, .. } = &s.kind {
            if !declared.insert(name.as_str()) && dup.is_none() {
                dup = Some((name.clone(), s.span));
            }
        }
    });
    if let Some((name, span)) = dup {
        return Err(err(
            format!("variable `{name}` declared more than once (MiniC forbids shadowing)"),
            span,
        ));
    }

    let returns = ck.check_block(&p.body, info)?;
    if p.ret != Type::Void && !returns {
        return Err(err(
            format!(
                "procedure `{}` may fall off the end without returning a `{}`",
                p.name, p.ret
            ),
            p.span,
        ));
    }
    if !info.unrecorded {
        let vars = ck.vars.into_iter().map(|(k, v)| (k.to_string(), v));
        info.var_types.insert(p.name.clone(), vars.collect());
    }
    Ok(())
}

impl<'a> ProcChecker<'a> {
    /// Checks a block; returns whether it returns on every path.
    fn check_block(
        &mut self,
        block: &'a Block,
        info: &mut TypeInfo,
    ) -> Result<bool, FrontendError> {
        let mut returns = false;
        for s in &block.stmts {
            returns |= self.check_stmt(s, info)?;
        }
        Ok(returns)
    }

    fn check_stmt(&mut self, s: &'a Stmt, info: &mut TypeInfo) -> Result<bool, FrontendError> {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let ity = self.check_expr(init, info)?;
                // An array declaration's initializer is the element *fill*
                // value, so it must have the element type.
                let want = ty.elem().unwrap_or(*ty);
                if ity != want {
                    return Err(err(
                        format!("initializer of `{name}` has type `{ity}`, expected `{want}`"),
                        s.span,
                    ));
                }
                self.vars.insert(name, *ty);
                self.init.insert(name);
                Ok(false)
            }
            StmtKind::Assign { name, value, .. } => {
                let vty = self.check_expr(value, info)?;
                let Some(&dty) = self.vars.get(name.as_str()) else {
                    return Err(err(format!("assignment to undeclared `{name}`"), s.span));
                };
                if vty != dty {
                    return Err(err(
                        format!("cannot assign `{vty}` to `{name}` of type `{dty}`"),
                        s.span,
                    ));
                }
                self.init.insert(name);
                Ok(false)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expect_bool(cond, info)?;
                let before = self.init.clone();
                let t = self.check_block(then_blk, info)?;
                let after_then = std::mem::replace(&mut self.init, before);
                let e = self.check_block(else_blk, info)?;
                let after_else = &self.init;
                // Definitely initialized after the `if` = initialized on
                // every path that can fall through. A branch that always
                // returns imposes no constraint.
                self.init = match (t, e) {
                    (true, true) => after_else.clone(),
                    (true, false) => after_else.clone(),
                    (false, true) => after_then,
                    (false, false) => after_then.intersection(after_else).copied().collect(),
                };
                Ok(t && e && !else_blk.stmts.is_empty())
            }
            StmtKind::While { cond, body } => {
                self.expect_bool(cond, info)?;
                let before = self.init.clone();
                self.check_block(body, info)?;
                // The body may execute zero times: discard its
                // initializations.
                self.init = before;
                // A while loop may execute zero times; it never guarantees a
                // return (we do not special-case `while(true)`).
                Ok(false)
            }
            StmtKind::Return(value) => {
                match (value, self.ret) {
                    (None, Type::Void) => {}
                    (None, other) => {
                        return Err(err(
                            format!("bare `return` in procedure returning `{other}`"),
                            s.span,
                        ))
                    }
                    (Some(e), expected) => {
                        let ty = self.check_expr(e, info)?;
                        if expected == Type::Void {
                            return Err(err("`return` with a value in a void procedure", s.span));
                        }
                        if ty != expected {
                            return Err(err(
                                format!("returning `{ty}` from procedure returning `{expected}`"),
                                s.span,
                            ));
                        }
                    }
                }
                Ok(true)
            }
            StmtKind::ArrayAssign { name, index, value } => {
                let Some(&dty) = self.vars.get(name.as_str()) else {
                    return Err(err(
                        format!("element assignment to undeclared `{name}`"),
                        s.span,
                    ));
                };
                let Some(elem) = dty.elem() else {
                    return Err(err(
                        format!("`{name}` has type `{dty}`; element assignment requires an array"),
                        s.span,
                    ));
                };
                if !self.init.contains(name.as_str()) {
                    return Err(err(
                        format!("array `{name}` may be used before it is initialized on some path"),
                        s.span,
                    ));
                }
                let ity = self.check_expr(index, info)?;
                if ity != Type::Int {
                    return Err(err(
                        format!("array index has type `{ity}`, expected `int`"),
                        index.span,
                    ));
                }
                let vty = self.check_expr(value, info)?;
                if vty != elem {
                    return Err(err(
                        format!(
                            "cannot assign `{vty}` to element of `{name}` (element type `{elem}`)"
                        ),
                        s.span,
                    ));
                }
                Ok(false)
            }
            StmtKind::ExprStmt(e) => {
                self.check_expr(e, info)?;
                Ok(false)
            }
        }
    }

    fn expect_bool(&mut self, e: &'a Expr, info: &mut TypeInfo) -> Result<(), FrontendError> {
        let ty = self.check_expr(e, info)?;
        if ty != Type::Bool {
            return Err(err(
                format!("condition has type `{ty}`, expected `bool`"),
                e.span,
            ));
        }
        Ok(())
    }

    fn check_expr(&mut self, e: &'a Expr, info: &mut TypeInfo) -> Result<Type, FrontendError> {
        let ty = match &e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::FloatLit(_) => Type::Float,
            ExprKind::BoolLit(_) => Type::Bool,
            ExprKind::Var(name) => {
                let ty = *self
                    .vars
                    .get(name.as_str())
                    .ok_or_else(|| err(format!("use of undeclared variable `{name}`"), e.span))?;
                if !self.init.contains(name.as_str()) {
                    return Err(err(
                        format!(
                            "variable `{name}` may be used before it is initialized on some path"
                        ),
                        e.span,
                    ));
                }
                ty
            }
            ExprKind::Unary(op, operand) => {
                let oty = self.check_expr(operand, info)?;
                match (op, oty) {
                    (UnOp::Neg, Type::Int) | (UnOp::Neg, Type::Float) => oty,
                    (UnOp::Not, Type::Bool) => Type::Bool,
                    _ => {
                        return Err(err(
                            format!("unary `{op}` cannot be applied to `{oty}`"),
                            e.span,
                        ))
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lty = self.check_expr(l, info)?;
                let rty = self.check_expr(r, info)?;
                if lty != rty {
                    return Err(err(
                        format!("operands of `{op}` have mismatched types `{lty}` and `{rty}` (MiniC has no implicit conversions; use itof/ftoi)"),
                        e.span,
                    ));
                }
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        if !matches!(lty, Type::Int | Type::Float) {
                            return Err(err(
                                format!("arithmetic `{op}` requires numeric operands, got `{lty}`"),
                                e.span,
                            ));
                        }
                        lty
                    }
                    BinOp::Rem => {
                        if lty != Type::Int {
                            return Err(err(
                                "`%` requires `int` operands (use fmod for floats)",
                                e.span,
                            ));
                        }
                        Type::Int
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if !matches!(lty, Type::Int | Type::Float) {
                            return Err(err(
                                format!("ordering `{op}` requires numeric operands, got `{lty}`"),
                                e.span,
                            ));
                        }
                        Type::Bool
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if !lty.is_scalar() {
                            return Err(err(
                                format!("equality `{op}` requires scalar operands, got `{lty}` (compare arrays element-wise)"),
                                e.span,
                            ));
                        }
                        Type::Bool
                    }
                }
            }
            ExprKind::Cond(c, t, f) => {
                self.expect_bool(c, info)?;
                let tty = self.check_expr(t, info)?;
                let fty = self.check_expr(f, info)?;
                if tty != fty {
                    return Err(err(
                        format!("conditional branches have mismatched types `{tty}` and `{fty}`"),
                        e.span,
                    ));
                }
                if !tty.is_scalar() {
                    return Err(err(
                        format!("conditional branches must be scalar, got `{tty}`"),
                        e.span,
                    ));
                }
                tty
            }
            ExprKind::Index { array, index } => {
                let aty = *self
                    .vars
                    .get(array.as_str())
                    .ok_or_else(|| err(format!("use of undeclared variable `{array}`"), e.span))?;
                let Some(elem) = aty.elem() else {
                    return Err(err(
                        format!("`{array}` has type `{aty}`; indexing requires an array"),
                        e.span,
                    ));
                };
                if !self.init.contains(array.as_str()) {
                    return Err(err(
                        format!(
                            "array `{array}` may be used before it is initialized on some path"
                        ),
                        e.span,
                    ));
                }
                let ity = self.check_expr(index, info)?;
                if ity != Type::Int {
                    return Err(err(
                        format!("array index has type `{ity}`, expected `int`"),
                        index.span,
                    ));
                }
                elem
            }
            ExprKind::Call(name, args) => {
                let mut arg_types = Vec::with_capacity(args.len());
                for a in args {
                    arg_types.push(self.check_expr(a, info)?);
                }
                if let Some(b) = Builtin::from_name(name) {
                    let params = b.param_types();
                    if params.len() != arg_types.len() {
                        return Err(err(
                            format!(
                                "builtin `{name}` expects {} argument(s), got {}",
                                params.len(),
                                arg_types.len()
                            ),
                            e.span,
                        ));
                    }
                    for (i, (&want, &got)) in params.iter().zip(&arg_types).enumerate() {
                        if want != got {
                            return Err(err(
                                format!(
                                    "argument {} of `{name}` has type `{got}`, expected `{want}`",
                                    i + 1
                                ),
                                e.span,
                            ));
                        }
                    }
                    b.ret_type()
                } else if let Some(p) = self.procs.get(name.as_str()) {
                    if p.params.len() != arg_types.len() {
                        return Err(err(
                            format!(
                                "procedure `{name}` expects {} argument(s), got {}",
                                p.params.len(),
                                arg_types.len()
                            ),
                            e.span,
                        ));
                    }
                    for (i, (param, &got)) in p.params.iter().zip(&arg_types).enumerate() {
                        if param.ty != got {
                            return Err(err(
                                format!(
                                    "argument {} of `{name}` has type `{got}`, expected `{}`",
                                    i + 1,
                                    param.ty
                                ),
                                e.span,
                            ));
                        }
                    }
                    p.ret
                } else {
                    return Err(err(format!("call to unknown function `{name}`"), e.span));
                }
            }
            ExprKind::CacheRef(_, ty) => *ty,
            ExprKind::CacheStore(_, inner) => self.check_expr(inner, info)?,
        };
        if ty == Type::Void {
            // A void call is only legal directly under an ExprStmt; the
            // statement checker tolerates it because nothing consumes it.
            // Any other position would have failed the surrounding check.
        }
        info.record_expr(e.id, ty);
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<TypeInfo, FrontendError> {
        typecheck(&parse_program(src).expect("parse"))
    }

    #[test]
    fn accepts_wellformed_program() {
        let info = check(
            "float shade(float u, float v, int n) {
                 float acc = 0.0;
                 for (int i = 0; i < n; i = i + 1) {
                     acc = acc + noise2(u * itof(i), v);
                 }
                 if (acc > 1.0 && v < 0.5) { acc = 1.0; }
                 return clamp(acc, 0.0, 1.0);
             }",
        )
        .expect("typecheck");
        assert_eq!(info.var_type("shade", "acc"), Some(Type::Float));
        assert_eq!(info.var_type("shade", "i"), Some(Type::Int));
        assert_eq!(info.var_type("shade", "n"), Some(Type::Int));
    }

    #[test]
    fn records_expr_types() {
        let prog = parse_program("float f(float x) { return x > 0.0 ? x : -x; }").unwrap();
        let info = typecheck(&prog).unwrap();
        let mut saw_bool = false;
        let mut saw_float = false;
        prog.proc("f").unwrap().walk_exprs(&mut |e| {
            match info.expr_type(e.id) {
                Type::Bool => saw_bool = true,
                Type::Float => saw_float = true,
                _ => {}
            };
        });
        assert!(saw_bool && saw_float);
    }

    #[test]
    fn ids_outside_the_dense_range_are_recorded_too() {
        let mut prog = parse_program("float f(float x) { return x * 2.0; }").unwrap();
        let mut ids = [TermId(5_000_000), TermId::UNASSIGNED].into_iter();
        prog.procs[0].walk_exprs_mut(&mut |e| {
            if let Some(id) = ids.next() {
                e.id = id;
            }
        });
        let info = typecheck(&prog).unwrap();
        assert_eq!(info.try_expr_type(TermId(5_000_000)), Some(Type::Float));
        assert_eq!(info.try_expr_type(TermId::UNASSIGNED), Some(Type::Float));
        assert_eq!(info.len(), 3);
    }

    #[test]
    fn check_procs_gives_the_typecheck_verdict() {
        for src in [
            "float f(float x) { if (x > 0.0) { return x; } return -x; }",
            "float f(float x) { return x + 1; }",
            "float f(float x) { float y; return y; }",
            "float f(float x) { return g(x); } float g(float x) { return f(x); }",
            "float f(float x) { float x = 1.0; return x; }",
            "float sin(float x) { return x; }",
        ] {
            let Ok(prog) = parse_program(src) else {
                continue;
            };
            assert_eq!(
                check_procs(&prog.procs),
                typecheck(&prog).map(drop),
                "{src}"
            );
        }
    }

    #[test]
    fn rejects_undeclared_and_shadowing() {
        assert!(check("float f() { return x; }").is_err());
        assert!(check("float f() { y = 1.0; return 0.0; }").is_err());
        let e = check("float f(float x) { float x = 1.0; return x; }").unwrap_err();
        assert!(e.message.contains("more than once"), "{}", e.message);
        // Shadowing across sibling blocks is also rejected.
        assert!(check(
            "float f(bool p) {
                 if (p) { float t = 1.0; trace(t); } else { float t = 2.0; trace(t); }
                 return 0.0;
             }"
        )
        .is_err());
    }

    #[test]
    fn rejects_type_mismatches() {
        assert!(check("float f(int i) { return i + 1.0; }").is_err());
        assert!(check("float f(float x) { if (x) { return x; } return x; }").is_err());
        assert!(check("float f(float x) { return x % 2.0; }").is_err());
        assert!(check("int f(int i) { return i % 2; }").is_ok());
        assert!(check("float f(bool b) { return b + b; }").is_err());
        assert!(check("float f(float x) { int y = x; return x; }").is_err());
    }

    #[test]
    fn rejects_bad_calls() {
        assert!(check("float f(float x) { return sin(x, x); }").is_err());
        assert!(check("float f(int i) { return sin(i); }").is_err());
        assert!(check("float f(float x) { return mystery(x); }").is_err());
    }

    #[test]
    fn rejects_builtin_shadowing_proc() {
        let e = check("float sin(float x) { return x; }").unwrap_err();
        assert!(e.message.contains("builtin"), "{}", e.message);
    }

    #[test]
    fn rejects_recursion() {
        let e = check("float f(float x) { return f(x); }").unwrap_err();
        assert!(e.message.contains("recursion"), "{}", e.message);
        // Mutual recursion.
        let e = check(
            "float g(float x) { return h(x); }
             float h(float x) { return g(x); }",
        )
        .unwrap_err();
        assert!(e.message.contains("recursion"), "{}", e.message);
    }

    #[test]
    fn accepts_nonrecursive_calls() {
        assert!(check(
            "float helper(float x) { return x * 2.0; }
             float f(float x) { return helper(x) + helper(1.0); }"
        )
        .is_ok());
    }

    #[test]
    fn enforces_all_paths_return() {
        assert!(check("float f(bool p) { if (p) { return 1.0; } }").is_err());
        assert!(check("float f(bool p) { if (p) { return 1.0; } else { return 0.0; } }").is_ok());
        assert!(check("float f(bool p) { while (p) { return 1.0; } }").is_err());
        assert!(check("void f(bool p) { if (p) { return; } }").is_ok());
    }

    #[test]
    fn return_type_agreement() {
        assert!(check("void f() { return 1.0; }").is_err());
        assert!(check("float f() { return; }").is_err());
        assert!(check("int f() { return 1.0; }").is_err());
    }

    #[test]
    fn duplicate_procs_rejected() {
        assert!(check("void f() { return; } void f() { return; }").is_err());
    }

    #[test]
    fn accepts_array_locals_and_element_ops() {
        let info = check(
            "float f(int i, float x) {
                 float v[4] = 0.0;
                 v[0] = x;
                 v[i] = v[0] * 2.0;
                 float w[4] = 1.0;
                 w = v;
                 return w[i];
             }",
        )
        .expect("typecheck");
        assert_eq!(
            info.var_type("f", "v"),
            Some(Type::Array(crate::ast::Elem::Float, 4))
        );
    }

    #[test]
    fn array_decl_initializer_is_element_fill() {
        // Fill value has the element type, not the array type.
        assert!(check("float f() { float v[4] = 0.0; return v[0]; }").is_ok());
        let e = check("float f() { float v[4] = 1; return v[0]; }").unwrap_err();
        assert!(e.message.contains("expected `float`"), "{}", e.message);
    }

    #[test]
    fn rejects_array_misuse() {
        // Indexing a scalar.
        assert!(check("float f(float x) { return x[0]; }").is_err());
        // Element assignment to a scalar.
        assert!(check("float f(float x) { x[0] = 1.0; return x; }").is_err());
        // Non-int index.
        assert!(check("float f() { float v[4] = 0.0; return v[1.0]; }").is_err());
        // Element type mismatch on write.
        assert!(check("float f() { float v[4] = 0.0; v[0] = 1; return v[0]; }").is_err());
        // Whole-array copy with mismatched lengths.
        assert!(
            check("float f() { float v[4] = 0.0; float w[3] = 0.0; w = v; return w[0]; }").is_err()
        );
        // Arrays are not equality-comparable and cannot flow through `?:`.
        assert!(check("bool f() { float v[2] = 0.0; float w[2] = 0.0; return v == w; }").is_err());
        assert!(check(
            "float f(bool p) { float v[2] = 0.0; float w[2] = 1.0; float u[2] = p ? v : w; return u[0]; }"
        )
        .is_err());
    }

    #[test]
    fn arrays_stay_local_to_procedures() {
        // No array parameters or returns; the parser cannot even write these,
        // so build the AST by hand and validate it (the generator's path).
        use crate::ast::*;
        let arr = Type::Array(Elem::Float, 2);
        let mut prog = Program {
            procs: vec![Proc {
                name: "f".into(),
                ret: Type::Float,
                params: vec![Param {
                    name: "v".into(),
                    ty: arr,
                }],
                body: Block {
                    stmts: vec![Stmt::synth(StmtKind::Return(Some(Expr::float(0.0))))],
                },
                span: crate::span::Span::DUMMY,
            }],
        };
        let e = validate(&mut prog).unwrap_err();
        assert!(e.message.contains("array type"), "{}", e.message);
        prog.procs[0].params.clear();
        prog.procs[0].ret = arr;
        prog.procs[0].body.stmts =
            vec![Stmt::synth(StmtKind::Return(Some(Expr::zero(Type::Float))))];
        let e = validate(&mut prog).unwrap_err();
        assert!(e.message.contains("return an array"), "{}", e.message);
    }

    #[test]
    fn definite_initialization_enforced() {
        // Declared in one branch only: use after the join is rejected.
        let e = check("float f(bool p) { if (p) { float t = 1.0; } return t; }").unwrap_err();
        assert!(e.message.contains("initialized"), "{}", e.message);
        // Initialized in both branches: OK.
        assert!(check(
            "float f(bool p) {
                 if (p) { float t = 1.0; } else { float t = 2.0; }
                 return t;
             }"
        )
        .is_err()); // still an error: duplicate *declaration*
        assert!(check(
            "float f(bool p) {
                 float t = 0.0;
                 if (p) { t = 1.0; } else { t = 2.0; }
                 return t;
             }"
        )
        .is_ok());
        // A loop body may run zero times: its initializations don't count.
        let e = check("float f(bool p) { while (p) { float t = 1.0; trace(t); } return t; }")
            .unwrap_err();
        assert!(e.message.contains("initialized"), "{}", e.message);
        // A branch that returns does not constrain the join.
        assert!(check(
            "float f(bool p) {
                 if (p) { return 0.0; } else { float t = 2.0; trace(t); }
                 return t;
             }"
        )
        .is_ok());
    }
}
