//! Shared support for the workspace-level integration and property tests:
//! a generator of arbitrary *well-typed* MiniC programs.
//!
//! Proptest strategies are stateless, so we generate a typed "recipe" tree
//! and then lower it into a valid program: the lowering step resolves
//! variable indices against the set of variables that are declared and
//! definitely initialized at each point, guaranteeing the front end accepts
//! every generated program. Loops are bounded counters, so every program
//! terminates.

use ds_interp::Value;
use ds_lang::{Block, Expr, ExprKind, Param, Proc, Program, Stmt, StmtKind, Type};
use proptest::prelude::*;

#[allow(dead_code)] // each test binary uses the subset it needs
pub mod paper;

#[allow(dead_code)] // each test binary uses the subset it needs
pub mod props;

#[allow(dead_code)] // each test binary uses the subset it needs
pub mod session;

/// Number of float parameters of every generated program.
pub const N_PARAMS: usize = 5;

/// A generated program together with its parameter names.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// The program; its single procedure is named `gen`.
    pub program: Program,
    /// The float parameter names (`p0` .. `p4`).
    #[allow(dead_code)] // part of the generator's API; not every test consumes it
    pub params: Vec<String>,
}

// ----- recipes ---------------------------------------------------------

#[derive(Debug, Clone)]
pub enum FExpr {
    Lit(i8),
    Var(u8),
    Add(Box<FExpr>, Box<FExpr>),
    Sub(Box<FExpr>, Box<FExpr>),
    Mul(Box<FExpr>, Box<FExpr>),
    Div(Box<FExpr>, Box<FExpr>),
    Neg(Box<FExpr>),
    Sin(Box<FExpr>),
    Sqrt(Box<FExpr>),
    Fbm(Box<FExpr>, Box<FExpr>),
    Min(Box<FExpr>, Box<FExpr>),
    Cond(Box<BExpr>, Box<FExpr>, Box<FExpr>),
    Trace(Box<FExpr>),
}

#[derive(Debug, Clone)]
pub enum BExpr {
    Lt(Box<FExpr>, Box<FExpr>),
    Ge(Box<FExpr>, Box<FExpr>),
    Not(Box<BExpr>),
    And(Box<BExpr>, Box<BExpr>),
}

#[derive(Debug, Clone)]
pub enum SRecipe {
    Decl(FExpr),
    Assign(u8, FExpr),
    If(BExpr, Vec<SRecipe>, Vec<SRecipe>),
    Loop(u8, Vec<SRecipe>),
    TraceStmt(FExpr),
}

fn arb_fexpr() -> BoxedStrategy<FExpr> {
    let leaf = prop_oneof![
        (-4i8..5).prop_map(FExpr::Lit),
        any::<u8>().prop_map(FExpr::Var),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Div(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| FExpr::Neg(Box::new(a))),
            inner.clone().prop_map(|a| FExpr::Sin(Box::new(a))),
            inner.clone().prop_map(|a| FExpr::Sqrt(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Fbm(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Min(Box::new(a), Box::new(b))),
            (arb_bexpr_flat(inner.clone()), inner.clone(), inner.clone())
                .prop_map(|(c, t, f)| FExpr::Cond(Box::new(c), Box::new(t), Box::new(f))),
            inner.prop_map(|a| FExpr::Trace(Box::new(a))),
        ]
    })
    .boxed()
}

fn arb_bexpr_flat(f: impl Strategy<Value = FExpr> + Clone + 'static) -> BoxedStrategy<BExpr> {
    prop_oneof![
        (f.clone(), f.clone()).prop_map(|(a, b)| BExpr::Lt(Box::new(a), Box::new(b))),
        (f.clone(), f.clone()).prop_map(|(a, b)| BExpr::Ge(Box::new(a), Box::new(b))),
        (f.clone(), f.clone())
            .prop_map(|(a, b)| BExpr::Not(Box::new(BExpr::Lt(Box::new(a), Box::new(b))))),
        (f.clone(), f.clone(), f.clone(), f).prop_map(|(a, b, c, d)| BExpr::And(
            Box::new(BExpr::Lt(Box::new(a), Box::new(b))),
            Box::new(BExpr::Ge(Box::new(c), Box::new(d)))
        )),
    ]
    .boxed()
}

fn arb_srecipe() -> impl Strategy<Value = SRecipe> {
    let leaf = prop_oneof![
        arb_fexpr().prop_map(SRecipe::Decl),
        (any::<u8>(), arb_fexpr()).prop_map(|(i, e)| SRecipe::Assign(i, e)),
        arb_fexpr().prop_map(SRecipe::TraceStmt),
    ];
    leaf.prop_recursive(3, 20, 4, |inner| {
        let block = prop::collection::vec(inner.clone(), 0..4);
        prop_oneof![
            (arb_bexpr_flat(arb_fexpr()), block.clone(), block.clone())
                .prop_map(|(c, t, e)| SRecipe::If(c, t, e)),
            ((0u8..4), block).prop_map(|(n, b)| SRecipe::Loop(n, b)),
        ]
    })
}

/// Strategy for whole programs: a statement list plus a return expression.
pub fn arb_program() -> impl Strategy<Value = GenProgram> {
    (prop::collection::vec(arb_srecipe(), 0..8), arb_fexpr())
        .prop_map(|(stmts, ret)| build_program(&stmts, &ret))
}

/// Strategy for effect-free programs: the same recipe distribution as
/// [`arb_program`], lowered with every `trace` stripped. Properties that
/// would `prop_assume!` trace-freedom should use this instead — assuming
/// discards ~90% of cases and makes generation the dominant cost.
#[allow(dead_code)] // each test binary uses the subset it needs
pub fn arb_program_no_trace() -> impl Strategy<Value = GenProgram> {
    (prop::collection::vec(arb_srecipe(), 0..8), arb_fexpr())
        .prop_map(|(stmts, ret)| build_program_impl(&stmts, &ret, true))
}

/// Strategy for the varying subset of the parameters (possibly empty, never
/// all — at least the partition is interesting either way, so allow all).
pub fn arb_varying() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(any::<bool>(), N_PARAMS).prop_map(|mask| {
        mask.iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| format!("p{i}"))
            .collect()
    })
}

/// Strategy for argument vectors (small magnitudes keep float math tame).
pub fn arb_args() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(-8i16..=8, N_PARAMS).prop_map(|xs| {
        xs.into_iter()
            .map(|x| Value::Float(f64::from(x) * 0.25))
            .collect()
    })
}

// ----- lowering --------------------------------------------------------

struct Lower {
    fresh: u32,
    /// Drop `trace` calls while lowering (`trace(x)` becomes `x`; trace
    /// statements vanish) so effect-free properties never discard cases.
    strip_trace: bool,
}

impl Lower {
    fn fresh_name(&mut self, prefix: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{prefix}{n}")
    }

    fn fexpr(&mut self, r: &FExpr, vars: &[String]) -> Expr {
        match r {
            FExpr::Lit(v) => {
                // Emit `-(lit)` rather than a negative literal so that the
                // pretty-printed form reparses to the identical tree.
                let lit = Expr::synth(ExprKind::FloatLit(f64::from(v.unsigned_abs()) * 0.5));
                if *v < 0 {
                    Expr::synth(ExprKind::Unary(ds_lang::UnOp::Neg, Box::new(lit)))
                } else {
                    lit
                }
            }
            FExpr::Var(i) => {
                let name = &vars[*i as usize % vars.len()];
                Expr::var(name.clone())
            }
            FExpr::Add(a, b) => self.bin(ds_lang::BinOp::Add, a, b, vars),
            FExpr::Sub(a, b) => self.bin(ds_lang::BinOp::Sub, a, b, vars),
            FExpr::Mul(a, b) => self.bin(ds_lang::BinOp::Mul, a, b, vars),
            FExpr::Div(a, b) => self.bin(ds_lang::BinOp::Div, a, b, vars),
            FExpr::Neg(a) => Expr::synth(ExprKind::Unary(
                ds_lang::UnOp::Neg,
                Box::new(self.fexpr(a, vars)),
            )),
            FExpr::Sin(a) => {
                let x = self.fexpr(a, vars);
                self.call("sin", vec![x])
            }
            FExpr::Sqrt(a) => {
                let x = self.fexpr(a, vars);
                self.call("sqrt", vec![x])
            }
            FExpr::Fbm(a, b) => {
                let x = self.fexpr(a, vars);
                let y = self.fexpr(b, vars);
                let z = Expr::synth(ExprKind::FloatLit(0.7));
                let oct = Expr::synth(ExprKind::IntLit(2));
                Expr::synth(ExprKind::Call("fbm3".into(), vec![x, y, z, oct]))
            }
            FExpr::Min(a, b) => {
                let x = self.fexpr(a, vars);
                let y = self.fexpr(b, vars);
                Expr::synth(ExprKind::Call("min".into(), vec![x, y]))
            }
            FExpr::Cond(c, t, f) => {
                let cc = self.bexpr(c, vars);
                let tt = self.fexpr(t, vars);
                let ff = self.fexpr(f, vars);
                Expr::synth(ExprKind::Cond(Box::new(cc), Box::new(tt), Box::new(ff)))
            }
            FExpr::Trace(a) => {
                let x = self.fexpr(a, vars);
                if self.strip_trace {
                    x
                } else {
                    Expr::synth(ExprKind::Call("trace".into(), vec![x]))
                }
            }
        }
    }

    fn call(&mut self, name: &str, args: Vec<Expr>) -> Expr {
        Expr::synth(ExprKind::Call(name.to_string(), args))
    }

    fn bin(&mut self, op: ds_lang::BinOp, a: &FExpr, b: &FExpr, vars: &[String]) -> Expr {
        let l = self.fexpr(a, vars);
        let r = self.fexpr(b, vars);
        Expr::synth(ExprKind::Binary(op, Box::new(l), Box::new(r)))
    }

    fn bexpr(&mut self, r: &BExpr, vars: &[String]) -> Expr {
        match r {
            BExpr::Lt(a, b) => {
                let l = self.fexpr(a, vars);
                let rr = self.fexpr(b, vars);
                Expr::synth(ExprKind::Binary(
                    ds_lang::BinOp::Lt,
                    Box::new(l),
                    Box::new(rr),
                ))
            }
            BExpr::Ge(a, b) => {
                let l = self.fexpr(a, vars);
                let rr = self.fexpr(b, vars);
                Expr::synth(ExprKind::Binary(
                    ds_lang::BinOp::Ge,
                    Box::new(l),
                    Box::new(rr),
                ))
            }
            BExpr::Not(a) => Expr::synth(ExprKind::Unary(
                ds_lang::UnOp::Not,
                Box::new(self.bexpr(a, vars)),
            )),
            BExpr::And(a, b) => {
                // a && b desugars to a ? b : false, matching the parser.
                let l = self.bexpr(a, vars);
                let rr = self.bexpr(b, vars);
                Expr::synth(ExprKind::Cond(
                    Box::new(l),
                    Box::new(rr),
                    Box::new(Expr::synth(ExprKind::BoolLit(false))),
                ))
            }
        }
    }

    /// Lowers a statement list. `vars` is the set of definitely-initialized
    /// float variables; declarations inside this block extend it for the
    /// rest of the block only (the caller's copy is unaffected), which
    /// keeps every generated program definite-initialization-clean.
    fn block(&mut self, recipes: &[SRecipe], vars: &mut Vec<String>, out: &mut Vec<Stmt>) {
        for r in recipes {
            match r {
                SRecipe::Decl(init) => {
                    let init = self.fexpr(init, vars);
                    let name = self.fresh_name("t");
                    out.push(Stmt::synth(StmtKind::Decl {
                        name: name.clone(),
                        ty: Type::Float,
                        init,
                    }));
                    vars.push(name);
                }
                SRecipe::Assign(i, value) => {
                    let value = self.fexpr(value, vars);
                    let name = vars[*i as usize % vars.len()].clone();
                    out.push(Stmt::synth(StmtKind::Assign {
                        name,
                        value,
                        is_phi: false,
                    }));
                }
                SRecipe::If(c, t, e) => {
                    let cond = self.bexpr(c, vars);
                    let mut tv = vars.clone();
                    let mut then_stmts = Vec::new();
                    self.block(t, &mut tv, &mut then_stmts);
                    let mut ev = vars.clone();
                    let mut else_stmts = Vec::new();
                    self.block(e, &mut ev, &mut else_stmts);
                    out.push(Stmt::synth(StmtKind::If {
                        cond,
                        then_blk: Block { stmts: then_stmts },
                        else_blk: Block { stmts: else_stmts },
                    }));
                }
                SRecipe::Loop(n, body) => {
                    let counter = self.fresh_name("i");
                    out.push(Stmt::synth(StmtKind::Decl {
                        name: counter.clone(),
                        ty: Type::Int,
                        init: Expr::synth(ExprKind::IntLit(0)),
                    }));
                    let mut bv = vars.clone();
                    let mut body_stmts = Vec::new();
                    self.block(body, &mut bv, &mut body_stmts);
                    body_stmts.push(Stmt::synth(StmtKind::Assign {
                        name: counter.clone(),
                        value: Expr::synth(ExprKind::Binary(
                            ds_lang::BinOp::Add,
                            Box::new(Expr::var(counter.clone())),
                            Box::new(Expr::synth(ExprKind::IntLit(1))),
                        )),
                        is_phi: false,
                    }));
                    out.push(Stmt::synth(StmtKind::While {
                        cond: Expr::synth(ExprKind::Binary(
                            ds_lang::BinOp::Lt,
                            Box::new(Expr::var(counter)),
                            Box::new(Expr::synth(ExprKind::IntLit(i64::from(*n)))),
                        )),
                        body: Block { stmts: body_stmts },
                    }));
                }
                SRecipe::TraceStmt(e) => {
                    if self.strip_trace {
                        continue;
                    }
                    let arg = self.fexpr(e, vars);
                    out.push(Stmt::synth(StmtKind::ExprStmt(Expr::synth(
                        ExprKind::Call("trace".into(), vec![arg]),
                    ))));
                }
            }
        }
    }
}

/// Lowers recipes into a complete, type-checked program.
pub fn build_program(stmts: &[SRecipe], ret: &FExpr) -> GenProgram {
    build_program_impl(stmts, ret, false)
}

fn build_program_impl(stmts: &[SRecipe], ret: &FExpr, strip_trace: bool) -> GenProgram {
    let params: Vec<String> = (0..N_PARAMS).map(|i| format!("p{i}")).collect();
    let mut lower = Lower {
        fresh: 0,
        strip_trace,
    };
    let mut vars = params.clone();
    let mut body = Vec::new();
    lower.block(stmts, &mut vars, &mut body);
    let ret_expr = lower.fexpr(ret, &vars);
    body.push(Stmt::synth(StmtKind::Return(Some(ret_expr))));

    let mut program = Program {
        procs: vec![Proc {
            name: "gen".into(),
            params: params
                .iter()
                .map(|p| Param {
                    name: p.clone(),
                    ty: Type::Float,
                })
                .collect(),
            ret: Type::Float,
            body: Block { stmts: body },
            span: ds_lang::Span::DUMMY,
        }],
    };
    program.renumber();
    ds_lang::typecheck(&program).unwrap_or_else(|e| {
        panic!(
            "generated program must type-check: {e}\n{}",
            ds_lang::print_program(&program)
        )
    });
    GenProgram { program, params }
}
