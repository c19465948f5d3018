//! Lowering type-checked MiniC procedures to flat register bytecode.
//!
//! The tree-walking [`Evaluator`](crate::Evaluator) pays for a `HashMap`
//! environment lookup per variable access and a Rust stack frame per AST
//! node. For the paper's interactive-rendering workload — the same reader
//! replayed per pixel per slider notch — that overhead dominates. This
//! module compiles each procedure once into a flat instruction vector over
//! virtual registers; [`vm`](crate::vm) then executes it with a
//! non-recursive dispatch loop and direct [`CacheBuf`](crate::CacheBuf)
//! slot access.
//!
//! **Parity contract.** Compiled execution is observationally identical to
//! the tree walker on type-checked programs: same result value, same
//! abstract cost, same trace, same [`Profile`](crate::Profile) counts, same
//! error class (and span) on failure, and the same total step-limit fuel
//! consumption for any complete evaluation. This is what the differential
//! test harness (`tests/differential_vm.rs`) checks. The compiler achieves
//! fuel parity structurally: every AST node the evaluator charges a step
//! for compiles to exactly one fuel-charging instruction, while control
//! glue (jumps) charges none; statement-entry and loop back-edge charges
//! become explicit `Op::Step` instructions.
//!
//! Errors the evaluator raises lazily at runtime (calling an unknown
//! procedure, reading an unbound variable, falling off the end of a
//! non-void procedure) compile to *error instructions* that fail only when
//! actually executed, preserving the evaluator's behaviour for code that is
//! present but never reached.
//!
//! Input programs must have passed [`ds_lang::typecheck`]: the register
//! allocator relies on the checker's declare-before-use discipline, so an
//! unchecked program that reads a variable before its (textually later)
//! binding would observe a zero instead of the evaluator's unbound-variable
//! error. All other error paths are preserved exactly.

use crate::value::Value;
use ds_lang::{
    BinOp, Block, Builtin, Elem, Expr, ExprKind, Program, Span, Stmt, StmtKind, Type, UnOp,
};
use ds_telemetry::StageMap;
use ds_telemetry::{FusedPair, FusionStats};
use std::collections::BTreeMap;

/// One bytecode instruction. Registers (`u32` fields) index the running
/// procedure's register window; `args_at` fields index its argument pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Charge `n` step-limit fuel (statement entry, loop back-edge,
    /// conditional-expression node).
    Step { n: u32 },
    /// Charge abstract cost (the `STORE_COST` of a declaration/assignment).
    Charge { cost: u32 },
    /// Load constant-pool entry `k` into `dst`.
    Const { dst: u32, k: u32 },
    /// Copy a register (a variable reference).
    Move { dst: u32, src: u32 },
    /// Apply a unary operator.
    Un { op: UnOp, dst: u32, src: u32 },
    /// Apply a binary operator.
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Conditional branch: falls through when `cond` is true. Charges
    /// `BRANCH_COST` and counts one branch decision either way.
    JumpIfFalse { cond: u32, target: u32 },
    /// Invoke a builtin on `argc` argument registers listed in the pool.
    CallBuiltin {
        b: Builtin,
        dst: u32,
        args_at: u32,
        argc: u32,
    },
    /// Invoke compiled procedure `callee` on `argc` pooled argument
    /// registers; its return value lands in `dst`.
    Call {
        callee: u32,
        dst: u32,
        args_at: u32,
        argc: u32,
    },
    /// Return a value from the current frame.
    Ret { src: u32 },
    /// Return without a value (void return or void fall-off).
    RetVoid,
    /// Fill register `dst` with a fresh `n`-element array, every element a
    /// copy of `src` (an array declaration's element fill). Charges no fuel
    /// (the statement-entry `Step` and the initializer's own instructions
    /// cover it); the element-store cost is a separate `Charge`.
    FillArray { dst: u32, src: u32, n: u32 },
    /// Bounds-checked array element read: `dst = arr[idx]`. Charges one
    /// fuel (the `Index` expression node) and `INDEX_COST`.
    LoadIndex { dst: u32, arr: u32, idx: u32 },
    /// Bounds-checked array element write: `arr[idx] = src`. Charges no
    /// fuel (the statement-entry `Step` covers it) and `INDEX_STORE_COST`.
    StoreIndex { arr: u32, idx: u32, src: u32 },
    /// Read a cache slot into `dst`. `elem` is the slot's declared scalar
    /// type, when it has one: the batch VM gives the lanes' column that
    /// type, and a lane whose slot holds another leaves lockstep alone.
    CacheRead {
        dst: u32,
        slot: u32,
        elem: Option<Elem>,
    },
    /// Store `src` into a cache slot (the value stays in `src`).
    CacheWrite { src: u32, slot: u32 },
    /// Profile-guided superinstruction: executes both constituents of
    /// `fused[pair]` back to back, then skips the *shadow slot* at the
    /// next pc. Fusion replaces only the first instruction of an adjacent
    /// pair; the second stays in place so jump targets landing on it keep
    /// the unfused semantics. Accounting (fuel, cost, [`Profile`]
    /// histogram entries, error spans) is charged per constituent, exactly
    /// as if the pair had executed unfused — fusion may only change wall
    /// time.
    ///
    /// [`Profile`]: crate::Profile
    Fused { pair: u32 },
    /// Lazily raise [`EvalError::UnknownProc`](crate::EvalError) for the
    /// pooled name.
    ErrUnknownProc { name_at: u32 },
    /// Lazily raise the evaluator's unbound-variable error for the pooled
    /// name.
    ErrUnbound { name_at: u32 },
    /// Control fell off the end of a non-void procedure.
    ErrMissingReturn,
}

/// One procedure lowered to bytecode.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProc {
    /// Source-level name (for error messages).
    pub name: String,
    /// Formal parameters, kept for call-time argument checking.
    pub params: Vec<(String, Type)>,
    /// Instruction stream; always terminated by `Ret`/`RetVoid`/`Err*`.
    pub code: Vec<Op>,
    /// Per-instruction source spans (dummy where irrelevant).
    pub spans: Vec<Span>,
    /// Argument-register pool referenced by `Call`/`CallBuiltin`.
    pub arg_pool: Vec<u32>,
    /// Register window size.
    pub nregs: u32,
    /// Constituents of each [`Op::Fused`] site, in selection order. Empty
    /// until [`fuse_hot_pairs`] runs.
    pub fused: Vec<(Fusible, Fusible)>,
}

/// One constituent of an [`Op::Fused`] superinstruction: the instructions
/// with uniform accounting — one fuel, a fixed cost, one histogram entry —
/// which keeps the fused handler's bookkeeping exactly equal to the
/// unfused pair's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fusible {
    /// [`Op::Un`].
    Un { op: UnOp, dst: u32, src: u32 },
    /// [`Op::Bin`].
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// [`Op::LoadIndex`].
    LoadIndex { dst: u32, arr: u32, idx: u32 },
}

impl Fusible {
    /// `op` as a fusion candidate, if it is one.
    fn of(op: &Op) -> Option<Fusible> {
        match *op {
            Op::Un { op, dst, src } => Some(Fusible::Un { op, dst, src }),
            Op::Bin { op, dst, lhs, rhs } => Some(Fusible::Bin { op, dst, lhs, rhs }),
            Op::LoadIndex { dst, arr, idx } => Some(Fusible::LoadIndex { dst, arr, idx }),
            _ => None,
        }
    }

    /// Mnemonic under which the instruction appears in
    /// [`Profile::op_histogram`](crate::Profile).
    fn mnemonic(self) -> &'static str {
        match self {
            Fusible::Un { op, .. } => op.mnemonic(),
            Fusible::Bin { op, .. } => op.mnemonic(),
            Fusible::LoadIndex { .. } => "idxload",
        }
    }
}

/// A whole program lowered to bytecode, ready for repeated execution by
/// [`Vm`](crate::vm::Vm).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ds_interp::{compile, EvalOptions, Value};
/// let prog = ds_lang::parse_program("float sq(float x) { return x * x; }")?;
/// ds_lang::typecheck(&prog)?;
/// let compiled = compile(&prog);
/// let out = compiled.run("sq", &[Value::Float(3.0)], None, EvalOptions::default())?;
/// assert_eq!(out.value, Some(Value::Float(9.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) procs: Vec<CompiledProc>,
    pub(crate) by_name: StageMap<String, usize>,
    /// Shared constant pool.
    pub(crate) consts: Vec<Value>,
    /// Interned names for lazy error instructions.
    pub(crate) names: Vec<String>,
    /// Stats from the last [`fuse_hot_pairs`] pass, if one ran.
    pub(crate) fusion: Option<FusionStats>,
}

impl CompiledProgram {
    /// Index of procedure `name`, if compiled.
    pub(crate) fn proc_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Names of all compiled procedures, in program order.
    pub fn proc_names(&self) -> impl Iterator<Item = &str> {
        self.procs.iter().map(|p| p.name.as_str())
    }

    /// Stats from the last [`fuse_hot_pairs`] pass over this program, or
    /// `None` if fusion never ran.
    pub fn fusion_stats(&self) -> Option<&FusionStats> {
        self.fusion.as_ref()
    }
}

/// Hashable identity of a constant (floats by bit pattern).
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    I(i64),
    F(u64),
    B(bool),
}

impl ConstKey {
    fn of(v: &Value) -> ConstKey {
        match v {
            Value::Int(i) => ConstKey::I(*i),
            Value::Float(f) => ConstKey::F(f.to_bits()),
            Value::Bool(b) => ConstKey::B(*b),
            // Arrays have no literal syntax, so they never reach the pool.
            Value::Array(_) => unreachable!("array values are never constants"),
        }
    }
}

/// Interning pools shared by every procedure of one program.
#[derive(Default)]
struct Pools {
    consts: Vec<Value>,
    const_ids: StageMap<ConstKey, u32>,
    names: Vec<String>,
    name_ids: StageMap<String, u32>,
}

impl Pools {
    fn konst(&mut self, v: Value) -> u32 {
        *self.const_ids.entry(ConstKey::of(&v)).or_insert_with(|| {
            self.consts.push(v);
            (self.consts.len() - 1) as u32
        })
    }

    fn name(&mut self, n: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(n) {
            return id;
        }
        self.names.push(n.to_string());
        let id = (self.names.len() - 1) as u32;
        self.name_ids.insert(n.to_string(), id);
        id
    }
}

/// Compiles every procedure of a type-checked program.
///
/// Compilation is total: constructs the evaluator reports lazily at run
/// time (unknown callees, unbound variables, missing returns) compile to
/// instructions that raise the same error when executed, so `compile`
/// itself cannot fail.
pub fn compile(program: &Program) -> CompiledProgram {
    let mut by_name: StageMap<String, usize> = StageMap::default();
    for (i, p) in program.procs.iter().enumerate() {
        // First definition wins, matching `Program::proc` lookup order.
        by_name.entry(p.name.clone()).or_insert(i);
    }
    let mut pools = Pools::default();
    let procs = program
        .procs
        .iter()
        .map(|p| {
            let mut fc = FnCompiler::new(&by_name, &mut pools);
            fc.lower(p)
        })
        .collect();
    CompiledProgram {
        procs,
        by_name,
        consts: pools.consts,
        names: pools.names,
        fusion: None,
    }
}

/// Counts the fusible opcodes of a compiled program by static occurrence.
///
/// A stand-in histogram for contexts with no runtime profile at hand
/// (`dsc explain` previews the fusion plan with it); when a real
/// [`Profile::op_histogram`](crate::Profile) from a representative run is
/// available, prefer it — it weights loop bodies by trip count.
pub fn static_op_histogram(prog: &CompiledProgram) -> BTreeMap<&'static str, u64> {
    let mut hist = BTreeMap::new();
    for p in &prog.procs {
        for op in &p.code {
            if let Some(f) = Fusible::of(op) {
                *hist.entry(f.mnemonic()).or_default() += 1;
            }
        }
    }
    hist
}

/// Default number of hottest pair kinds [`fuse_hot_pairs`] selects when
/// the caller has no tuning of its own (`dsc explain`, the bench harness
/// and the batch oracle all use it).
pub const DEFAULT_FUSION_TOP_K: usize = 4;

/// Profile-guided superinstruction fusion.
///
/// Scans every procedure for adjacent fusible instruction pairs
/// (unary/binary operators and array loads), scores each *pair kind* by
/// the summed hotness of its two mnemonics in `op_histogram`, and rewrites
/// all sites of the `top_k` hottest kinds into `Op::Fused`
/// superinstructions. The second instruction of each fused pair is left in
/// place as a shadow slot, so branches into the middle of a pair keep
/// their unfused meaning; sites are fused greedily left to right without
/// overlap.
///
/// Fusion is observationally invisible: values, traces, abstract cost,
/// fuel and [`Profile`](crate::Profile) counters are identical with and
/// without it (the batch differential suites enforce this). Only dispatch
/// count — and therefore wall time — changes.
pub fn fuse_hot_pairs(
    prog: &mut CompiledProgram,
    op_histogram: &BTreeMap<&'static str, u64>,
    top_k: usize,
) -> FusionStats {
    // Pass 1: score every adjacent fusible pair kind across the program.
    let mut kinds: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut candidate_sites = 0u64;
    for p in &prog.procs {
        for w in p.code.windows(2) {
            if let (Some(a), Some(b)) = (Fusible::of(&w[0]), Fusible::of(&w[1])) {
                let (a, b) = (a.mnemonic(), b.mnemonic());
                candidate_sites += 1;
                let score = op_histogram.get(a).copied().unwrap_or(0)
                    + op_histogram.get(b).copied().unwrap_or(0);
                let e = kinds.entry((a, b)).or_default();
                *e = (*e).max(score);
            }
        }
    }
    // Hottest kinds first; mnemonic order breaks ties deterministically.
    let mut ranked: Vec<((&'static str, &'static str), u64)> =
        kinds.into_iter().filter(|&(_, score)| score > 0).collect();
    ranked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    ranked.truncate(top_k);
    let chosen: Vec<(&'static str, &'static str)> = ranked.iter().map(|r| r.0).collect();

    // Pass 2: rewrite the sites, greedily and without overlap.
    let mut sites_per_kind: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut fused_sites = 0u64;
    for p in &mut prog.procs {
        let mut i = 0;
        while i + 1 < p.code.len() {
            let (a, b) = match (Fusible::of(&p.code[i]), Fusible::of(&p.code[i + 1])) {
                (Some(a), Some(b)) if chosen.contains(&(a.mnemonic(), b.mnemonic())) => (a, b),
                _ => {
                    i += 1;
                    continue;
                }
            };
            let pair = (a.mnemonic(), b.mnemonic());
            p.code[i] = Op::Fused {
                pair: p.fused.len() as u32,
            };
            p.fused.push((a, b));
            *sites_per_kind.entry(pair).or_default() += 1;
            fused_sites += 1;
            i += 2; // the shadow slot cannot start another fusion
        }
    }

    let stats = FusionStats {
        selected: ranked
            .into_iter()
            .map(|((a, b), score)| FusedPair {
                first: a.to_string(),
                second: b.to_string(),
                sites: sites_per_kind.get(&(a, b)).copied().unwrap_or(0),
                score,
            })
            .collect(),
        candidate_sites,
        fused_sites,
    };
    prog.fusion = Some(stats.clone());
    stats
}

/// Per-procedure lowering state.
struct FnCompiler<'a, 'p> {
    proc_ids: &'a StageMap<String, usize>,
    pools: &'a mut Pools,
    code: Vec<Op>,
    spans: Vec<Span>,
    arg_pool: Vec<u32>,
    /// Register of each variable, keyed on the procedure's own names.
    vars: StageMap<&'p str, u32>,
    /// Declared element count of each array-typed variable; a whole-array
    /// store charges one `STORE_COST` per element.
    array_lens: StageMap<&'p str, u32>,
    next_tmp: u32,
    max_reg: u32,
}

impl<'a, 'p> FnCompiler<'a, 'p> {
    fn new(proc_ids: &'a StageMap<String, usize>, pools: &'a mut Pools) -> Self {
        FnCompiler {
            proc_ids,
            pools,
            code: Vec::new(),
            spans: Vec::new(),
            arg_pool: Vec::new(),
            vars: StageMap::default(),
            array_lens: StageMap::default(),
            next_tmp: 0,
            max_reg: 0,
        }
    }

    fn lower(&mut self, proc: &'p ds_lang::Proc) -> CompiledProc {
        // Fixed registers: parameters first, then every name bound anywhere
        // in the body. MiniC blocks do not open scopes (names are unique per
        // procedure after type checking), so a flat name → register map
        // reproduces the evaluator's flat environment exactly.
        for param in &proc.params {
            let r = self.next_tmp;
            self.vars.insert(&param.name, r);
            self.next_tmp += 1;
        }
        proc.walk_stmts(&mut |s| {
            if let StmtKind::Decl { name, .. } | StmtKind::Assign { name, .. } = &s.kind {
                if !self.vars.contains_key(name.as_str()) {
                    self.vars.insert(name, self.next_tmp);
                    self.next_tmp += 1;
                }
            }
            if let StmtKind::Decl { name, ty, .. } = &s.kind {
                if let Some(n) = ty.array_len() {
                    self.array_lens.insert(name, n);
                }
            }
        });
        self.max_reg = self.next_tmp;

        self.block(&proc.body);
        // Fall-off epilogue: void procedures return `None`; anything else
        // reproduces the evaluator's `MissingReturn`.
        if proc.ret == Type::Void {
            self.emit(Op::RetVoid, Span::DUMMY);
        } else {
            self.emit(Op::ErrMissingReturn, Span::DUMMY);
        }

        CompiledProc {
            name: proc.name.clone(),
            params: proc.params.iter().map(|p| (p.name.clone(), p.ty)).collect(),
            code: std::mem::take(&mut self.code),
            spans: std::mem::take(&mut self.spans),
            arg_pool: std::mem::take(&mut self.arg_pool),
            nregs: self.max_reg,
            fused: Vec::new(),
        }
    }

    fn emit(&mut self, op: Op, span: Span) -> usize {
        self.code.push(op);
        self.spans.push(span);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Op::Jump { target: t } | Op::JumpIfFalse { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn alloc(&mut self) -> u32 {
        let r = self.next_tmp;
        self.next_tmp += 1;
        self.max_reg = self.max_reg.max(self.next_tmp);
        r
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let mark = self.next_tmp;
        // The evaluator charges one step on statement entry.
        self.emit(Op::Step { n: 1 }, s.span);
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let dst = self.vars[name.as_str()];
                match ty.array_len() {
                    Some(n) => {
                        // Element fill: evaluate the initializer once into
                        // a temp, then broadcast it into a fresh array.
                        let src = self.alloc();
                        self.expr_into(init, src);
                        self.emit(Op::FillArray { dst, src, n }, s.span);
                        self.emit(
                            Op::Charge {
                                cost: ds_lang::cost::STORE_COST as u32 * n,
                            },
                            s.span,
                        );
                    }
                    None => {
                        self.expr_into(init, dst);
                        self.emit(
                            Op::Charge {
                                cost: ds_lang::cost::STORE_COST as u32,
                            },
                            s.span,
                        );
                    }
                }
            }
            StmtKind::Assign { name, value, .. } => {
                let dst = self.vars[name.as_str()];
                self.expr_into(value, dst);
                // A whole-array copy/phi is n element stores.
                let n = self.array_lens.get(name.as_str()).copied().unwrap_or(1);
                self.emit(
                    Op::Charge {
                        cost: ds_lang::cost::STORE_COST as u32 * n,
                    },
                    s.span,
                );
            }
            StmtKind::ArrayAssign { name, index, value } => {
                let idx = self.alloc();
                self.expr_into(index, idx);
                let src = self.alloc();
                self.expr_into(value, src);
                if let Some(&arr) = self.vars.get(name.as_str()) {
                    self.emit(Op::StoreIndex { arr, idx, src }, s.span);
                } else {
                    // Index and value (and their effects) evaluate before
                    // the unbound lookup fails, exactly as in the evaluator.
                    let name_at = self.pools.name(name);
                    self.emit(Op::ErrUnbound { name_at }, s.span);
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.alloc();
                self.expr_into(cond, c);
                let jf = self.emit(Op::JumpIfFalse { cond: c, target: 0 }, cond.span);
                self.next_tmp = mark;
                self.block(then_blk);
                let jend = self.emit(Op::Jump { target: 0 }, Span::DUMMY);
                let else_at = self.here();
                self.patch(jf, else_at);
                self.block(else_blk);
                let end = self.here();
                self.patch(jend, end);
            }
            StmtKind::While { cond, body } => {
                let head = self.here();
                let c = self.alloc();
                self.expr_into(cond, c);
                let jf = self.emit(Op::JumpIfFalse { cond: c, target: 0 }, cond.span);
                self.next_tmp = mark;
                self.block(body);
                // The evaluator charges one extra step per completed
                // iteration (its loop `step()` after the body).
                self.emit(Op::Step { n: 1 }, s.span);
                self.emit(Op::Jump { target: head }, Span::DUMMY);
                let exit = self.here();
                self.patch(jf, exit);
            }
            StmtKind::Return(None) => {
                self.emit(Op::RetVoid, s.span);
            }
            StmtKind::Return(Some(e)) => {
                let r = self.alloc();
                self.expr_into(e, r);
                self.emit(Op::Ret { src: r }, s.span);
            }
            StmtKind::ExprStmt(e) => {
                let r = self.alloc();
                self.expr_into(e, r);
            }
        }
        self.next_tmp = mark;
    }

    /// Compiles `e` so that its value ends up in `dst`. Net temporary-
    /// register usage is zero: any temps allocated are released on return.
    fn expr_into(&mut self, e: &Expr, dst: u32) {
        let mark = self.next_tmp;
        match &e.kind {
            ExprKind::IntLit(v) => {
                let k = self.pools.konst(Value::Int(*v));
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::FloatLit(v) => {
                let k = self.pools.konst(Value::Float(*v));
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::BoolLit(v) => {
                let k = self.pools.konst(Value::Bool(*v));
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::Var(name) => {
                if let Some(&src) = self.vars.get(name.as_str()) {
                    self.emit(Op::Move { dst, src }, e.span);
                } else {
                    // Never bound anywhere in this procedure: reproduce the
                    // evaluator's lazy unbound-variable error.
                    let name_at = self.pools.name(name);
                    self.emit(Op::ErrUnbound { name_at }, e.span);
                }
            }
            ExprKind::Unary(op, operand) => {
                let src = self.alloc();
                self.expr_into(operand, src);
                self.emit(Op::Un { op: *op, dst, src }, e.span);
            }
            ExprKind::Binary(op, l, r) => {
                let lhs = self.alloc();
                self.expr_into(l, lhs);
                let rhs = self.alloc();
                self.expr_into(r, rhs);
                self.emit(
                    Op::Bin {
                        op: *op,
                        dst,
                        lhs,
                        rhs,
                    },
                    e.span,
                );
            }
            ExprKind::Cond(c, t, f) => {
                // The evaluator charges one step for the `Cond` node itself.
                self.emit(Op::Step { n: 1 }, e.span);
                let creg = self.alloc();
                self.expr_into(c, creg);
                let jf = self.emit(
                    Op::JumpIfFalse {
                        cond: creg,
                        target: 0,
                    },
                    c.span,
                );
                self.next_tmp = mark;
                self.expr_into(t, dst);
                let jend = self.emit(Op::Jump { target: 0 }, Span::DUMMY);
                let else_at = self.here();
                self.patch(jf, else_at);
                self.expr_into(f, dst);
                let end = self.here();
                self.patch(jend, end);
            }
            ExprKind::Call(name, args) => {
                let arg_regs: Vec<u32> = args
                    .iter()
                    .map(|a| {
                        let r = self.alloc();
                        self.expr_into(a, r);
                        r
                    })
                    .collect();
                let args_at = self.arg_pool.len() as u32;
                let argc = arg_regs.len() as u32;
                self.arg_pool.extend(arg_regs);
                // Builtins shadow user procedures, as in the evaluator.
                if let Some(b) = Builtin::from_name(name) {
                    self.emit(
                        Op::CallBuiltin {
                            b,
                            dst,
                            args_at,
                            argc,
                        },
                        e.span,
                    );
                } else if let Some(&callee) = self.proc_ids.get(name.as_str()) {
                    self.emit(
                        Op::Call {
                            callee: callee as u32,
                            dst,
                            args_at,
                            argc,
                        },
                        e.span,
                    );
                } else {
                    // Arguments (and their effects) evaluate before the
                    // lookup fails, exactly as in the evaluator.
                    let name_at = self.pools.name(name);
                    self.emit(Op::ErrUnknownProc { name_at }, e.span);
                }
            }
            ExprKind::Index { array, index } => {
                let idx = self.alloc();
                self.expr_into(index, idx);
                if let Some(&arr) = self.vars.get(array.as_str()) {
                    self.emit(Op::LoadIndex { dst, arr, idx }, e.span);
                } else {
                    let name_at = self.pools.name(array);
                    self.emit(Op::ErrUnbound { name_at }, e.span);
                }
            }
            ExprKind::CacheRef(slot, ty) => {
                let elem = Elem::from_type(*ty);
                self.emit(
                    Op::CacheRead {
                        dst,
                        slot: slot.0,
                        elem,
                    },
                    e.span,
                );
            }
            ExprKind::CacheStore(slot, inner) => {
                self.expr_into(inner, dst);
                self.emit(
                    Op::CacheWrite {
                        src: dst,
                        slot: slot.0,
                    },
                    e.span,
                );
            }
        }
        self.next_tmp = mark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::parse_program;

    fn compiled(src: &str) -> CompiledProgram {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        compile(&prog)
    }

    #[test]
    fn straight_line_shape() {
        let cp = compiled("float sq(float x) { return x * x; }");
        let p = &cp.procs[0];
        assert_eq!(p.name, "sq");
        assert_eq!(p.params.len(), 1);
        // Step(stmt), Move x, Move x, Mul, Ret, then the fall-off guard.
        assert!(matches!(p.code.last(), Some(Op::ErrMissingReturn)));
        assert!(p
            .code
            .iter()
            .any(|op| matches!(op, Op::Bin { op: BinOp::Mul, .. })));
        assert_eq!(p.code.len(), p.spans.len());
    }

    #[test]
    fn void_falloff_returns() {
        let cp = compiled("void f() { trace(1.0); }");
        let p = &cp.procs[0];
        assert!(matches!(p.code.last(), Some(Op::RetVoid)));
    }

    #[test]
    fn constants_are_interned() {
        let cp = compiled("float f(float x) { return x + 2.0 + 2.0 + 2.0; }");
        assert_eq!(cp.consts.len(), 1);
        assert_eq!(cp.consts[0], Value::Float(2.0));
    }

    #[test]
    fn unknown_callee_compiles_to_lazy_error() {
        // Bypasses the type checker deliberately: the evaluator only errors
        // when the call executes, and compiled code must match.
        let prog = parse_program("float f(float x) { return g(x); }").expect("parse");
        let cp = compile(&prog);
        let p = &cp.procs[0];
        assert!(p
            .code
            .iter()
            .any(|op| matches!(op, Op::ErrUnknownProc { .. })));
    }

    #[test]
    fn fusion_rewrites_hot_adjacent_pairs_with_shadow_slots() {
        let mut cp = compiled("float f(float x, float y) { return x + y * y; }");
        let hist = static_op_histogram(&cp);
        let stats = fuse_hot_pairs(&mut cp, &hist, 4);
        assert!(stats.fused_sites >= 1, "mul feeding add must fuse");
        assert!(stats.candidate_sites >= stats.fused_sites);
        let p = &cp.procs[0];
        let at = p
            .code
            .iter()
            .position(|op| matches!(op, Op::Fused { .. }))
            .expect("a fused site");
        let Op::Fused { pair } = p.code[at] else {
            unreachable!()
        };
        // The shadow slot still holds the second constituent verbatim, so
        // a jump landing on it executes the unfused tail.
        assert_eq!(Fusible::of(&p.code[at + 1]), Some(p.fused[pair as usize].1));
        assert_eq!(cp.fusion_stats().unwrap(), &stats);
    }

    #[test]
    fn fusion_with_cold_histogram_selects_nothing() {
        // Right-operand chaining puts the mul directly before the add;
        // `x * x + x` would not be adjacent (a Move loads the right operand).
        let mut cp = compiled("float f(float x) { return x + x * x; }");
        let stats = fuse_hot_pairs(&mut cp, &BTreeMap::new(), 4);
        assert_eq!(stats.fused_sites, 0);
        assert!(
            stats.candidate_sites >= 1,
            "adjacent mul/add is a candidate"
        );
        assert!(!cp.procs[0]
            .code
            .iter()
            .any(|op| matches!(op, Op::Fused { .. })));
    }

    #[test]
    fn top_k_zero_disables_fusion() {
        let mut cp = compiled("float f(float x) { return x + x * x; }");
        let hist = static_op_histogram(&cp);
        let stats = fuse_hot_pairs(&mut cp, &hist, 0);
        assert_eq!(stats.fused_sites, 0);
    }

    #[test]
    fn jumps_are_patched_in_bounds() {
        let cp = compiled(
            "float f(float x, int n) {
                 float acc = 0.0;
                 for (int i = 0; i < n; i = i + 1) {
                     if (x > 0.5) { acc = acc + x; } else { acc = acc - x; }
                 }
                 return acc;
             }",
        );
        let p = &cp.procs[0];
        for op in &p.code {
            if let Op::Jump { target } | Op::JumpIfFalse { target, .. } = op {
                assert!(
                    (*target as usize) <= p.code.len(),
                    "target {target} out of range"
                );
                assert_ne!(*target, 0, "unpatched jump");
            }
        }
    }
}
