//! The cost-metered tree-walking evaluator.
//!
//! This evaluator is the reproduction's measurement substrate, standing in
//! for the paper's Intel Pentium/100 + MSVC 4.0 testbed: alongside the result
//! it reports an abstract **cost** computed from the same per-operation
//! charges the static cost model uses (`ds_lang::cost`). Speedup ratios
//! between the original fragment, the cache loader and the cache reader are
//! therefore deterministic and platform-independent, while preserving the
//! paper's relative operation weights (`+`=1, `/`=9, memory reference
//! between a comparison and an add-multiply pair).

use crate::cache::CacheBuf;
use crate::error::EvalError;
use crate::noise;
use crate::value::Value;
use ds_lang::cost::{
    binop_cost, unop_cost, BRANCH_COST, CACHE_READ_COST, CACHE_STORE_COST, INDEX_COST,
    INDEX_STORE_COST, STORE_COST,
};
use ds_lang::{BinOp, Block, Builtin, Expr, ExprKind, Proc, Program, Stmt, StmtKind, Type, UnOp};
use std::collections::HashMap;

/// Cost charged for invoking a (non-inlined) user procedure.
pub const CALL_COST: u64 = 2;

/// Evaluator configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Maximum number of evaluation steps before [`EvalError::StepLimit`];
    /// protects property tests against runaway loops.
    pub step_limit: u64,
    /// Collect a per-operation [`Profile`] alongside the cost. Off by
    /// default (it adds hash-map traffic per call).
    pub profile: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            step_limit: 50_000_000,
            profile: false,
        }
    }
}

/// An execution profile: how often each operation class ran.
///
/// The specializer's whole point is *which computations the reader avoids*;
/// profiles make that directly observable (e.g. a reader whose partition
/// caches the noise field must execute zero `fbm3` calls).
///
/// Profiles are **deterministic** (all maps are ordered, so iteration and
/// any dumped output are stable) and **mergeable** ([`Profile::merge`]), so
/// a batch of runs aggregates into one metrics object. Both execution
/// engines collect identical profiles for the same program — the
/// differential suite enforces field-for-field equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Builtin invocations by name.
    pub builtin_calls: std::collections::BTreeMap<&'static str, u64>,
    /// Executed operations by opcode mnemonic (`"add"`, `"div"`, `"neg"`,
    /// ...): the abstract-opcode histogram, identical between the tree
    /// walker and the bytecode VM.
    pub op_histogram: std::collections::BTreeMap<&'static str, u64>,
    /// Binary/unary arithmetic and comparison operations executed.
    pub ops: u64,
    /// Branch decisions taken (if/while/ternary).
    pub branches: u64,
    /// Cache slot reads (every successful read is a hit; a miss is the
    /// [`EvalError::UnfilledSlot`] error, never a silent fallback).
    pub cache_reads: u64,
    /// Cache slot writes.
    pub cache_writes: u64,
    /// Evaluation steps consumed (fuel charged against
    /// [`EvalOptions::step_limit`]).
    pub steps: u64,
    /// Total abstract cost charged, duplicated from [`Outcome::cost`] so a
    /// profile is self-contained once exported.
    pub cost: u64,
    /// Loader re-runs triggered by the staged-execution runtime (stale
    /// invariants, failed validation, reader recovery). Always 0 for a bare
    /// engine run; `ds-runtime`'s `Session` fills it in.
    pub rebuilds: u64,
    /// Requests the runtime served by falling back to the unspecialized
    /// fragment. Always 0 for a bare engine run.
    pub fallbacks: u64,
    /// Cache integrity validations that failed (tampered slot, seal
    /// mismatch, truncated buffer). Always 0 for a bare engine run.
    pub validation_failures: u64,
    /// Requests whose invariant fingerprint was served from a shared
    /// `CacheStore` entry built by an earlier load (possibly by another
    /// session). Always 0 for a bare engine run.
    pub store_hits: u64,
    /// Requests whose invariant fingerprint was absent from the shared
    /// `CacheStore`, forcing a loader run. Always 0 for a bare engine run.
    pub store_misses: u64,
    /// Sealed cache entries evicted from the shared `CacheStore` to keep it
    /// within its configured capacity. Always 0 for a bare engine run.
    pub store_evictions: u64,
    /// Operations appended to an attached write-ahead log (installs and
    /// invalidations). Always 0 for a bare engine run.
    pub wal_appends: u64,
    /// Log records replayed during a recovery this session adopted. Always
    /// 0 for a bare engine run.
    pub wal_replays: u64,
    /// Sealed caches installed from a recovery instead of a loader re-run.
    /// Always 0 for a bare engine run.
    pub recovered_caches: u64,
}

impl Profile {
    /// Invocations of builtin `name` (0 when never called).
    pub fn calls(&self, name: &str) -> u64 {
        self.builtin_calls.get(name).copied().unwrap_or(0)
    }

    /// Accumulates `other` into `self`, key-wise for the histograms and
    /// additively for every counter. `merge` is associative and
    /// commutative, so batch aggregation order does not matter.
    pub fn merge(&mut self, other: &Profile) {
        for (name, n) in &other.builtin_calls {
            *self.builtin_calls.entry(name).or_default() += n;
        }
        for (op, n) in &other.op_histogram {
            *self.op_histogram.entry(op).or_default() += n;
        }
        self.ops += other.ops;
        self.branches += other.branches;
        self.cache_reads += other.cache_reads;
        self.cache_writes += other.cache_writes;
        self.steps += other.steps;
        self.cost += other.cost;
        self.rebuilds += other.rebuilds;
        self.fallbacks += other.fallbacks;
        self.validation_failures += other.validation_failures;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_evictions += other.store_evictions;
        self.wal_appends += other.wal_appends;
        self.wal_replays += other.wal_replays;
        self.recovered_caches += other.recovered_caches;
    }

    /// Aggregates every profile in `profiles` into one (batch shape:
    /// `Profile::merged(outcomes.iter().filter_map(|o| o.profile.as_ref()))`).
    pub fn merged<'a, I: IntoIterator<Item = &'a Profile>>(profiles: I) -> Profile {
        let mut acc = Profile::default();
        for p in profiles {
            acc.merge(p);
        }
        acc
    }

    /// The paper's notion of dynamic work: arithmetic plus branches plus
    /// builtin invocations (cache traffic is the *replacement* for work, so
    /// it is excluded — a reader that only reads slots did ~no work).
    pub fn total_dynamic_work(&self) -> u64 {
        let builtins: u64 = self.builtin_calls.values().sum();
        self.ops + self.branches + builtins
    }

    /// Serializes the profile as a JSON object (schema v1 `profile` shape).
    pub fn to_json(&self) -> ds_telemetry::Json {
        use ds_telemetry::Json;
        let map = |m: &std::collections::BTreeMap<&'static str, u64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect(),
            )
        };
        Json::obj([
            ("builtin_calls", map(&self.builtin_calls)),
            ("op_histogram", map(&self.op_histogram)),
            ("ops", Json::from(self.ops)),
            ("branches", Json::from(self.branches)),
            ("cache_reads", Json::from(self.cache_reads)),
            ("cache_writes", Json::from(self.cache_writes)),
            ("steps", Json::from(self.steps)),
            ("cost", Json::from(self.cost)),
            ("total_dynamic_work", Json::from(self.total_dynamic_work())),
            ("rebuilds", Json::from(self.rebuilds)),
            ("fallbacks", Json::from(self.fallbacks)),
            ("validation_failures", Json::from(self.validation_failures)),
            ("store_hits", Json::from(self.store_hits)),
            ("store_misses", Json::from(self.store_misses)),
            ("store_evictions", Json::from(self.store_evictions)),
            ("wal_appends", Json::from(self.wal_appends)),
            ("wal_replays", Json::from(self.wal_replays)),
            ("recovered_caches", Json::from(self.recovered_caches)),
        ])
    }
}

/// The result of running a procedure: value, charged cost, and the trace log
/// appended to by the `trace` builtin.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The returned value (`None` for void procedures).
    pub value: Option<Value>,
    /// Total abstract cost charged.
    pub cost: u64,
    /// Values passed to `trace(...)`, in execution order. A correct
    /// specialization preserves this sequence (global effects are Rule-2
    /// dynamic), so tests compare it alongside the result.
    pub trace: Vec<f64>,
    /// Per-operation counts; `None` unless [`EvalOptions::profile`] is set.
    /// Boxed so an unprofiled outcome stays small: outcomes are returned by
    /// every run and queued by the daemon's response channel.
    pub profile: Option<Box<Profile>>,
}

/// A reusable evaluator for one program.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ds_interp::{Evaluator, Value};
/// let prog = ds_lang::parse_program("float sq(float x) { return x * x; }")?;
/// let out = Evaluator::new(&prog).run("sq", &[Value::Float(3.0)])?;
/// assert_eq!(out.value, Some(Value::Float(9.0)));
/// assert!(out.cost > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Evaluator<'p> {
    program: &'p Program,
    opts: EvalOptions,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator with default options.
    pub fn new(program: &'p Program) -> Self {
        Evaluator {
            program,
            opts: EvalOptions::default(),
        }
    }

    /// Creates an evaluator with explicit options.
    pub fn with_options(program: &'p Program, opts: EvalOptions) -> Self {
        Evaluator { program, opts }
    }

    /// Runs procedure `name` on `args` with no cache attached.
    ///
    /// # Errors
    ///
    /// See [`EvalError`]; notably, evaluating a `CacheRef`/`CacheStore`
    /// without a cache fails with [`EvalError::NoCache`].
    pub fn run(&self, name: &str, args: &[Value]) -> Result<Outcome, EvalError> {
        self.run_impl(name, args, None)
    }

    /// Runs procedure `name` on `args` with `cache` attached: `CacheStore`
    /// expressions fill it and `CacheRef` expressions read it.
    ///
    /// # Errors
    ///
    /// In addition to the plain-run errors, reading a slot the cache does
    /// not hold fails with [`EvalError::UnfilledSlot`].
    pub fn run_with_cache(
        &self,
        name: &str,
        args: &[Value],
        cache: &mut CacheBuf,
    ) -> Result<Outcome, EvalError> {
        self.run_impl(name, args, Some(cache))
    }

    /// Runs a standalone procedure (e.g. a loader/reader not belonging to
    /// `program`), resolving any user calls against this evaluator's program.
    pub fn run_proc(
        &self,
        proc: &Proc,
        args: &[Value],
        cache: Option<&mut CacheBuf>,
    ) -> Result<Outcome, EvalError> {
        let mut st = State {
            program: self.program,
            fuel: self.opts.step_limit,
            cost: 0,
            trace: Vec::new(),
            profile: self.opts.profile.then(Profile::default),
            cache,
        };
        let value = st.call(proc, args)?;
        if let Some(p) = &mut st.profile {
            p.steps = self.opts.step_limit - st.fuel;
            p.cost = st.cost;
        }
        Ok(Outcome {
            value,
            cost: st.cost,
            trace: st.trace,
            profile: st.profile.map(Box::new),
        })
    }

    fn run_impl(
        &self,
        name: &str,
        args: &[Value],
        cache: Option<&mut CacheBuf>,
    ) -> Result<Outcome, EvalError> {
        let proc = self
            .program
            .proc(name)
            .ok_or_else(|| EvalError::UnknownProc(name.to_string()))?;
        self.run_proc(proc, args, cache)
    }
}

struct State<'p, 'c> {
    program: &'p Program,
    fuel: u64,
    cost: u64,
    trace: Vec<f64>,
    profile: Option<Profile>,
    cache: Option<&'c mut CacheBuf>,
}

/// Statement outcome: did the statement return?
enum Flow {
    Next,
    Return(Option<Value>),
}

impl<'p, 'c> State<'p, 'c> {
    fn step(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::StepLimit);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn call(&mut self, proc: &Proc, args: &[Value]) -> Result<Option<Value>, EvalError> {
        if args.len() != proc.params.len() {
            return Err(EvalError::BadArguments {
                proc: proc.name.clone(),
                detail: format!(
                    "expected {} argument(s), got {}",
                    proc.params.len(),
                    args.len()
                ),
            });
        }
        let mut env = HashMap::with_capacity(proc.params.len() * 2);
        for (param, arg) in proc.params.iter().zip(args) {
            if param.ty != arg.ty() {
                return Err(EvalError::BadArguments {
                    proc: proc.name.clone(),
                    detail: format!(
                        "parameter `{}` expects `{}`, got `{}`",
                        param.name,
                        param.ty,
                        arg.ty()
                    ),
                });
            }
            env.insert(param.name.clone(), arg.clone());
        }
        match self.block(&proc.body, &mut env)? {
            Flow::Return(v) => Ok(v),
            Flow::Next if proc.ret == Type::Void => Ok(None),
            Flow::Next => Err(EvalError::MissingReturn(proc.name.clone())),
        }
    }

    fn block(&mut self, b: &Block, env: &mut HashMap<String, Value>) -> Result<Flow, EvalError> {
        for s in &b.stmts {
            if let Flow::Return(v) = self.stmt(s, env)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Next)
    }

    fn stmt(&mut self, s: &Stmt, env: &mut HashMap<String, Value>) -> Result<Flow, EvalError> {
        self.step()?;
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                // An array declaration evaluates its initializer once and
                // fills every element with the value (n element stores).
                let v = self.expr(init, env)?;
                let v = match ty.array_len() {
                    Some(n) => {
                        self.cost += STORE_COST * n as u64;
                        Value::Array(vec![v; n as usize])
                    }
                    None => {
                        self.cost += STORE_COST;
                        v
                    }
                };
                env.insert(name.clone(), v);
                Ok(Flow::Next)
            }
            StmtKind::Assign { name, value, .. } => {
                let v = self.expr(value, env)?;
                // A whole-array assignment (copy or pseudo-phi) is n
                // element stores; scalars cost one.
                self.cost += match &v {
                    Value::Array(elems) => STORE_COST * elems.len() as u64,
                    _ => STORE_COST,
                };
                env.insert(name.clone(), v);
                Ok(Flow::Next)
            }
            StmtKind::ArrayAssign { name, index, value } => {
                let iv = self.expr(index, env)?;
                let vv = self.expr(value, env)?;
                self.cost += INDEX_STORE_COST;
                if let Some(p) = &mut self.profile {
                    p.ops += 1;
                    *p.op_histogram.entry("idxstore").or_default() += 1;
                }
                let i = iv.as_int().ok_or(EvalError::TypeMismatch {
                    expected: Type::Int,
                    span: s.span,
                })?;
                let Some(binding) = env.get_mut(name) else {
                    // Unreachable for type-checked programs.
                    return Err(EvalError::BadArguments {
                        proc: String::new(),
                        detail: format!("unbound variable `{name}`"),
                    });
                };
                let Value::Array(elems) = binding else {
                    return Err(EvalError::TypeMismatch {
                        expected: Type::Int,
                        span: s.span,
                    });
                };
                if i < 0 || i as usize >= elems.len() {
                    return Err(EvalError::IndexOutOfBounds {
                        index: i,
                        len: elems.len(),
                        span: s.span,
                    });
                }
                elems[i as usize] = vv;
                Ok(Flow::Next)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.expr_bool(cond, env)?;
                self.cost += BRANCH_COST;
                if let Some(p) = &mut self.profile {
                    p.branches += 1;
                }
                if c {
                    self.block(then_blk, env)
                } else {
                    self.block(else_blk, env)
                }
            }
            StmtKind::While { cond, body } => loop {
                let c = self.expr_bool(cond, env)?;
                self.cost += BRANCH_COST;
                if let Some(p) = &mut self.profile {
                    p.branches += 1;
                }
                if !c {
                    return Ok(Flow::Next);
                }
                if let Flow::Return(v) = self.block(body, env)? {
                    return Ok(Flow::Return(v));
                }
                self.step()?;
            },
            StmtKind::Return(None) => Ok(Flow::Return(None)),
            StmtKind::Return(Some(e)) => {
                let v = self.expr(e, env)?;
                Ok(Flow::Return(Some(v)))
            }
            StmtKind::ExprStmt(e) => {
                self.expr(e, env)?;
                Ok(Flow::Next)
            }
        }
    }

    fn expr_bool(&mut self, e: &Expr, env: &mut HashMap<String, Value>) -> Result<bool, EvalError> {
        self.expr(e, env)?.as_bool().ok_or(EvalError::TypeMismatch {
            expected: Type::Bool,
            span: e.span,
        })
    }

    fn expr(&mut self, e: &Expr, env: &mut HashMap<String, Value>) -> Result<Value, EvalError> {
        self.step()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::BoolLit(v) => Ok(Value::Bool(*v)),
            ExprKind::Var(name) => env.get(name).cloned().ok_or_else(|| {
                // Unreachable for type-checked programs.
                EvalError::BadArguments {
                    proc: String::new(),
                    detail: format!("unbound variable `{name}`"),
                }
            }),
            ExprKind::Unary(op, operand) => {
                let v = self.expr(operand, env)?;
                self.cost += unop_cost(*op);
                if let Some(p) = &mut self.profile {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                apply_unop(*op, v, e)
            }
            ExprKind::Binary(op, l, r) => {
                let lv = self.expr(l, env)?;
                let rv = self.expr(r, env)?;
                self.cost += binop_cost(*op);
                if let Some(p) = &mut self.profile {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                apply_binop(*op, lv, rv, e)
            }
            ExprKind::Cond(c, t, f) => {
                let cv = self
                    .expr(c, env)?
                    .as_bool()
                    .ok_or(EvalError::TypeMismatch {
                        expected: Type::Bool,
                        span: c.span,
                    })?;
                self.cost += BRANCH_COST;
                if let Some(p) = &mut self.profile {
                    p.branches += 1;
                }
                if cv {
                    self.expr(t, env)
                } else {
                    self.expr(f, env)
                }
            }
            ExprKind::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, env)?);
                }
                if let Some(b) = Builtin::from_name(name) {
                    self.cost += b.cost();
                    if let Some(p) = &mut self.profile {
                        *p.builtin_calls.entry(b.name()).or_default() += 1;
                    }
                    self.apply_builtin(b, &vals, e)
                } else {
                    let callee = self
                        .program
                        .proc(name)
                        .ok_or_else(|| EvalError::UnknownProc(name.clone()))?;
                    self.cost += CALL_COST;
                    let ret = self.call(callee, &vals)?;
                    ret.ok_or(EvalError::TypeMismatch {
                        expected: Type::Void,
                        span: e.span,
                    })
                }
            }
            ExprKind::Index { array, index } => {
                let iv = self.expr(index, env)?;
                self.cost += INDEX_COST;
                if let Some(p) = &mut self.profile {
                    p.ops += 1;
                    *p.op_histogram.entry("idxload").or_default() += 1;
                }
                let i = iv.as_int().ok_or(EvalError::TypeMismatch {
                    expected: Type::Int,
                    span: e.span,
                })?;
                match env.get(array) {
                    Some(Value::Array(elems)) => {
                        if i < 0 || i as usize >= elems.len() {
                            return Err(EvalError::IndexOutOfBounds {
                                index: i,
                                len: elems.len(),
                                span: e.span,
                            });
                        }
                        Ok(elems[i as usize].clone())
                    }
                    // Both unreachable for type-checked programs.
                    Some(_) => Err(EvalError::TypeMismatch {
                        expected: Type::Int,
                        span: e.span,
                    }),
                    None => Err(EvalError::BadArguments {
                        proc: String::new(),
                        detail: format!("unbound variable `{array}`"),
                    }),
                }
            }
            ExprKind::CacheRef(slot, _) => {
                self.cost += CACHE_READ_COST;
                if let Some(p) = &mut self.profile {
                    p.cache_reads += 1;
                }
                let cache = self.cache.as_deref().ok_or(EvalError::NoCache(e.span))?;
                cache.get(slot.index()).ok_or(EvalError::UnfilledSlot {
                    slot: slot.index(),
                    span: e.span,
                })
            }
            ExprKind::CacheStore(slot, inner) => {
                let v = self.expr(inner, env)?;
                self.cost += CACHE_STORE_COST;
                if let Some(p) = &mut self.profile {
                    p.cache_writes += 1;
                }
                let cache = self
                    .cache
                    .as_deref_mut()
                    .ok_or(EvalError::NoCache(e.span))?;
                cache.try_set(slot.index(), v.clone()).map_err(
                    |crate::cache::CacheError::OutOfBounds { slot, len }| {
                        EvalError::CacheOutOfBounds {
                            slot,
                            len,
                            span: e.span,
                        }
                    },
                )?;
                Ok(v)
            }
        }
    }

    fn apply_builtin(&mut self, b: Builtin, args: &[Value], e: &Expr) -> Result<Value, EvalError> {
        apply_builtin_at(b, args, e.span, &mut self.trace)
    }
}

/// The typed error of a call to builtin `b` whose arguments have types
/// `tys`, or `None` when they match its signature: a wrong argument count
/// is `BadArguments`, as for a user procedure, and the first wrong type a
/// `TypeMismatch` naming the type the builtin expected there.
///
/// The type checker rules both out, so only a hand-built AST reaches
/// them; every engine raises the same error.
pub(crate) fn builtin_arg_error(
    b: Builtin,
    tys: impl ExactSizeIterator<Item = Type>,
    span: ds_lang::Span,
) -> Option<EvalError> {
    let params = b.param_types();
    if tys.len() != params.len() {
        return Some(builtin_arity_error(b, tys.len()));
    }
    tys.zip(params)
        .find(|(ty, want)| ty != *want)
        .map(|(_, &expected)| EvalError::TypeMismatch { expected, span })
}

/// A call to builtin `b` with `got` arguments, a wrong count.
fn builtin_arity_error(b: Builtin, got: usize) -> EvalError {
    EvalError::BadArguments {
        proc: b.name().to_string(),
        detail: format!("expected {} argument(s), got {got}", b.param_types().len()),
    }
}

/// Applies builtin `b` to `args` at `span`, with `trace`'s effect on
/// `trace`: the exact semantics every engine shares, including the typed
/// error of [`builtin_arg_error`] for ill-typed arguments.
pub(crate) fn apply_builtin_at(
    b: Builtin,
    args: &[Value],
    span: ds_lang::Span,
    trace: &mut Vec<f64>,
) -> Result<Value, EvalError> {
    let v = try_builtin(b, args, span)?;
    if let (Builtin::Trace, Value::Float(x)) = (b, &v) {
        trace.push(*x);
    }
    Ok(v)
}

/// Applies a side-effect-free builtin to fully evaluated arguments.
///
/// Returns `None` for `trace` (whose effect needs an evaluator) and for
/// arguments that do not match the builtin's signature — callers such as
/// the code-specialization baseline use this to constant-fold with
/// semantics identical to the evaluator's, and leave anything else to run
/// time.
pub fn apply_pure_builtin(b: Builtin, args: &[Value]) -> Option<Value> {
    if b == Builtin::Trace {
        return None;
    }
    try_builtin(b, args, ds_lang::Span::DUMMY).ok()
}

/// Builtin `b` over `args`, without `trace`'s effect, or the error of
/// [`builtin_arg_error`]: the arity is checked first, and each argument
/// as it is read, in order.
pub(crate) fn try_builtin(
    b: Builtin,
    args: &[Value],
    span: ds_lang::Span,
) -> Result<Value, EvalError> {
    if args.len() != b.param_types().len() {
        return Err(builtin_arity_error(b, args.len()));
    }
    let f = |i: usize| {
        args[i].as_float().ok_or(EvalError::TypeMismatch {
            expected: Type::Float,
            span,
        })
    };
    let i = |i: usize| {
        args[i].as_int().ok_or(EvalError::TypeMismatch {
            expected: Type::Int,
            span,
        })
    };
    Ok(match b {
        Builtin::Sin => Value::Float(f(0)?.sin()),
        Builtin::Cos => Value::Float(f(0)?.cos()),
        Builtin::Tan => Value::Float(f(0)?.tan()),
        Builtin::Sqrt => Value::Float(f(0)?.sqrt()),
        Builtin::Exp => Value::Float(f(0)?.exp()),
        Builtin::Log => Value::Float(f(0)?.ln()),
        Builtin::Pow => Value::Float(f(0)?.powf(f(1)?)),
        Builtin::Floor => Value::Float(f(0)?.floor()),
        Builtin::Abs => Value::Float(f(0)?.abs()),
        Builtin::Sign => Value::Float(if f(0)? > 0.0 {
            1.0
        } else if f(0)? < 0.0 {
            -1.0
        } else {
            0.0
        }),
        Builtin::Min => Value::Float(f(0)?.min(f(1)?)),
        Builtin::Max => Value::Float(f(0)?.max(f(1)?)),
        Builtin::Clamp => {
            let (x, lo, hi) = (f(0)?, f(1)?.min(f(2)?), f(2)?.max(f(1)?));
            // min/max select the non-NaN bound, so `lo` is NaN only when
            // both bounds are — where std's clamp would panic, not a
            // luxury a fuzzed interpreter has. Pass the value through.
            Value::Float(if lo.is_nan() { x } else { x.clamp(lo, hi) })
        }
        Builtin::Lerp => Value::Float(f(0)? + (f(1)? - f(0)?) * f(2)?),
        Builtin::Smoothstep => {
            let (e0, e1, x) = (f(0)?, f(1)?, f(2)?);
            let t = if e0 == e1 {
                if x < e0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                ((x - e0) / (e1 - e0)).clamp(0.0, 1.0)
            };
            Value::Float(t * t * (3.0 - 2.0 * t))
        }
        Builtin::Step => Value::Float(if f(1)? < f(0)? { 0.0 } else { 1.0 }),
        Builtin::Fmod => {
            // C-style fmod: result has the sign of the dividend; NaN on
            // zero divisor, as in IEEE.
            Value::Float(f(0)? % f(1)?)
        }
        Builtin::Noise1 => Value::Float(noise::noise1(f(0)?)),
        Builtin::Noise2 => Value::Float(noise::noise2(f(0)?, f(1)?)),
        Builtin::Noise3 => Value::Float(noise::noise3(f(0)?, f(1)?, f(2)?)),
        Builtin::Fbm3 => Value::Float(noise::fbm3(f(0)?, f(1)?, f(2)?, i(3)?)),
        Builtin::Turb3 => Value::Float(noise::turb3(f(0)?, f(1)?, f(2)?, i(3)?)),
        Builtin::Itof => Value::Float(i(0)? as f64),
        Builtin::Ftoi => {
            let x = f(0)?;
            if x.is_nan() {
                Value::Int(0)
            } else {
                Value::Int(x.clamp(i64::MIN as f64, i64::MAX as f64) as i64)
            }
        }
        // The value of `trace(x)` is `x`; its effect is the caller's.
        Builtin::Trace => Value::Float(f(0)?),
    })
}

/// Applies a unary operator with the evaluator's exact semantics; `e`
/// supplies the span for error reporting.
pub fn apply_unop(op: UnOp, v: Value, e: &Expr) -> Result<Value, EvalError> {
    apply_unop_at(op, v, e.span)
}

/// [`apply_unop`] with an explicit error span, for callers (such as the
/// bytecode VM) that no longer hold the originating AST node.
pub fn apply_unop_at(op: UnOp, v: Value, span: ds_lang::Span) -> Result<Value, EvalError> {
    let ty = v.ty();
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        _ => Err(EvalError::TypeMismatch { expected: ty, span }),
    }
}

/// Applies a binary operator with the evaluator's exact semantics (wrapping
/// integers, IEEE floats, error on integer division by zero); `e` supplies
/// the span for error reporting.
pub fn apply_binop(op: BinOp, l: Value, r: Value, e: &Expr) -> Result<Value, EvalError> {
    apply_binop_at(op, l, r, e.span)
}

/// [`apply_binop`] with an explicit error span, for callers (such as the
/// bytecode VM) that no longer hold the originating AST node.
pub fn apply_binop_at(
    op: BinOp,
    l: Value,
    r: Value,
    span: ds_lang::Span,
) -> Result<Value, EvalError> {
    use BinOp::*;
    use Value::*;
    let lty = l.ty();
    let mismatch = || EvalError::TypeMismatch {
        expected: lty,
        span,
    };
    Ok(match (op, l, r) {
        // Integer arithmetic wraps (like release-mode C on two's complement).
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(b)),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(b)),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(b)),
        (Div, Int(a), Int(b)) => {
            if b == 0 {
                return Err(EvalError::DivideByZero(span));
            }
            Int(a.wrapping_div(b))
        }
        (Rem, Int(a), Int(b)) => {
            if b == 0 {
                return Err(EvalError::DivideByZero(span));
            }
            Int(a.wrapping_rem(b))
        }
        // Float arithmetic follows IEEE (division by zero yields ±inf).
        (Add, Float(a), Float(b)) => Float(a + b),
        (Sub, Float(a), Float(b)) => Float(a - b),
        (Mul, Float(a), Float(b)) => Float(a * b),
        (Div, Float(a), Float(b)) => Float(a / b),
        (Lt, Int(a), Int(b)) => Bool(a < b),
        (Le, Int(a), Int(b)) => Bool(a <= b),
        (Gt, Int(a), Int(b)) => Bool(a > b),
        (Ge, Int(a), Int(b)) => Bool(a >= b),
        (Lt, Float(a), Float(b)) => Bool(a < b),
        (Le, Float(a), Float(b)) => Bool(a <= b),
        (Gt, Float(a), Float(b)) => Bool(a > b),
        (Ge, Float(a), Float(b)) => Bool(a >= b),
        (Eq, Int(a), Int(b)) => Bool(a == b),
        (Ne, Int(a), Int(b)) => Bool(a != b),
        (Eq, Float(a), Float(b)) => Bool(a == b),
        (Ne, Float(a), Float(b)) => Bool(a != b),
        (Eq, Bool(a), Bool(b)) => Bool(a == b),
        (Ne, Bool(a), Bool(b)) => Bool(a != b),
        _ => return Err(mismatch()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::parse_program;

    fn run(src: &str, proc: &str, args: &[Value]) -> Outcome {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        Evaluator::new(&prog).run(proc, args).expect("eval")
    }

    #[test]
    fn arithmetic_and_control() {
        let out = run(
            "int fact_iter(int n) {
                 int acc = 1;
                 for (int i = 2; i <= n; i = i + 1) { acc = acc * i; }
                 return acc;
             }",
            "fact_iter",
            &[Value::Int(6)],
        );
        assert_eq!(out.value, Some(Value::Int(720)));
    }

    #[test]
    fn dotprod_from_paper_runs() {
        let src = "float dotprod(float x1, float y1, float z1,
                                 float x2, float y2, float z2, float scale) {
                        if (scale != 0.0) {
                            return (x1*x2 + y1*y2 + z1*z2) / scale;
                        } else {
                            return -1.0;
                        }
                    }";
        let args: Vec<Value> = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.0]
            .iter()
            .map(|&v| Value::Float(v))
            .collect();
        let out = run(src, "dotprod", &args);
        assert_eq!(out.value, Some(Value::Float(16.0)));
        // compare 1 + branch 1 + three muls (2 each) + two adds + div 9 = 19.
        assert_eq!(out.cost, 19);
    }

    #[test]
    fn cost_scales_with_iterations() {
        let src = "float f(int n) {
                       float acc = 0.0;
                       for (int i = 0; i < n; i = i + 1) { acc = acc + 1.5; }
                       return acc;
                   }";
        let prog = parse_program(src).unwrap();
        let ev = Evaluator::new(&prog);
        let c10 = ev.run("f", &[Value::Int(10)]).unwrap().cost;
        let c20 = ev.run("f", &[Value::Int(20)]).unwrap().cost;
        assert!(c20 > c10);
        // Per-iteration cost is constant: the deltas match.
        let c30 = ev.run("f", &[Value::Int(30)]).unwrap().cost;
        assert_eq!(c30 - c20, c20 - c10);
    }

    #[test]
    fn short_circuit_does_not_divide() {
        // `b != 0.0 && a / b > 1.0` desugars to a Cond; the division is
        // skipped when b == 0, so no inf contaminates anything.
        let out = run(
            "bool f(float a, float b) { return b != 0.0 && a / b > 1.0; }",
            "f",
            &[Value::Float(1.0), Value::Float(0.0)],
        );
        assert_eq!(out.value, Some(Value::Bool(false)));
    }

    #[test]
    fn integer_division_by_zero_errors() {
        let prog = parse_program("int f(int a, int b) { return a / b; }").unwrap();
        let err = Evaluator::new(&prog)
            .run("f", &[Value::Int(1), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, EvalError::DivideByZero(_)));
    }

    #[test]
    fn float_division_by_zero_is_ieee() {
        let out = run(
            "float f(float a) { return a / 0.0; }",
            "f",
            &[Value::Float(1.0)],
        );
        assert_eq!(out.value, Some(Value::Float(f64::INFINITY)));
    }

    #[test]
    fn trace_appends_in_order() {
        let out = run(
            "void f() { trace(1.0); trace(2.0); if (true) { trace(3.0); } return; }",
            "f",
            &[],
        );
        assert_eq!(out.trace, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn user_calls_work() {
        let out = run(
            "float half(float x) { return x / 2.0; }
             float f(float x) { return half(x) + half(1.0); }",
            "f",
            &[Value::Float(4.0)],
        );
        assert_eq!(out.value, Some(Value::Float(2.5)));
    }

    #[test]
    fn step_limit_catches_runaway_loops() {
        let prog = parse_program("void f() { while (true) { } return; }").unwrap();
        let ev = Evaluator::with_options(
            &prog,
            EvalOptions {
                step_limit: 1000,
                ..EvalOptions::default()
            },
        );
        assert_eq!(ev.run("f", &[]).unwrap_err(), EvalError::StepLimit);
    }

    #[test]
    fn cache_roundtrip() {
        use ds_lang::{ExprKind, SlotId};
        // Hand-build: loader stores x*x into slot 0; reader reads it.
        let mut prog = parse_program(
            "float loader(float x) { return x * x; }
             float reader(float x) { return 0.0; }",
        )
        .unwrap();
        // Wrap loader's return expr in CacheStore(0, ..).
        {
            let loader = &mut prog.procs[0];
            if let StmtKind::Return(Some(e)) = &mut loader.body.stmts[0].kind {
                let inner = e.clone();
                e.kind = ExprKind::CacheStore(SlotId(0), Box::new(inner));
            }
        }
        // Replace reader's return with CacheRef(0).
        {
            let reader = &mut prog.procs[1];
            if let StmtKind::Return(Some(e)) = &mut reader.body.stmts[0].kind {
                e.kind = ExprKind::CacheRef(SlotId(0), Type::Float);
            }
        }
        prog.renumber();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(1);
        let l = ev
            .run_with_cache("loader", &[Value::Float(3.0)], &mut cache)
            .unwrap();
        assert_eq!(l.value, Some(Value::Float(9.0)));
        assert_eq!(cache.filled(), 1);
        let r = ev
            .run_with_cache("reader", &[Value::Float(999.0)], &mut cache)
            .unwrap();
        assert_eq!(r.value, Some(Value::Float(9.0)));
        assert!(r.cost < l.cost, "reader {} vs loader {}", r.cost, l.cost);
    }

    #[test]
    fn unfilled_slot_read_errors() {
        use ds_lang::{ExprKind, SlotId};
        let mut prog = parse_program("float reader(float x) { return 0.0; }").unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            e.kind = ExprKind::CacheRef(SlotId(0), Type::Float);
        }
        prog.renumber();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(1);
        let err = ev
            .run_with_cache("reader", &[Value::Float(0.0)], &mut cache)
            .unwrap_err();
        assert!(matches!(err, EvalError::UnfilledSlot { slot: 0, .. }));
    }

    #[test]
    fn cache_ops_without_cache_error() {
        use ds_lang::{ExprKind, SlotId};
        let mut prog = parse_program("float reader(float x) { return 0.0; }").unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            e.kind = ExprKind::CacheRef(SlotId(0), Type::Float);
        }
        prog.renumber();
        let err = Evaluator::new(&prog)
            .run("reader", &[Value::Float(0.0)])
            .unwrap_err();
        assert!(matches!(err, EvalError::NoCache(_)));
    }

    #[test]
    fn bad_arguments_detected() {
        let prog = parse_program("float f(float x) { return x; }").unwrap();
        let ev = Evaluator::new(&prog);
        assert!(matches!(
            ev.run("f", &[]).unwrap_err(),
            EvalError::BadArguments { .. }
        ));
        assert!(matches!(
            ev.run("f", &[Value::Int(1)]).unwrap_err(),
            EvalError::BadArguments { .. }
        ));
        assert!(matches!(
            ev.run("g", &[]).unwrap_err(),
            EvalError::UnknownProc(_)
        ));
    }

    #[test]
    fn builtins_compute_expected_values() {
        let cases: &[(&str, &[f64], f64)] = &[
            ("min", &[2.0, 3.0], 2.0),
            ("max", &[2.0, 3.0], 3.0),
            ("clamp", &[5.0, 0.0, 1.0], 1.0),
            ("clamp", &[-5.0, 0.0, 1.0], 0.0),
            ("lerp", &[0.0, 10.0, 0.25], 2.5),
            ("step", &[1.0, 0.5], 0.0),
            ("step", &[1.0, 1.5], 1.0),
            ("smoothstep", &[0.0, 1.0, 0.5], 0.5),
            ("smoothstep", &[0.0, 1.0, -1.0], 0.0),
            ("smoothstep", &[0.0, 1.0, 2.0], 1.0),
            ("abs", &[-2.0], 2.0),
            ("sign", &[-2.0], -1.0),
            ("sign", &[0.0], 0.0),
            ("floor", &[2.7], 2.0),
            ("sqrt", &[9.0], 3.0),
            ("pow", &[2.0, 10.0], 1024.0),
            ("fmod", &[7.5, 2.0], 1.5),
        ];
        for (name, args, want) in cases {
            let params = (0..args.len())
                .map(|i| format!("float a{i}"))
                .collect::<Vec<_>>()
                .join(", ");
            let actuals = (0..args.len())
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .join(", ");
            let src = format!("float f({params}) {{ return {name}({actuals}); }}");
            let vals: Vec<Value> = args.iter().map(|&v| Value::Float(v)).collect();
            let out = run(&src, "f", &vals);
            assert_eq!(
                out.value,
                Some(Value::Float(*want)),
                "{name}({args:?}) != {want}"
            );
        }
    }

    #[test]
    fn clamp_is_total_under_nan_and_inverted_bounds() {
        // Fuzzer finding: std's `f64::clamp` PANICS on NaN bounds, and a
        // generated program can produce them (e.g. `clamp(x, 0/0, 0/0)`).
        // Inverted bounds normalize via min/max; both-NaN bounds pass the
        // value through; a NaN value stays NaN.
        let src = "float f(float x, float lo, float hi) { return clamp(x, lo, hi); }";
        let nan = f64::NAN;
        let cases: &[(&[f64], f64)] = &[
            (&[5.0, 1.0, 0.0], 1.0),  // inverted bounds
            (&[5.0, nan, 1.0], 1.0),  // one NaN bound: the other wins
            (&[-5.0, 1.0, nan], 1.0), // (both directions)
            (&[5.0, nan, nan], 5.0),  // both NaN: pass-through
        ];
        for (args, want) in cases {
            let vals: Vec<Value> = args.iter().map(|&v| Value::Float(v)).collect();
            let out = run(src, "f", &vals);
            assert_eq!(out.value, Some(Value::Float(*want)), "clamp({args:?})");
        }
        let vals: Vec<Value> = [nan, 0.0, 1.0].iter().map(|&v| Value::Float(v)).collect();
        let Some(Value::Float(v)) = run(src, "f", &vals).value else {
            panic!("clamp(NaN, 0, 1) must produce a float");
        };
        assert!(v.is_nan(), "NaN value propagates");
    }

    #[test]
    fn ftoi_truncates_and_itof_converts() {
        let out = run(
            "int f(float x) { return ftoi(x); }",
            "f",
            &[Value::Float(2.9)],
        );
        assert_eq!(out.value, Some(Value::Int(2)));
        let out = run(
            "int f(float x) { return ftoi(x); }",
            "f",
            &[Value::Float(-2.9)],
        );
        assert_eq!(out.value, Some(Value::Int(-2)));
        let out = run("float f(int i) { return itof(i); }", "f", &[Value::Int(7)]);
        assert_eq!(out.value, Some(Value::Float(7.0)));
    }

    #[test]
    fn dynamic_cost_matches_builtin_table() {
        let base = run("float f(float x) { return x; }", "f", &[Value::Float(1.0)]).cost;
        let with_noise = run(
            "float f(float x) { return noise3(x, x, x); }",
            "f",
            &[Value::Float(1.0)],
        )
        .cost;
        assert_eq!(with_noise - base, Builtin::Noise3.cost());
    }

    fn profiled(src: &str, proc: &str, args: &[Value]) -> Profile {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        let opts = EvalOptions {
            profile: true,
            ..EvalOptions::default()
        };
        Evaluator::with_options(&prog, opts)
            .run(proc, args)
            .expect("eval")
            .profile
            .map(|p| *p)
            .expect("profile requested")
    }

    #[test]
    fn profile_records_opcode_histogram_steps_and_cost() {
        let p = profiled(
            "float f(float x) { return -x * x + noise3(x, x, x); }",
            "f",
            &[Value::Float(0.5)],
        );
        assert_eq!(p.op_histogram.get("neg"), Some(&1));
        assert_eq!(p.op_histogram.get("mul"), Some(&1));
        assert_eq!(p.op_histogram.get("add"), Some(&1));
        assert_eq!(p.ops, 3, "histogram must sum to the ops counter");
        assert_eq!(p.op_histogram.values().sum::<u64>(), p.ops);
        assert_eq!(p.calls("noise3"), 1);
        assert!(p.steps > 0, "every run consumes fuel");
        assert!(p.cost > 0, "profile duplicates the outcome cost");
        assert_eq!(p.total_dynamic_work(), 3 + 1);
    }

    #[test]
    fn profile_merge_is_keywise_additive_and_commutative() {
        let a = profiled(
            "float f(float x) { return x * x + x; }",
            "f",
            &[Value::Float(2.0)],
        );
        let b = profiled(
            "float g(float x) { if (x < 1.0) { return -x; } return sqrt(x); }",
            "g",
            &[Value::Float(4.0)],
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.ops, a.ops + b.ops);
        assert_eq!(ab.branches, a.branches + b.branches);
        assert_eq!(ab.steps, a.steps + b.steps);
        assert_eq!(ab.cost, a.cost + b.cost);
        assert_eq!(
            ab.op_histogram.get("mul").copied().unwrap_or(0),
            a.op_histogram.get("mul").copied().unwrap_or(0)
                + b.op_histogram.get("mul").copied().unwrap_or(0)
        );
        assert_eq!(
            ab.total_dynamic_work(),
            a.total_dynamic_work() + b.total_dynamic_work()
        );
        assert_eq!(Profile::merged([&a, &b]), ab);
        assert_eq!(Profile::merged(std::iter::empty()), Profile::default());
    }

    #[test]
    fn profile_json_is_deterministic_and_round_trips() {
        let p = profiled(
            "float f(float x) { return sqrt(x) + noise3(x, x, x) - x / 2.0; }",
            "f",
            &[Value::Float(0.25)],
        );
        let text = p.to_json().pretty();
        assert_eq!(
            text,
            p.clone().to_json().pretty(),
            "serialization is stable"
        );
        let doc = ds_telemetry::parse(&text).expect("profile JSON parses");
        assert_eq!(doc.get("ops").unwrap().as_u64(), Some(p.ops));
        assert_eq!(doc.get("steps").unwrap().as_u64(), Some(p.steps));
        assert_eq!(doc.get("cost").unwrap().as_u64(), Some(p.cost));
        assert_eq!(
            doc.get("total_dynamic_work").unwrap().as_u64(),
            Some(p.total_dynamic_work())
        );
        let hist = doc.get("op_histogram").expect("histogram present");
        assert_eq!(
            hist.get("sub").unwrap().as_u64(),
            p.op_histogram.get("sub").copied()
        );
        let calls = doc.get("builtin_calls").expect("builtins present");
        assert_eq!(calls.get("noise3").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn ill_typed_builtin_arguments_are_typed_errors() {
        let prog = parse_program("float f() { return sqrt(true); }").expect("parse");
        let err = Evaluator::new(&prog).run("f", &[]).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::TypeMismatch {
                    expected: Type::Float,
                    ..
                }
            ),
            "{err:?}"
        );
        let prog = parse_program("float f() { return pow(1.0); }").expect("parse");
        let err = Evaluator::new(&prog).run("f", &[]).unwrap_err();
        assert!(matches!(err, EvalError::BadArguments { .. }), "{err:?}");
        // Constant folding leaves an ill-typed call to run time.
        assert_eq!(
            apply_pure_builtin(Builtin::Sqrt, &[Value::Bool(true)]),
            None
        );
        assert_eq!(
            apply_pure_builtin(Builtin::Sqrt, &[Value::Float(4.0)]),
            Some(Value::Float(2.0))
        );
    }
}
