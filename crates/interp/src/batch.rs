//! The structure-of-arrays batch VM.
//!
//! The paper's payoff shape is many evaluations of one small reader: an
//! 8×8 grid times a slider sweep, or a 640×480 frame. The scalar
//! [`Vm`](crate::Vm) pays full instruction dispatch — fetch, decode,
//! fuel, cost, profile bookkeeping — once *per input per instruction*.
//! [`BatchVm`] instead holds the register file as columns (register-major:
//! all lanes of register `r` are contiguous) and executes each instruction
//! across every live lane before advancing the pc, so the dispatch and
//! bookkeeping cost is paid once per instruction for the whole batch.
//!
//! ## Lockstep soundness
//!
//! Lockstep execution is valid exactly when every lane takes the same
//! control path and observes the same shared state. The executor enforces
//! this with three mechanisms, each degrading to bit-exact scalar
//! semantics:
//!
//! * **Fault masking** — a lane whose instruction faults (a
//!   `DivideByZero`, an `IndexOutOfBounds`, a bad entry argument…) is
//!   masked out with *exactly* the typed error the scalar VM raises for
//!   that input, including the span. An [`EvalError`] carries no partial
//!   outcome, so a masked lane needs no further bookkeeping; the
//!   surviving lanes continue undisturbed.
//! * **Divergence fallback** — when live lanes disagree on a branch
//!   condition, the batch abandons lockstep and re-runs every remaining
//!   lane through the scalar [`Vm`](crate::Vm) from the start. Slow, but
//!   bit-exact by construction.
//! * **Sequential routing** — a program that *writes* the cache couples
//!   its lanes through shared state (lane `i`'s write is visible to lane
//!   `i+1`), which lockstep cannot reproduce. Such programs run on the
//!   sequential path: one scalar run per lane sharing the cache, in lane
//!   order. Cache *reads* are lockstep-safe — the cache is constant
//!   across the batch — which covers the shape that matters: specialized
//!   readers read slots, only loaders write them.
//!
//! ## Profile invariance
//!
//! While in lockstep every live lane executes the same instruction with
//! the same fuel, cost and [`Profile`] deltas, so the batch keeps *one*
//! shared fuel counter, cost accumulator and profile and clones them into
//! each surviving lane's [`Outcome`]. This is why fusion and batching may
//! only ever change wall time: the deterministic metrics are computed once
//! and are identical, field for field, to a scalar run's.

use crate::cache::CacheBuf;
use crate::compile::{CompiledProgram, Op};
use crate::error::EvalError;
use crate::eval::{
    apply_binop_at, apply_pure_builtin, apply_unop_at, EvalOptions, Outcome, Profile, CALL_COST,
};
use crate::value::Value;
use crate::vm::{check_args, Frame, Vm};
use ds_lang::cost::{
    binop_cost, unop_cost, BRANCH_COST, CACHE_READ_COST, INDEX_COST, INDEX_STORE_COST,
};
use ds_lang::{BinOp, Builtin, Type};

/// Lanes per lockstep block. Each instruction sweeps whole columns, so
/// the block's register file (`nregs x BLOCK_LANES` values) must stay
/// cache-resident or every sweep streams from DRAM and the SoA advantage
/// drowns in memory traffic. 128 lanes keeps even register-heavy readers
/// (a shader reader runs ~50 registers, ~200 KiB of columns) inside L2
/// while still amortizing dispatch ~100x.
pub const BLOCK_LANES: usize = 128;

/// Does any procedure reachable from `entry` write the cache? Such
/// programs couple their lanes through shared state and must run on the
/// sequential batch path.
fn writes_cache(prog: &CompiledProgram, entry_idx: usize) -> bool {
    let mut seen = vec![false; prog.procs.len()];
    let mut stack = vec![entry_idx];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        for op in &prog.procs[i].code {
            match op {
                Op::CacheWrite { .. } => return true,
                Op::Call { callee, .. } => stack.push(*callee as usize),
                _ => {}
            }
        }
    }
    false
}

/// Conservative write-before-read analysis: `true` when every procedure
/// reachable from `entry` is straight-line (no jumps, so code order *is*
/// execution order) and writes each register before reading it. Such a
/// program can never observe a leftover register value, so the executor
/// may reuse a dirty column file from the previous block instead of
/// zero-filling `nregs x lanes` values — for small readers the zero-fill
/// rivals the execution itself, and it is pure wall-clock cost exactly
/// when this returns `true`. Any jump (or a genuine read-before-write,
/// which scalar semantics give `Int(0)`) makes the executor zero-fill.
fn regs_written_before_read(prog: &CompiledProgram, entry_idx: usize) -> bool {
    let mut seen = vec![false; prog.procs.len()];
    let mut stack = vec![entry_idx];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        let proc = &prog.procs[i];
        let mut written = vec![false; proc.nregs as usize];
        for w in written.iter_mut().take(proc.params.len()) {
            *w = true;
        }
        let mut pending: Vec<usize> = Vec::new();
        let check = |op: Op, written: &mut Vec<bool>, pending: &mut Vec<usize>| -> bool {
            match op {
                Op::Step { .. }
                | Op::Charge { .. }
                | Op::RetVoid
                | Op::ErrUnknownProc { .. }
                | Op::ErrUnbound { .. }
                | Op::ErrMissingReturn => true,
                Op::Jump { .. } | Op::JumpIfFalse { .. } => false,
                Op::Const { dst, .. } | Op::CacheRead { dst, .. } => {
                    written[dst as usize] = true;
                    true
                }
                Op::Move { dst, src }
                | Op::Un { dst, src, .. }
                | Op::FillArray { dst, src, .. } => {
                    let ok = written[src as usize];
                    written[dst as usize] = true;
                    ok
                }
                Op::Bin { dst, lhs, rhs, .. } => {
                    let ok = written[lhs as usize] && written[rhs as usize];
                    written[dst as usize] = true;
                    ok
                }
                Op::LoadIndex { dst, arr, idx } => {
                    let ok = written[arr as usize] && written[idx as usize];
                    written[dst as usize] = true;
                    ok
                }
                Op::StoreIndex { arr, idx, src } => {
                    written[arr as usize] && written[idx as usize] && written[src as usize]
                }
                Op::CacheWrite { src, .. } | Op::Ret { src } => written[src as usize],
                Op::CallBuiltin {
                    dst, args_at, argc, ..
                } => {
                    let ok = proc.arg_pool[args_at as usize..(args_at + argc) as usize]
                        .iter()
                        .all(|&r| written[r as usize]);
                    written[dst as usize] = true;
                    ok
                }
                Op::Call {
                    callee,
                    dst,
                    args_at,
                    argc,
                } => {
                    pending.push(callee as usize);
                    let ok = proc.arg_pool[args_at as usize..(args_at + argc) as usize]
                        .iter()
                        .all(|&r| written[r as usize]);
                    written[dst as usize] = true;
                    ok
                }
                Op::Fused { .. } => unreachable!("flattened by the caller"),
            }
        };
        for &op in &proc.code {
            let fine = match op {
                Op::Fused { pair } => {
                    let (first, second) = proc.fused[pair as usize];
                    check(first, &mut written, &mut pending)
                        && check(second, &mut written, &mut pending)
                }
                other => check(other, &mut written, &mut pending),
            };
            if !fine {
                return false;
            }
        }
        stack.extend(pending);
    }
    true
}

/// A reusable structure-of-arrays batch executor.
///
/// Holds the columnar register file, a scratch buffer and an embedded
/// scalar [`Vm`](crate::Vm) for the fallback paths, all reused across
/// [`run`](BatchVm::run) calls. See the [module docs](self) for the
/// execution model.
#[derive(Debug, Default)]
pub struct BatchVm {
    /// Register columns, register-major: lane `j` of (window-absolute)
    /// register `r` lives at `cols[r * lanes + j]`.
    cols: Vec<Value>,
    /// Per-lane builtin argument scratch.
    argbuf: Vec<Value>,
    /// Scalar engine for divergence fallback and the sequential path.
    scalar: Vm,
    /// Side-channel count of fused superinstructions dispatched, across
    /// the life of this `BatchVm`. Wall-time diagnostics only — never
    /// part of a [`Profile`].
    fused_dispatches: u64,
}

impl BatchVm {
    /// Creates a batch VM with empty buffers.
    pub fn new() -> BatchVm {
        BatchVm::default()
    }

    /// How many fused superinstructions this VM has dispatched in
    /// lockstep (one count per batch-wide dispatch, not per lane). A
    /// side-channel diagnostic, like the latency histograms: it never
    /// enters a [`Profile`].
    pub fn fused_dispatches(&self) -> u64 {
        self.fused_dispatches
    }

    /// Runs `entry` over every lane of `inputs`, returning one `Result`
    /// per lane in input order.
    ///
    /// Observationally identical to running the scalar VM once per lane
    /// (sharing `cache` across the batch in input order): same values,
    /// costs, traces and [`Profile`] counters on success, and the same
    /// typed error — class, message and span — on failure. The batch
    /// differential suites and the `batch` fuzzer oracle enforce this
    /// lane by lane.
    ///
    /// Wide batches are processed in blocks of [`BLOCK_LANES`] so a
    /// block's whole column file stays cache-resident; per-lane results
    /// are independent, so blocking is invisible to everything but the
    /// wall clock (a divergent block also falls back alone, leaving the
    /// other blocks in lockstep).
    pub fn run(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        inputs: &[Vec<Value>],
        mut cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        if inputs.len() <= BLOCK_LANES {
            return self.run_block(prog, entry, inputs, cache, opts);
        }
        let mut out = Vec::with_capacity(inputs.len());
        for block in inputs.chunks(BLOCK_LANES) {
            out.extend(self.run_block(prog, entry, block, cache.as_deref_mut(), opts));
        }
        out
    }

    /// One cache-resident block of [`run`](BatchVm::run): the actual
    /// lockstep interpreter loop.
    fn run_block(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        inputs: &[Vec<Value>],
        mut cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let Some(entry_idx) = prog.proc_index(entry) else {
            return (0..n)
                .map(|_| Err(EvalError::UnknownProc(entry.to_string())))
                .collect();
        };
        if writes_cache(prog, entry_idx) {
            // Sequential path: one scalar run per lane, in lane order.
            return inputs
                .iter()
                .map(|args| {
                    self.scalar
                        .run(prog, entry, args, cache.as_deref_mut(), opts)
                })
                .collect();
        }

        let mut results: Vec<Option<Result<Outcome, EvalError>>> = vec![None; n];
        let mut alive: Vec<bool> = vec![true; n];
        let mut live = n;

        let mut proc_idx = entry_idx;
        let mut proc = &prog.procs[proc_idx];
        for (j, args) in inputs.iter().enumerate() {
            if let Err(e) = check_args(proc, args) {
                alive[j] = false;
                results[j] = Some(Err(e));
                live -= 1;
            }
        }

        macro_rules! finish {
            () => {
                return results
                    .into_iter()
                    .map(|r| r.expect("every lane resolved"))
                    .collect()
            };
        }
        if live == 0 {
            finish!();
        }

        // A dirty column file from the previous block is unobservable
        // when every register is written before it is read, so the
        // zero-fill (`nregs x lanes` values — for a small reader, work
        // rivaling the execution itself) is skipped for straight-line
        // programs and only the argument columns are written.
        let need = proc.nregs as usize * n;
        if self.cols.len() < need || !regs_written_before_read(prog, entry_idx) {
            self.cols.clear();
            self.cols.resize(need, Value::Int(0));
        }
        // Column-major argument scatter: each parameter's column is
        // written stride-1.
        let argc = proc.params.len();
        for i in 0..argc {
            let ci = i * n;
            for (j, args) in inputs.iter().enumerate() {
                if alive[j] {
                    self.cols[ci + j] = args[i].clone();
                }
            }
        }

        let mut fuel = opts.step_limit;
        let mut cost = 0u64;
        let mut profile = opts.profile.then(Profile::default);
        let mut traces: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut frames: Vec<Frame> = Vec::new();
        let mut base = 0usize;
        let mut pc = 0usize;

        // Masks lane `$j` out with the exact scalar error.
        macro_rules! kill {
            ($j:expr, $e:expr) => {{
                alive[$j] = false;
                results[$j] = Some(Err($e));
                live -= 1;
            }};
        }
        // A lane-uniform failure: every live lane gets the same error
        // its own scalar run would produce, and the batch is done.
        macro_rules! all_fail {
            ($e:expr) => {{
                let e = $e;
                for j in 0..n {
                    if alive[j] {
                        results[j] = Some(Err(e.clone()));
                    }
                }
                finish!();
            }};
        }
        macro_rules! step1 {
            () => {
                if fuel == 0 {
                    all_fail!(EvalError::StepLimit);
                }
                fuel -= 1;
            };
        }
        // Lockstep is no longer sound (lane-divergent branch): re-run
        // every remaining lane on the scalar VM from the start. The
        // cache is read-only on this path (writers were routed to the
        // sequential loop), so a fresh scalar run observes the same
        // cache state the lane's solo run would.
        macro_rules! diverge {
            () => {{
                for j in 0..n {
                    if alive[j] {
                        results[j] = Some(self.scalar.run(
                            prog,
                            entry,
                            &inputs[j],
                            cache.as_deref_mut(),
                            opts,
                        ));
                    }
                }
                finish!();
            }};
        }
        // Lane sweep with the fully-live check hoisted: the common case
        // (no lane masked yet) runs without the per-lane `alive` test. A
        // `kill!` inside the body only affects *later* instructions —
        // lanes are independent within one sweep, and each is visited
        // once — so the unmasked variant stays sound even when a lane
        // faults partway through it.
        macro_rules! lanes {
            (|$j:ident| $body:expr) => {
                if live == n {
                    for $j in 0..n {
                        $body
                    }
                } else {
                    for $j in 0..n {
                        if alive[$j] {
                            $body
                        }
                    }
                }
            };
        }
        // One binop lane sweep with the operator dispatch already
        // hoisted: `$ffast` / `$ifast` are the non-faulting
        // `(Float, Float)` / `(Int, Int)` bodies; any other operand
        // shape falls back to the generic clone-and-match path per lane,
        // which raises the exact scalar error.
        macro_rules! bin_sweep {
            ($op:ident, $span:ident, $li:ident, $ri:ident, $di:ident,
             $a:ident, $b:ident, $ffast:expr, $ifast:expr) => {{
                // A local slice makes the column length an SSA value, so
                // the up-front assert lets the optimizer drop the
                // per-lane bounds checks.
                let cols_ = &mut self.cols[..];
                lanes!(|j| match (&cols_[$li + j], &cols_[$ri + j]) {
                    (&Value::Float($a), &Value::Float($b)) => cols_[$di + j] = $ffast,
                    (&Value::Int($a), &Value::Int($b)) => cols_[$di + j] = $ifast,
                    _ => match apply_binop_at(
                        $op,
                        cols_[$li + j].clone(),
                        cols_[$ri + j].clone(),
                        $span,
                    ) {
                        Ok(v) => cols_[$di + j] = v,
                        Err(e) => kill!(j, e),
                    },
                })
            }};
        }
        // Unary operator across the batch (also a fused constituent),
        // with the dispatch hoisted like `exec_bin`'s.
        macro_rules! exec_un {
            ($op:expr, $dst:expr, $src:expr, $span:expr) => {{
                let (op, span) = ($op, $span);
                cost += unop_cost(op);
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                let si = (base + $src as usize) * n;
                let di = (base + $dst as usize) * n;
                let end = self.cols.len();
                assert!(si + n <= end && di + n <= end);
                let cols_ = &mut self.cols[..];
                match op {
                    ds_lang::UnOp::Neg => lanes!(|j| match &cols_[si + j] {
                        &Value::Float(a) => cols_[di + j] = Value::Float(-a),
                        &Value::Int(a) => cols_[di + j] = Value::Int(a.wrapping_neg()),
                        _ => match apply_unop_at(op, cols_[si + j].clone(), span) {
                            Ok(v) => cols_[di + j] = v,
                            Err(e) => kill!(j, e),
                        },
                    }),
                    _ => lanes!(|j| match apply_unop_at(op, cols_[si + j].clone(), span) {
                        Ok(v) => cols_[di + j] = v,
                        Err(e) => kill!(j, e),
                    }),
                }
            }};
        }
        // Binary operator across the batch. The operator (and, in
        // lockstep, the operand types) are batch invariants, so the
        // per-operator match runs once per instruction and each arm is a
        // tight monomorphic loop over the lanes — this is where the SoA
        // layout pays, compared with the scalar VM's per-lane dispatch.
        macro_rules! exec_bin {
            ($op:expr, $dst:expr, $lhs:expr, $rhs:expr, $span:expr) => {{
                let (op, span) = ($op, $span);
                cost += binop_cost(op);
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                let li = (base + $lhs as usize) * n;
                let ri = (base + $rhs as usize) * n;
                let di = (base + $dst as usize) * n;
                // One up-front bounds proof so the lane loops below run
                // without per-iteration checks.
                let end = self.cols.len();
                assert!(li + n <= end && ri + n <= end && di + n <= end);
                match op {
                    BinOp::Add => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Float(a + b),
                        Value::Int(a.wrapping_add(b))
                    ),
                    BinOp::Sub => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Float(a - b),
                        Value::Int(a.wrapping_sub(b))
                    ),
                    BinOp::Mul => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Float(a * b),
                        Value::Int(a.wrapping_mul(b))
                    ),
                    BinOp::Lt => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a < b),
                        Value::Bool(a < b)
                    ),
                    BinOp::Le => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a <= b),
                        Value::Bool(a <= b)
                    ),
                    BinOp::Gt => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a > b),
                        Value::Bool(a > b)
                    ),
                    BinOp::Ge => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a >= b),
                        Value::Bool(a >= b)
                    ),
                    BinOp::Eq => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a == b),
                        Value::Bool(a == b)
                    ),
                    BinOp::Ne => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a != b),
                        Value::Bool(a != b)
                    ),
                    // Float division is IEEE and never faults; integer
                    // division faults on zero, so ints take the generic
                    // path for the exact scalar error.
                    BinOp::Div => {
                        let cols_ = &mut self.cols[..];
                        lanes!(|j| match (&cols_[li + j], &cols_[ri + j]) {
                            (&Value::Float(a), &Value::Float(b)) => {
                                cols_[di + j] = Value::Float(a / b)
                            }
                            _ => match apply_binop_at(
                                op,
                                cols_[li + j].clone(),
                                cols_[ri + j].clone(),
                                span,
                            ) {
                                Ok(v) => cols_[di + j] = v,
                                Err(e) => kill!(j, e),
                            },
                        })
                    }
                    // Rem (and anything new): generic per lane — faults
                    // and type errors included.
                    _ => lanes!(|j| match apply_binop_at(
                        op,
                        self.cols[li + j].clone(),
                        self.cols[ri + j].clone(),
                        span,
                    ) {
                        Ok(v) => self.cols[di + j] = v,
                        Err(e) => kill!(j, e),
                    }),
                }
            }};
        }
        // Bounds-checked array load across the batch (also a fused
        // constituent).
        macro_rules! exec_load {
            ($dst:expr, $arr:expr, $idx:expr, $span:expr) => {{
                let span = $span;
                cost += INDEX_COST;
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry("idxload").or_default() += 1;
                }
                let ii = (base + $idx as usize) * n;
                let ai = (base + $arr as usize) * n;
                let di = (base + $dst as usize) * n;
                let end = self.cols.len();
                assert!(ii + n <= end && ai + n <= end && di + n <= end);
                lanes!(|j| {
                    let loaded = match self.cols[ii + j].as_int() {
                        None => Err(EvalError::TypeMismatch {
                            expected: Type::Int,
                            span,
                        }),
                        Some(i) => match &self.cols[ai + j] {
                            Value::Array(elems) => {
                                if i < 0 || i as usize >= elems.len() {
                                    Err(EvalError::IndexOutOfBounds {
                                        index: i,
                                        len: elems.len(),
                                        span,
                                    })
                                } else {
                                    Ok(elems[i as usize].clone())
                                }
                            }
                            _ => Err(EvalError::TypeMismatch {
                                expected: Type::Int,
                                span,
                            }),
                        },
                    };
                    match loaded {
                        Ok(v) => self.cols[di + j] = v,
                        Err(e) => kill!(j, e),
                    }
                });
            }};
        }

        loop {
            let op = proc.code[pc];
            pc += 1;
            match op {
                Op::Step { n: k } => {
                    let k = k as u64;
                    if fuel < k {
                        all_fail!(EvalError::StepLimit);
                    }
                    fuel -= k;
                }
                Op::Charge { cost: c } => cost += c as u64,
                Op::Const { dst, k } => {
                    step1!();
                    let v = &prog.consts[k as usize];
                    let di = (base + dst as usize) * n;
                    assert!(di + n <= self.cols.len());
                    let cols_ = &mut self.cols[..];
                    lanes!(|j| cols_[di + j] = v.clone());
                }
                Op::Move { dst, src } => {
                    step1!();
                    let si = (base + src as usize) * n;
                    let di = (base + dst as usize) * n;
                    let end = self.cols.len();
                    assert!(si + n <= end && di + n <= end);
                    let cols_ = &mut self.cols[..];
                    lanes!(|j| {
                        let v = cols_[si + j].clone();
                        cols_[di + j] = v;
                    });
                }
                Op::Un { op, dst, src } => {
                    step1!();
                    exec_un!(op, dst, src, proc.spans[pc - 1]);
                    if live == 0 {
                        finish!();
                    }
                }
                Op::Bin { op, dst, lhs, rhs } => {
                    step1!();
                    exec_bin!(op, dst, lhs, rhs, proc.spans[pc - 1]);
                    if live == 0 {
                        finish!();
                    }
                }
                Op::FillArray { dst, src, n: len } => {
                    let si = (base + src as usize) * n;
                    let di = (base + dst as usize) * n;
                    lanes!(|j| {
                        let v = self.cols[si + j].clone();
                        self.cols[di + j] = Value::Array(vec![v; len as usize]);
                    });
                }
                Op::LoadIndex { dst, arr, idx } => {
                    step1!();
                    exec_load!(dst, arr, idx, proc.spans[pc - 1]);
                    if live == 0 {
                        finish!();
                    }
                }
                Op::StoreIndex { arr, idx, src } => {
                    cost += INDEX_STORE_COST;
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry("idxstore").or_default() += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let ii = (base + idx as usize) * n;
                    let ai = (base + arr as usize) * n;
                    let si = (base + src as usize) * n;
                    for j in 0..n {
                        if !alive[j] {
                            continue;
                        }
                        let Some(i) = self.cols[ii + j].as_int() else {
                            kill!(
                                j,
                                EvalError::TypeMismatch {
                                    expected: Type::Int,
                                    span,
                                }
                            );
                            continue;
                        };
                        let v = self.cols[si + j].clone();
                        let Value::Array(elems) = &mut self.cols[ai + j] else {
                            kill!(
                                j,
                                EvalError::TypeMismatch {
                                    expected: Type::Int,
                                    span,
                                }
                            );
                            continue;
                        };
                        if i < 0 || i as usize >= elems.len() {
                            kill!(
                                j,
                                EvalError::IndexOutOfBounds {
                                    index: i,
                                    len: elems.len(),
                                    span,
                                }
                            );
                            continue;
                        }
                        elems[i as usize] = v;
                    }
                    if live == 0 {
                        finish!();
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfFalse { cond, target } => {
                    let span = proc.spans[pc - 1];
                    let ci = (base + cond as usize) * n;
                    let mut taken: Option<bool> = None;
                    let mut divergent = false;
                    lanes!(|j| match self.cols[ci + j].as_bool() {
                        Some(b) => match taken {
                            None => taken = Some(b),
                            Some(t) => divergent |= t != b,
                        },
                        // A non-bool condition faults the lane before
                        // any branch cost is charged, as in the
                        // scalar VM — and the lane dies anyway, so
                        // only its error is observable.
                        None => kill!(
                            j,
                            EvalError::TypeMismatch {
                                expected: Type::Bool,
                                span,
                            }
                        ),
                    });
                    if live == 0 {
                        finish!();
                    }
                    if divergent {
                        diverge!();
                    }
                    cost += BRANCH_COST;
                    if let Some(p) = profile.as_mut() {
                        p.branches += 1;
                    }
                    if !taken.expect("some lane is live") {
                        pc = target as usize;
                    }
                }
                Op::CallBuiltin {
                    b,
                    dst,
                    args_at,
                    argc,
                } => {
                    step1!();
                    cost += b.cost();
                    if let Some(p) = profile.as_mut() {
                        *p.builtin_calls.entry(b.name()).or_default() += 1;
                    }
                    let arg_regs = &proc.arg_pool[args_at as usize..(args_at + argc) as usize];
                    let di = (base + dst as usize) * n;
                    // Hoisted builtin dispatch: the all-float builtins
                    // get monomorphic column sweeps (argument columns
                    // resolved once, math applied in place — the
                    // expressions mirror `apply_pure_builtin` exactly);
                    // everything else goes through the generic scratch
                    // buffer, one `apply_pure_builtin` per lane.
                    macro_rules! bsweep1 {
                        (|$x:ident| $e:expr) => {{
                            let s0 = (base + arg_regs[0] as usize) * n;
                            let end = self.cols.len();
                            assert!(s0 + n <= end && di + n <= end);
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| {
                                let $x = cols_[s0 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                cols_[di + j] = Value::Float($e);
                            });
                        }};
                    }
                    macro_rules! bsweep2 {
                        (|$x:ident, $y:ident| $e:expr) => {{
                            let s0 = (base + arg_regs[0] as usize) * n;
                            let s1 = (base + arg_regs[1] as usize) * n;
                            let end = self.cols.len();
                            assert!(s0 + n <= end && s1 + n <= end && di + n <= end);
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| {
                                let $x = cols_[s0 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                let $y = cols_[s1 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                cols_[di + j] = Value::Float($e);
                            });
                        }};
                    }
                    macro_rules! bsweep3 {
                        (|$x:ident, $y:ident, $z:ident| $e:expr) => {{
                            let s0 = (base + arg_regs[0] as usize) * n;
                            let s1 = (base + arg_regs[1] as usize) * n;
                            let s2 = (base + arg_regs[2] as usize) * n;
                            let end = self.cols.len();
                            assert!(
                                s0 + n <= end && s1 + n <= end && s2 + n <= end && di + n <= end
                            );
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| {
                                let $x = cols_[s0 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                let $y = cols_[s1 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                let $z = cols_[s2 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                cols_[di + j] = Value::Float($e);
                            });
                        }};
                    }
                    match b {
                        Builtin::Trace => {
                            let si = (base + arg_regs[0] as usize) * n;
                            lanes!(|j| {
                                let x = self.cols[si + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                traces[j].push(x);
                                self.cols[di + j] = Value::Float(x);
                            });
                        }
                        Builtin::Sin => bsweep1!(|x| x.sin()),
                        Builtin::Cos => bsweep1!(|x| x.cos()),
                        Builtin::Tan => bsweep1!(|x| x.tan()),
                        Builtin::Sqrt => bsweep1!(|x| x.sqrt()),
                        Builtin::Exp => bsweep1!(|x| x.exp()),
                        Builtin::Log => bsweep1!(|x| x.ln()),
                        Builtin::Floor => bsweep1!(|x| x.floor()),
                        Builtin::Abs => bsweep1!(|x| x.abs()),
                        Builtin::Pow => bsweep2!(|x, y| x.powf(y)),
                        Builtin::Min => bsweep2!(|x, y| x.min(y)),
                        Builtin::Max => bsweep2!(|x, y| x.max(y)),
                        Builtin::Fmod => bsweep2!(|x, y| x % y),
                        Builtin::Step => bsweep2!(|x, y| if y < x { 0.0 } else { 1.0 }),
                        Builtin::Clamp => bsweep3!(|x, lo, hi| {
                            let (lo, hi) = (lo.min(hi), hi.max(lo));
                            if lo.is_nan() {
                                x
                            } else {
                                x.clamp(lo, hi)
                            }
                        }),
                        Builtin::Lerp => bsweep3!(|a, b, t| a + (b - a) * t),
                        _ => lanes!(|j| {
                            self.argbuf.clear();
                            for &r in arg_regs {
                                self.argbuf
                                    .push(self.cols[(base + r as usize) * n + j].clone());
                            }
                            self.cols[di + j] = apply_pure_builtin(b, &self.argbuf)
                                .expect("non-trace builtins are pure");
                        }),
                    }
                }
                Op::Call {
                    callee,
                    dst,
                    args_at,
                    argc,
                } => {
                    step1!();
                    cost += CALL_COST;
                    let callee_proc = &prog.procs[callee as usize];
                    let arg_regs = &proc.arg_pool[args_at as usize..(args_at + argc) as usize];
                    if arg_regs.len() != callee_proc.params.len() {
                        // Arity is a property of the call site, not the
                        // lane: every lane fails identically.
                        all_fail!(EvalError::BadArguments {
                            proc: callee_proc.name.clone(),
                            detail: format!(
                                "expected {} argument(s), got {}",
                                callee_proc.params.len(),
                                arg_regs.len()
                            ),
                        });
                    }
                    let new_base = base + proc.nregs as usize;
                    let need = (new_base + callee_proc.nregs as usize) * n;
                    if self.cols.len() < need {
                        self.cols.resize(need, Value::Int(0));
                    }
                    'lane: for j in 0..n {
                        if !alive[j] {
                            continue;
                        }
                        for (i, (&r, (pname, pty))) in
                            arg_regs.iter().zip(&callee_proc.params).enumerate()
                        {
                            let v = self.cols[(base + r as usize) * n + j].clone();
                            if v.ty() != *pty {
                                kill!(
                                    j,
                                    EvalError::BadArguments {
                                        proc: callee_proc.name.clone(),
                                        detail: format!(
                                            "parameter `{pname}` expects `{pty}`, got `{}`",
                                            v.ty()
                                        ),
                                    }
                                );
                                continue 'lane;
                            }
                            self.cols[(new_base + i) * n + j] = v;
                        }
                    }
                    if live == 0 {
                        finish!();
                    }
                    frames.push(Frame {
                        proc_idx: proc_idx as u32,
                        pc: pc as u32,
                        base: base as u32,
                        dst,
                    });
                    proc_idx = callee as usize;
                    proc = callee_proc;
                    base = new_base;
                    pc = 0;
                }
                Op::Ret { src } => {
                    let si = (base + src as usize) * n;
                    match frames.pop() {
                        None => {
                            // Control is uniform in lockstep, so every
                            // surviving lane completes here together.
                            if let Some(p) = profile.as_mut() {
                                p.steps = opts.step_limit - fuel;
                                p.cost = cost;
                            }
                            for j in 0..n {
                                if !alive[j] {
                                    continue;
                                }
                                results[j] = Some(Ok(Outcome {
                                    value: Some(self.cols[si + j].clone()),
                                    cost,
                                    trace: std::mem::take(&mut traces[j]),
                                    profile: profile.clone().map(Box::new),
                                }));
                            }
                            finish!();
                        }
                        Some(f) => {
                            let di = (f.base as usize + f.dst as usize) * n;
                            for (j, &live) in alive.iter().enumerate().take(n) {
                                if live {
                                    let v = self.cols[si + j].clone();
                                    self.cols[di + j] = v;
                                }
                            }
                            proc_idx = f.proc_idx as usize;
                            proc = &prog.procs[proc_idx];
                            base = f.base as usize;
                            pc = f.pc as usize;
                        }
                    }
                }
                Op::RetVoid => match frames.pop() {
                    None => {
                        if let Some(p) = profile.as_mut() {
                            p.steps = opts.step_limit - fuel;
                            p.cost = cost;
                        }
                        for j in 0..n {
                            if !alive[j] {
                                continue;
                            }
                            results[j] = Some(Ok(Outcome {
                                value: None,
                                cost,
                                trace: std::mem::take(&mut traces[j]),
                                profile: profile.clone().map(Box::new),
                            }));
                        }
                        finish!();
                    }
                    Some(f) => {
                        // A void result in expression position: the
                        // evaluator's TypeMismatch at the call site,
                        // identically in every lane.
                        let caller = &prog.procs[f.proc_idx as usize];
                        all_fail!(EvalError::TypeMismatch {
                            expected: Type::Void,
                            span: caller.spans[f.pc as usize - 1],
                        });
                    }
                },
                Op::CacheRead { dst, slot } => {
                    step1!();
                    cost += CACHE_READ_COST;
                    if let Some(p) = profile.as_mut() {
                        p.cache_reads += 1;
                    }
                    let span = proc.spans[pc - 1];
                    // The cache is shared and read-only on this path, so
                    // one lookup serves — and one failure fails — every
                    // lane identically.
                    let slot_val = match cache.as_deref() {
                        None => Err(EvalError::NoCache(span)),
                        Some(cb) => cb.get(slot as usize).ok_or(EvalError::UnfilledSlot {
                            slot: slot as usize,
                            span,
                        }),
                    };
                    match slot_val {
                        Err(e) => all_fail!(e),
                        Ok(v) => {
                            let di = (base + dst as usize) * n;
                            assert!(di + n <= self.cols.len());
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| cols_[di + j] = v.clone());
                        }
                    }
                }
                Op::CacheWrite { .. } => {
                    unreachable!("cache-writing programs run on the sequential batch path")
                }
                Op::Fused { pair } => {
                    self.fused_dispatches += 1;
                    let (first, second) = proc.fused[pair as usize];
                    let spans = [proc.spans[pc - 1], proc.spans[pc]];
                    for (part, span) in [first, second].into_iter().zip(spans) {
                        step1!();
                        match part {
                            Op::Un { op, dst, src } => exec_un!(op, dst, src, span),
                            Op::Bin { op, dst, lhs, rhs } => exec_bin!(op, dst, lhs, rhs, span),
                            Op::LoadIndex { dst, arr, idx } => exec_load!(dst, arr, idx, span),
                            other => unreachable!("non-fusible constituent {other:?}"),
                        }
                        if live == 0 {
                            finish!();
                        }
                    }
                    pc += 1; // skip the shadow slot
                }
                Op::ErrUnknownProc { name_at } => {
                    if fuel == 0 {
                        all_fail!(EvalError::StepLimit);
                    }
                    all_fail!(EvalError::UnknownProc(prog.names[name_at as usize].clone()));
                }
                Op::ErrUnbound { name_at } => {
                    if fuel == 0 {
                        all_fail!(EvalError::StepLimit);
                    }
                    all_fail!(EvalError::BadArguments {
                        proc: String::new(),
                        detail: format!("unbound variable `{}`", prog.names[name_at as usize]),
                    });
                }
                Op::ErrMissingReturn => {
                    all_fail!(EvalError::MissingReturn(proc.name.clone()));
                }
            }
        }
    }
}

impl CompiledProgram {
    /// Runs `entry` once per lane of `inputs` on a fresh [`BatchVm`],
    /// sharing one cache (if given) across the batch.
    ///
    /// Structure-of-arrays execution: each instruction is fetched, decoded
    /// and metered once for the whole batch. Results are bit-exact against
    /// running the scalar VM per lane — values, costs, traces,
    /// [`Profile`](crate::Profile) counters and typed errors — with
    /// faulting lanes masked out and lane-divergent branches falling back
    /// to per-lane execution (see the [module docs](self)).
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use ds_interp::{compile, EvalOptions, Value};
    /// let prog = ds_lang::parse_program("float sq(float x) { return x * x; }")?;
    /// ds_lang::typecheck(&prog)?;
    /// let sweep: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Float(i as f64)]).collect();
    /// let outs = compile(&prog).run_batch_soa("sq", &sweep, None, EvalOptions::default());
    /// assert_eq!(outs[3].as_ref().unwrap().value, Some(Value::Float(9.0)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_batch_soa(
        &self,
        entry: &str,
        inputs: &[Vec<Value>],
        cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        BatchVm::new().run(self, entry, inputs, cache, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, fuse_hot_pairs, static_op_histogram};
    use crate::eval::Evaluator;
    use ds_lang::parse_program;

    fn popts() -> EvalOptions {
        EvalOptions {
            profile: true,
            ..EvalOptions::default()
        }
    }

    fn checked(src: &str) -> ds_lang::Program {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        prog
    }

    /// Batch output must equal a per-lane scalar VM run, field for field.
    fn assert_lanes_match(src: &str, entry: &str, sweep: &[Vec<Value>]) {
        let prog = parse_program(src).expect("parse");
        let cp = compile(&prog);
        let batch = cp.run_batch_soa(entry, sweep, None, popts());
        assert_eq!(batch.len(), sweep.len());
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            let scalar = vm.run(&cp, entry, args, None, popts());
            assert_eq!(batch[j], scalar, "lane {j} diverged on {args:?}");
        }
    }

    #[test]
    fn straight_line_batch_matches_scalar() {
        let sweep: Vec<Vec<Value>> = (0..17)
            .map(|i| vec![Value::Float(i as f64 * 0.25 - 1.0)])
            .collect();
        assert_lanes_match(
            "float f(float x) { float a = x * x + 1.0; return clamp(a, 0.0, 3.0); }",
            "f",
            &sweep,
        );
    }

    #[test]
    fn uniform_branches_stay_in_lockstep() {
        // Every lane is positive, so the branch is lane-uniform.
        let sweep: Vec<Vec<Value>> = (1..9).map(|i| vec![Value::Float(i as f64)]).collect();
        assert_lanes_match(
            "float f(float x) { if (x > 0.0) { return x * 2.0; } return -x; }",
            "f",
            &sweep,
        );
    }

    #[test]
    fn divergent_branches_fall_back_per_lane() {
        let sweep: Vec<Vec<Value>> = (-4..5).map(|i| vec![Value::Float(i as f64)]).collect();
        assert_lanes_match(
            "float f(float x) {
                 float acc = 0.0;
                 if (x > 0.0) { acc = sin(x); } else { acc = cos(x); }
                 return acc + x;
             }",
            "f",
            &sweep,
        );
    }

    #[test]
    fn faulting_lane_is_masked_not_contagious() {
        let src = "float f(int i) { float v[4] = 1.5; v[2] = 7.0; return v[i]; }";
        let sweep: Vec<Vec<Value>> = [0, 2, 99, 1, -1, 3]
            .iter()
            .map(|&i| vec![Value::Int(i)])
            .collect();
        assert_lanes_match(src, "f", &sweep);
        // And explicitly: the healthy neighbors of a faulting lane succeed.
        let prog = parse_program(src).unwrap();
        let cp = compile(&prog);
        let outs = cp.run_batch_soa("f", &sweep, None, popts());
        assert!(matches!(
            outs[2],
            Err(EvalError::IndexOutOfBounds {
                index: 99,
                len: 4,
                ..
            })
        ));
        assert!(matches!(
            outs[4],
            Err(EvalError::IndexOutOfBounds { index: -1, .. })
        ));
        for healthy in [0, 1, 3, 5] {
            assert!(outs[healthy].is_ok(), "lane {healthy} perturbed by faults");
        }
    }

    #[test]
    fn bad_entry_args_fault_per_lane() {
        let src = "float f(float x) { return x + 1.0; }";
        let prog = parse_program(src).unwrap();
        let cp = compile(&prog);
        let sweep = vec![
            vec![Value::Float(1.0)],
            vec![Value::Int(3)], // wrong type
            vec![],              // wrong arity
            vec![Value::Float(2.0)],
        ];
        let batch = cp.run_batch_soa("f", &sweep, None, popts());
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            assert_eq!(batch[j], vm.run(&cp, "f", args, None, popts()), "lane {j}");
        }
    }

    #[test]
    fn batch_profile_and_cost_equal_scalar() {
        let src = "float f(float x) {
                       float acc = 0.0;
                       for (int i = 0; i < 8; i = i + 1) { acc = acc + x * 0.5; }
                       return acc;
                   }";
        let prog = checked(src);
        let cp = compile(&prog);
        let sweep: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Float(i as f64)]).collect();
        let batch = cp.run_batch_soa("f", &sweep, None, popts());
        let tree = Evaluator::with_options(&prog, popts());
        for (j, args) in sweep.iter().enumerate() {
            let t = tree.run("f", args).expect("tree");
            let b = batch[j].as_ref().expect("batch");
            assert_eq!(t, *b, "lane {j} diverged from the tree walker");
        }
    }

    #[test]
    fn cache_writers_take_the_sequential_path() {
        use ds_lang::{ExprKind, SlotId, StmtKind};
        // A loader writes slot 0; later lanes must observe earlier writes
        // exactly as the old AoS loop did.
        let mut prog = parse_program("float loader(float k) { return k * k; }").unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            let inner = e.clone();
            e.kind = ExprKind::CacheStore(SlotId(0), Box::new(inner));
        }
        prog.renumber();
        let cp = compile(&prog);
        let sweep: Vec<Vec<Value>> = (1..5).map(|i| vec![Value::Float(i as f64)]).collect();
        let mut cache = CacheBuf::new(1);
        let outs = cp.run_batch_soa("loader", &sweep, Some(&mut cache), EvalOptions::default());
        assert!(outs.iter().all(|o| o.is_ok()));
        // The last lane's write is what remains.
        assert_eq!(cache.get(0), Some(Value::Float(16.0)));
    }

    #[test]
    fn fused_batch_matches_unfused_scalar_exactly() {
        let src = "float f(float x, float y) { return x + y * y - x * 0.5; }";
        let prog = checked(src);
        let mut cp = compile(&prog);
        let hist = static_op_histogram(&cp);
        let stats = fuse_hot_pairs(&mut cp, &hist, 4);
        assert!(stats.fused_sites > 0, "expected fusible pairs");
        let unfused = compile(&prog);
        let sweep: Vec<Vec<Value>> = (0..9)
            .map(|i| vec![Value::Float(i as f64), Value::Float(0.5 * i as f64)])
            .collect();
        let mut bvm = BatchVm::new();
        let fused_outs = bvm.run(&cp, "f", &sweep, None, popts());
        assert!(bvm.fused_dispatches() > 0);
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            let reference = vm.run(&unfused, "f", args, None, popts());
            assert_eq!(fused_outs[j], reference, "fusion changed lane {j}");
            // The fused program on the scalar VM must also agree.
            assert_eq!(vm.run(&cp, "f", args, None, popts()), reference);
        }
    }

    #[test]
    fn empty_batch_and_unknown_entry() {
        let prog = checked("float f(float x) { return x; }");
        let cp = compile(&prog);
        assert!(cp
            .run_batch_soa("f", &[], None, EvalOptions::default())
            .is_empty());
        let outs = cp.run_batch_soa("nope", &[vec![]], None, EvalOptions::default());
        assert_eq!(outs[0], Err(EvalError::UnknownProc("nope".into())));
    }

    #[test]
    fn step_limit_hits_every_lane_like_scalar() {
        let prog =
            checked("float f(float x) { float a = x; while (a > 0.0) { a = a + 1.0; } return a; }");
        let cp = compile(&prog);
        let opts = EvalOptions {
            step_limit: 500,
            ..EvalOptions::default()
        };
        let sweep: Vec<Vec<Value>> = (1..4).map(|i| vec![Value::Float(i as f64)]).collect();
        let batch = cp.run_batch_soa("f", &sweep, None, opts);
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            assert_eq!(batch[j], vm.run(&cp, "f", args, None, opts), "lane {j}");
        }
        assert!(batch.iter().all(|o| *o == Err(EvalError::StepLimit)));
    }
}
