//! The non-recursive bytecode virtual machine.
//!
//! Executes [`CompiledProgram`]s produced by [`compile`](crate::compile()),
//! with an explicit frame stack instead of Rust recursion and a contiguous
//! register file instead of per-call hash maps. Observational behaviour
//! matches the tree-walking [`Evaluator`] exactly on
//! type-checked programs — see the parity contract in
//! [`compile`](mod@crate::compile).
//!
//! Two entry points matter for the paper's workload:
//!
//! * [`Vm::run`] — one evaluation, reusing the VM's register and frame
//!   buffers across calls;
//! * [`CompiledProgram::run_batch_soa`] — the interactive-rendering shape:
//!   one compiled program, one [`CacheBuf`], many varying inputs (the
//!   "user drags a slider" sweep), executed in structure-of-arrays
//!   lockstep by the [`BatchVm`](crate::BatchVm) so instruction dispatch
//!   is amortized across the whole sweep.

use crate::cache::CacheBuf;
use crate::compile::{CompiledProc, CompiledProgram, Op};
use crate::error::EvalError;
use crate::eval::{
    apply_binop_at, apply_builtin_at, apply_unop_at, EvalOptions, Evaluator, Outcome, Profile,
    CALL_COST,
};
use crate::value::Value;
use ds_lang::cost::{
    binop_cost, unop_cost, BRANCH_COST, CACHE_READ_COST, CACHE_STORE_COST, INDEX_COST,
    INDEX_STORE_COST,
};
use ds_lang::{Program, Type};
use std::str::FromStr;

/// Which execution backend runs a procedure.
///
/// Both engines implement identical observable semantics (the differential
/// harness in `tests/differential_vm.rs` enforces it); they differ only in
/// wall-clock speed. The tree walker needs no compilation step and is the
/// reference implementation; the VM compiles once and then evaluates
/// several times faster, which is what the paper's per-pixel reader replay
/// rewards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference tree-walking evaluator.
    #[default]
    Tree,
    /// The register bytecode VM.
    Vm,
    /// The structure-of-arrays batch VM ([`BatchVm`](crate::BatchVm)).
    /// For single evaluations it runs a batch of one; its payoff is
    /// [`CompiledProgram::run_batch_soa`], which amortizes instruction
    /// dispatch across every lane of a sweep.
    VmBatch,
}

impl Engine {
    /// Runs `entry` from `program` on this engine. One-shot convenience:
    /// the VM variants compile the whole program per call, so hot loops
    /// should instead [`compile`](crate::compile()) once and use
    /// [`Vm::run`] or [`CompiledProgram::run_batch_soa`].
    pub fn run_program(
        self,
        program: &Program,
        entry: &str,
        args: &[Value],
        cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        match self {
            Engine::Tree => {
                let ev = Evaluator::with_options(program, opts);
                match cache {
                    Some(c) => ev.run_with_cache(entry, args, c),
                    None => ev.run(entry, args),
                }
            }
            Engine::Vm => crate::compile::compile(program).run(entry, args, cache, opts),
            Engine::VmBatch => crate::compile::compile(program)
                .run_batch_soa(entry, &[args.to_vec()], cache, opts)
                .pop()
                .expect("a batch of one yields one outcome"),
        }
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "tree" => Ok(Engine::Tree),
            "vm" => Ok(Engine::Vm),
            "vm-batch" => Ok(Engine::VmBatch),
            other => Err(format!(
                "unknown engine `{other}` (expected `tree`, `vm` or `vm-batch`)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Tree => "tree",
            Engine::Vm => "vm",
            Engine::VmBatch => "vm-batch",
        })
    }
}

/// A suspended caller: where to resume and where the callee's value goes.
/// Shared with the batch VM, whose lockstep frame stack has the same
/// shape (one stack for all lanes — control flow is uniform in lockstep).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) proc_idx: u32,
    pub(crate) pc: u32,
    pub(crate) base: u32,
    pub(crate) dst: u32,
}

/// The machine state a scalar run starts from: the entry procedure at
/// pc 0 for [`Vm::run`], or the point where a lane left the batch VM's
/// lockstep for [`Vm::resume`].
pub(crate) struct Resume<'f> {
    pub(crate) proc_idx: usize,
    pub(crate) pc: usize,
    pub(crate) base: usize,
    /// The suspended callers, outermost first.
    pub(crate) frames: &'f [Frame],
    pub(crate) fuel: u64,
    pub(crate) cost: u64,
    pub(crate) trace: Vec<f64>,
    pub(crate) profile: Option<Profile>,
}

/// A reusable bytecode executor.
///
/// The register file, frame stack and argument scratch buffer persist
/// across [`run`](Vm::run) calls, so repeated evaluation of a compiled
/// program allocates nothing per run (beyond the returned [`Outcome`]).
#[derive(Debug, Default)]
pub struct Vm {
    regs: Vec<Value>,
    frames: Vec<Frame>,
    argbuf: Vec<Value>,
}

impl Vm {
    /// Creates a VM with empty buffers.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Runs procedure `entry` of `prog` on `args`, with an optional cache
    /// attached for `CacheRef`/`CacheStore` instructions.
    ///
    /// # Errors
    ///
    /// The same [`EvalError`] classes, messages and spans as
    /// [`Evaluator::run`] / [`Evaluator::run_with_cache`].
    pub fn run(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        args: &[Value],
        cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        let entry_idx = prog
            .proc_index(entry)
            .ok_or_else(|| EvalError::UnknownProc(entry.to_string()))?;
        let proc = &prog.procs[entry_idx];
        check_args(proc, args)?;

        self.regs.clear();
        self.regs.resize(proc.nregs as usize, Value::Int(0));
        self.regs[..args.len()].clone_from_slice(args);
        let at = Resume {
            proc_idx: entry_idx,
            pc: 0,
            base: 0,
            frames: &[],
            fuel: opts.step_limit,
            cost: 0,
            trace: Vec::new(),
            profile: opts.profile.then(Profile::default),
        };
        self.exec(prog, at, cache, opts)
    }

    /// Continues a run that left the batch VM's lockstep at `at`: `regs`
    /// is the lane's whole register file (every frame's window), and `at`
    /// carries the shared frame stack, fuel, cost and profile with the
    /// lane's own trace. The result is the one an uninterrupted scalar run
    /// of the lane would return.
    pub(crate) fn resume(
        &mut self,
        prog: &CompiledProgram,
        regs: impl Iterator<Item = Value>,
        at: Resume<'_>,
        cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        self.regs.clear();
        self.regs.extend(regs);
        self.exec(prog, at, cache, opts)
    }

    /// The interpreter loop, from the machine state `at` over the register
    /// file in `self.regs`.
    fn exec(
        &mut self,
        prog: &CompiledProgram,
        at: Resume<'_>,
        mut cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        let Resume {
            mut proc_idx,
            mut pc,
            mut base,
            frames,
            mut fuel,
            mut cost,
            mut trace,
            mut profile,
        } = at;
        self.frames.clear();
        self.frames.extend_from_slice(frames);
        let mut proc: &CompiledProc = &prog.procs[proc_idx];

        macro_rules! step1 {
            () => {
                if fuel == 0 {
                    return Err(EvalError::StepLimit);
                }
                fuel -= 1;
            };
        }

        let value = loop {
            let op = proc.code[pc];
            pc += 1;
            match op {
                Op::Step { n } => {
                    let n = n as u64;
                    if fuel < n {
                        return Err(EvalError::StepLimit);
                    }
                    fuel -= n;
                }
                Op::Charge { cost: c } => cost += c as u64,
                Op::Const { dst, k } => {
                    step1!();
                    self.regs[base + dst as usize] = prog.consts[k as usize].clone();
                }
                Op::Move { dst, src } => {
                    step1!();
                    self.regs[base + dst as usize] = self.regs[base + src as usize].clone();
                }
                Op::Un { op, dst, src } => {
                    step1!();
                    cost += unop_cost(op);
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                    }
                    let v = apply_unop_at(
                        op,
                        self.regs[base + src as usize].clone(),
                        proc.spans[pc - 1],
                    )?;
                    self.regs[base + dst as usize] = v;
                }
                Op::Bin { op, dst, lhs, rhs } => {
                    step1!();
                    cost += binop_cost(op);
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                    }
                    let v = apply_binop_at(
                        op,
                        self.regs[base + lhs as usize].clone(),
                        self.regs[base + rhs as usize].clone(),
                        proc.spans[pc - 1],
                    )?;
                    self.regs[base + dst as usize] = v;
                }
                Op::FillArray { dst, src, n } => {
                    let v = self.regs[base + src as usize].clone();
                    self.regs[base + dst as usize] = Value::Array(vec![v; n as usize]);
                }
                Op::LoadIndex { dst, arr, idx } => {
                    step1!();
                    cost += INDEX_COST;
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry("idxload").or_default() += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let i =
                        self.regs[base + idx as usize]
                            .as_int()
                            .ok_or(EvalError::TypeMismatch {
                                expected: Type::Int,
                                span,
                            })?;
                    let Value::Array(elems) = &self.regs[base + arr as usize] else {
                        return Err(EvalError::TypeMismatch {
                            expected: Type::Int,
                            span,
                        });
                    };
                    if i < 0 || i as usize >= elems.len() {
                        return Err(EvalError::IndexOutOfBounds {
                            index: i,
                            len: elems.len(),
                            span,
                        });
                    }
                    self.regs[base + dst as usize] = elems[i as usize].clone();
                }
                Op::StoreIndex { arr, idx, src } => {
                    cost += INDEX_STORE_COST;
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry("idxstore").or_default() += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let i =
                        self.regs[base + idx as usize]
                            .as_int()
                            .ok_or(EvalError::TypeMismatch {
                                expected: Type::Int,
                                span,
                            })?;
                    let v = self.regs[base + src as usize].clone();
                    let Value::Array(elems) = &mut self.regs[base + arr as usize] else {
                        return Err(EvalError::TypeMismatch {
                            expected: Type::Int,
                            span,
                        });
                    };
                    if i < 0 || i as usize >= elems.len() {
                        return Err(EvalError::IndexOutOfBounds {
                            index: i,
                            len: elems.len(),
                            span,
                        });
                    }
                    elems[i as usize] = v;
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfFalse { cond, target } => {
                    let c = self.regs[base + cond as usize].as_bool().ok_or(
                        EvalError::TypeMismatch {
                            expected: Type::Bool,
                            span: proc.spans[pc - 1],
                        },
                    )?;
                    cost += BRANCH_COST;
                    if let Some(p) = profile.as_mut() {
                        p.branches += 1;
                    }
                    if !c {
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
                    self.argbuf.clear();
                    for &r in &proc.arg_pool[args_at as usize..(args_at + argc) as usize] {
                        self.argbuf.push(self.regs[base + r as usize].clone());
                    }
                    let v = apply_builtin_at(b, &self.argbuf, proc.spans[pc - 1], &mut trace)?;
                    self.regs[base + dst as usize] = v;
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
                        return Err(EvalError::BadArguments {
                            proc: callee_proc.name.clone(),
                            detail: format!(
                                "expected {} argument(s), got {}",
                                callee_proc.params.len(),
                                arg_regs.len()
                            ),
                        });
                    }
                    let new_base = base + proc.nregs as usize;
                    let need = new_base + callee_proc.nregs as usize;
                    if self.regs.len() < need {
                        self.regs.resize(need, Value::Int(0));
                    }
                    for (i, (&r, (pname, pty))) in
                        arg_regs.iter().zip(&callee_proc.params).enumerate()
                    {
                        let v = self.regs[base + r as usize].clone();
                        if v.ty() != *pty {
                            return Err(EvalError::BadArguments {
                                proc: callee_proc.name.clone(),
                                detail: format!(
                                    "parameter `{pname}` expects `{pty}`, got `{}`",
                                    v.ty()
                                ),
                            });
                        }
                        self.regs[new_base + i] = v;
                    }
                    self.frames.push(Frame {
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
                    let v = self.regs[base + src as usize].clone();
                    match self.frames.pop() {
                        None => break Some(v),
                        Some(f) => {
                            proc_idx = f.proc_idx as usize;
                            proc = &prog.procs[proc_idx];
                            base = f.base as usize;
                            pc = f.pc as usize;
                            self.regs[base + f.dst as usize] = v;
                        }
                    }
                }
                Op::RetVoid => {
                    match self.frames.pop() {
                        None => break None,
                        Some(f) => {
                            // A void result in expression position: the
                            // evaluator's TypeMismatch at the call site.
                            let caller = &prog.procs[f.proc_idx as usize];
                            return Err(EvalError::TypeMismatch {
                                expected: Type::Void,
                                span: caller.spans[f.pc as usize - 1],
                            });
                        }
                    }
                }
                Op::CacheRead { dst, slot, .. } => {
                    step1!();
                    cost += CACHE_READ_COST;
                    if let Some(p) = profile.as_mut() {
                        p.cache_reads += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let cb = cache.as_deref().ok_or(EvalError::NoCache(span))?;
                    let v = cb.get(slot as usize).ok_or(EvalError::UnfilledSlot {
                        slot: slot as usize,
                        span,
                    })?;
                    self.regs[base + dst as usize] = v;
                }
                Op::CacheWrite { src, slot } => {
                    step1!();
                    cost += CACHE_STORE_COST;
                    if let Some(p) = profile.as_mut() {
                        p.cache_writes += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let v = self.regs[base + src as usize].clone();
                    let cb = cache.as_deref_mut().ok_or(EvalError::NoCache(span))?;
                    cb.try_set(slot as usize, v).map_err(
                        |crate::cache::CacheError::OutOfBounds { slot, len }| {
                            EvalError::CacheOutOfBounds { slot, len, span }
                        },
                    )?;
                }
                Op::Fused { pair } => {
                    // Execute both constituents with the exact accounting
                    // of the unfused pair, then skip the shadow slot. The
                    // constituent spans are the pair's original spans:
                    // `spans[pc - 1]` (the fused site) and `spans[pc]`
                    // (the shadow), so errors report the same location as
                    // unfused execution.
                    let (first, second) = proc.fused[pair as usize];
                    let spans = [proc.spans[pc - 1], proc.spans[pc]];
                    for (part, span) in [first, second].into_iter().zip(spans) {
                        step1!();
                        match part {
                            Op::Un { op, dst, src } => {
                                cost += unop_cost(op);
                                if let Some(p) = profile.as_mut() {
                                    p.ops += 1;
                                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                                }
                                let v = apply_unop_at(
                                    op,
                                    self.regs[base + src as usize].clone(),
                                    span,
                                )?;
                                self.regs[base + dst as usize] = v;
                            }
                            Op::Bin { op, dst, lhs, rhs } => {
                                cost += binop_cost(op);
                                if let Some(p) = profile.as_mut() {
                                    p.ops += 1;
                                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                                }
                                let v = apply_binop_at(
                                    op,
                                    self.regs[base + lhs as usize].clone(),
                                    self.regs[base + rhs as usize].clone(),
                                    span,
                                )?;
                                self.regs[base + dst as usize] = v;
                            }
                            Op::LoadIndex { dst, arr, idx } => {
                                cost += INDEX_COST;
                                if let Some(p) = profile.as_mut() {
                                    p.ops += 1;
                                    *p.op_histogram.entry("idxload").or_default() += 1;
                                }
                                let i = self.regs[base + idx as usize].as_int().ok_or(
                                    EvalError::TypeMismatch {
                                        expected: Type::Int,
                                        span,
                                    },
                                )?;
                                let Value::Array(elems) = &self.regs[base + arr as usize] else {
                                    return Err(EvalError::TypeMismatch {
                                        expected: Type::Int,
                                        span,
                                    });
                                };
                                if i < 0 || i as usize >= elems.len() {
                                    return Err(EvalError::IndexOutOfBounds {
                                        index: i,
                                        len: elems.len(),
                                        span,
                                    });
                                }
                                self.regs[base + dst as usize] = elems[i as usize].clone();
                            }
                            other => unreachable!("non-fusible constituent {other:?}"),
                        }
                    }
                    pc += 1;
                }
                Op::ErrUnknownProc { name_at } => {
                    // Step-limit exhaustion takes precedence, as in the
                    // evaluator's `step()`-before-lookup ordering.
                    if fuel == 0 {
                        return Err(EvalError::StepLimit);
                    }
                    return Err(EvalError::UnknownProc(prog.names[name_at as usize].clone()));
                }
                Op::ErrUnbound { name_at } => {
                    if fuel == 0 {
                        return Err(EvalError::StepLimit);
                    }
                    return Err(EvalError::BadArguments {
                        proc: String::new(),
                        detail: format!("unbound variable `{}`", prog.names[name_at as usize]),
                    });
                }
                Op::ErrMissingReturn => {
                    return Err(EvalError::MissingReturn(proc.name.clone()));
                }
            }
        };

        if let Some(p) = profile.as_mut() {
            p.steps = opts.step_limit - fuel;
            p.cost = cost;
        }
        Ok(Outcome {
            value,
            cost,
            trace,
            profile: profile.map(Box::new),
        })
    }
}

/// Entry-point argument validation, mirroring the evaluator's `call`.
/// Shared with the batch VM, which applies it per lane.
pub(crate) fn check_args(proc: &CompiledProc, args: &[Value]) -> Result<(), EvalError> {
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
    for ((pname, pty), arg) in proc.params.iter().zip(args) {
        if *pty != arg.ty() {
            return Err(EvalError::BadArguments {
                proc: proc.name.clone(),
                detail: format!("parameter `{pname}` expects `{pty}`, got `{}`", arg.ty()),
            });
        }
    }
    Ok(())
}

impl CompiledProgram {
    /// Runs procedure `entry` once on a fresh [`Vm`]. For repeated runs,
    /// hold a [`Vm`] (or use
    /// [`run_batch_soa`](CompiledProgram::run_batch_soa)) so its buffers
    /// are reused.
    ///
    /// # Errors
    ///
    /// Same classes as [`Evaluator::run`], including
    /// [`EvalError::UnknownProc`] when `entry` does not exist.
    pub fn run(
        &self,
        entry: &str,
        args: &[Value],
        cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        Vm::new().run(self, entry, args, cache, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use ds_lang::parse_program;

    fn both(src: &str, entry: &str, args: &[Value]) -> (Outcome, Outcome) {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        let opts = EvalOptions {
            profile: true,
            ..EvalOptions::default()
        };
        let tree = Evaluator::with_options(&prog, opts)
            .run(entry, args)
            .expect("tree run");
        let vm = compile(&prog).run(entry, args, None, opts).expect("vm run");
        (tree, vm)
    }

    #[test]
    fn parity_on_arithmetic_and_loops() {
        let (t, v) = both(
            "int fact(int n) {
                 int acc = 1;
                 for (int i = 2; i <= n; i = i + 1) { acc = acc * i; }
                 return acc;
             }",
            "fact",
            &[Value::Int(6)],
        );
        assert_eq!(v.value, Some(Value::Int(720)));
        assert_eq!(t, v, "tree and vm outcomes must match exactly");
    }

    #[test]
    fn parity_on_builtins_and_ternary() {
        let (t, v) = both(
            "float f(float x, float y) {
                 float a = x > y ? sin(x) : cos(y);
                 return clamp(a + noise2(x, y), -1.0, 1.0);
             }",
            "f",
            &[Value::Float(0.3), Value::Float(0.7)],
        );
        assert_eq!(t, v);
    }

    #[test]
    fn parity_on_trace_effects() {
        let (t, v) = both(
            "void f(float x) { trace(x); if (x > 0.0) { trace(x + 1.0); } trace(-1.0); }",
            "f",
            &[Value::Float(2.0)],
        );
        assert_eq!(t.trace, vec![2.0, 3.0, -1.0]);
        assert_eq!(t, v);
    }

    #[test]
    fn parity_on_user_calls() {
        let (t, v) = both(
            "float half(float x) { return x / 2.0; }
             float f(float x) { return half(x) + half(half(x)); }",
            "f",
            &[Value::Float(8.0)],
        );
        assert_eq!(v.value, Some(Value::Float(6.0)));
        assert_eq!(t, v);
    }

    #[test]
    fn parity_on_errors() {
        let prog = parse_program("int f(int a, int b) { return a / b; }").unwrap();
        ds_lang::typecheck(&prog).unwrap();
        let tree = Evaluator::new(&prog)
            .run("f", &[Value::Int(1), Value::Int(0)])
            .unwrap_err();
        let vm = compile(&prog)
            .run(
                "f",
                &[Value::Int(1), Value::Int(0)],
                None,
                EvalOptions::default(),
            )
            .unwrap_err();
        assert_eq!(tree, vm, "error (incl. span) must match");
    }

    #[test]
    fn step_limit_parity_on_runaway_loop() {
        let prog = parse_program("void f() { while (true) { } return; }").unwrap();
        let opts = EvalOptions {
            step_limit: 1000,
            ..EvalOptions::default()
        };
        let tree = Evaluator::with_options(&prog, opts)
            .run("f", &[])
            .unwrap_err();
        let vm = compile(&prog).run("f", &[], None, opts).unwrap_err();
        assert_eq!(tree, EvalError::StepLimit);
        assert_eq!(vm, EvalError::StepLimit);
    }

    #[test]
    fn fuel_total_matches_tree_walker() {
        // Run with exactly enough fuel on the tree walker; the VM must
        // succeed with the same budget and fail one notch below it.
        let src = "float f(float x) {
                       float acc = 0.0;
                       for (int i = 0; i < 5; i = i + 1) {
                           acc = acc + (x > 1.0 ? x : sin(x));
                       }
                       return acc;
                   }";
        let prog = parse_program(src).unwrap();
        ds_lang::typecheck(&prog).unwrap();
        let args = [Value::Float(0.5)];
        let need = {
            // Binary-search the minimal fuel that lets the tree walker finish.
            let (mut lo, mut hi) = (0u64, 10_000u64);
            while lo < hi {
                let mid = (lo + hi) / 2;
                let opts = EvalOptions {
                    step_limit: mid,
                    ..EvalOptions::default()
                };
                match Evaluator::with_options(&prog, opts).run("f", &args) {
                    Ok(_) => hi = mid,
                    Err(EvalError::StepLimit) => lo = mid + 1,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            lo
        };
        let cp = compile(&prog);
        let exact = EvalOptions {
            step_limit: need,
            ..EvalOptions::default()
        };
        assert!(
            cp.run("f", &args, None, exact).is_ok(),
            "vm needs more fuel than tree"
        );
        let starved = EvalOptions {
            step_limit: need - 1,
            ..EvalOptions::default()
        };
        assert_eq!(
            cp.run("f", &args, None, starved).unwrap_err(),
            EvalError::StepLimit,
            "vm gets further than tree on the same fuel"
        );
    }

    #[test]
    fn cache_roundtrip_and_unfilled_slot() {
        use ds_lang::{ExprKind, SlotId, StmtKind};
        let mut prog = parse_program(
            "float loader(float x) { return x * x; }
             float reader(float x) { return 0.0; }",
        )
        .unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            let inner = e.clone();
            e.kind = ExprKind::CacheStore(SlotId(0), Box::new(inner));
        }
        if let StmtKind::Return(Some(e)) = &mut prog.procs[1].body.stmts[0].kind {
            e.kind = ExprKind::CacheRef(SlotId(0), Type::Float);
        }
        prog.renumber();
        let cp = compile(&prog);
        let opts = EvalOptions::default();

        // Reading before the loader ran: deterministic UnfilledSlot.
        let mut cache = CacheBuf::new(1);
        let err = cp
            .run("reader", &[Value::Float(1.0)], Some(&mut cache), opts)
            .unwrap_err();
        assert!(matches!(err, EvalError::UnfilledSlot { slot: 0, .. }));

        // Loader fills; reader reproduces; no cache at all is NoCache.
        let l = cp
            .run("loader", &[Value::Float(3.0)], Some(&mut cache), opts)
            .unwrap();
        assert_eq!(l.value, Some(Value::Float(9.0)));
        assert_eq!(cache.filled(), 1);
        let r = cp
            .run("reader", &[Value::Float(99.0)], Some(&mut cache), opts)
            .unwrap();
        assert_eq!(r.value, Some(Value::Float(9.0)));
        assert!(r.cost < l.cost);
        let err = cp
            .run("reader", &[Value::Float(1.0)], None, opts)
            .unwrap_err();
        assert!(matches!(err, EvalError::NoCache(_)));
    }

    #[test]
    fn run_batch_soa_reuses_cache() {
        use ds_lang::{ExprKind, SlotId, StmtKind};
        let mut prog = parse_program(
            "float loader(float k) { return k * k; }
             float reader(float v) { return 0.0 + v; }",
        )
        .unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            let inner = e.clone();
            e.kind = ExprKind::CacheStore(SlotId(0), Box::new(inner));
        }
        if let StmtKind::Return(Some(e)) = &mut prog.procs[1].body.stmts[0].kind {
            if let ExprKind::Binary(_, l, _) = &mut e.kind {
                l.kind = ExprKind::CacheRef(SlotId(0), Type::Float);
            }
        }
        prog.renumber();
        let cp = compile(&prog);
        let opts = EvalOptions::default();
        let mut cache = CacheBuf::new(1);
        cp.run("loader", &[Value::Float(2.0)], Some(&mut cache), opts)
            .unwrap();

        let sweep: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Float(i as f64)]).collect();
        let outs = cp.run_batch_soa("reader", &sweep, Some(&mut cache), opts);
        assert_eq!(outs.len(), 100);
        for (i, out) in outs.iter().enumerate() {
            let out = out.as_ref().expect("batch run");
            assert_eq!(out.value, Some(Value::Float(4.0 + i as f64)));
        }
    }

    #[test]
    fn engine_selection_api() {
        let prog = parse_program("float sq(float x) { return x * x; }").unwrap();
        ds_lang::typecheck(&prog).unwrap();
        assert_eq!("tree".parse::<Engine>(), Ok(Engine::Tree));
        assert_eq!("vm".parse::<Engine>(), Ok(Engine::Vm));
        assert_eq!("vm-batch".parse::<Engine>(), Ok(Engine::VmBatch));
        assert!("jit".parse::<Engine>().is_err());
        for engine in [Engine::Tree, Engine::Vm, Engine::VmBatch] {
            let out = engine
                .run_program(
                    &prog,
                    "sq",
                    &[Value::Float(4.0)],
                    None,
                    EvalOptions::default(),
                )
                .unwrap();
            assert_eq!(out.value, Some(Value::Float(16.0)));
            assert_eq!(engine.to_string().parse::<Engine>(), Ok(engine));
        }
    }

    #[test]
    fn unknown_entry_is_unknown_proc() {
        let prog = parse_program("float sq(float x) { return x * x; }").unwrap();
        let cp = compile(&prog);
        let err = cp
            .run("nope", &[], None, EvalOptions::default())
            .unwrap_err();
        assert_eq!(err, EvalError::UnknownProc("nope".into()));
    }

    #[test]
    fn entry_bad_arguments_match_tree_walker() {
        let prog = parse_program("float f(float x) { return x; }").unwrap();
        let cp = compile(&prog);
        let tree = Evaluator::new(&prog)
            .run("f", &[Value::Int(1)])
            .unwrap_err();
        let vm = cp
            .run("f", &[Value::Int(1)], None, EvalOptions::default())
            .unwrap_err();
        assert_eq!(tree, vm);
        let tree = Evaluator::new(&prog).run("f", &[]).unwrap_err();
        let vm = cp.run("f", &[], None, EvalOptions::default()).unwrap_err();
        assert_eq!(tree, vm);
    }

    #[test]
    fn ill_typed_builtin_arguments_match_the_tree_walker() {
        for src in [
            "float f() { return sqrt(true); }",
            "float f() { return trace(1); }",
            "float f() { return pow(1.0); }",
        ] {
            let prog = parse_program(src).unwrap();
            let tree = Evaluator::new(&prog).run("f", &[]).unwrap_err();
            let vm = compile(&prog)
                .run("f", &[], None, EvalOptions::default())
                .unwrap_err();
            assert_eq!(tree, vm, "{src}");
        }
    }
}
