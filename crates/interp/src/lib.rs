//! # ds-interp — the cost-metered MiniC evaluator
//!
//! The measurement substrate of the *Data Specialization* reproduction.
//! The paper measured wall-clock time on an Intel Pentium/100; this crate
//! instead charges each executed operation a deterministic abstract cost on
//! the paper's own scale (`+`=1, `/`=9, memory reference ≈ 2 — see
//! [`ds_lang::cost`]), so that original-vs-reader speedup ratios are exact,
//! reproducible, and platform independent. Criterion benches in `ds-bench`
//! additionally confirm the wall-clock of this evaluator tracks the charged
//! cost.
//!
//! Contents:
//!
//! * [`Evaluator`] — runs procedures, optionally with a [`CacheBuf`]
//!   attached so that loader (`CacheStore`) and reader (`CacheRef`) code
//!   can communicate;
//! * [`Engine`] — the one-shot choice between the reference tree walker
//!   and the register bytecode [`Vm`] (`--engine tree|vm`), which charge
//!   identical costs;
//! * [`BatchVm`] / [`CompiledProgram::run_batch_soa`] — the
//!   structure-of-arrays batch executor that replays one compiled reader
//!   over many inputs in lockstep, sharing one cache, reading one cache
//!   per lane ([`BatchVm::run_lanes`]) or writing one per lane
//!   ([`BatchVm::run_lanes_mut`]), with profile-guided
//!   superinstruction fusion ([`fuse_hot_pairs`]) and its lockstep exits
//!   counted in [`BatchStats`];
//! * [`Value`] / [`Outcome`] / [`EvalError`] — results and failures;
//! * [`noise`] — the deterministic gradient-noise / fBm / turbulence
//!   library behind the `noise*`, `fbm3` and `turb3` builtins.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ds_interp::{Evaluator, Value};
//!
//! let program = ds_lang::parse_program(
//!     "float brighten(float c, float gain) { return clamp(c * gain, 0.0, 1.0); }",
//! )?;
//! let out = Evaluator::new(&program)
//!     .run("brighten", &[Value::Float(0.4), Value::Float(2.0)])?;
//! assert_eq!(out.value, Some(Value::Float(0.8)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod compile;
pub mod error;
pub mod eval;
pub mod noise;
pub mod value;
pub mod vm;

pub use batch::{BatchStats, BatchVm};
pub use cache::{corrupt_value, hash_values, value_bits, CacheBuf, CacheError, WriteFault};
pub use compile::{
    compile, fuse_hot_pairs, static_op_histogram, CompiledProgram, DEFAULT_FUSION_TOP_K,
};
pub use error::EvalError;
pub use eval::{
    apply_binop, apply_binop_at, apply_pure_builtin, apply_unop, apply_unop_at, EvalOptions,
    Evaluator, Outcome, Profile, CALL_COST,
};
pub use value::Value;
pub use vm::{Engine, Vm};
