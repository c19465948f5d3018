//! # ds-lang — the MiniC front end
//!
//! This crate defines **MiniC**, the "subset of C without pointers or `goto`"
//! that *Data Specialization* (Knoblock & Ruf, PLDI 1996, §5) processes, and
//! provides everything needed to get from source text to a typed AST:
//!
//! * [`lex`] — tokenization;
//! * [`parse_program`] / [`parse_expr`] — parsing (with `&&`/`||`/`for`
//!   desugaring);
//! * [`typecheck`] — typing plus the paper's structural restrictions
//!   (no recursion, unique names, all paths return);
//! * [`print_program`] / [`print_proc`] / [`print_expr`] — pretty-printing;
//! * [`Builtin`] — the shading math library's signatures and cost metadata;
//! * the [`cost`] module — the abstract cost scale shared by the static
//!   estimator (§4.3) and the dynamic cost meter in `ds-interp`.
//!
//! Downstream crates: `ds-analysis` (dependence + caching analyses),
//! `ds-core` (the splitting transformation and `specialize()` driver),
//! `ds-interp` (the cost-metered evaluator), `ds-codespec` (the
//! code-specialization baseline) and `ds-shaders` (the benchmark suite).
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), ds_lang::FrontendError> {
//! use ds_lang::{parse_program, typecheck, print_program};
//!
//! let program = parse_program(
//!     "float dotprod(float x1, float y1, float z1,
//!                    float x2, float y2, float z2, float scale) {
//!          if (scale != 0.0) {
//!              return (x1*x2 + y1*y2 + z1*z2) / scale;
//!          } else {
//!              return -1.0;
//!          }
//!      }",
//! )?;
//! typecheck(&program)?;
//! assert!(print_program(&program).contains("dotprod"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod cost;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sexpr;
pub mod span;
pub mod token;
pub mod typeck;

pub use ast::{
    BinOp, Block, Elem, Expr, ExprKind, Param, Proc, Program, SlotId, Stmt, StmtKind, TermId, Type,
    UnOp,
};
pub use builtins::{Builtin, ALL_BUILTINS};
pub use error::{FrontendError, Phase};
pub use lexer::lex;
pub use parser::{parse_expr, parse_program};
pub use pretty::{print_expr, print_proc, print_program};
pub use span::{LineCol, Span};
pub use token::{Token, TokenKind};
pub use typeck::{check_procs, typecheck, validate, TypeInfo};
