//! The splitting transformation (paper §3.3).
//!
//! "Once the caching analysis is complete, we traverse the annotated
//! fragment and emit the cache loader and the cache reader" by case analysis
//! on each term's label:
//!
//! * **static** — added to the loader only;
//! * **cached** — added to the loader wrapped in a cache-slot assignment;
//!   the reader receives a slot read in its place;
//! * **dynamic** — added to both.
//!
//! The loader is "essentially an instrumented version of the original
//! fragment" — it computes the full result *and* fills the cache, which is
//! the paper's signature refinement (2): one pass both loads the cache and
//! produces the first result. The reader is the original minus all static
//! computation, with cached terms replaced by `CACHE[slot]` reads.

use crate::error::SpecError;
use crate::layout::CacheLayout;
use ds_analysis::{CacheSolver, Label};
use ds_lang::{Block, Expr, ExprKind, Proc, SlotId, Stmt, StmtKind, TermId, Type, TypeInfo};
use ds_telemetry::{StageMap, StageSet};

/// Splits `proc` into `(loader, reader)` according to `solver`'s labels and
/// the slot assignment in `layout`.
///
/// The loader keeps `proc`'s statement structure with every cached
/// expression wrapped in a `CacheStore`; the reader drops static statements
/// and replaces cached expressions with `CacheRef`s. `hoists` maps each
/// speculatively cached term to the statement its store is hoisted ahead
/// of (§7.1); it is empty unless speculation is on.
///
/// # Errors
///
/// [`SpecError::Internal`] if the labeling violates the consistency
/// constraints — a cached term without a slot in `layout`, a statement
/// labeled cached, a static expression consumed by the reader, a hoisted
/// term missing from `proc`, or a reader variable the fragment does not
/// declare. A solved [`CacheSolver`] and the layout built from it never
/// produce such labelings.
pub fn split(
    proc: &Proc,
    solver: &CacheSolver<'_, '_>,
    layout: &CacheLayout,
    types: &TypeInfo,
    hoists: &StageMap<TermId, TermId>,
) -> Result<(Proc, Proc), SpecError> {
    // Invert the hoist map: anchor statement -> slots to fill just before
    // it (in slot order, for determinism).
    let mut hoisted_before: StageMap<TermId, Vec<TermId>> = StageMap::default();
    for (&term, &anchor) in hoists {
        hoisted_before.entry(anchor).or_default().push(term);
    }
    for v in hoisted_before.values_mut() {
        v.sort_unstable();
    }
    let cx = Split {
        solver,
        layout,
        hoists,
        hoisted_before,
        hoisted_exprs: index_hoisted(proc, hoists),
    };

    let loader = Proc {
        name: format!("{}__loader", proc.name),
        params: proc.params.clone(),
        ret: proc.ret,
        body: cx.loader_block(&proc.body)?,
        span: proc.span,
    };
    let mut reader = Proc {
        name: format!("{}__reader", proc.name),
        params: proc.params.clone(),
        ret: proc.ret,
        body: cx.reader_block(&proc.body)?,
        span: proc.span,
    };
    declare_on_first_write(&mut reader, &proc.name, types)?;
    Ok((loader, reader))
}

/// The reader drops static declarations, so a surviving dynamic assignment
/// may target a variable with no declaration left (the paper's Figure 6
/// reader begins `x = cache->slot1`). Convert the first write of each such
/// variable into a declaration. Rule 4 guarantees every *use* still sees
/// all of its reaching definitions, so definite initialization is
/// preserved.
fn declare_on_first_write(
    reader: &mut Proc,
    fragment_name: &str,
    types: &TypeInfo,
) -> Result<(), SpecError> {
    let mut declared: StageSet<String> = reader.params.iter().map(|p| p.name.clone()).collect();
    let var_type = |name: &str| {
        types.var_type(fragment_name, name).ok_or_else(|| {
            SpecError::Internal(format!(
                "reader variable `{name}` is not a variable of fragment `{fragment_name}`"
            ))
        })
    };
    fn go(
        block: &mut Block,
        declared: &mut StageSet<String>,
        var_type: &dyn Fn(&str) -> Result<Type, SpecError>,
    ) -> Result<(), SpecError> {
        let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
        for mut s in std::mem::take(&mut block.stmts) {
            match &mut s.kind {
                StmtKind::Decl { name, .. } => {
                    declared.insert(name.clone());
                }
                StmtKind::Assign { name, value, .. } => {
                    if !declared.contains(name.as_str()) {
                        let ty = var_type(name)?;
                        declared.insert(name.clone());
                        if ty.array_len().is_some() {
                            // A whole-array assignment kills every element,
                            // but a Decl's init is an element *fill*, so it
                            // cannot carry the array-typed RHS. Allocate the
                            // array with a zero fill and keep the assignment.
                            out.push(Stmt::synth(StmtKind::Decl {
                                name: name.clone(),
                                ty,
                                init: Expr::zero(ty),
                            }));
                        } else {
                            let name = name.clone();
                            let init =
                                std::mem::replace(value, Expr::synth(ExprKind::BoolLit(false)));
                            s.kind = StmtKind::Decl { name, ty, init };
                        }
                    }
                }
                StmtKind::ArrayAssign { name, .. } => {
                    // Rule 4 normally drags the array's declaration into the
                    // reader ahead of any surviving element write (element
                    // writes use the preserved elements' definitions). The
                    // one gap is a length-1 array, whose writes preserve
                    // nothing: allocate it here.
                    if !declared.contains(name.as_str()) {
                        let ty = var_type(name)?;
                        declared.insert(name.clone());
                        out.push(Stmt::synth(StmtKind::Decl {
                            name: name.clone(),
                            ty,
                            init: Expr::zero(ty),
                        }));
                    }
                }
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    go(then_blk, declared, var_type)?;
                    go(else_blk, declared, var_type)?;
                }
                StmtKind::While { body, .. } => go(body, declared, var_type)?,
                StmtKind::Return(_) | StmtKind::ExprStmt(_) => {}
            }
            out.push(s);
        }
        block.stmts = out;
        Ok(())
    }
    go(&mut reader.body, &mut declared, &var_type)
}

struct Split<'s, 'a, 'p> {
    solver: &'s CacheSolver<'a, 'p>,
    layout: &'s CacheLayout,
    /// Speculatively cached term -> its hoist anchor statement (§7.1).
    hoists: &'s StageMap<TermId, TermId>,
    /// Anchor statement -> speculative terms stored just before it.
    hoisted_before: StageMap<TermId, Vec<TermId>>,
    /// The hoisted terms' expressions, which their stores copy to the
    /// anchor.
    hoisted_exprs: StageMap<TermId, &'s Expr>,
}

/// Indexes the expressions of the hoisted terms of `proc` (their stores
/// need the original subtree at a different program point). No other
/// term is ever looked up, so no other term is indexed.
fn index_hoisted<'p>(
    proc: &'p Proc,
    hoists: &StageMap<TermId, TermId>,
) -> StageMap<TermId, &'p Expr> {
    let mut m = StageMap::default();
    if !hoists.is_empty() {
        proc.walk_exprs(&mut |e| {
            if hoists.contains_key(&e.id) {
                m.insert(e.id, e);
            }
        });
    }
    m
}

impl<'s, 'a, 'p> Split<'s, 'a, 'p> {
    fn label(&self, id: TermId) -> Label {
        self.solver.label(id)
    }

    /// The slot and type of cached term `id`.
    fn slot(&self, id: TermId) -> Result<(SlotId, Type), SpecError> {
        self.layout
            .slot_of_term(id)
            .map(|s| (s.id, s.ty))
            .ok_or_else(|| {
                SpecError::Internal(format!("cached term {id} has no slot in the layout"))
            })
    }

    // ----- loader: everything, with CacheStore at cached terms -----

    fn loader_block(&self, b: &Block) -> Result<Block, SpecError> {
        let mut stmts = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            // §7.1 speculation: fill hoisted slots unconditionally just
            // before the dependent guard that would otherwise gate them.
            if let Some(terms) = self.hoisted_before.get(&s.id) {
                for &t in terms {
                    let (slot, _) = self.slot(t)?;
                    let expr = self.hoisted_exprs.get(&t).ok_or_else(|| {
                        SpecError::Internal(format!(
                            "hoisted term {t} is not a fragment expression"
                        ))
                    })?;
                    stmts.push(Stmt::synth(StmtKind::ExprStmt(Expr::synth(
                        ExprKind::CacheStore(slot, Box::new((*expr).clone())),
                    ))));
                }
            }
            stmts.push(self.loader_stmt(s)?);
        }
        Ok(Block { stmts })
    }

    fn loader_stmt(&self, s: &Stmt) -> Result<Stmt, SpecError> {
        let kind = match &s.kind {
            StmtKind::Decl { name, ty, init } => StmtKind::Decl {
                name: name.clone(),
                ty: *ty,
                init: self.loader_expr(init)?,
            },
            StmtKind::Assign {
                name,
                value,
                is_phi,
            } => StmtKind::Assign {
                name: name.clone(),
                value: self.loader_expr(value)?,
                is_phi: *is_phi,
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.loader_expr(cond)?,
                then_blk: self.loader_block(then_blk)?,
                else_blk: self.loader_block(else_blk)?,
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.loader_expr(cond)?,
                body: self.loader_block(body)?,
            },
            StmtKind::ArrayAssign { name, index, value } => StmtKind::ArrayAssign {
                name: name.clone(),
                index: self.loader_expr(index)?,
                value: self.loader_expr(value)?,
            },
            StmtKind::Return(v) => {
                StmtKind::Return(v.as_ref().map(|e| self.loader_expr(e)).transpose()?)
            }
            StmtKind::ExprStmt(e) => StmtKind::ExprStmt(self.loader_expr(e)?),
        };
        Ok(Stmt {
            id: s.id,
            kind,
            span: s.span,
        })
    }

    fn loader_expr(&self, e: &Expr) -> Result<Expr, SpecError> {
        if self.label(e.id) == Label::Cached {
            let (slot, ty) = self.slot(e.id)?;
            if self.hoists.contains_key(&e.id) {
                // The hoisted store already filled the slot; reuse it here.
                return Ok(Expr {
                    id: e.id,
                    kind: ExprKind::CacheRef(slot, ty),
                    span: e.span,
                });
            }
            // All subterms of a cached term are static (they are never value
            // operands of a dynamic term), so the subtree is kept verbatim.
            debug_assert!(
                e.children()
                    .iter()
                    .all(|c| self.label(c.id) == Label::Static),
                "cached term {} has a non-static subterm",
                e.id
            );
            return Ok(Expr::synth(ExprKind::CacheStore(slot, Box::new(e.clone()))));
        }
        // Static and dynamic expressions keep their own node; children may
        // still be cached (for dynamic parents).
        let kind = match &e.kind {
            ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(self.loader_expr(a)?)),
            ExprKind::Binary(op, l, r) => ExprKind::Binary(
                *op,
                Box::new(self.loader_expr(l)?),
                Box::new(self.loader_expr(r)?),
            ),
            ExprKind::Cond(c, t, f) => ExprKind::Cond(
                Box::new(self.loader_expr(c)?),
                Box::new(self.loader_expr(t)?),
                Box::new(self.loader_expr(f)?),
            ),
            ExprKind::Call(name, args) => ExprKind::Call(
                name.clone(),
                args.iter()
                    .map(|a| self.loader_expr(a))
                    .collect::<Result<_, _>>()?,
            ),
            ExprKind::Index { array, index } => ExprKind::Index {
                array: array.clone(),
                index: Box::new(self.loader_expr(index)?),
            },
            other => other.clone(),
        };
        Ok(Expr {
            id: e.id,
            kind,
            span: e.span,
        })
    }

    // ----- reader: dynamic statements only, CacheRef at cached terms -----

    fn reader_block(&self, b: &Block) -> Result<Block, SpecError> {
        let mut stmts = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            match self.label(s.id) {
                Label::Static => {}
                Label::Dynamic => stmts.push(self.reader_stmt(s)?),
                Label::Cached => {
                    return Err(SpecError::Internal(format!(
                        "statement {} is labeled cached (only expressions are)",
                        s.id
                    )))
                }
            }
        }
        Ok(Block { stmts })
    }

    fn reader_stmt(&self, s: &Stmt) -> Result<Stmt, SpecError> {
        let kind = match &s.kind {
            StmtKind::Decl { name, ty, init } => StmtKind::Decl {
                name: name.clone(),
                ty: *ty,
                init: self.reader_expr(init)?,
            },
            StmtKind::Assign {
                name,
                value,
                is_phi,
            } => StmtKind::Assign {
                name: name.clone(),
                value: self.reader_expr(value)?,
                is_phi: *is_phi,
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.reader_expr(cond)?,
                then_blk: self.reader_block(then_blk)?,
                else_blk: self.reader_block(else_blk)?,
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.reader_expr(cond)?,
                body: self.reader_block(body)?,
            },
            StmtKind::ArrayAssign { name, index, value } => StmtKind::ArrayAssign {
                name: name.clone(),
                index: self.reader_expr(index)?,
                value: self.reader_expr(value)?,
            },
            StmtKind::Return(v) => {
                StmtKind::Return(v.as_ref().map(|e| self.reader_expr(e)).transpose()?)
            }
            StmtKind::ExprStmt(e) => StmtKind::ExprStmt(self.reader_expr(e)?),
        };
        Ok(Stmt {
            id: s.id,
            kind,
            span: s.span,
        })
    }

    fn reader_expr(&self, e: &Expr) -> Result<Expr, SpecError> {
        match self.label(e.id) {
            Label::Cached => {
                let (slot, ty) = self.slot(e.id)?;
                Ok(Expr {
                    id: e.id,
                    kind: ExprKind::CacheRef(slot, ty),
                    span: e.span,
                })
            }
            Label::Dynamic => {
                let kind = match &e.kind {
                    ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(self.reader_expr(a)?)),
                    ExprKind::Binary(op, l, r) => ExprKind::Binary(
                        *op,
                        Box::new(self.reader_expr(l)?),
                        Box::new(self.reader_expr(r)?),
                    ),
                    ExprKind::Cond(c, t, f) => ExprKind::Cond(
                        Box::new(self.reader_expr(c)?),
                        Box::new(self.reader_expr(t)?),
                        Box::new(self.reader_expr(f)?),
                    ),
                    ExprKind::Call(name, args) => ExprKind::Call(
                        name.clone(),
                        args.iter()
                            .map(|a| self.reader_expr(a))
                            .collect::<Result<_, _>>()?,
                    ),
                    ExprKind::Index { array, index } => ExprKind::Index {
                        array: array.clone(),
                        index: Box::new(self.reader_expr(index)?),
                    },
                    other => other.clone(),
                };
                Ok(Expr {
                    id: e.id,
                    kind,
                    span: e.span,
                })
            }
            Label::Static => Err(SpecError::Internal(format!(
                "static expression {} consumed by the reader (Rules 6/7 guarantee operands \
                 of dynamic terms are cached or dynamic)",
                e.id
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_analysis::{analyze_dependence, reaching_defs, CachingOptions, TermIndex};
    use ds_lang::{parse_program, print_expr, typecheck};

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
                                         float x2, float y2, float z2, float scale) {
                               if (scale != 0.0) {
                                   return (x1*x2 + y1*y2 + z1*z2) / scale;
                               } else {
                                   return -1.0;
                               }
                           }";

    /// Solves dotprod for varying `z1, z2` and splits it over the layout
    /// `slots` builds from the solver's cached terms.
    fn split_dotprod(
        slots: impl Fn(&TermIndex<'_>, &CacheSolver<'_, '_>, &TypeInfo) -> CacheLayout,
    ) -> Result<(Proc, Proc), SpecError> {
        let prog = parse_program(DOTPROD).unwrap();
        let types = typecheck(&prog).unwrap();
        let proc = &prog.procs[0];
        let varying = ["z1".to_string(), "z2".to_string()].into();
        let ix = TermIndex::build(proc);
        let rd = reaching_defs(proc);
        let dep = analyze_dependence(proc, &varying);
        let solver = CacheSolver::solve_with(&ix, &rd, &dep, &types, CachingOptions::default());
        let layout = slots(&ix, &solver, &types);
        split(proc, &solver, &layout, &types, &StageMap::default())
    }

    #[test]
    fn splits_over_the_solver_layout() {
        let (loader, reader) = split_dotprod(|ix, solver, types| {
            CacheLayout::new(
                solver
                    .cached_terms()
                    .into_iter()
                    .map(|t| (t, types.expr_type(t), print_expr(ix.expr(t).unwrap()))),
            )
        })
        .expect("a consistent labeling splits");
        assert_eq!(loader.name, "dotprod__loader");
        assert_eq!(reader.name, "dotprod__reader");
    }

    #[test]
    fn a_cached_term_without_a_slot_is_an_internal_error() {
        let err = split_dotprod(|_, solver, _| {
            assert_eq!(solver.cached_terms().len(), 1, "x1*x2 + y1*y2 is cached");
            CacheLayout::default()
        })
        .expect_err("the cached term has no slot");
        match err {
            SpecError::Internal(msg) => assert!(msg.contains("has no slot"), "{msg}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
    }
}
