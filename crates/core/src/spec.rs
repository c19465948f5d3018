//! The top-level specializer driver: the paper's
//!
//! ```text
//! Fragment × Input-Partition →
//!     (All-Inputs → Cache × Result)        statically generated cache loader
//!   × (Cache × All-Inputs → Result)        statically generated cache reader
//! ```
//!
//! [`specialize`] runs the full pipeline: inline user calls (§5's
//! single-procedure setting) → insert join-point phis (§4.1) → optionally
//! reassociate (§4.2) → dependence analysis (§3.1) → caching analysis
//! (§3.2) → optional cache-size limiting (§4.3) → splitting (§3.3).
//!
//! Both loader and reader take *all* of the fragment's inputs (the paper's
//! refinement (1): cheap recomputation from fixed inputs beats caching),
//! and the loader returns the fragment's result as well as filling the
//! cache (refinement (2): the first use is free).

use crate::error::SpecError;
use crate::layout::CacheLayout;
use crate::limit::{limit_cache_size, Eviction};
use crate::partition::InputPartition;
use crate::split::split;
use ds_analysis::{
    analyze_dependence, inline_entry, insert_phis, reaching_defs, reassociate, CacheSolver,
    CachingOptions, TermIndex,
};
use ds_lang::{check_procs, parse_program, print_expr, typecheck, Proc, Program, TermId};
use ds_telemetry::{PhaseSpan, SpecReport, StageMap, TraceEvent};
use std::time::Instant;

/// Knobs for [`specialize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecializeOptions {
    /// Enable associative rewriting (§4.2). Off by default because it may
    /// perturb floating-point results in the last ulp; integer chains are
    /// exact either way.
    pub reassociate: bool,
    /// Cache-size budget in bytes (§4.3). `None` means unlimited.
    pub cache_bound_bytes: Option<u32>,
    /// Allow the loader to speculate (§7.1, the paper's future work):
    /// independent terms under dependent control may be cached when their
    /// evaluation can be soundly hoisted ahead of the guard. Off by
    /// default, matching the paper's implementation.
    pub speculate: bool,
    /// Record a [`TraceEvent`] for every labeling
    /// and eviction decision into the run's [`SpecReport`]. Off by default:
    /// the event list is proportional to the fragment size, and phase spans
    /// alone cover the common observability need.
    pub collect_events: bool,
}

impl SpecializeOptions {
    /// The paper's default configuration: no reassociation, no bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns options with reassociation enabled.
    pub fn with_reassociation(mut self) -> Self {
        self.reassociate = true;
        self
    }

    /// Returns options with a cache budget of `bytes`.
    pub fn with_cache_bound(mut self, bytes: u32) -> Self {
        self.cache_bound_bytes = Some(bytes);
        self
    }

    /// Returns options with loader speculation enabled (§7.1).
    pub fn with_speculation(mut self) -> Self {
        self.speculate = true;
        self
    }

    /// Returns options with decision-trace event collection enabled.
    pub fn with_event_collection(mut self) -> Self {
        self.collect_events = true;
        self
    }
}

/// Observability counters of one specialization run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpecStats {
    /// AST nodes in the (inlined, normalized) fragment.
    pub fragment_nodes: usize,
    /// AST nodes in the loader.
    pub loader_nodes: usize,
    /// AST nodes in the reader.
    pub reader_nodes: usize,
    /// Terms labeled static / cached / dynamic.
    pub label_counts: (usize, usize, usize),
    /// Join-point phis inserted by normalization.
    pub phis_inserted: usize,
    /// Chains reordered by associative rewriting.
    pub chains_reassociated: usize,
    /// Victims evicted by cache-size limiting, in order.
    pub evictions: Vec<Eviction>,
}

/// The product of [`specialize`]: statically generated loader and reader
/// plus the cache layout they communicate through.
#[derive(Debug, Clone, PartialEq)]
pub struct Specialization {
    /// The fragment the pair was derived from (inlined and normalized; use
    /// this, not the original source, for apples-to-apples cost comparisons).
    pub fragment: Proc,
    /// The cache loader: computes the result and fills the cache.
    pub loader: Proc,
    /// The cache reader: recomputes only varying-dependent work, reading
    /// cached values for the rest.
    pub reader: Proc,
    /// Slot assignment and byte accounting.
    pub layout: CacheLayout,
    /// Pipeline counters.
    pub stats: SpecStats,
    /// Telemetry: one span per pipeline pass (wall time, term counts,
    /// iteration counters), plus decision-trace events when
    /// [`SpecializeOptions::collect_events`] is set. Span equality ignores
    /// wall time, so `Specialization`'s `PartialEq` stays meaningful.
    pub report: SpecReport,
}

impl Specialization {
    /// Number of cache slots a runtime buffer needs.
    pub fn slot_count(&self) -> usize {
        self.layout.slot_count()
    }

    /// Packed cache size in bytes (the paper's Figure 8 metric).
    pub fn cache_bytes(&self) -> u32 {
        self.layout.size_bytes()
    }

    /// Packages fragment, loader and reader into one renumbered [`Program`]
    /// so an evaluator can run any of the three by name
    /// (`f`, `f__loader`, `f__reader`).
    pub fn as_program(&self) -> Program {
        let mut p = Program {
            procs: vec![
                self.fragment.clone(),
                self.loader.clone(),
                self.reader.clone(),
            ],
        };
        p.renumber();
        p
    }
}

/// Specializes procedure `entry` of `program` for `partition`.
///
/// # Errors
///
/// * [`SpecError::UnknownProc`] / [`SpecError::UnknownParam`] for bad
///   arguments;
/// * [`SpecError::Frontend`] if `program` does not type-check;
/// * [`SpecError::Inline`] if a user call cannot be inlined (early returns,
///   calls in loop conditions or ternary branches);
/// * [`SpecError::Internal`] if an internal invariant fails: a cached term
///   without a slot or a type, an inconsistent labeling, or a generated
///   loader/reader that fails validation (a specializer bug).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ds_core::{specialize, InputPartition, SpecializeOptions};
///
/// let program = ds_lang::parse_program(
///     "float dotprod(float x1, float y1, float z1,
///                    float x2, float y2, float z2, float scale) {
///          if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
///          else { return -1.0; }
///      }",
/// )?;
/// let spec = specialize(
///     &program,
///     "dotprod",
///     &InputPartition::varying(["z1", "z2"]),
///     &SpecializeOptions::new(),
/// )?;
/// assert_eq!(spec.slot_count(), 1); // x1*x2 + y1*y2
/// # Ok(())
/// # }
/// ```
pub fn specialize(
    program: &Program,
    entry: &str,
    partition: &InputPartition,
    opts: &SpecializeOptions,
) -> Result<Specialization, SpecError> {
    // The request and the input program are checked first.
    let t0 = Instant::now();
    let proc0 = program
        .proc(entry)
        .ok_or_else(|| SpecError::UnknownProc(entry.to_string()))?;
    partition
        .validate(proc0)
        .map_err(|param| SpecError::UnknownParam {
            proc: entry.to_string(),
            param,
        })?;
    check_procs(&program.procs)?;
    let mut report = SpecReport::default();
    let entry_nodes = proc0.node_count();
    report.push_phase(PhaseSpan {
        name: "typecheck",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: entry_nodes,
        output_terms: entry_nodes,
        iterations: program.procs.len() as u64,
    });

    // §5: the fragment is a single nonrecursive procedure.
    let t0 = Instant::now();
    let mut prog = inline_entry(program, entry)?;
    report.push_phase(PhaseSpan {
        name: "inline",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: entry_nodes,
        output_terms: prog.procs[0].node_count(),
        iterations: 0,
    });

    // §4.1: join-point normalization.
    let t0 = Instant::now();
    let inlined_nodes = prog.procs[0].node_count();
    let phis_inserted = insert_phis(&mut prog.procs[0]);
    prog.renumber();
    report.push_phase(PhaseSpan {
        name: "normalize",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: inlined_nodes,
        output_terms: prog.procs[0].node_count(),
        iterations: phis_inserted as u64,
    });

    let varying = partition.as_set();

    // §4.2: optional associative rewriting (needs dependence info for the
    // current numbering, then invalidates it).
    let mut chains_reassociated = 0;
    if opts.reassociate {
        let t0 = Instant::now();
        let input_terms = prog.procs[0].node_count();
        let dep = analyze_dependence(&prog.procs[0], &varying);
        chains_reassociated = reassociate(&mut prog.procs[0], &dep);
        prog.renumber();
        report.push_phase(PhaseSpan {
            name: "reassociate",
            wall_nanos: t0.elapsed().as_nanos() as u64,
            input_terms,
            output_terms: prog.procs[0].node_count(),
            iterations: chains_reassociated as u64,
        });
    }

    // The rewritten fragment is re-checked: the checks are the same as for
    // the input, and the types recorded here size the cache slots.
    let t0 = Instant::now();
    let types = typecheck(&prog).map_err(|e| {
        SpecError::Internal(format!("normalized fragment no longer type-checks: {e}"))
    })?;
    let proc = &prog.procs[0];
    let fragment_nodes = proc.node_count();
    report.push_phase(PhaseSpan {
        name: "retype",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: fragment_nodes,
        output_terms: types.len(),
        iterations: 0,
    });

    let t0 = Instant::now();
    let ix = TermIndex::build(proc);
    let rd = reaching_defs(proc);
    let dep = analyze_dependence(proc, &varying);
    report.push_phase(PhaseSpan {
        name: "dependence",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: ix.term_count(),
        output_terms: dep.dependent_count(),
        iterations: dep.fixpoint_passes(),
    });

    let t0 = Instant::now();
    let mut solver = CacheSolver::solve_with(
        &ix,
        &rd,
        &dep,
        &types,
        CachingOptions {
            speculate: opts.speculate,
        },
    );
    let (_, cached_before_limit, _) = solver.counts();
    report.push_phase(PhaseSpan {
        name: "caching",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: ix.term_count(),
        output_terms: cached_before_limit,
        iterations: solver.worklist_pops(),
    });

    // §4.3: optional cache-size limiting.
    let evictions = match opts.cache_bound_bytes {
        Some(bound) => {
            let t0 = Instant::now();
            let evictions = limit_cache_size(&mut solver, &ix, &rd, &types, bound);
            let (_, cached_after, _) = solver.counts();
            report.push_phase(PhaseSpan {
                name: "limit",
                wall_nanos: t0.elapsed().as_nanos() as u64,
                input_terms: cached_before_limit,
                output_terms: cached_after,
                iterations: evictions.len() as u64,
            });
            evictions
        }
        None => Vec::new(),
    };

    if opts.collect_events {
        for (id, label, reason) in solver.labeled_terms() {
            report.events.push(TraceEvent::TermLabeled {
                term: id.0,
                label: label.to_string(),
                rule: reason.to_string(),
            });
        }
        for ev in &evictions {
            report.events.push(TraceEvent::VictimEvicted {
                term: ev.term.0,
                benefit: ev.cost,
                bytes_before: ev.bytes_before,
            });
        }
    }

    let t0 = Instant::now();
    let slots = solver
        .cached_terms()
        .into_iter()
        .map(|t| {
            let internal =
                || SpecError::Internal(format!("cached term {t} is not a typed expression"));
            let e = ix.expr(t).ok_or_else(internal)?;
            let ty = types.try_expr_type(t).ok_or_else(internal)?;
            Ok((t, ty, print_expr(e)))
        })
        .collect::<Result<Vec<_>, SpecError>>()?;
    let layout = CacheLayout::new(slots);
    report.push_phase(PhaseSpan {
        name: "layout",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: layout.slot_count(),
        output_terms: layout.slot_count(),
        iterations: layout.size_bytes() as u64,
    });

    // §7.1: where each speculatively cached term's store is hoisted to.
    let t0 = Instant::now();
    let hoists: StageMap<TermId, TermId> = layout
        .slots()
        .iter()
        .filter_map(|slot| {
            solver
                .speculative_anchor(slot.term)
                .map(|anchor| (slot.term, anchor))
        })
        .collect();
    report.push_phase(PhaseSpan {
        name: "hoist",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: layout.slot_count(),
        output_terms: hoists.len(),
        iterations: 0,
    });

    let t0 = Instant::now();
    let (loader, reader) = split(proc, &solver, &layout, &types, &hoists)?;
    validate_generated(&loader)?;
    validate_generated(&reader)?;
    let loader_nodes = loader.node_count();
    let reader_nodes = reader.node_count();
    report.push_phase(PhaseSpan {
        name: "split",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: fragment_nodes,
        output_terms: loader_nodes + reader_nodes,
        iterations: hoists.len() as u64,
    });

    // The analyses borrow the fragment. Once they are freed, it moves out
    // of the inlined program instead of being copied.
    let t0 = Instant::now();
    let stats = SpecStats {
        fragment_nodes,
        loader_nodes,
        reader_nodes,
        label_counts: solver.counts(),
        phis_inserted,
        chains_reassociated,
        evictions,
    };
    drop(solver);
    drop((ix, rd, dep, types, hoists));
    let fragment = prog.procs.swap_remove(0);
    report.push_phase(PhaseSpan {
        name: "teardown",
        wall_nanos: t0.elapsed().as_nanos() as u64,
        input_terms: fragment_nodes,
        output_terms: fragment_nodes,
        iterations: 0,
    });
    Ok(Specialization {
        fragment,
        loader,
        reader,
        layout,
        stats,
        report,
    })
}

/// Parses `source` and specializes `entry` — convenience for tests,
/// examples and benches.
///
/// # Errors
///
/// As [`specialize`], plus parse errors via [`SpecError::Frontend`].
pub fn specialize_source(
    source: &str,
    entry: &str,
    partition: &InputPartition,
    opts: &SpecializeOptions,
) -> Result<Specialization, SpecError> {
    let program = parse_program(source)?;
    specialize(&program, entry, partition, opts)
}

/// Generated procedures must themselves be well-typed MiniC (with cache
/// forms); failure indicates a splitting bug. The procedure is checked in
/// place, as a one-procedure program, for the verdict alone: it does not
/// depend on term ids, and no types are recorded.
fn validate_generated(p: &Proc) -> Result<(), SpecError> {
    check_procs(std::slice::from_ref(p)).map_err(|e| {
        SpecError::Internal(format!(
            "generated procedure `{}` does not type-check: {e}",
            p.name
        ))
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_interp::{CacheBuf, Evaluator, Value};
    use ds_lang::print_proc;

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
                                         float x2, float y2, float z2, float scale) {
                               if (scale != 0.0) {
                                   return (x1*x2 + y1*y2 + z1*z2) / scale;
                               } else {
                                   return -1.0;
                               }
                           }";

    fn dotprod_args(z1: f64, z2: f64, scale: f64) -> Vec<Value> {
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
            .iter()
            .map(|&v| Value::Float(v))
            .map(|v| match v {
                Value::Float(_) => v,
                _ => unreachable!(),
            })
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i {
                2 => Value::Float(z1),
                5 => Value::Float(z2),
                _ => v,
            })
            .chain([Value::Float(scale)])
            .collect()
    }

    #[test]
    fn dotprod_reproduces_figure_2() {
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::varying(["z1", "z2"]),
            &SpecializeOptions::new(),
        )
        .expect("specialize");
        // One slot holding x1*x2 + y1*y2 (Figure 2's slot1).
        assert_eq!(spec.slot_count(), 1);
        assert_eq!(spec.layout.slots()[0].source, "x1 * x2 + y1 * y2");
        let loader_text = print_proc(&spec.loader);
        let reader_text = print_proc(&spec.reader);
        // Loader: conditional intact, slot filled in place.
        assert!(
            loader_text.contains("(CACHE[slot0] = x1 * x2 + y1 * y2) + z1 * z2"),
            "{loader_text}"
        );
        // Reader: conditional NOT folded out (no access to scale's value),
        // cached read in place of the products.
        assert!(reader_text.contains("if (scale != 0.0)"), "{reader_text}");
        assert!(
            reader_text.contains("(CACHE[slot0] + z1 * z2) / scale"),
            "{reader_text}"
        );
        assert!(reader_text.contains("return -1.0;"), "{reader_text}");
    }

    #[test]
    fn dotprod_loader_then_reader_computes_original_results() {
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::varying(["z1", "z2"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(spec.slot_count());

        // Loader runs once with the initial inputs and returns the result.
        let first = dotprod_args(3.0, 6.0, 2.0);
        let orig = ev.run("dotprod", &first).unwrap();
        let load = ev
            .run_with_cache("dotprod__loader", &first, &mut cache)
            .unwrap();
        assert_eq!(orig.value, load.value);

        // Reader reruns with changed varying inputs; fixed inputs the same.
        for (z1, z2) in [(7.0, -1.0), (0.0, 0.0), (100.0, 3.5)] {
            let args = dotprod_args(z1, z2, 2.0);
            let orig = ev.run("dotprod", &args).unwrap();
            let read = ev
                .run_with_cache("dotprod__reader", &args, &mut cache)
                .unwrap();
            assert_eq!(orig.value, read.value, "z1={z1} z2={z2}");
            assert!(read.cost < orig.cost, "reader must be cheaper");
        }
    }

    #[test]
    fn dotprod_breakeven_at_two_uses() {
        // §2: "we achieve breakeven whenever the original fragment is
        // executed at least twice".
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::varying(["z1", "z2"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(spec.slot_count());
        let args = dotprod_args(3.0, 6.0, 2.0);
        let orig = ev.run("dotprod", &args).unwrap().cost;
        let load = ev
            .run_with_cache("dotprod__loader", &args, &mut cache)
            .unwrap()
            .cost;
        let read = ev
            .run_with_cache("dotprod__reader", &args, &mut cache)
            .unwrap()
            .cost;
        // Two uses via staging = loader + reader; originally = 2 * orig.
        assert!(
            load + read <= 2 * orig,
            "breakeven at two uses violated: {load} + {read} > 2*{orig}"
        );
    }

    #[test]
    fn zero_scale_path_still_correct() {
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::varying(["z1", "z2"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(spec.slot_count());
        let args = dotprod_args(3.0, 6.0, 0.0);
        let load = ev
            .run_with_cache("dotprod__loader", &args, &mut cache)
            .unwrap();
        assert_eq!(load.value, Some(Value::Float(-1.0)));
        let read = ev
            .run_with_cache("dotprod__reader", &args, &mut cache)
            .unwrap();
        assert_eq!(read.value, Some(Value::Float(-1.0)));
    }

    #[test]
    fn code_growth_is_bounded() {
        // §3.3: "the sum of the loader and reader sizes has been less than
        // twice the size of the fragment."
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::varying(["z1", "z2"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let s = &spec.stats;
        assert!(
            s.loader_nodes + s.reader_nodes < 2 * s.fragment_nodes + 2,
            "loader {} + reader {} vs fragment {}",
            s.loader_nodes,
            s.reader_nodes,
            s.fragment_nodes
        );
    }

    #[test]
    fn unknown_names_are_reported() {
        let prog = parse_program(DOTPROD).unwrap();
        assert!(matches!(
            specialize(
                &prog,
                "nope",
                &InputPartition::all_fixed(),
                &SpecializeOptions::new()
            ),
            Err(SpecError::UnknownProc(_))
        ));
        assert!(matches!(
            specialize(
                &prog,
                "dotprod",
                &InputPartition::varying(["zeta"]),
                &SpecializeOptions::new()
            ),
            Err(SpecError::UnknownParam { .. })
        ));
    }

    #[test]
    fn cache_bound_zero_gives_empty_cache_and_still_correct() {
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::varying(["z1", "z2"]),
            &SpecializeOptions::new().with_cache_bound(0),
        )
        .unwrap();
        assert_eq!(spec.slot_count(), 0);
        assert!(!spec.stats.evictions.is_empty());
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(0);
        let args = dotprod_args(1.0, 2.0, 4.0);
        let orig = ev.run("dotprod", &args).unwrap();
        let read = ev
            .run_with_cache("dotprod__reader", &args, &mut cache)
            .unwrap();
        assert_eq!(orig.value, read.value);
    }

    #[test]
    fn user_calls_are_inlined_transparently() {
        let src = "float dot2(float a1, float b1, float a2, float b2) {
                       return a1*a2 + b1*b2;
                   }
                   float f(float x1, float y1, float x2, float y2, float w) {
                       return dot2(x1, y1, x2, y2) * w;
                   }";
        let spec = specialize_source(
            src,
            "f",
            &InputPartition::varying(["w"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        assert_eq!(spec.slot_count(), 1);
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(1);
        let args: Vec<Value> = [1.0, 2.0, 3.0, 4.0, 5.0].map(Value::Float).to_vec();
        let load = ev.run_with_cache("f__loader", &args, &mut cache).unwrap();
        assert_eq!(load.value, Some(Value::Float(55.0)));
        let read = ev.run_with_cache("f__reader", &args, &mut cache).unwrap();
        assert_eq!(read.value, Some(Value::Float(55.0)));
    }

    #[test]
    fn trace_effects_replay_in_reader() {
        let src = "float f(float k, float v) { return trace(k + 100.0) * v; }";
        let spec = specialize_source(
            src,
            "f",
            &InputPartition::varying(["v"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(spec.slot_count());
        let args = [Value::Float(1.0), Value::Float(2.0)];
        let orig = ev.run("f", &args).unwrap();
        let load = ev.run_with_cache("f__loader", &args, &mut cache).unwrap();
        let read = ev.run_with_cache("f__reader", &args, &mut cache).unwrap();
        assert_eq!(orig.trace, vec![101.0]);
        assert_eq!(load.trace, vec![101.0]);
        assert_eq!(read.trace, vec![101.0], "global effects must replay");
        assert_eq!(read.value, orig.value);
    }

    #[test]
    fn all_fixed_partition_caches_result() {
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &InputPartition::all_fixed(),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(spec.slot_count());
        let args = dotprod_args(3.0, 6.0, 2.0);
        let orig = ev.run("dotprod", &args).unwrap();
        ev.run_with_cache("dotprod__loader", &args, &mut cache)
            .unwrap();
        let read = ev
            .run_with_cache("dotprod__reader", &args, &mut cache)
            .unwrap();
        assert_eq!(read.value, orig.value);
        // Nothing varies: the reader is drastically cheaper.
        assert!(read.cost * 2 <= orig.cost);
    }

    #[test]
    fn speculation_caches_under_dependent_control() {
        // §7.1: with speculation, an expensive independent term under a
        // dependent guard is cached; the loader hoists its evaluation
        // ahead of the guard.
        let src = "float f(float k, float v) {
                       float r = 0.1 * v;
                       if (v > 0.5) { r = r + fbm3(k, k, k, 6); }
                       return r;
                   }";
        let plain = specialize_source(
            src,
            "f",
            &InputPartition::varying(["v"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        assert_eq!(plain.slot_count(), 0, "Rule 3 forbids caching here");
        let spec = specialize_source(
            src,
            "f",
            &InputPartition::varying(["v"]),
            &SpecializeOptions::new().with_speculation(),
        )
        .unwrap();
        assert_eq!(spec.slot_count(), 1);
        let loader_text = ds_lang::print_proc(&spec.loader);
        // The store appears unconditionally before the guard...
        let store_pos = loader_text.find("CACHE[slot0] =").expect("store emitted");
        let guard_pos = loader_text.find("if (v > 0.5)").expect("guard present");
        assert!(
            store_pos < guard_pos,
            "store must be hoisted:\n{loader_text}"
        );

        // ...and the pipeline still reproduces the original on both paths.
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        for v0 in [0.2, 0.9] {
            let mut cache = CacheBuf::new(spec.slot_count());
            let args0 = [Value::Float(1.3), Value::Float(v0)];
            let orig0 = ev.run("f", &args0).unwrap();
            let load = ev.run_with_cache("f__loader", &args0, &mut cache).unwrap();
            assert_eq!(orig0.value, load.value, "loader at v={v0}");
            for v in [0.1, 0.6, 2.0] {
                let args = [Value::Float(1.3), Value::Float(v)];
                let orig = ev.run("f", &args).unwrap();
                let read = ev.run_with_cache("f__reader", &args, &mut cache).unwrap();
                assert_eq!(orig.value, read.value, "reader at v={v} (loaded at {v0})");
            }
        }

        // The speculative reader is much faster when the guard is taken.
        let mut cache = CacheBuf::new(spec.slot_count());
        let args = [Value::Float(1.3), Value::Float(0.9)];
        ev.run_with_cache("f__loader", &args, &mut cache).unwrap();
        let read = ev.run_with_cache("f__reader", &args, &mut cache).unwrap();
        let pprog = plain.as_program();
        let pev = Evaluator::new(&pprog);
        let mut pcache = CacheBuf::new(0);
        pev.run_with_cache("f__loader", &args, &mut pcache).unwrap();
        let pread = pev.run_with_cache("f__reader", &args, &mut pcache).unwrap();
        assert!(
            read.cost * 5 < pread.cost,
            "speculative {} vs plain {}",
            read.cost,
            pread.cost
        );
    }

    #[test]
    fn speculation_refuses_unhoistable_terms() {
        // The guarded term reads a variable defined *inside* the guarded
        // region: hoisting would read a stale value, so the solver must
        // fall back to dynamic. (u's definition is itself cacheable.)
        let src = "float f(float k, float v) {
                       float r = 0.0;
                       if (v > 0.5) {
                           float u = sin(k) * 3.0;
                           r = cos(u + 1.0) * v;
                       }
                       return r;
                   }";
        let spec = specialize_source(
            src,
            "f",
            &InputPartition::varying(["v"]),
            &SpecializeOptions::new().with_speculation(),
        )
        .unwrap();
        // sin(k)*3.0 hoists (defs: k, a parameter); cos(u+1.0) must not
        // hoist above u's definition — it may still be cached via u's slot
        // chain, but never anchored before the guard with a stale u.
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        for v0 in [0.2, 0.9] {
            let mut cache = CacheBuf::new(spec.slot_count());
            let args0 = [Value::Float(0.7), Value::Float(v0)];
            ev.run_with_cache("f__loader", &args0, &mut cache).unwrap();
            for v in [0.3, 0.8] {
                let args = [Value::Float(0.7), Value::Float(v)];
                let orig = ev.run("f", &args).unwrap();
                let read = ev.run_with_cache("f__reader", &args, &mut cache).unwrap();
                assert_eq!(orig.value, read.value, "v0={v0} v={v}");
            }
        }
    }

    #[test]
    fn report_covers_every_pass_and_repeats_deterministically() {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec = |o: &SpecializeOptions| specialize_source(DOTPROD, "dotprod", &part, o).unwrap();

        let plain = spec(&SpecializeOptions::new());
        let names: Vec<&str> = plain.report.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "typecheck",
                "inline",
                "normalize",
                "retype",
                "dependence",
                "caching",
                "layout",
                "hoist",
                "split",
                "teardown"
            ]
        );
        assert!(plain.report.events.is_empty(), "events are opt-in");
        let caching = plain.report.phase("caching").unwrap();
        assert!(caching.iterations > 0, "worklist must have processed items");
        assert!(caching.input_terms > caching.output_terms);
        // Optional passes appear exactly when their option is set.
        let bounded = spec(
            &SpecializeOptions::new()
                .with_reassociation()
                .with_cache_bound(0),
        );
        let names: Vec<&str> = bounded.report.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "typecheck",
                "inline",
                "normalize",
                "reassociate",
                "retype",
                "dependence",
                "caching",
                "limit",
                "layout",
                "hoist",
                "split",
                "teardown"
            ]
        );
        assert_eq!(
            bounded.report.phase("limit").unwrap().iterations,
            bounded.stats.evictions.len() as u64
        );
        // Same inputs, same report (wall times excluded from equality).
        assert_eq!(plain.report, spec(&SpecializeOptions::new()).report);
    }

    #[test]
    fn event_collection_traces_labels_and_evictions() {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec = specialize_source(
            DOTPROD,
            "dotprod",
            &part,
            &SpecializeOptions::new()
                .with_event_collection()
                .with_cache_bound(0),
        )
        .unwrap();
        let events = &spec.report.events;
        assert!(!events.is_empty());
        // Every eviction recorded in stats has a matching event.
        let evicted: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ds_telemetry::TraceEvent::VictimEvicted { term, .. } => Some(*term),
                _ => None,
            })
            .collect();
        assert_eq!(
            evicted,
            spec.stats
                .evictions
                .iter()
                .map(|e| e.term.0)
                .collect::<Vec<_>>()
        );
        // Every labeling event cites a rule in the analyses' format.
        for e in events {
            if let ds_telemetry::TraceEvent::TermLabeled { label, rule, .. } = e {
                assert!(label == "cached" || label == "dynamic", "{label}");
                assert!(
                    rule.contains("Rule") || rule.contains("§4.3") || rule.contains("result"),
                    "uncited rule: {rule}"
                );
            }
        }
        // The evicted terms' final labels must be dynamic, citing the limiter.
        for t in &evicted {
            let labeled = events.iter().any(|e| {
                matches!(
                    e,
                    ds_telemetry::TraceEvent::TermLabeled { term, label, rule }
                        if term == t && label == "dynamic" && rule.contains("§4.3")
                )
            });
            assert!(labeled, "evicted term t{t} not traced as dynamic");
        }
    }

    #[test]
    fn reassociation_enlarges_the_cached_frontier() {
        let src = "float f(float a, float b, float v, float c) {
                       return sin(a) + b + v + sqrt(c);
                   }";
        let plain = specialize_source(
            src,
            "f",
            &InputPartition::varying(["v"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let re = specialize_source(
            src,
            "f",
            &InputPartition::varying(["v"]),
            &SpecializeOptions::new().with_reassociation(),
        )
        .unwrap();
        assert!(re.stats.chains_reassociated >= 1);
        // Reassociated: one big slot; plain: sin(a)+b and sqrt(c) separately.
        assert_eq!(re.slot_count(), 1);
        assert_eq!(plain.slot_count(), 2);
    }

    #[test]
    fn dynamic_index_read_rewrites_its_cached_index_operand() {
        // Fuzzer finding (tests/corpus/array_cached_dynamic_index_operand.mc):
        // splitting recursed into Unary/Binary/Cond/Call children but cloned
        // `Index` nodes verbatim, so a cached index expression survived as
        // raw source in the reader while the static declarations it read
        // were dropped — the generated reader failed its own typecheck.
        let spec = specialize_source(
            "float gen(float p0) {
                 float v0[2] = 0.75;
                 int i2 = 0;
                 v0[0] = p0;
                 return v0[i2 % 2];
             }",
            "gen",
            &InputPartition::varying(["p0"]),
            &SpecializeOptions::new(),
        )
        .expect("specialize must not emit an ill-typed reader");
        let reader = print_proc(&spec.reader);
        assert!(
            !reader.contains("i2"),
            "static index operand leaked into the reader:\n{reader}"
        );
        let prog = spec.as_program();
        let ev = Evaluator::new(&prog);
        let mut cache = CacheBuf::new(spec.slot_count());
        let first = [Value::Float(2.0)];
        let orig = ev.run("gen", &first).unwrap();
        let load = ev
            .run_with_cache("gen__loader", &first, &mut cache)
            .unwrap();
        assert_eq!(orig.value, load.value);
        for p0 in [-1.5, 0.0, 7.25] {
            let args = [Value::Float(p0)];
            let orig = ev.run("gen", &args).unwrap();
            let read = ev.run_with_cache("gen__reader", &args, &mut cache).unwrap();
            assert_eq!(orig.value, read.value, "p0={p0}");
        }
    }
}
