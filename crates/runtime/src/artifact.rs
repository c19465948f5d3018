//! The immutable half of staged execution.
//!
//! Everything the specializer produces is fixed once staging finishes: the
//! staged [`Program`] (fragment + loader + reader), its bytecode
//! compilation, the [`CacheLayout`] and its fingerprint, and the indices of
//! the fragment's fixed parameters. [`StagedArtifact`] bundles exactly that
//! — and nothing mutable — so one artifact can be wrapped in an
//! [`Arc`](std::sync::Arc) and shared by any number of concurrent
//! [`Session`](crate::Session)s. The mutable remainder (the VM register
//! file, the working [`CacheBuf`](ds_interp::CacheBuf), degradation state)
//! lives per-session.

use ds_core::{CacheLayout, InputPartition, Specialization};
use ds_interp::{
    compile, hash_values, CompiledProgram, EvalError, EvalOptions, Evaluator, Outcome, Value,
};
use ds_lang::Program;
use ds_telemetry::Hash64;

/// The shareable, immutable product of one specialization: staged program,
/// compiled bytecode, cache layout and invariant-parameter indices.
///
/// `StagedArtifact` is `Send + Sync` by construction (it owns plain data
/// and interior-mutability-free trees), which is what makes parallel
/// serving possible at all: workers share one `Arc<StagedArtifact>` and
/// never copy the program.
#[derive(Debug)]
pub struct StagedArtifact {
    pub(crate) staged: Program,
    pub(crate) compiled: CompiledProgram,
    pub(crate) entry: String,
    pub(crate) loader_name: String,
    pub(crate) reader_name: String,
    pub(crate) layout: CacheLayout,
    pub(crate) layout_fp: u64,
    /// Indices of the fragment's *fixed* parameters, in parameter order —
    /// the invariant-input vector caches are keyed on.
    pub(crate) fixed_idx: Vec<usize>,
}

// The whole point of the artifact/session split: the immutable half must be
// shareable across threads. Compile-time proof, not a doc promise.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StagedArtifact>();
};

impl StagedArtifact {
    /// Builds the artifact for `spec`, keyed on the parameters `partition`
    /// marks as fixed. The staged program is compiled for the bytecode
    /// engine once, up front.
    pub fn new(spec: &Specialization, partition: &InputPartition) -> Self {
        let staged = spec.as_program();
        let compiled = compile(&staged);
        let entry = spec.fragment.name.clone();
        let fixed_idx = spec
            .fragment
            .params
            .iter()
            .enumerate()
            .filter(|(_, p)| !partition.is_varying(&p.name))
            .map(|(i, _)| i)
            .collect();
        StagedArtifact {
            layout_fp: spec.layout.fingerprint(),
            layout: spec.layout.clone(),
            loader_name: format!("{entry}__loader"),
            reader_name: format!("{entry}__reader"),
            entry,
            fixed_idx,
            staged,
            compiled,
        }
    }

    /// The fragment's entry-point name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The cache layout the specialization declared.
    pub fn layout(&self) -> &CacheLayout {
        &self.layout
    }

    /// The specialization-layout fingerprint caches are validated against.
    pub fn layout_fingerprint(&self) -> u64 {
        self.layout_fp
    }

    /// Indices of the fragment's fixed parameters, in parameter order.
    pub fn fixed_params(&self) -> &[usize] {
        &self.fixed_idx
    }

    /// Fingerprint of the invariant-input vector within `args` (the fixed
    /// parameters, in order, with the layout fingerprint mixed in). This is
    /// the key of the polyvariant [`CacheStore`](crate::CacheStore).
    pub fn inputs_fingerprint(&self, args: &[Value]) -> u64 {
        // A missing argument hashes as an absent value, so it cannot alias
        // a present one (arity errors surface from the engine itself).
        let fixed = self.fixed_idx.iter().map(|&i| args.get(i));
        hash_values(Hash64::new().u64(self.layout_fp), fixed).finish()
    }

    /// The reference oracle: the fragment, tree-walked, uncached. Chaos
    /// tests compare every successful staged run against this.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] of the unspecialized fragment itself.
    pub fn reference(&self, args: &[Value], eval: EvalOptions) -> Result<Outcome, EvalError> {
        let mut opts = eval;
        opts.profile = false;
        Evaluator::with_options(&self.staged, opts).run(&self.entry, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{specialize_source, SpecializeOptions};

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
         float x2, float y2, float z2, float scale) {
        if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
        else { return -1.0; }
    }";

    fn dotprod() -> StagedArtifact {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec =
            specialize_source(DOTPROD, "dotprod", &part, &SpecializeOptions::new()).expect("spec");
        StagedArtifact::new(&spec, &part)
    }

    fn floats(v: &[f64]) -> Vec<Value> {
        v.iter().map(|&f| Value::Float(f)).collect()
    }

    /// The regression guard against a plain word-at-a-time FNV, under
    /// which flipping bit 63 of two words cancels out: two argument
    /// vectors that differ only in the signs of two fixed arguments must
    /// never share a fingerprint, or they would be served each other's
    /// cache.
    #[test]
    fn sign_flips_of_two_fixed_args_change_the_fingerprint() {
        let art = dotprod();
        assert_eq!(art.fixed_params(), [0, 1, 3, 4, 6]);
        let base = floats(&[1.5, -2.0, 0.25, 3.0, 0.75, 9.0, 2.0]);
        let fp = art.inputs_fingerprint(&base);
        let fixed = art.fixed_params();
        for (a, &i) in fixed.iter().enumerate() {
            for &j in &fixed[a + 1..] {
                let mut args = base.clone();
                for k in [i, j] {
                    args[k] = Value::Float(-args[k].as_float().expect("float"));
                }
                assert_ne!(art.inputs_fingerprint(&args), fp, "args {i} and {j}");
            }
        }
    }

    /// Any one bit of one fixed argument, or its type alone, changes the
    /// fingerprint; the varying arguments never do; a missing argument
    /// does not alias a present one.
    #[test]
    fn the_fingerprint_covers_exactly_the_fixed_args() {
        let art = dotprod();
        let base = floats(&[1.5, -2.0, 0.25, 3.0, 0.75, 9.0, 2.0]);
        let fp = art.inputs_fingerprint(&base);
        for &i in art.fixed_params() {
            let bits = base[i].as_float().expect("float").to_bits();
            for bit in 0..64 {
                let mut args = base.clone();
                args[i] = Value::Float(f64::from_bits(bits ^ (1 << bit)));
                assert_ne!(art.inputs_fingerprint(&args), fp, "arg {i}, bit {bit}");
            }
            let mut args = base.clone();
            args[i] = Value::Int(bits as i64);
            assert_ne!(art.inputs_fingerprint(&args), fp, "arg {i} retyped");
        }
        let mut args = base.clone();
        args[2] = Value::Float(-7.0);
        args[5] = Value::Int(4);
        assert_eq!(
            art.inputs_fingerprint(&args),
            fp,
            "varying args are not keyed"
        );
        let mut short = base.clone();
        short.truncate(6);
        let mut zeroed = short.clone();
        zeroed.push(Value::Int(0));
        assert_ne!(
            art.inputs_fingerprint(&short),
            art.inputs_fingerprint(&zeroed)
        );
    }

    /// Fingerprints key the persisted log and cache files, so their word
    /// encoding is pinned (the hash itself is pinned in `ds_telemetry`):
    /// the layout fingerprint, each fixed argument's bits, then the type
    /// codes packed 3 bits each (`1 + tag`; a float's tag is 1).
    #[test]
    fn fingerprint_word_encoding_is_pinned() {
        let art = dotprod();
        let args = floats(&[1.5, -2.0, 0.25, 3.0, 0.75, 9.0, 2.0]);
        let words = [
            art.layout_fingerprint(),
            1.5f64.to_bits(),
            (-2.0f64).to_bits(),
            3.0f64.to_bits(),
            0.75f64.to_bits(),
            2.0f64.to_bits(),
            0o22222,
        ];
        let want = words.iter().fold(Hash64::new(), |h, &w| h.u64(w)).finish();
        assert_eq!(art.inputs_fingerprint(&args), want);
    }
}
