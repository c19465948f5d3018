//! Opens a solo [`Session`]: one caller over a private artifact and store.

use ds_core::{InputPartition, Specialization};
use ds_runtime::{CacheStore, RunnerOptions, Session, StagedArtifact};
use std::sync::Arc;

/// Store capacity of a solo session unless a test needs eviction pressure.
pub const STORE_CAPACITY: usize = 16;

/// A session serving `spec` (caches keyed on the parameters `part` marks
/// as fixed) over its own store of `store_capacity` entries.
pub fn solo_session(
    spec: &Specialization,
    part: &InputPartition,
    opts: RunnerOptions,
    store_capacity: usize,
) -> Session {
    Session::new(
        Arc::new(StagedArtifact::new(spec, part)),
        Arc::new(CacheStore::new(store_capacity)),
        opts,
    )
}
