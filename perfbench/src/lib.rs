//! The repository's wall-clock benchmark: three seeded workloads driven
//! through the public library surface, with every answer checked and a
//! separate traced run for per-layer attribution. See `README.md`.

pub mod catalog;
pub mod churn;
pub mod drag;
pub mod gen;
pub mod load;
pub mod report;
pub mod serve;
pub mod spans;
pub mod staging;
pub mod stats;
