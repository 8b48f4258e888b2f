//! Library-constructible specs for the per-theorem experiment binaries
//! (`src/bin/exp_*.rs`), so tests can run a binary's spec directly.
//! Table formatting lives in `wb_engine::report` and workloads come from
//! `wb_engine::WorkloadSpec`, the one generator per workload.

pub mod specs;
