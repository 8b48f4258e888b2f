//! Table formatting and library-constructible specs for the per-theorem
//! experiment binaries (`src/bin/exp_*.rs`) and the Criterion benches.
//!
//! The table helpers live in `wb_engine` (the engine's experiment runner
//! uses them too); this crate re-exports them so the binaries keep their
//! original paths. Workloads come from `wb_engine::WorkloadSpec`, the one
//! generator per workload.

pub mod specs;

pub use wb_engine::report::{header, row};
pub use wb_engine::tournament;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_formatting() {
        let r = row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a |   bb");
    }
}
