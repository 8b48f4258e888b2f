//! Structured game reports and experiment-table formatting.

use wb_core::game::{Failure, GameResult, Verdict};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Structured outcome of one engine-driven game: the classic
/// [`GameResult`] plus the number of referee checks performed.
#[derive(Debug, Clone)]
pub struct GameReport {
    /// Rounds, first failure, peak/final space — the classic result.
    pub result: GameResult,
    /// Referee checks performed (in batched ingestion this is the number
    /// of batch boundaries, not the number of updates).
    pub checks: u64,
}

impl GameReport {
    /// Fresh report for a game whose algorithm starts at
    /// `initial_space_bits`. `_expected_checks` is unused; it stays only
    /// so the benchmark harness's call still compiles, and in-tree callers
    /// pass `0`.
    pub fn new(initial_space_bits: u64, _expected_checks: u64) -> Self {
        GameReport {
            result: GameResult {
                rounds: 0,
                failure: None,
                peak_space_bits: initial_space_bits,
                final_space_bits: initial_space_bits,
            },
            checks: 0,
        }
    }

    /// Record one referee check at round `t`.
    pub fn record_check(&mut self, t: u64, space_bits: u64, verdict: &Verdict) {
        self.checks += 1;
        self.result.peak_space_bits = self.result.peak_space_bits.max(space_bits);
        if let Verdict::Violation(description) = verdict {
            if self.result.failure.is_none() {
                self.result.failure = Some(Failure {
                    round: t,
                    description: description.clone(),
                });
            }
        }
    }

    /// Seal the report after the last round.
    pub fn finish(&mut self, rounds: u64, final_space_bits: u64) {
        self.result.rounds = rounds;
        self.result.final_space_bits = final_space_bits;
        self.result.peak_space_bits = self.result.peak_space_bits.max(final_space_bits);
    }

    /// `true` iff every checked answer was correct.
    pub fn survived(&self) -> bool {
        self.result.survived()
    }
}

impl Snapshot for GameReport {
    /// Layout: `result | checks`. The whole report is mutable in-game
    /// state, so everything is captured and overwritten on restore.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.result.rounds);
        match &self.result.failure {
            Some(f) => {
                w.put_bool(true);
                w.put_u64(f.round);
                w.put_str(&f.description);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.result.peak_space_bits);
        w.put_u64(self.result.final_space_bits);
        w.put_u64(self.checks);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.result.rounds = r.take_u64()?;
        self.result.failure = if r.take_bool()? {
            Some(Failure {
                round: r.take_u64()?,
                description: r.take_str()?,
            })
        } else {
            None
        };
        self.result.peak_space_bits = r.take_u64()?;
        self.result.final_space_bits = r.take_u64()?;
        self.checks = r.take_u64()?;
        Ok(())
    }
}

/// Format one table row, padding each cell to `width`.
pub fn row(cells: &[String], width: usize) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>width$}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Print a table header plus separator line.
pub fn header(cells: &[&str], width: usize) {
    println!(
        "{}",
        row(
            &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            width
        )
    );
    println!(
        "{}",
        cells
            .iter()
            .map(|_| "-".repeat(width))
            .collect::<Vec<_>>()
            .join("-|-")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_records_and_seals() {
        let mut r = GameReport::new(10, 0);
        for t in 1..=100u64 {
            r.record_check(t, 10 + t, &Verdict::Correct);
        }
        r.finish(100, 110);
        assert_eq!(r.checks, 100);
        assert!(r.survived());
        assert_eq!(r.result.rounds, 100);
        assert_eq!(r.result.peak_space_bits, 110);
        assert_eq!(r.result.final_space_bits, 110);
    }

    #[test]
    fn report_captures_first_violation() {
        let mut r = GameReport::new(0, 0);
        r.record_check(1, 5, &Verdict::Correct);
        r.record_check(2, 6, &Verdict::violation("bad"));
        r.record_check(3, 7, &Verdict::violation("later"));
        r.finish(3, 6);
        assert!(!r.survived());
        let f = r.result.failure.as_ref().unwrap();
        assert_eq!(f.round, 2);
        assert_eq!(f.description, "bad");
        assert_eq!(r.checks, 3);
        assert_eq!(r.result.peak_space_bits, 7);
    }

    #[test]
    fn snapshot_round_trips_result_and_checks() {
        let mut failed = GameReport::new(4, 0);
        failed.record_check(1, 9, &Verdict::Correct);
        failed.record_check(2, 12, &Verdict::violation("round 2: missed"));
        failed.finish(2, 11);
        let mut survived = GameReport::new(3, 0);
        survived.record_check(5, 3, &Verdict::Correct);
        survived.finish(5, 3);
        // Frame header, then `result` (rounds, failure flag [+ round and
        // length-prefixed description], peak, final), then `checks`.
        let failure_bytes = 1 + 8 + 8 + "round 2: missed".len();
        for (report, failure_len) in [(failed, failure_bytes), (survived, 1)] {
            let frame = wb_core::snap::to_bytes(&report);
            assert_eq!(frame.len(), 6 + 8 + failure_len + 8 + 8 + 8);
            // Restore over a report that differs in every field.
            let mut twin = GameReport::new(99, 0);
            twin.record_check(7, 100, &Verdict::violation("stale"));
            twin.finish(7, 100);
            wb_core::snap::from_bytes(&mut twin, &frame).unwrap();
            assert_eq!(twin.result.rounds, report.result.rounds);
            assert_eq!(twin.result.failure, report.result.failure);
            assert_eq!(twin.result.peak_space_bits, report.result.peak_space_bits);
            assert_eq!(twin.result.final_space_bits, report.result.final_space_bits);
            assert_eq!(twin.checks, report.checks);
            let mut short = GameReport::new(0, 0);
            assert!(wb_core::snap::from_bytes(&mut short, &frame[..frame.len() - 1]).is_err());
        }
    }

    #[test]
    fn table_row_formatting() {
        let r = row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a |   bb");
    }
}
