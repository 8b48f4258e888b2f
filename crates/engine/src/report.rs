//! Structured game reports and experiment-table formatting.

use wb_core::game::{Failure, GameResult, Verdict};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// How many `(round, space_bits)` samples a report retains at most; the
/// recording stride is chosen so long games stay within this budget.
pub const TIMELINE_POINTS: usize = 256;

/// Structured outcome of one engine-driven game: the classic
/// [`GameResult`] plus per-round space/verdict timelines and ingestion
/// statistics.
#[derive(Debug, Clone)]
pub struct GameReport {
    /// Rounds, first failure, peak/final space — the classic result.
    pub result: GameResult,
    /// Referee checks performed (in batched ingestion this is the number
    /// of batch boundaries, not the number of updates).
    pub checks: u64,
    /// `(round, space_bits)` samples, recorded every [`Self::stride`]
    /// checks (and always at the final check).
    pub space_timeline: Vec<(u64, u64)>,
    /// `(round, correct?)` for every recorded check in the timeline.
    pub verdict_timeline: Vec<(u64, bool)>,
    /// Stride (in checks) between timeline samples.
    pub stride: u64,
}

impl GameReport {
    /// Fresh report for a game expected to perform up to `expected_checks`
    /// referee checks (rounds in the per-round game, batch boundaries under
    /// batched ingestion) — the stride is sized so the timeline keeps about
    /// [`TIMELINE_POINTS`] samples.
    pub fn new(initial_space_bits: u64, expected_checks: u64) -> Self {
        GameReport {
            result: GameResult {
                rounds: 0,
                failure: None,
                peak_space_bits: initial_space_bits,
                final_space_bits: initial_space_bits,
            },
            checks: 0,
            space_timeline: Vec::new(),
            verdict_timeline: Vec::new(),
            stride: (expected_checks / TIMELINE_POINTS as u64).max(1),
        }
    }

    /// Record one referee check at round `t`.
    ///
    /// The timeline is self-bounding: if a game performs far more checks
    /// than `expected_checks` predicted (streaming sources without a
    /// length hint, iterators with inexact size hints), the retained
    /// samples are decimated and the stride doubled whenever they reach
    /// `2 ×` [`TIMELINE_POINTS`] — memory stays O(1) in the stream length
    /// no matter how wrong the prediction was. Games with accurate
    /// predictions never hit the threshold, so their reports are
    /// unchanged.
    pub fn record_check(&mut self, t: u64, space_bits: u64, verdict: &Verdict) {
        self.checks += 1;
        self.result.peak_space_bits = self.result.peak_space_bits.max(space_bits);
        let sample_due = self.checks.is_multiple_of(self.stride);
        if sample_due || !verdict.is_correct() {
            if sample_due && self.space_timeline.len() >= 2 * TIMELINE_POINTS {
                let mut keep = [false, true].iter().copied().cycle();
                self.space_timeline.retain(|_| keep.next().expect("cycle"));
                let mut keep = [false, true].iter().copied().cycle();
                self.verdict_timeline
                    .retain(|_| keep.next().expect("cycle"));
                self.stride *= 2;
            }
            self.space_timeline.push((t, space_bits));
            self.verdict_timeline.push((t, verdict.is_correct()));
        }
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
        if let Some(&(t, _)) = self.space_timeline.last() {
            if t != rounds && rounds > 0 {
                self.space_timeline.push((rounds, final_space_bits));
                self.verdict_timeline
                    .push((rounds, self.result.failure.is_none()));
            }
        } else if rounds > 0 {
            self.space_timeline.push((rounds, final_space_bits));
            self.verdict_timeline
                .push((rounds, self.result.failure.is_none()));
        }
    }

    /// `true` iff every checked answer was correct.
    pub fn survived(&self) -> bool {
        self.result.survived()
    }
}

impl Snapshot for GameReport {
    /// Layout: `result | checks | space timeline | verdict timeline |
    /// stride`. The whole report is mutable in-game state, so everything is
    /// captured and overwritten on restore — a resumed game's timelines
    /// (and with them the report artifacts) continue exactly where the
    /// snapshotted game stopped.
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
        w.put_u64(self.space_timeline.len() as u64);
        for &(t, space) in &self.space_timeline {
            w.put_u64(t);
            w.put_u64(space);
        }
        w.put_u64(self.verdict_timeline.len() as u64);
        for &(t, ok) in &self.verdict_timeline {
            w.put_u64(t);
            w.put_bool(ok);
        }
        w.put_u64(self.stride);
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
        let spaces = r.take_usize()?;
        if spaces > 4 * TIMELINE_POINTS {
            return Err(SnapError::corrupt(format!(
                "space timeline of {spaces} samples exceeds the {} bound",
                4 * TIMELINE_POINTS
            )));
        }
        self.space_timeline.clear();
        for _ in 0..spaces {
            let t = r.take_u64()?;
            let space = r.take_u64()?;
            self.space_timeline.push((t, space));
        }
        let verdicts = r.take_usize()?;
        if verdicts > 4 * TIMELINE_POINTS {
            return Err(SnapError::corrupt(format!(
                "verdict timeline of {verdicts} samples exceeds the {} bound",
                4 * TIMELINE_POINTS
            )));
        }
        self.verdict_timeline.clear();
        for _ in 0..verdicts {
            let t = r.take_u64()?;
            let ok = r.take_bool()?;
            self.verdict_timeline.push((t, ok));
        }
        let stride = r.take_u64()?;
        if stride == 0 {
            return Err(SnapError::corrupt("timeline stride must be >= 1"));
        }
        self.stride = stride;
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
        let mut r = GameReport::new(10, 100);
        for t in 1..=100u64 {
            r.record_check(t, 10 + t, &Verdict::Correct);
        }
        r.finish(100, 110);
        assert_eq!(r.checks, 100);
        assert!(r.survived());
        assert_eq!(r.result.rounds, 100);
        assert_eq!(r.result.peak_space_bits, 110);
        assert_eq!(r.space_timeline.last(), Some(&(100, 110)));
    }

    #[test]
    fn timeline_stays_bounded_under_wrong_expectations() {
        // A report told to expect 1 check (stride 1) but fed 100k of them
        // must decimate instead of retaining every sample.
        let mut r = GameReport::new(0, 1);
        for t in 1..=100_000u64 {
            r.record_check(t, t, &Verdict::Correct);
        }
        r.finish(100_000, 100_000);
        assert_eq!(r.checks, 100_000);
        assert!(
            r.space_timeline.len() <= 2 * TIMELINE_POINTS + 1,
            "timeline grew to {}",
            r.space_timeline.len()
        );
        assert!(r.stride > 1, "stride never adapted");
        assert_eq!(r.space_timeline.last(), Some(&(100_000, 100_000)));
        // Samples stay in increasing round order after decimation.
        assert!(r.space_timeline.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn report_captures_first_violation() {
        let mut r = GameReport::new(0, 10);
        r.record_check(1, 5, &Verdict::Correct);
        r.record_check(2, 6, &Verdict::violation("bad"));
        r.finish(2, 6);
        assert!(!r.survived());
        let f = r.result.failure.as_ref().unwrap();
        assert_eq!(f.round, 2);
        assert_eq!(f.description, "bad");
        assert_eq!(r.verdict_timeline.last(), Some(&(2, false)));
    }

    #[test]
    fn table_row_formatting() {
        let r = row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a |   bb");
    }
}
