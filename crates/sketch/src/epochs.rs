//! The two-active-guesses epoch ladder shared by Algorithms 2 and 4.
//!
//! The paper's trick for unknown stream length: keep only **two** live
//! instances of a known-`m` algorithm, provisioned for guesses
//! `R^{c+1}` and `R^{c+2}` with `R = 16/ε`. When the (Morris-estimated)
//! stream length crosses `R^{c+1}`, the answering instance is retired, the
//! warming instance (started one epoch ago, hence missing at most an
//! `ε/16`-fraction prefix of its answering window) takes over, and a fresh
//! instance starts warming for guess `R^{c+3}`.
//!
//! Tracking the epoch index `c` costs `O(log log m / log R)` bits — the
//! ladder never stores the stream length itself.

use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, SpaceUsage};

/// Epoch ladder over instances of type `T`, built by `factory(guess)`.
#[derive(Debug, Clone)]
pub struct GuessLadder<T, F> {
    ratio: f64,
    c: u32,
    /// `answering_guess() as f64`, the threshold [`Self::advance`]
    /// compares against — a pure function of `c`, refreshed whenever `c`
    /// moves, so an update that promotes nothing costs one compare.
    threshold: f64,
    answering: T,
    warming: T,
    factory: F,
}

impl<T, F> GuessLadder<T, F>
where
    F: Fn(u64) -> T,
{
    /// New ladder with growth ratio `R > 1`. Instances for guesses `R¹` and
    /// `R²` are created immediately.
    pub fn new(ratio: f64, factory: F) -> Self {
        assert!(ratio > 1.0, "ratio must exceed 1");
        let answering = factory(guess_at(ratio, 1));
        let warming = factory(guess_at(ratio, 2));
        GuessLadder {
            ratio,
            c: 0,
            threshold: guess_at(ratio, 1) as f64,
            answering,
            warming,
            factory,
        }
    }

    /// The instance whose guess covers the current epoch (used for answers).
    pub fn answering(&self) -> &T {
        &self.answering
    }

    /// The warming instance (answers the *next* epoch).
    pub fn warming(&self) -> &T {
        &self.warming
    }

    /// Mutable access to both live instances (both are fed every update).
    pub fn live_mut(&mut self) -> [&mut T; 2] {
        [&mut self.answering, &mut self.warming]
    }

    /// Current epoch index `c`.
    pub fn epoch(&self) -> u32 {
        self.c
    }

    /// The answering instance's guess, `R^{c+1}`.
    pub fn answering_guess(&self) -> u64 {
        guess_at(self.ratio, self.c + 1)
    }

    /// [`Self::advance`] with `t_hat` evaluated only when `t_hat_bound`,
    /// an upper bound on it, reaches the answering guess — below that no
    /// promotion can happen, so skipping the evaluation changes nothing.
    pub(crate) fn advance_bounded(&mut self, t_hat_bound: f64, t_hat: impl FnOnce() -> f64) -> u32 {
        if t_hat_bound < self.threshold {
            0
        } else {
            self.advance(t_hat())
        }
    }

    /// Advance epochs while the estimated stream length `t_hat` has crossed
    /// the answering guess. Returns the number of promotions performed.
    pub fn advance(&mut self, t_hat: f64) -> u32 {
        let mut promotions = 0;
        while t_hat >= self.threshold {
            self.c += 1;
            self.threshold = self.answering_guess() as f64;
            self.answering = std::mem::replace(
                &mut self.warming,
                (self.factory)(guess_at(self.ratio, self.c + 2)),
            );
            promotions += 1;
            if promotions > 128 {
                break; // defensive: ratio > 1 guarantees termination anyway
            }
        }
        promotions
    }
}

impl<T, F> Snapshot for GuessLadder<T, F>
where
    T: Snapshot,
    F: Fn(u64) -> T,
{
    /// Layout: `c | answering | warming`. The factory and ratio are
    /// construction parameters; if the snapshot was taken at a later epoch
    /// than the restoring twin's, both live instances are rebuilt through
    /// the factory at the snapshot epoch's guesses before restoring their
    /// state in place.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.c);
        self.answering.snap(w);
        self.warming.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let c = r.take_u32()?;
        if c != self.c {
            self.answering = (self.factory)(guess_at(self.ratio, c + 1));
            self.warming = (self.factory)(guess_at(self.ratio, c + 2));
            self.c = c;
            self.threshold = self.answering_guess() as f64;
        }
        self.answering.restore(r)?;
        self.warming.restore(r)
    }
}

/// `⌈R^i⌉` saturating at `u64::MAX`.
fn guess_at(ratio: f64, i: u32) -> u64 {
    let g = ratio.powi(i as i32);
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g.ceil() as u64
    }
}

impl<T: SpaceUsage, F> SpaceUsage for GuessLadder<T, F> {
    /// Two live instances plus the epoch index.
    fn space_bits(&self) -> u64 {
        self.answering.space_bits() + self.warming.space_bits() + bits_for_count(self.c as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        guess: u64,
        fed: u64,
    }
    impl SpaceUsage for Probe {
        fn space_bits(&self) -> u64 {
            8
        }
    }

    fn ladder() -> GuessLadder<Probe, impl Fn(u64) -> Probe> {
        GuessLadder::new(4.0, |guess| Probe { guess, fed: 0 })
    }

    #[test]
    fn initial_instances_have_first_two_guesses() {
        let l = ladder();
        assert_eq!(l.answering().guess, 4);
        assert_eq!(l.warming().guess, 16);
        assert_eq!(l.epoch(), 0);
        assert_eq!(l.answering_guess(), 4);
    }

    #[test]
    fn advance_promotes_warming() {
        let mut l = ladder();
        assert_eq!(l.advance(3.0), 0, "below guess: no promotion");
        assert_eq!(l.advance(4.0), 1);
        assert_eq!(l.epoch(), 1);
        assert_eq!(l.answering().guess, 16);
        assert_eq!(l.warming().guess, 64);
    }

    #[test]
    fn advance_skips_multiple_epochs() {
        let mut l = ladder();
        // t̂ jumps straight past guesses 4, 16, 64.
        let promoted = l.advance(100.0);
        assert_eq!(promoted, 3);
        assert_eq!(l.answering().guess, 256);
        assert_eq!(l.warming().guess, 1024);
    }

    #[test]
    fn live_mut_feeds_both() {
        let mut l = ladder();
        for inst in l.live_mut() {
            inst.fed += 1;
        }
        assert_eq!(l.answering().fed, 1);
        assert_eq!(l.warming().fed, 1);
    }

    #[test]
    fn promoted_instance_keeps_its_history() {
        let mut l = ladder();
        for inst in l.live_mut() {
            inst.fed = 7;
        }
        l.advance(4.0);
        // Warming (fed=7) became answering; new warming starts fresh.
        assert_eq!(l.answering().fed, 7);
        assert_eq!(l.warming().fed, 0);
    }

    #[test]
    fn guess_saturates() {
        assert_eq!(guess_at(16.0, 32), u64::MAX);
        assert_eq!(guess_at(2.0, 10), 1024);
    }

    #[test]
    fn space_counts_two_instances_and_epoch() {
        let l = ladder();
        assert_eq!(l.space_bits(), 8 + 8 + 1);
    }

    #[test]
    #[should_panic(expected = "ratio must exceed 1")]
    fn rejects_small_ratio() {
        GuessLadder::new(1.0, |guess| Probe { guess, fed: 0 });
    }
}
