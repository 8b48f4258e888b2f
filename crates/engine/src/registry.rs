//! String-keyed construction of algorithms and adversaries.
//!
//! Binaries, tests, and servers pick algorithms at runtime by name:
//!
//! ```
//! use wb_engine::registry::{self, Params};
//!
//! let params = Params::default().with_n(1 << 12).with_eps(0.125);
//! let mut alg = registry::get("robust_hh", &params).unwrap();
//! assert_eq!(alg.name_dyn(), "RobustL1HeavyHitters");
//! assert!(registry::names().len() >= 8);
//! ```
//!
//! Every entry returns a boxed [`DynStreamAlg`]; unknown keys and
//! out-of-domain parameters return [`WbError::InvalidParameter`].

use crate::erased::{DynAdversary, DynStreamAlg, FnDynAdversary, StreamDynAdversary, Update};
use crate::tournament::workload_spec;
use crate::workload::FoldSource;
use wb_core::rng::TranscriptRng;
use wb_core::WbError;
use wb_sketch::ams::AmsF2;
use wb_sketch::count_min::CountMin;
use wb_sketch::l0::{ExactL0, MatrixMode, SisL0Estimator};
use wb_sketch::{
    BernMG, BernoulliHeavyHitters, MedianMorris, MisraGries, MorrisCounter, PhiEpsHeavyHitters,
    RobustL1HeavyHitters, SpaceSaving,
};

/// Parameter bag for registry construction. Every algorithm reads the
/// subset it needs; unused fields are ignored. Defaults are sized for
/// test-scale experiments.
#[derive(Debug, Clone)]
pub struct Params {
    /// Universe size `n`.
    pub n: u64,
    /// Accuracy `ε`.
    pub eps: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Reporting threshold `φ` (the `(φ, ε)` heavy-hitter guarantee).
    pub phi: f64,
    /// Stream-length guess for fixed-horizon instances (`bern_mg`,
    /// `bernoulli_hh`).
    pub m_guess: u64,
    /// Stream length for scripted adversaries.
    pub m: u64,
    /// Copies for median amplification (`median_morris`, `ams_f2`).
    pub copies: usize,
    /// CountMin rows.
    pub depth: usize,
    /// CountMin buckets per row.
    pub width: usize,
    /// Adversary time budget `T` (`phi_eps_hh`).
    pub t_budget: u64,
    /// L0 approximation exponent (`n^ε` gap of Theorem 1.5).
    pub l0_eps: f64,
    /// L0 matrix-storage exponent `c`.
    pub l0_c: f64,
    /// Use the random-oracle matrix mode for `sis_l0`.
    pub random_oracle: bool,
    /// Seed for constructor randomness (hash coefficients, matrices, …) —
    /// public, like all randomness in this model.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 1 << 16,
            eps: 0.125,
            delta: 0.01,
            phi: 0.2,
            m_guess: 1 << 15,
            m: 1 << 14,
            copies: 7,
            depth: 4,
            width: 256,
            t_budget: 1 << 16,
            l0_eps: 0.5,
            l0_c: 0.25,
            random_oracle: true,
            seed: 42,
        }
    }
}

impl Params {
    /// Set the universe size.
    pub fn with_n(mut self, n: u64) -> Self {
        self.n = n;
        self
    }

    /// Set the accuracy parameter.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Set the failure probability.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Set the reporting threshold `φ`.
    pub fn with_phi(mut self, phi: f64) -> Self {
        self.phi = phi;
        self
    }

    /// Set the stream-length guess.
    pub fn with_m_guess(mut self, m_guess: u64) -> Self {
        self.m_guess = m_guess;
        self
    }

    /// Set the scripted-adversary stream length.
    pub fn with_m(mut self, m: u64) -> Self {
        self.m = m;
        self
    }

    /// Set the constructor-randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Smallest accuracy `ε` any algorithm accepts (2^-16). Summaries size
/// their counter arrays as `Θ(1/ε)` up front and the Morris base offset
/// shrinks with `ε`, so an unbounded `ε → 0` turns one parameter into a
/// multi-gigabyte allocation or a panic; no experiment goes below 0.05.
pub(crate) const MIN_EPS: f64 = 1.0 / 65536.0;

/// Smallest failure probability `δ` any algorithm accepts (2^-64). The
/// Morris base offset is `2ε²δ`; with `ε ≥` [`MIN_EPS`] it stays at least
/// 2^-95, positive and normal, where an unbounded `δ → 0` underflows it to
/// zero and panics the constructor. No experiment goes below 0.01.
pub(crate) const MIN_DELTA: f64 = 1.0 / 18_446_744_073_709_551_616.0;

/// Largest universe `sis_l0` accepts (2^20). Its modulus `q ≥ n³` must
/// fit in a `u64` and its sketch grows with `n`; the largest in-repo
/// universe is 2^16.
pub(crate) const MAX_SIS_UNIVERSE: u64 = 1 << 20;

type Ctor = fn(&Params) -> Result<Box<dyn DynStreamAlg>, WbError>;

/// `(key, summary, constructor)` for every registered algorithm.
const ENTRIES: &[(&str, &str, Ctor)] = &[
    (
        "misra_gries",
        "deterministic eps-heavy-hitters baseline (Thm 2.2)",
        |p| {
            check_eps(p.eps, 1.0)?;
            Ok(Box::new(MisraGries::new(p.eps, p.n)))
        },
    ),
    (
        "space_saving",
        "SpaceSaving summary with adoption-error tracking (Thm 2.11 substrate)",
        |p| {
            check_eps(p.eps, 1.0)?;
            Ok(Box::new(SpaceSaving::new(p.eps, p.n)))
        },
    ),
    (
        "bern_mg",
        "Algorithm 1: Bernoulli-sampled Misra-Gries for a fixed horizon",
        |p| {
            check_eps(p.eps, 1.0)?;
            check_delta(p.delta)?;
            check_m_guess(p.m_guess)?;
            Ok(Box::new(BernMG::new(p.n, p.m_guess, p.eps, p.delta)))
        },
    ),
    (
        "bernoulli_hh",
        "Theorem 2.3: plain Bernoulli-sampled exact counts for a fixed horizon",
        |p| {
            check_eps(p.eps, 1.0)?;
            check_delta(p.delta)?;
            check_m_guess(p.m_guess)?;
            Ok(Box::new(BernoulliHeavyHitters::new(
                p.n, p.m_guess, p.eps, p.delta,
            )))
        },
    ),
    (
        "robust_hh",
        "Theorem 1.1 / Algorithm 2: robust eps-L1 heavy hitters, unknown horizon",
        |p| {
            check_eps(p.eps, 0.5)?;
            Ok(Box::new(RobustL1HeavyHitters::new(p.n, p.eps)))
        },
    ),
    (
        "phi_eps_hh",
        "Theorem 1.2: CRHF-compressed (phi,eps)-heavy hitters vs T-time adversaries",
        |p| {
            check_eps(p.eps, 0.5)?;
            if !(p.phi > p.eps && p.phi < 1.0) {
                return Err(WbError::invalid("phi must be in (eps, 1)"));
            }
            let mut rng = TranscriptRng::from_seed(p.seed);
            Ok(Box::new(PhiEpsHeavyHitters::new(
                p.n, p.phi, p.eps, p.t_budget, &mut rng,
            )))
        },
    ),
    (
        "morris",
        "Lemma 2.1: a single Morris approximate counter",
        |p| {
            check_eps(p.eps, 1.0)?;
            check_delta(p.delta)?;
            Ok(Box::new(MorrisCounter::new(p.eps, p.delta)))
        },
    ),
    (
        "median_morris",
        "Lemma 2.1: median of `copies` Morris counters",
        |p| {
            check_eps(p.eps, 1.0)?;
            if p.copies == 0 {
                return Err(WbError::invalid("copies must be >= 1"));
            }
            Ok(Box::new(MedianMorris::new(p.eps, p.copies)))
        },
    ),
    (
        "count_min",
        "CountMin sketch (white-box-breakable baseline; query = victim 0 estimate)",
        |p| {
            if p.depth == 0 || p.width < 2 {
                return Err(WbError::invalid("need depth >= 1 and width >= 2"));
            }
            let mut rng = TranscriptRng::from_seed(p.seed);
            Ok(Box::new(CountMin::new(p.depth, p.width, &mut rng)))
        },
    ),
    (
        "ams_f2",
        "AMS F2 sketch (white-box-breakable baseline, Thm 1.9 motivation)",
        |p| {
            if p.copies == 0 {
                return Err(WbError::invalid("copies must be >= 1"));
            }
            let mut rng = TranscriptRng::from_seed(p.seed);
            Ok(Box::new(AmsF2::new(p.copies, &mut rng)))
        },
    ),
    (
        "exact_l0",
        "exact turnstile L0 (space-unbounded reference)",
        |p| Ok(Box::new(ExactL0::new(p.n))),
    ),
    (
        "sis_l0",
        "Theorem 1.5 / Algorithm 5: SIS-based n^eps-approximate turnstile L0",
        |p| {
            if !(p.l0_eps > 0.0 && p.l0_eps < 1.0) {
                return Err(WbError::invalid("l0_eps must be in (0,1)"));
            }
            if !(p.l0_c > 0.0 && p.l0_c < 0.5) {
                return Err(WbError::invalid("l0_c must be in (0, 1/2)"));
            }
            if p.n > MAX_SIS_UNIVERSE {
                return Err(WbError::invalid(format!(
                    "sis_l0 universe n must be <= 2^20, got {}",
                    p.n
                )));
            }
            let mode = if p.random_oracle {
                MatrixMode::RandomOracle
            } else {
                MatrixMode::Explicit
            };
            let mut rng = TranscriptRng::from_seed(p.seed);
            Ok(Box::new(SisL0Estimator::new(
                p.n, p.l0_eps, p.l0_c, mode, &mut rng,
            )))
        },
    ),
];

fn check_eps(eps: f64, hi: f64) -> Result<(), WbError> {
    if eps >= MIN_EPS && eps < hi {
        Ok(())
    } else {
        Err(WbError::invalid(format!("eps must be in [2^-16, {hi})")))
    }
}

fn check_delta(delta: f64) -> Result<(), WbError> {
    if (MIN_DELTA..1.0).contains(&delta) {
        Ok(())
    } else {
        Err(WbError::invalid("delta must be in [2^-64, 1)"))
    }
}

/// Fixed-horizon algorithms size their sampling rate by the horizon.
fn check_m_guess(m_guess: u64) -> Result<(), WbError> {
    if m_guess >= 1 {
        Ok(())
    } else {
        Err(WbError::invalid("m_guess must be >= 1"))
    }
}

/// Keys of every registered algorithm, in registration order.
pub fn names() -> Vec<&'static str> {
    ENTRIES.iter().map(|&(name, _, _)| name).collect()
}

/// `(key, summary)` pairs for every registered algorithm.
pub fn describe() -> Vec<(&'static str, &'static str)> {
    ENTRIES.iter().map(|&(n, d, _)| (n, d)).collect()
}

/// Reject an empty universe at construction time: an empty universe is a
/// configuration error, not a stream property, so it fails here rather
/// than at `Update::fold_into`'s assertion mid-stream.
fn check_universe(n: u64) -> Result<(), WbError> {
    if n == 0 {
        Err(WbError::invalid(
            "universe size n must be >= 1 (a zero universe has no items to stream)",
        ))
    } else {
        Ok(())
    }
}

/// Construct the algorithm registered under `name`.
pub fn get(name: &str, params: &Params) -> Result<Box<dyn DynStreamAlg>, WbError> {
    check_universe(params.n)?;
    match ENTRIES.iter().find(|&&(n, _, _)| n == name) {
        Some(&(_, _, ctor)) => ctor(params),
        None => Err(WbError::invalid(format!(
            "unknown algorithm '{name}' (known: {})",
            names().join(", ")
        ))),
    }
}

/// Keys of every registered adversary.
pub fn adversary_names() -> Vec<&'static str> {
    vec!["zipf", "ddos", "uniform", "cycle", "hh_evader"]
}

/// Construct the adversary registered under `name`.
///
/// The scripted adversaries (`zipf`, `ddos`, `uniform`, `cycle`) replay
/// the stream the tournament's name→workload table ([`workload_spec`])
/// builds for that name, for `params.m` rounds — pulled lazily from
/// [`WorkloadSpec::stream`](crate::workload::WorkloadSpec::stream), so even
/// a huge scripted phase is O(chunk) memory, never a materialized script;
/// `hh_evader` is adaptive — it interleaves one heavy item with items
/// currently absent from the last reported heavy-hitter list (the classic
/// summary-evasion strategy, expressed over the erased interface).
///
/// Every scripted stream is folded into the universe by `item % params.n`
/// (the shared [`FoldSource`] rule — the generator logic itself lives only
/// in [`crate::workload`]), so universe-bounded algorithms (`sis_l0`
/// refuses `item >= n`) stay playable against every registered adversary
/// at every `n`: `ddos` emits raw 32-bit addresses, and the other
/// generators' items can exceed a small universe. Folding leaves in-universe
/// items alone; the `ddos` hot prefix and hot host fold onto fixed residues,
/// preserving the skew.
pub fn adversary(name: &str, params: &Params) -> Result<Box<dyn DynAdversary>, WbError> {
    check_universe(params.n)?;
    let p = params.clone();
    match name {
        "zipf" | "ddos" | "uniform" | "cycle" => {
            let stream = workload_spec(name, p.n, p.m, p.seed)?.stream();
            Ok(Box::new(StreamDynAdversary::new(FoldSource::new(
                stream, p.n,
            ))))
        }
        "hh_evader" => {
            // The evader cycles over the upper half of the universe; a tiny
            // universe would leave it nothing to evade into (or divide by
            // zero), so require enough headroom to always find a fresh item.
            if p.n < 16 {
                return Err(WbError::invalid("hh_evader needs n >= 16"));
            }
            let m = p.m;
            let n = p.n;
            let half = n / 2;
            let mut evader = half;
            Ok(Box::new(FnDynAdversary::new(move |t, _alg, _tr, last| {
                if t > m {
                    return None;
                }
                if t.is_multiple_of(3) {
                    return Some(Update::Insert(1));
                }
                let reported: Vec<u64> = last
                    .and_then(|a| a.as_items().map(|v| v.iter().map(|&(i, _)| i).collect()))
                    .unwrap_or_default();
                // Bounded scan: if (pathologically) every upper-half item is
                // reported, fall back to the current candidate rather than
                // spinning forever.
                for _ in 0..half {
                    if !reported.contains(&evader) {
                        break;
                    }
                    evader = half + (evader + 1) % half;
                }
                let item = evader;
                evader = half + (evader + 1) % half;
                Some(Update::Insert(item))
            })))
        }
        _ => Err(WbError::invalid(format!(
            "unknown adversary '{name}' (known: {})",
            adversary_names().join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::run_erased;
    use crate::referee::RefereeSpec;
    use crate::workload::WorkloadSpec;

    #[test]
    fn at_least_eight_algorithms_constructible() {
        let p = Params::default().with_n(1 << 10);
        let listed = names();
        assert!(listed.len() >= 8, "only {} registry entries", listed.len());
        for name in &listed {
            let alg = get(name, &p).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!alg.name_dyn().contains("::"), "{name} leaks a path");
        }
        assert_eq!(describe().len(), listed.len());
    }

    #[test]
    fn unknown_keys_and_bad_params_error() {
        assert!(get("no_such_alg", &Params::default()).is_err());
        assert!(get("robust_hh", &Params::default().with_eps(0.9)).is_err());
        assert!(get("misra_gries", &Params::default().with_eps(0.0)).is_err());
        assert!(adversary("no_such_adv", &Params::default()).is_err());
    }

    #[test]
    fn zero_universe_is_a_constructor_error() {
        // Regression: n = 0 used to be silently clamped by fold_into,
        // collapsing every stream onto item 0; it must fail at the door.
        for name in names() {
            let err = get(name, &Params::default().with_n(0));
            assert!(err.is_err(), "{name} accepted n = 0");
        }
        for adv in adversary_names() {
            let err = adversary(adv, &Params::default().with_n(0));
            assert!(err.is_err(), "adversary {adv} accepted n = 0");
        }
    }

    #[test]
    fn hostile_parameters_are_errors_not_panics_or_huge_allocations() {
        // Each of these once panicked in a constructor or asked for
        // gigabytes up front; every algorithm that reads the parameter
        // must now refuse it, and no algorithm may panic on it.
        let eps_readers = [
            "misra_gries",
            "space_saving",
            "bern_mg",
            "bernoulli_hh",
            "robust_hh",
            "phi_eps_hh",
            "morris",
            "median_morris",
        ];
        for eps in [1e-300, 1e-9, MIN_EPS / 2.0, 0.0, -1.0, f64::NAN] {
            let p = Params::default().with_eps(eps);
            for name in names() {
                let got = std::panic::catch_unwind(|| get(name, &p).is_ok())
                    .unwrap_or_else(|_| panic!("{name} panicked at eps {eps}"));
                assert_eq!(got, !eps_readers.contains(&name), "{name} at eps {eps}");
            }
        }
        for n in [u64::MAX, 1 << 50, MAX_SIS_UNIVERSE + 1] {
            let p = Params::default().with_n(n);
            for name in names() {
                let got = std::panic::catch_unwind(|| get(name, &p).is_ok())
                    .unwrap_or_else(|_| panic!("{name} panicked at n {n}"));
                assert_eq!(got, name != "sis_l0", "{name} at n {n}");
            }
        }
        let mut bad_c = Params::default().with_n(1 << 10);
        bad_c.l0_c = 0.5;
        assert!(get("sis_l0", &bad_c).is_err());
        // The bounds themselves are accepted.
        assert!(get("sis_l0", &Params::default().with_n(MAX_SIS_UNIVERSE)).is_ok());
        assert!(get("misra_gries", &Params::default().with_eps(MIN_EPS)).is_ok());
    }

    #[test]
    fn construction_is_deterministic_in_seed() {
        let p = Params::default().with_n(1 << 10);
        let mut a = get("count_min", &p).unwrap();
        let mut b = get("count_min", &p).unwrap();
        let mut rng_a = TranscriptRng::from_seed(1);
        let mut rng_b = TranscriptRng::from_seed(1);
        for i in 0..100 {
            a.process_dyn(&Update::Insert(i), &mut rng_a).unwrap();
            b.process_dyn(&Update::Insert(i), &mut rng_b).unwrap();
        }
        assert_eq!(a.query_dyn(), b.query_dyn());
        assert_eq!(a.space_bits_dyn(), b.space_bits_dyn());
    }

    #[test]
    fn scripted_adversaries_replay_the_folded_workload_stream() {
        // The streaming ddos adversary must emit exactly the folded
        // materialized script the old hand-rolled fold produced.
        let p = Params::default().with_n(1 << 10).with_m(500);
        let expected: Vec<Update> = WorkloadSpec::Ddos {
            m: p.m,
            seed: p.seed,
        }
        .generate()
        .into_iter()
        .map(|u| u.fold_into(p.n))
        .collect();
        let mut adv = adversary("ddos", &p).unwrap();
        let alg = get("misra_gries", &p).unwrap();
        let rng = TranscriptRng::from_seed(0);
        let mut got = Vec::new();
        let mut t = 1;
        while let Some(u) = adv.next_update(t, alg.as_ref(), rng.transcript(), None) {
            got.push(u);
            t += 1;
        }
        assert_eq!(got, expected);
        assert!(got.iter().all(|u| u.item() < p.n), "fold missed an item");
    }

    #[test]
    fn named_adversary_plays_named_algorithm() {
        let p = Params::default().with_n(1 << 10).with_m(2_000);
        let mut alg = get("robust_hh", &p).unwrap();
        let mut adv = adversary("hh_evader", &p).unwrap();
        let mut referee = RefereeSpec::HeavyHitters {
            eps: p.eps,
            tol: p.eps,
            phi: None,
            grace: 64,
        }
        .build();
        let report = run_erased(alg.as_mut(), adv.as_mut(), referee.as_mut(), 2_000, 17).unwrap();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
        assert_eq!(report.result.rounds, 2_000);
    }
}
