//! The Short Integer Solution problem (Definition 2.15) and sketching
//! matrices derived from it.
//!
//! A SIS instance is a uniformly random matrix `A ∈ Z_q^{d×w}`; a solution
//! is a **nonzero, short** integer vector `z` (here `‖z‖_∞ ≤ β_∞`) with
//! `A z ≡ 0 (mod q)`. Ajtai's worst-case-to-average-case reduction
//! (Theorem 2.16) makes finding such `z` as hard as worst-case lattice
//! problems; Assumption 2.17 of the paper is that no poly-time adversary
//! can do it.
//!
//! The streaming algorithms (Algorithm 5 for L0, Theorem 1.6 for rank) use
//! `A` as a linear sketch: a sketch equal to `0` certifies that the sketched
//! sub-vector is zero *unless the adversary has produced a SIS solution*.
//! The matrix can be stored explicitly or regenerated column-by-column from
//! a [`RandomOracle`] (which removes the `d·w·log q` storage term — the
//! random-oracle space saving of Theorem 1.5).
//!
//! Attack tooling (for experiments that *measure* the hardness scaling):
//!
//! * [`brute_force_short_kernel`] — exhaustive search over `‖z‖_∞ ≤ β_∞`,
//!   cost `(2β_∞+1)^w`;
//! * [`birthday_kernel_search`] — meet-in-the-middle over random 0/1
//!   splits, cost ~`q^{d/2}` samples for `{−1,0,1}` solutions;
//! * [`mod_q_kernel`] — the **unbounded** adversary: Gaussian elimination
//!   finds a mod-q kernel vector whenever `w > d`, but the result is
//!   generally *not short* — exhibiting exactly the gap between
//!   computationally bounded and unbounded adversaries the paper's upper
//!   and lower bounds straddle.

use crate::modular::{add_mod, inv_mod, mul_mod, reduce_signed, sub_mod};
use crate::oracle::RandomOracle;
use wb_core::rng::TranscriptRng;
use wb_core::space::{bits_for_universe, SpaceUsage};

/// Public parameters of a SIS instance / sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SisParams {
    /// Sketch dimension (rows of `A`).
    pub d: usize,
    /// Input dimension (columns of `A`).
    pub w: usize,
    /// Modulus (prime in this workspace).
    pub q: u64,
    /// Shortness bound `β_∞` on solutions.
    pub beta_inf: u64,
}

impl SisParams {
    /// Basic sanity checks.
    pub fn validate(&self) -> Result<(), wb_core::WbError> {
        if self.d == 0 || self.w == 0 {
            return Err(wb_core::WbError::invalid("SIS dims must be positive"));
        }
        if self.q < 2 {
            return Err(wb_core::WbError::invalid("SIS modulus must be ≥ 2"));
        }
        if self.beta_inf == 0 || self.beta_inf >= self.q {
            return Err(wb_core::WbError::invalid("need 0 < β_∞ < q"));
        }
        Ok(())
    }
}

/// A SIS sketching matrix, stored explicitly or derived from a random
/// oracle column-by-column.
#[derive(Debug, Clone)]
pub enum SisMatrix {
    /// Matrix stored in memory (column-major).
    Explicit {
        /// Public parameters.
        params: SisParams,
        /// `cols[j]` is the `d`-dimensional column `A_j`.
        cols: Vec<Vec<u64>>,
    },
    /// Columns regenerated on demand from a public random oracle.
    Oracle {
        /// Public parameters.
        params: SisParams,
        /// The public oracle.
        oracle: RandomOracle,
    },
}

impl SisMatrix {
    /// Uniformly random explicit matrix from public randomness.
    pub fn random_explicit(params: SisParams, rng: &mut TranscriptRng) -> Self {
        params.validate().expect("invalid SIS params");
        let cols = (0..params.w)
            .map(|_| (0..params.d).map(|_| rng.below(params.q)).collect())
            .collect();
        SisMatrix::Explicit { params, cols }
    }

    /// **Failure injection**: a matrix with a *planted* short kernel vector
    /// (returned alongside). The trapdoor simulates an adversary that has
    /// actually broken SIS, so experiments can verify that the security
    /// argument of Theorem 1.5 is load-bearing — the sketch *must* fail
    /// once a short kernel is known.
    ///
    /// Construction: draw `A'` uniformly on the first `w−1` columns and a
    /// short `z'` with `z'_last = 1`; set the last column to
    /// `−A'·z'_{0..w−1} (mod q)`, making `z'` a kernel vector. The marginal
    /// distribution of the matrix is still uniform.
    pub fn planted(params: SisParams, rng: &mut TranscriptRng) -> (Self, Vec<i64>) {
        params.validate().expect("invalid SIS params");
        assert!(params.w >= 2, "planting needs ≥ 2 columns");
        let mut cols: Vec<Vec<u64>> = (0..params.w - 1)
            .map(|_| (0..params.d).map(|_| rng.below(params.q)).collect())
            .collect();
        // Short trapdoor with ±1/0 entries and a fixed 1 in the last slot.
        let mut z: Vec<i64> = (0..params.w - 1).map(|_| rng.below(3) as i64 - 1).collect();
        z.push(1);
        // last column = −Σ_j z_j · col_j (mod q)
        let mut last = vec![0u64; params.d];
        for (j, col) in cols.iter().enumerate() {
            let c = reduce_signed(z[j], params.q);
            for (acc, &v) in last.iter_mut().zip(col) {
                *acc = add_mod(*acc, mul_mod(c, v, params.q), params.q);
            }
        }
        for v in &mut last {
            *v = sub_mod(0, *v, params.q);
        }
        cols.push(last);
        let m = SisMatrix::Explicit { params, cols };
        debug_assert!(is_sis_solution(&m, &z));
        (m, z)
    }

    /// Oracle-backed matrix (columns regenerated on demand).
    pub fn from_oracle(params: SisParams, tag: &[u8]) -> Self {
        params.validate().expect("invalid SIS params");
        SisMatrix::Oracle {
            params,
            oracle: RandomOracle::new(tag),
        }
    }

    /// Public parameters.
    pub fn params(&self) -> &SisParams {
        match self {
            SisMatrix::Explicit { params, .. } => params,
            SisMatrix::Oracle { params, .. } => params,
        }
    }

    /// Column `j` of `A` as a fresh vector.
    pub fn column(&self, j: usize) -> Vec<u64> {
        let p = *self.params();
        assert!(j < p.w, "column index out of range");
        match self {
            SisMatrix::Explicit { cols, .. } => cols[j].clone(),
            SisMatrix::Oracle { oracle, .. } => oracle.zq_column(j as u64, p.d, p.q),
        }
    }

    /// Column `j` of `A` without allocating: borrowed from an explicit
    /// matrix, or regenerated from the oracle into `scratch`, which must
    /// hold exactly `d` entries.
    pub fn column_in<'a>(&'a self, j: usize, scratch: &'a mut [u64]) -> &'a [u64] {
        let p = *self.params();
        assert!(j < p.w, "column index out of range");
        debug_assert_eq!(scratch.len(), p.d);
        match self {
            SisMatrix::Explicit { cols, .. } => &cols[j],
            SisMatrix::Oracle { oracle, .. } => {
                oracle.zq_column_into(j as u64, p.q, scratch);
                scratch
            }
        }
    }

    /// `acc ← acc + coeff · A_j (mod q)` — the streaming update primitive.
    pub fn add_scaled_column(&self, j: usize, coeff: i64, acc: &mut [u64]) {
        let p = *self.params();
        debug_assert_eq!(acc.len(), p.d);
        match self {
            SisMatrix::Explicit { cols, .. } => self.add_scaled(&cols[j], coeff, acc),
            SisMatrix::Oracle { oracle, .. } => {
                let c = reduce_signed(coeff, p.q);
                if c == 0 {
                    return;
                }
                for (row, a) in acc.iter_mut().enumerate() {
                    let v = oracle.zq_at(j as u64 * p.d as u64 + row as u64, p.q);
                    *a = add_mod(*a, mul_mod(c, v, p.q), p.q);
                }
            }
        }
    }

    /// `acc ← acc + coeff · col (mod q)` for a column already materialized
    /// by [`Self::column_in`]: the same sums as
    /// [`Self::add_scaled_column`], so a batch can regenerate a column once
    /// and add it into every sketch that needs it.
    pub fn add_scaled(&self, col: &[u64], coeff: i64, acc: &mut [u64]) {
        let q = self.params().q;
        debug_assert_eq!(acc.len(), col.len());
        let c = reduce_signed(coeff, q);
        if c == 0 {
            return;
        }
        for (a, &v) in acc.iter_mut().zip(col) {
            *a = add_mod(*a, mul_mod(c, v, q), q);
        }
    }

    /// `A x mod q` for an integer vector `x` of length `w`.
    pub fn apply(&self, x: &[i64]) -> Vec<u64> {
        let p = *self.params();
        assert_eq!(x.len(), p.w);
        let mut acc = vec![0u64; p.d];
        for (j, &coeff) in x.iter().enumerate() {
            self.add_scaled_column(j, coeff, &mut acc);
        }
        acc
    }
}

impl SpaceUsage for SisMatrix {
    /// Explicit storage costs `d·w·⌈log₂ q⌉` bits; the oracle-backed matrix
    /// costs only its tag — this is the space gap of Theorem 1.5.
    fn space_bits(&self) -> u64 {
        let p = self.params();
        match self {
            SisMatrix::Explicit { .. } => p.d as u64 * p.w as u64 * bits_for_universe(p.q),
            SisMatrix::Oracle { oracle, .. } => oracle.space_bits(),
        }
    }
}

/// Is `z` a valid SIS solution for `m`? (nonzero, `‖z‖_∞ ≤ β_∞`,
/// `A z ≡ 0 mod q`).
pub fn is_sis_solution(m: &SisMatrix, z: &[i64]) -> bool {
    let p = m.params();
    z.len() == p.w
        && z.iter().any(|&v| v != 0)
        && z.iter().all(|&v| v.unsigned_abs() <= p.beta_inf)
        && m.apply(z).iter().all(|&v| v == 0)
}

/// Exhaustive search over `{−β..β}^w` in odometer order, capped at `budget`
/// candidates. Returns the first solution found.
///
/// Cost `(2β+1)^w`: feasible only at toy parameters — which is the point of
/// the hardness-scaling experiment (E4).
pub fn brute_force_short_kernel(m: &SisMatrix, budget: u64) -> Option<Vec<i64>> {
    let p = *m.params();
    let beta = p.beta_inf as i64;
    let radix = (2 * beta + 1) as u64;
    let mut z = vec![-beta; p.w];
    let mut tried = 0u64;
    loop {
        if tried >= budget {
            return None;
        }
        tried += 1;
        if is_sis_solution(m, &z) {
            return Some(z);
        }
        // odometer increment
        let mut i = 0;
        loop {
            if i == p.w {
                return None; // exhausted the whole box
            }
            z[i] += 1;
            if z[i] > beta {
                z[i] = -beta;
                i += 1;
            } else {
                break;
            }
        }
        let _ = radix;
    }
}

/// Birthday / meet-in-the-middle search for a `{−1, 0, 1}` solution:
/// samples random 0/1 vectors, hashes their sketches, and returns the
/// difference of any colliding pair. Expected cost ~`q^{d/2}` samples.
pub fn birthday_kernel_search(
    m: &SisMatrix,
    samples: u64,
    rng: &mut TranscriptRng,
) -> Option<Vec<i64>> {
    use std::collections::HashMap;
    let p = *m.params();
    if p.beta_inf < 1 {
        return None;
    }
    let mut seen: HashMap<Vec<u64>, Vec<i64>> = HashMap::new();
    for _ in 0..samples {
        let x: Vec<i64> = (0..p.w).map(|_| (rng.next_u64() & 1) as i64).collect();
        let sketch = m.apply(&x);
        if let Some(prev) = seen.get(&sketch) {
            let diff: Vec<i64> = x.iter().zip(prev).map(|(a, b)| a - b).collect();
            if diff.iter().any(|&v| v != 0) {
                debug_assert!(is_sis_solution(m, &diff));
                return Some(diff);
            }
        } else {
            seen.insert(sketch, x);
        }
    }
    None
}

/// The unbounded adversary: a nonzero mod-q kernel vector of `A` via
/// Gaussian elimination, whenever one exists (always for `w > d`).
///
/// The returned vector has entries in `[0, q)` and is **generally not
/// short** — lifting it to a short representative is exactly the hard part.
/// Requires `q` prime.
// Index-based loops: rows `r` and `row` of `a` are borrowed simultaneously,
// which iterator adapters cannot express without `split_at_mut` noise.
#[allow(clippy::needless_range_loop)]
pub fn mod_q_kernel(m: &SisMatrix) -> Option<Vec<u64>> {
    let p = *m.params();
    let q = p.q;
    // Row-major copy of A.
    let mut a: Vec<Vec<u64>> = (0..p.d).map(|_| vec![0u64; p.w]).collect();
    for j in 0..p.w {
        let col = m.column(j);
        for (i, &v) in col.iter().enumerate() {
            a[i][j] = v;
        }
    }
    // Forward elimination with pivot tracking.
    let mut pivot_col_of_row: Vec<usize> = Vec::new();
    let mut row = 0usize;
    let mut is_pivot = vec![false; p.w];
    for col in 0..p.w {
        if row == p.d {
            break;
        }
        let pr = (row..p.d).find(|&r| a[r][col] != 0);
        let Some(pr) = pr else { continue };
        a.swap(row, pr);
        let inv = inv_mod(a[row][col], q).expect("q prime, pivot nonzero");
        for v in a[row].iter_mut() {
            *v = mul_mod(*v, inv, q);
        }
        for r in 0..p.d {
            if r != row && a[r][col] != 0 {
                let factor = a[r][col];
                for c in 0..p.w {
                    let t = mul_mod(factor, a[row][c], q);
                    a[r][c] = sub_mod(a[r][c], t, q);
                }
            }
        }
        is_pivot[col] = true;
        pivot_col_of_row.push(col);
        row += 1;
    }
    // Free column → kernel vector.
    let free = (0..p.w).find(|&c| !is_pivot[c])?;
    let mut z = vec![0u64; p.w];
    z[free] = 1;
    for (r, &pc) in pivot_col_of_row.iter().enumerate() {
        // pivot var = -a[r][free] * z[free]
        z[pc] = sub_mod(0, a[r][free], q);
    }
    // Verify.
    let zi: Vec<i64> = z.iter().map(|&v| v as i64).collect();
    debug_assert!(m.apply(&zi).iter().all(|&v| v == 0));
    Some(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_params() -> SisParams {
        SisParams {
            d: 3,
            w: 8,
            q: 97,
            beta_inf: 2,
        }
    }

    #[test]
    fn params_validation() {
        assert!(toy_params().validate().is_ok());
        assert!(SisParams {
            d: 0,
            ..toy_params()
        }
        .validate()
        .is_err());
        assert!(SisParams {
            q: 1,
            ..toy_params()
        }
        .validate()
        .is_err());
        assert!(SisParams {
            beta_inf: 0,
            ..toy_params()
        }
        .validate()
        .is_err());
        assert!(SisParams {
            beta_inf: 97,
            ..toy_params()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn explicit_apply_matches_columns() {
        let mut rng = TranscriptRng::from_seed(1);
        let m = SisMatrix::random_explicit(toy_params(), &mut rng);
        // A·e_j = column j.
        for j in 0..8 {
            let mut e = vec![0i64; 8];
            e[j] = 1;
            assert_eq!(m.apply(&e), m.column(j));
        }
        // Linearity with negative coefficients.
        let x = vec![1i64, -1, 0, 2, 0, 0, -3, 1];
        let y = m.apply(&x);
        let mut manual = vec![0u64; 3];
        for (j, &c) in x.iter().enumerate() {
            m.add_scaled_column(j, c, &mut manual);
        }
        assert_eq!(y, manual);
    }

    #[test]
    fn oracle_matrix_is_consistent_and_matches_explicit_protocol() {
        let params = toy_params();
        let m = SisMatrix::from_oracle(params, b"sis-test");
        let c2a = m.column(2);
        let c2b = m.column(2);
        assert_eq!(c2a, c2b);
        assert!(c2a.iter().all(|&v| v < params.q));
        // add_scaled_column must agree with column() for the oracle path.
        let mut acc = vec![0u64; params.d];
        m.add_scaled_column(2, 1, &mut acc);
        assert_eq!(acc, c2a);
    }

    #[test]
    fn oracle_space_is_constant_explicit_space_scales() {
        let params = SisParams {
            d: 4,
            w: 16,
            q: 97,
            beta_inf: 2,
        };
        let mut rng = TranscriptRng::from_seed(2);
        let exp = SisMatrix::random_explicit(params, &mut rng);
        let ora = SisMatrix::from_oracle(params, b"t");
        assert_eq!(exp.space_bits(), 4 * 16 * 7);
        assert_eq!(ora.space_bits(), 8); // 1-byte tag
    }

    #[test]
    fn solution_checker() {
        let params = toy_params();
        let m = SisMatrix::from_oracle(params, b"check");
        assert!(!is_sis_solution(&m, &[0i64; 8]), "zero vector excluded");
        assert!(
            !is_sis_solution(&m, &[3i64, 0, 0, 0, 0, 0, 0, 0]),
            "too long in ∞-norm"
        );
    }

    #[test]
    fn brute_force_finds_planted_solution() {
        // Plant: make column 1 = -column 0 mod q so (1, 1, 0, ...) wait —
        // column1 = q - column0 means col0 + col1 ≡ 0, so z = (1,1,0,...).
        let params = SisParams {
            d: 2,
            w: 4,
            q: 31,
            beta_inf: 1,
        };
        let cols = vec![
            vec![5u64, 7],
            vec![26u64, 24], // = -col0 mod 31
            vec![3u64, 3],
            vec![9u64, 1],
        ];
        let m = SisMatrix::Explicit { params, cols };
        let z = brute_force_short_kernel(&m, 1 << 16).expect("planted solution");
        assert!(is_sis_solution(&m, &z));
    }

    #[test]
    fn brute_force_respects_budget() {
        let params = SisParams {
            d: 6,
            w: 6,
            q: 1_000_003,
            beta_inf: 1,
        };
        let m = SisMatrix::from_oracle(params, b"hard");
        // Square random matrix mod a large prime is a.s. nonsingular: no
        // kernel at all; search must stop at the budget.
        assert_eq!(brute_force_short_kernel(&m, 1000), None);
    }

    #[test]
    fn birthday_finds_collision_at_toy_scale() {
        let params = SisParams {
            d: 2,
            w: 32,
            q: 13,
            beta_inf: 1,
        };
        let m = SisMatrix::from_oracle(params, b"bday");
        let mut rng = TranscriptRng::from_seed(3);
        // Sketch space has 13^2 = 169 values; a few hundred samples collide.
        let z = birthday_kernel_search(&m, 2000, &mut rng).expect("collision");
        assert!(is_sis_solution(&m, &z));
    }

    #[test]
    fn mod_q_kernel_exists_iff_wide() {
        let mut rng = TranscriptRng::from_seed(4);
        // Wide: w > d ⇒ kernel exists.
        let wide = SisMatrix::random_explicit(
            SisParams {
                d: 3,
                w: 6,
                q: 101,
                beta_inf: 1,
            },
            &mut rng,
        );
        let z = mod_q_kernel(&wide).expect("wide matrix has kernel");
        let zi: Vec<i64> = z.iter().map(|&v| v as i64).collect();
        assert!(wide.apply(&zi).iter().all(|&v| v == 0));
        assert!(z.iter().any(|&v| v != 0));
    }

    #[test]
    fn mod_q_kernel_is_generally_not_short() {
        // The unbounded adversary's vector typically has large entries —
        // demonstrating the bounded/unbounded gap.
        let mut rng = TranscriptRng::from_seed(5);
        let params = SisParams {
            d: 8,
            w: 12,
            q: 1_000_003,
            beta_inf: 2,
        };
        let m = SisMatrix::random_explicit(params, &mut rng);
        let z = mod_q_kernel(&m).expect("kernel exists");
        let max = z
            .iter()
            .map(|&v| crate::modular::balanced(v, params.q).unsigned_abs())
            .max()
            .unwrap();
        assert!(
            max > params.beta_inf,
            "mod-q kernel happened to be short (max {max}); astronomically unlikely"
        );
    }
    #[test]
    fn planted_trapdoor_is_a_valid_solution() {
        let mut rng = TranscriptRng::from_seed(6);
        let params = SisParams {
            d: 6,
            w: 24,
            q: 1_000_003,
            beta_inf: 2,
        };
        let (m, z) = SisMatrix::planted(params, &mut rng);
        assert!(is_sis_solution(&m, &z), "trapdoor must solve the instance");
        assert!(z.iter().all(|&v| v.abs() <= 1));
        assert_eq!(z[params.w - 1], 1);
    }

    #[test]
    fn planted_matrix_looks_uniform_per_column() {
        // Column means should sit near q/2 — a coarse uniformity check on
        // the planted construction.
        let mut rng = TranscriptRng::from_seed(7);
        let params = SisParams {
            d: 64,
            w: 8,
            q: 1_000_003,
            beta_inf: 2,
        };
        let (m, _) = SisMatrix::planted(params, &mut rng);
        for j in 0..params.w {
            let col = m.column(j);
            let mean = col.iter().sum::<u64>() as f64 / col.len() as f64;
            let expect = (params.q - 1) as f64 / 2.0;
            assert!(
                (mean - expect).abs() < expect * 0.35,
                "column {j} mean {mean} far from {expect}"
            );
        }
    }
}
