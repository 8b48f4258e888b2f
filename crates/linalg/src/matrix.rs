//! Dense matrices over `Z_q` (prime `q`).

use wb_core::rng::TranscriptRng;
use wb_core::space::{bits_for_universe, SpaceUsage};
use wb_crypto::modular::{add_mod, mul_mod, reduce_signed, sub_mod};

/// A dense `rows × cols` matrix over `Z_q`, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZqMatrix {
    rows: usize,
    cols: usize,
    q: u64,
    data: Vec<u64>,
}

impl ZqMatrix {
    /// Zero matrix.
    pub fn zero(rows: usize, cols: usize, q: u64) -> Self {
        assert!(rows > 0 && cols > 0 && q >= 2);
        ZqMatrix {
            rows,
            cols,
            q,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize, q: u64) -> Self {
        let mut m = Self::zero(n, n, q);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Uniformly random matrix from public randomness.
    pub fn random(rows: usize, cols: usize, q: u64, rng: &mut TranscriptRng) -> Self {
        let mut m = Self::zero(rows, cols, q);
        for v in &mut m.data {
            *v = rng.below(q);
        }
        m
    }

    /// Build from integer rows (entries reduced mod `q`).
    pub fn from_rows(q: u64, rows: &[Vec<i64>]) -> Self {
        assert!(!rows.is_empty() && !rows[0].is_empty());
        let r = rows.len();
        let c = rows[0].len();
        let mut m = Self::zero(r, c, q);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, reduce_signed(v, q));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The modulus.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.cols + j]
    }

    /// Set entry `(i, j)` to `v < q`.
    pub fn set(&mut self, i: usize, j: usize, v: u64) {
        debug_assert!(v < self.q);
        self.data[i * self.cols + j] = v;
    }

    /// `A[i][j] += delta (mod q)` — the turnstile entry update.
    pub fn add_entry(&mut self, i: usize, j: usize, delta: i64) {
        let v = self.get(i, j);
        self.data[i * self.cols + j] = add_mod(v, reduce_signed(delta, self.q), self.q);
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &ZqMatrix) -> ZqMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        assert_eq!(self.q, rhs.q, "modulus mismatch");
        let mut out = ZqMatrix::zero(self.rows, rhs.cols, self.q);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = mul_mod(a, rhs.get(k, j), self.q);
                    let cur = out.get(i, j);
                    out.set(i, j, add_mod(cur, prod, self.q));
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · x` for an integer vector.
    pub fn mul_vec_signed(&self, x: &[i64]) -> Vec<u64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| {
                let mut acc = 0u64;
                for (j, &xj) in x.iter().enumerate() {
                    let c = reduce_signed(xj, self.q);
                    acc = add_mod(acc, mul_mod(self.get(i, j), c, self.q), self.q);
                }
                acc
            })
            .collect()
    }

    /// `self − rhs (mod q)`.
    pub fn sub(&self, rhs: &ZqMatrix) -> ZqMatrix {
        assert_eq!((self.rows, self.cols, self.q), (rhs.rows, rhs.cols, rhs.q));
        let mut out = self.clone();
        for (o, &r) in out.data.iter_mut().zip(&rhs.data) {
            *o = sub_mod(*o, r, self.q);
        }
        out
    }

    /// `true` iff all entries are zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }
}

impl SpaceUsage for ZqMatrix {
    fn space_bits(&self) -> u64 {
        self.rows as u64 * self.cols as u64 * bits_for_universe(self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let mut rng = TranscriptRng::from_seed(300);
        let a = ZqMatrix::random(4, 4, 97, &mut rng);
        let i = ZqMatrix::identity(4, 97);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    #[test]
    fn from_rows_reduces_signed() {
        let m = ZqMatrix::from_rows(7, &[vec![-1, 8], vec![0, -7]]);
        assert_eq!(m.get(0, 0), 6);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.get(1, 0), 0);
        assert_eq!(m.get(1, 1), 0);
    }

    #[test]
    fn entry_updates_accumulate() {
        let mut m = ZqMatrix::zero(2, 2, 11);
        m.add_entry(0, 1, 5);
        m.add_entry(0, 1, 9); // 14 mod 11 = 3
        m.add_entry(1, 0, -1);
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(1, 0), 10);
    }

    #[test]
    fn mul_matches_manual() {
        let a = ZqMatrix::from_rows(13, &[vec![1, 2], vec![3, 4]]);
        let b = ZqMatrix::from_rows(13, &[vec![5, 6], vec![7, 8]]);
        // [1·5+2·7, 1·6+2·8; 3·5+4·7, 3·6+4·8] = [19,22;43,50] mod 13
        let c = a.mul(&b);
        assert_eq!(c.get(0, 0), 6);
        assert_eq!(c.get(0, 1), 9);
        assert_eq!(c.get(1, 0), 4);
        assert_eq!(c.get(1, 1), 11);
    }

    #[test]
    fn mul_vec_signed_handles_negatives() {
        let a = ZqMatrix::from_rows(11, &[vec![2, 3], vec![1, 0]]);
        let y = a.mul_vec_signed(&[1, -1]);
        // [2−3, 1] mod 11 = [10, 1]
        assert_eq!(y, vec![10, 1]);
    }

    #[test]
    fn sub_and_is_zero() {
        let mut rng = TranscriptRng::from_seed(301);
        let a = ZqMatrix::random(3, 5, 101, &mut rng);
        assert!(a.sub(&a).is_zero());
        assert!(!a.is_zero() || a.data.iter().all(|&v| v == 0));
    }

    #[test]
    fn space_bits_scale() {
        let a = ZqMatrix::zero(4, 8, 97);
        assert_eq!(a.space_bits(), 4 * 8 * 7);
    }
}
