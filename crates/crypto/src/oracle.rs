//! The random oracle model (Bellare–Rogaway), instantiated with SHA-256.
//!
//! §2.3 of the paper: *"In the random oracle model, we assume a publicly
//! accessible random function which can be accessed by us and the
//! adversary. … In practice, one can use SHA256 as the random oracle."*
//!
//! A [`RandomOracle`] is a deterministic public function: it has **no secret
//! state**, so in the space accounting of the model it costs only its
//! domain-separation tag. Algorithms use it to regenerate sketch-matrix
//! columns on the fly (Algorithm 5 and Theorem 1.6), which is precisely the
//! paper's mechanism for dropping the matrix storage term from the space
//! bound.

use crate::sha256::Sha256;
use wb_core::space::SpaceUsage;

/// A public random function keyed by a domain-separation tag.
///
/// Queries are answered as `SHA256(tag ‖ len(tag) ‖ input)`, with helper
/// encodings for indexed u64 draws and uniform `Z_q` elements (rejection
/// sampling, so the distribution is exactly uniform).
#[derive(Debug, Clone)]
pub struct RandomOracle {
    tag: Vec<u8>,
}

impl RandomOracle {
    /// Oracle with the given domain-separation tag.
    pub fn new(tag: &[u8]) -> Self {
        RandomOracle { tag: tag.to_vec() }
    }

    /// The public tag.
    pub fn tag(&self) -> &[u8] {
        &self.tag
    }

    /// Raw 32-byte oracle output on `input`.
    pub fn query(&self, input: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.tag);
        h.update(&(self.tag.len() as u64).to_be_bytes());
        h.update(input);
        h.finalize()
    }

    /// Uniform 64-bit word at position `(index, counter)`.
    pub fn u64_at(&self, index: u64, counter: u64) -> u64 {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&index.to_be_bytes());
        input[8..].copy_from_slice(&counter.to_be_bytes());
        let d = self.query(&input);
        u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
    }

    /// Uniform element of `Z_q` at logical position `index`, by rejection
    /// sampling over the counter dimension. Requires `q > 0`.
    pub fn zq_at(&self, index: u64, q: u64) -> u64 {
        assert!(q > 0);
        if q.is_power_of_two() {
            return self.u64_at(index, 0) & (q - 1);
        }
        let zone = u64::MAX - (u64::MAX % q);
        let mut counter = 0u64;
        loop {
            let w = self.u64_at(index, counter);
            if w < zone {
                return w % q;
            }
            counter += 1;
        }
    }

    /// A length-`dim` column of uniform `Z_q` elements for column index `j`.
    ///
    /// Position encoding is `j * dim + row`, so distinct `(j, row)` pairs
    /// never collide for `dim > 0`.
    pub fn zq_column(&self, j: u64, dim: usize, q: u64) -> Vec<u64> {
        let mut col = vec![0; dim];
        self.zq_column_into(j, q, &mut col);
        col
    }

    /// [`Self::zq_column`] written into `out` (`dim = out.len()`) without
    /// allocating.
    pub(crate) fn zq_column_into(&self, j: u64, q: u64, out: &mut [u64]) {
        let dim = out.len() as u64;
        for (row, v) in (0..dim).zip(out.iter_mut()) {
            *v = self.zq_at(j * dim + row, q);
        }
    }
}

impl SpaceUsage for RandomOracle {
    /// A random oracle is a public function; only the domain tag is state.
    fn space_bits(&self) -> u64 {
        (self.tag.len() as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_tag_separated() {
        let o1 = RandomOracle::new(b"exp-a");
        let o2 = RandomOracle::new(b"exp-a");
        let o3 = RandomOracle::new(b"exp-b");
        assert_eq!(o1.query(b"x"), o2.query(b"x"));
        assert_ne!(o1.query(b"x"), o3.query(b"x"));
        assert_ne!(o1.query(b"x"), o1.query(b"y"));
    }

    #[test]
    fn tag_length_prefix_prevents_sliding() {
        // tag "ab" on input "c" must differ from tag "a" on input "bc".
        let o_ab = RandomOracle::new(b"ab");
        let o_a = RandomOracle::new(b"a");
        assert_ne!(o_ab.query(b"c"), o_a.query(b"bc"));
    }

    #[test]
    fn zq_uniform_range_and_coverage() {
        let o = RandomOracle::new(b"zq");
        let q = 7u64;
        let mut seen = [false; 7];
        for i in 0..500 {
            let v = o.zq_at(i, q);
            assert!(v < q);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn zq_mean_near_half_q() {
        let o = RandomOracle::new(b"mean");
        let q = 1_000_003u64;
        let n = 4000u64;
        let sum: u64 = (0..n).map(|i| o.zq_at(i, q)).sum();
        let mean = sum as f64 / n as f64;
        let expect = (q - 1) as f64 / 2.0;
        assert!(
            (mean - expect).abs() < expect * 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn columns_are_consistent_and_distinct() {
        let o = RandomOracle::new(b"col");
        let c0 = o.zq_column(0, 8, 97);
        let c0_again = o.zq_column(0, 8, 97);
        let c1 = o.zq_column(1, 8, 97);
        assert_eq!(c0, c0_again, "oracle must answer consistently");
        assert_ne!(c0, c1);
        assert!(c0.iter().all(|&v| v < 97));
        // Column j=1 must not overlap column j=0's entries by index sliding.
        let boundary = o.zq_at(8, 97); // first entry of column 1 when dim=8
        assert_eq!(c1[0], boundary);
    }

    #[test]
    fn power_of_two_q_fast_path() {
        let o = RandomOracle::new(b"pow2");
        for i in 0..100 {
            assert!(o.zq_at(i, 1024) < 1024);
        }
    }

    #[test]
    fn space_is_tag_only() {
        assert_eq!(RandomOracle::new(b"abcd").space_bits(), 32);
        assert_eq!(RandomOracle::new(b"").space_bits(), 0);
    }
}
