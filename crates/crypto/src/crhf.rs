//! Collision-resistant hash functions (Definition 2.4 of the paper).
//!
//! Two constructions:
//!
//! * [`PedersenHash`] / [`PedersenMd`] — the discrete-log-based CRHF of
//!   Theorem 2.5 (Katz–Lindell §7.73 / folklore): a fixed-input-length
//!   compression function `h(x₁, x₂) = g^{x₁} · h^{x₂} mod p` over the
//!   prime-order quadratic-residue subgroup of a safe prime, extended to
//!   arbitrary-length inputs with Merkle–Damgård strengthening. Collision
//!   ⇒ discrete log of `h` base `g`. Used by the `(φ, ε)`-heavy-hitters
//!   algorithm (Theorem 1.2) and vertex-neighborhood identification
//!   (Theorem 1.3), where whole objects are hashed into a small universe.
//! * [`DlExpHash`] — the *streaming* exponent hash the paper uses for
//!   string fingerprints (§2.6): `h(U) = g^{int(U)} mod p`, computable
//!   character by character and supporting the concatenation law
//!   `h(U∘V) = h(U)^{B^{|V|}} · h(V)`. Its collision resistance for
//!   unbounded-length inputs rests on the multiplicative order of `g` being
//!   hard to compute; at the word-sized demo parameters used here that is a
//!   *scaling* statement measured by the attack experiments, not a
//!   production security claim (see DESIGN.md §3).
//!
//! Everything is public — the white-box adversary sees `p, q, g, h` the
//! moment they are generated. Collision resistance (unlike, say, a PRF key)
//! survives publication: that is exactly why the paper reaches for CRHFs.

use crate::modular::{mul_mod, pow_mod};
use crate::prime::{qr_generator, random_prime, random_safe_prime};
use wb_core::rng::TranscriptRng;
use wb_core::space::{bits_for_count, SpaceUsage};

/// Public parameters of a Pedersen compression function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PedersenParams {
    /// Safe prime `p = 2q + 1`.
    pub p: u64,
    /// Prime order of the QR subgroup, `q = (p − 1) / 2`.
    pub q: u64,
    /// First generator of the QR subgroup.
    pub g: u64,
    /// Second generator, with `log_g h` unknown to everyone (sampled from
    /// public randomness; knowing the *transcript* does not reveal the
    /// discrete log — that still takes a DL computation).
    pub h: u64,
}

/// Fixed-input-length Pedersen hash `Z_q × Z_q → QR_p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PedersenHash {
    params: PedersenParams,
}

impl PedersenHash {
    /// Generates fresh public parameters. `bits` is the size of `p`
    /// (`34 ≤ bits ≤ 62`, so that 32-bit blocks fit in `Z_q`).
    pub fn generate(bits: u32, rng: &mut TranscriptRng) -> Self {
        assert!((34..=62).contains(&bits), "need 34..=62 bit safe prime");
        let p = random_safe_prime(bits, rng);
        let q = (p - 1) / 2;
        let g = qr_generator(p, rng);
        let h = loop {
            let cand = qr_generator(p, rng);
            if cand != g {
                break cand;
            }
        };
        PedersenHash {
            params: PedersenParams { p, q, g, h },
        }
    }

    /// Construct from existing public parameters.
    pub fn from_params(params: PedersenParams) -> Self {
        PedersenHash { params }
    }

    /// The public parameters.
    pub fn params(&self) -> &PedersenParams {
        &self.params
    }

    /// `g^{x₁} · h^{x₂} mod p`; requires `x₁, x₂ < q`.
    pub fn compress(&self, x1: u64, x2: u64) -> u64 {
        debug_assert!(x1 < self.params.q && x2 < self.params.q);
        mul_mod(
            pow_mod(self.params.g, x1, self.params.p),
            pow_mod(self.params.h, x2, self.params.p),
            self.params.p,
        )
    }
}

impl SpaceUsage for PedersenHash {
    /// Public parameters: four residues mod `p`.
    fn space_bits(&self) -> u64 {
        4 * bits_for_count(self.params.p)
    }
}

/// The last block [`PedersenMd::hash_words`] absorbs, after the length.
const FINAL_BLOCK: u64 = 0x5A5A_5A5A;

/// The constant blocks of a `u64` digest. `x.to_be_bytes()` packs into the
/// words `[x, 8]` (the item, then the byte length), so after the item's
/// halves `x >> 32` and `x & 0xFFFF_FFFF` the chain absorbs the length
/// word's halves `0` and `8`, the word count `2`, and the final block.
const U64_TAIL_BLOCKS: [u64; 4] = [0, 8, 2, FINAL_BLOCK];

/// Bits per window of a [`FixedBase`] table.
const WINDOW_BITS: u32 = 4;

/// Entries per window of a [`FixedBase`] table.
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;

/// Fixed-base windowed exponentiation modulo `p`.
///
/// Window `i` holds `b^{j·16^i}` for every 4-bit digit `j`, so `b^e` is
/// the product of one entry per nonzero digit of `e`: at most one
/// multiplication per 4 exponent bits, against a squaring per bit and a
/// multiplication per set bit for [`pow_mod`]. Built once per base and
/// evaluated many times. The group arithmetic is exact, so the result is
/// the same residue `pow_mod` returns.
#[derive(Debug, Clone)]
pub struct FixedBase {
    p: u64,
    /// Window-major: `table[i·16 + j] = b^{j·16^i} mod p`.
    table: Vec<u64>,
}

impl FixedBase {
    /// Table for `base^e mod p` over exponents `e < 2^exp_bits`.
    pub fn new(base: u64, p: u64, exp_bits: u32) -> Self {
        assert!(p > 0 && exp_bits <= 64);
        let windows = exp_bits.div_ceil(WINDOW_BITS) as usize;
        let mut table = Vec::with_capacity(windows * WINDOW_SIZE);
        let mut b = base % p;
        for _ in 0..windows {
            // Powers b^0 … b^15 of this window's base; the loop leaves
            // b^16, the next window's base.
            let mut acc = 1 % p;
            for _ in 0..WINDOW_SIZE {
                table.push(acc);
                acc = mul_mod(acc, b, p);
            }
            b = acc;
        }
        FixedBase { p, table }
    }

    /// `base^e mod p`; `e` must be below `2^exp_bits`.
    pub fn pow(&self, mut e: u64) -> u64 {
        let mut acc = 1 % self.p;
        for window in self.table.chunks_exact(WINDOW_SIZE) {
            if e == 0 {
                break;
            }
            let digit = (e % WINDOW_SIZE as u64) as usize;
            if digit != 0 {
                acc = mul_mod(acc, window[digit], self.p);
            }
            e >>= WINDOW_BITS;
        }
        assert_eq!(e, 0, "exponent exceeds the fixed-base table");
        acc
    }
}

/// [`PedersenMd::hash_u64`] with the exponentiations precomputed: fixed-base
/// tables for `g` and `h` covering exponents below `q`, and the `h`-powers
/// of the constant blocks. Digests are bit-identical to
/// [`PedersenMd::hash_u64`] (and so to `hash_bytes`); only the cost of an
/// exponentiation changes. Public data only, like the parameters.
#[derive(Debug, Clone)]
pub struct PedersenTables {
    md: PedersenMd,
    g: FixedBase,
    h: FixedBase,
    tail: [u64; 4],
}

impl PedersenTables {
    /// Build the tables for `md`'s parameters.
    pub fn new(md: PedersenMd) -> Self {
        let PedersenParams { p, q, g, h } = md.inner.params;
        let exp_bits = u64::BITS - (q - 1).leading_zeros();
        let h = FixedBase::new(h, p, exp_bits);
        PedersenTables {
            md,
            g: FixedBase::new(g, p, exp_bits),
            tail: U64_TAIL_BLOCKS.map(|block| h.pow(block)),
            h,
        }
    }

    /// The hash these tables evaluate.
    pub fn md(&self) -> &PedersenMd {
        &self.md
    }

    /// [`PedersenMd::hash_u64`] through the tables.
    pub fn hash_u64(&self, x: u64) -> u64 {
        self.md
            .chain_u64(x, |e| self.g.pow(e), |e| self.h.pow(e), self.tail)
    }
}

/// Arbitrary-length CRHF: Merkle–Damgård over [`PedersenHash`] with length
/// strengthening.
///
/// The chaining value (a group element in `[1, p)`) is folded into `Z_q` by
/// reduction mod `q` between rounds. At the word-sized demo parameters this
/// loses at most one bit of the chaining value per round (`p = 2q + 1`); the
/// fold is injective on `[0, q)` and maps `[q, p)` onto `[0, q)`, so a
/// collision in the fold still pins the chaining value to one of two known
/// preimages — the unit tests check collision-freeness empirically and the
/// attack experiments measure search cost.
#[derive(Debug, Clone, Copy)]
pub struct PedersenMd {
    inner: PedersenHash,
}

impl PedersenMd {
    /// Generate fresh public parameters (see [`PedersenHash::generate`]).
    pub fn generate(bits: u32, rng: &mut TranscriptRng) -> Self {
        PedersenMd {
            inner: PedersenHash::generate(bits, rng),
        }
    }

    /// Construct from existing parameters.
    pub fn from_params(params: PedersenParams) -> Self {
        PedersenMd {
            inner: PedersenHash::from_params(params),
        }
    }

    /// The underlying compression function.
    pub fn inner(&self) -> &PedersenHash {
        &self.inner
    }

    /// Hash a slice of `u64` words to a group element in `[1, p)`.
    ///
    /// Words are split into 32-bit halves (each `< q` since `q > 2^32`),
    /// chained through the compression function, and finished with a length
    /// block (Merkle–Damgård strengthening).
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let q = self.inner.params.q;
        let mut state = 1u64 % q; // public IV
        let absorb = |state: &mut u64, block: u64| {
            *state = self.inner.compress(*state, block) % q;
        };
        for &w in words {
            absorb(&mut state, w >> 32);
            absorb(&mut state, w & 0xFFFF_FFFF);
        }
        absorb(&mut state, words.len() as u64 & 0xFFFF_FFFF);
        // Final output: full group element (not folded), so the output
        // universe is [1, p).
        self.inner.compress(state, FINAL_BLOCK)
    }

    /// [`Self::hash_bytes`] of `x.to_be_bytes()`, without allocating.
    pub fn hash_u64(&self, x: u64) -> u64 {
        let PedersenParams { p, g, h, .. } = self.inner.params;
        let tail = U64_TAIL_BLOCKS.map(|block| pow_mod(h, block, p));
        self.chain_u64(x, |e| pow_mod(g, e, p), |e| pow_mod(h, e, p), tail)
    }

    /// The Merkle–Damgård chain of [`Self::hash_u64`], with `g^e` and
    /// `h^e` supplied by the caller and `tail` holding `h` raised to each of
    /// [`U64_TAIL_BLOCKS`]. Every compression is the one
    /// [`PedersenHash::compress`] computes, so any exact way of
    /// exponentiating gives the same digest.
    fn chain_u64(
        &self,
        x: u64,
        g_pow: impl Fn(u64) -> u64,
        h_pow: impl Fn(u64) -> u64,
        tail: [u64; 4],
    ) -> u64 {
        let PedersenParams { p, q, .. } = self.inner.params;
        let compress = |state: u64, h_block: u64| mul_mod(g_pow(state), h_block, p);
        let h_blocks = [
            h_pow(x >> 32),
            h_pow(x & 0xFFFF_FFFF),
            tail[0],
            tail[1],
            tail[2],
        ];
        let mut state = 1 % q;
        for h_block in h_blocks {
            state = compress(state, h_block) % q;
        }
        compress(state, tail[3])
    }

    /// Fixed-base tables for hashing many `u64`s (see [`PedersenTables`]).
    pub fn tables(&self) -> PedersenTables {
        PedersenTables::new(*self)
    }

    /// Hash arbitrary bytes (packed big-endian into u64 words, with the byte
    /// length absorbed, so `"ab" ‖ "c"` and `"a" ‖ "bc"` differ).
    pub fn hash_bytes(&self, data: &[u8]) -> u64 {
        let mut words: Vec<u64> = Vec::with_capacity(data.len() / 8 + 2);
        for chunk in data.chunks(8) {
            let mut w = 0u64;
            for &b in chunk {
                w = (w << 8) | b as u64;
            }
            words.push(w);
        }
        words.push(data.len() as u64);
        self.hash_words(&words)
    }

    /// Output width in bits (`⌈log₂ p⌉`).
    pub fn output_bits(&self) -> u64 {
        bits_for_count(self.inner.params.p)
    }
}

impl SpaceUsage for PedersenMd {
    fn space_bits(&self) -> u64 {
        self.inner.space_bits()
    }
}

/// Public parameters of the streaming DL-exponent hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlExpParams {
    /// Prime modulus. The *factorization of `p − 1` is not published*;
    /// computing the order of `g` (the collision-finding step) requires the
    /// adversary to factor it.
    pub p: u64,
    /// Group element whose order is the hidden quantity.
    pub g: u64,
    /// Alphabet radix `B`: symbols are integers in `[0, B)`.
    pub base: u64,
}

impl DlExpParams {
    /// Generate parameters with a `bits`-bit prime and alphabet radix
    /// `base ≥ 2`.
    pub fn generate(bits: u32, base: u64, rng: &mut TranscriptRng) -> Self {
        assert!(base >= 2);
        let p = random_prime(bits, rng);
        let g = rng.range(2, p - 1);
        DlExpParams { p, g, base }
    }
}

/// Streaming exponent hash `h(U) = g^{int_B(U)} mod p` (§2.6 of the paper).
///
/// Supports O(1)-space left-to-right absorption and the concatenation law
/// used by the streaming pattern matcher (Algorithm 6):
/// `h(U ∘ V) = h(U)^{B^{|V|}} · h(V) mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlExpHash {
    params: DlExpParams,
    /// Current value `g^{int(U)} mod p`.
    acc: u64,
    /// Number of symbols absorbed.
    len: u64,
}

impl DlExpHash {
    /// Empty-string hash (`g^0 = 1`).
    pub fn new(params: DlExpParams) -> Self {
        DlExpHash {
            params,
            acc: 1,
            len: 0,
        }
    }

    /// The public parameters.
    pub fn params(&self) -> &DlExpParams {
        &self.params
    }

    /// Absorb one symbol `c ∈ [0, B)`: `int ← int·B + c`, i.e.
    /// `acc ← acc^B · g^c mod p`.
    pub fn absorb(&mut self, c: u64) {
        debug_assert!(c < self.params.base);
        let p = self.params.p;
        self.acc = mul_mod(
            pow_mod(self.acc, self.params.base, p),
            pow_mod(self.params.g, c, p),
            p,
        );
        self.len += 1;
    }

    /// Current hash value in `[1, p)`.
    pub fn value(&self) -> u64 {
        self.acc
    }

    /// Number of symbols absorbed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff no symbols have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Concatenation law: the hash of `U ∘ V` from the hashes of `U` and
    /// `V`. Exponent arithmetic is done mod `p − 1` (valid by Fermat).
    pub fn concat(&self, v: &DlExpHash) -> DlExpHash {
        debug_assert_eq!(self.params, v.params);
        let p = self.params.p;
        // B^{|V|} mod (p-1): a^{e mod (p-1)} = a^e for units a by Fermat.
        let shift = pow_mod(self.params.base, v.len, p - 1);
        DlExpHash {
            params: self.params,
            acc: mul_mod(pow_mod(self.acc, shift, p), v.acc, p),
            len: self.len + v.len,
        }
    }

    /// One-shot hash of a symbol slice.
    pub fn hash_symbols(params: DlExpParams, symbols: &[u64]) -> u64 {
        let mut h = DlExpHash::new(params);
        for &c in symbols {
            h.absorb(c);
        }
        h.value()
    }
}

impl SpaceUsage for DlExpHash {
    /// Accumulator + length counter + public parameters (three residues).
    fn space_bits(&self) -> u64 {
        bits_for_count(self.acc) + bits_for_count(self.len) + 3 * bits_for_count(self.params.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pedersen() -> PedersenHash {
        let mut rng = TranscriptRng::from_seed(100);
        PedersenHash::generate(36, &mut rng)
    }

    #[test]
    fn pedersen_params_sane() {
        let h = pedersen();
        let p = h.params().p;
        let q = h.params().q;
        assert_eq!(p, 2 * q + 1);
        assert!(crate::prime::is_prime(p) && crate::prime::is_prime(q));
        // Generators have order q.
        assert_eq!(pow_mod(h.params().g, q, p), 1);
        assert_eq!(pow_mod(h.params().h, q, p), 1);
        assert_ne!(h.params().g, h.params().h);
    }

    #[test]
    fn pedersen_md_parameters_are_pinned() {
        // `(p, q, g, h)` and the next tape word for `PedersenMd::generate(40)`
        // — the `phi_eps_hh` constructor's draw — on three seeds.
        for (seed, p, q, g, h, next) in [
            (
                1,
                1095634497263,
                547817248631,
                510082127419,
                1091540804757,
                7460617819096774474,
            ),
            (
                2,
                747747847667,
                373873923833,
                526485024718,
                698830140220,
                3809910621771195247,
            ),
            (
                3,
                821721399839,
                410860699919,
                92475041126,
                222917595931,
                12446914564496916846,
            ),
        ] {
            let mut rng = TranscriptRng::from_seed(seed);
            let md = PedersenMd::generate(40, &mut rng);
            assert_eq!(
                *md.inner().params(),
                PedersenParams { p, q, g, h },
                "seed {seed}"
            );
            assert_eq!(rng.next_u64(), next, "seed {seed}");
        }
    }

    #[test]
    fn pedersen_compress_is_homomorphic() {
        // compress(a+b, c+d) = compress(a,c)·compress(b,d): the Pedersen
        // structure the SIS/DL arguments rely on.
        let h = pedersen();
        let q = h.params().q;
        let p = h.params().p;
        let (a, b, c, d) = (123 % q, 456 % q, 789 % q, 1011 % q);
        let lhs = h.compress((a + b) % q, (c + d) % q);
        let rhs = mul_mod(h.compress(a, c), h.compress(b, d), p);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pedersen_md_distinguishes_lengths_and_content() {
        let mut rng = TranscriptRng::from_seed(101);
        let md = PedersenMd::generate(36, &mut rng);
        assert_ne!(md.hash_bytes(b"ab"), md.hash_bytes(b"ba"));
        assert_ne!(md.hash_bytes(b"a"), md.hash_bytes(b"a\0"));
        assert_ne!(md.hash_bytes(b""), md.hash_bytes(b"\0"));
        assert_eq!(md.hash_bytes(b"hello"), md.hash_bytes(b"hello"));
        // Concatenation-sliding must be blocked by length strengthening.
        assert_ne!(md.hash_words(&[1, 2]), md.hash_words(&[1, 2, 0]));
    }

    #[test]
    fn hash_u64_matches_hash_bytes_with_and_without_tables() {
        let mut rng = TranscriptRng::from_seed(108);
        let md = PedersenMd::generate(40, &mut rng);
        let tables = md.tables();
        for x in [0, 1, 0xFFFF_FFFF, 1 << 32, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let want = md.hash_bytes(&x.to_be_bytes());
            assert_eq!(md.hash_u64(x), want, "hash_u64({x:#x})");
            assert_eq!(tables.hash_u64(x), want, "tables.hash_u64({x:#x})");
        }
    }

    #[test]
    fn fixed_base_matches_pow_mod_at_the_edges() {
        let h = pedersen();
        let PedersenParams { p, q, g, .. } = *h.params();
        let bits = u64::BITS - (q - 1).leading_zeros();
        let table = FixedBase::new(g, p, bits);
        for e in [0, 1, 15, 16, 255, 256, q / 2, q - 2, q - 1] {
            assert_eq!(table.pow(e), pow_mod(g, e, p), "g^{e}");
        }
        // A 64-bit table covers every exponent.
        let full = FixedBase::new(3, p, 64);
        assert_eq!(full.pow(u64::MAX), pow_mod(3, u64::MAX, p));
    }

    #[test]
    #[should_panic(expected = "exponent exceeds the fixed-base table")]
    fn fixed_base_rejects_exponents_beyond_its_table() {
        FixedBase::new(3, 1_000_003, 8).pow(256);
    }

    #[test]
    fn pedersen_md_no_collisions_in_small_sample() {
        let mut rng = TranscriptRng::from_seed(102);
        let md = PedersenMd::generate(40, &mut rng);
        let mut seen = std::collections::HashMap::new();
        for i in 0..2000u64 {
            let v = md.hash_words(&[i]);
            if let Some(prev) = seen.insert(v, i) {
                panic!("collision between {prev} and {i}");
            }
        }
    }

    #[test]
    fn dlexp_matches_direct_exponentiation() {
        let mut rng = TranscriptRng::from_seed(103);
        let params = DlExpParams::generate(40, 2, &mut rng);
        // int(1011₂) = 11
        let mut h = DlExpHash::new(params);
        for c in [1u64, 0, 1, 1] {
            h.absorb(c);
        }
        assert_eq!(h.value(), pow_mod(params.g, 11, params.p));
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn dlexp_concat_law() {
        let mut rng = TranscriptRng::from_seed(104);
        let params = DlExpParams::generate(40, 4, &mut rng);
        let u = [3u64, 1, 0, 2, 3];
        let v = [0u64, 2, 1];
        let mut hu = DlExpHash::new(params);
        u.iter().for_each(|&c| hu.absorb(c));
        let mut hv = DlExpHash::new(params);
        v.iter().for_each(|&c| hv.absorb(c));
        let mut huv = DlExpHash::new(params);
        u.iter().chain(v.iter()).for_each(|&c| huv.absorb(c));
        let composed = hu.concat(&hv);
        assert_eq!(composed.value(), huv.value());
        assert_eq!(composed.len(), 8);
    }

    #[test]
    fn dlexp_concat_with_empty_is_identity() {
        let mut rng = TranscriptRng::from_seed(105);
        let params = DlExpParams::generate(38, 2, &mut rng);
        let mut hu = DlExpHash::new(params);
        [1u64, 1, 0, 1].iter().for_each(|&c| hu.absorb(c));
        let he = DlExpHash::new(params);
        assert_eq!(hu.concat(&he).value(), hu.value());
        assert_eq!(he.concat(&hu).value(), hu.value());
    }

    #[test]
    fn dlexp_distinct_short_strings_distinct_hashes() {
        // For strings shorter than log_B(ord(g)) the map int() is injective
        // below the group order w.h.p., so no collisions should appear.
        let mut rng = TranscriptRng::from_seed(106);
        let params = DlExpParams::generate(40, 2, &mut rng);
        let mut seen = std::collections::HashMap::new();
        for x in 0..256u64 {
            let symbols: Vec<u64> = (0..8).rev().map(|i| (x >> i) & 1).collect();
            let v = DlExpHash::hash_symbols(params, &symbols);
            if let Some(prev) = seen.insert(v, x) {
                panic!("collision between {prev:08b} and {x:08b}");
            }
        }
    }

    #[test]
    fn space_accounting_present() {
        let mut rng = TranscriptRng::from_seed(107);
        let params = DlExpParams::generate(40, 2, &mut rng);
        let h = DlExpHash::new(params);
        assert!(h.space_bits() > 0);
        let md = PedersenMd::generate(36, &mut rng);
        assert!(md.space_bits() >= 4 * 36);
        assert!(md.output_bits() >= 36);
    }
}
