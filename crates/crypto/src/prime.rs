//! Primality testing, prime generation, factorization and multiplicative
//! orders.
//!
//! * [`is_prime`] — Miller–Rabin, *deterministic* for all `u64` inputs
//!   using the verified witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
//!   31, 37}` (Sorenson–Webster).
//! * [`random_prime`] / [`random_safe_prime`] — generation from public
//!   randomness (everything in the white-box model is public).
//! * [`factorize`] — trial division + Pollard's rho; used by the *attack*
//!   side of the workspace (e.g. the Karp–Rabin order attack in
//!   `wb-strings` factors `p−1` to compute multiplicative orders).
//! * [`multiplicative_order`] — order of `a` in `Z_p^*`.

use crate::modular::{gcd, mul_mod, pow_mod};
use wb_core::rng::TranscriptRng;

/// Deterministic Miller–Rabin primality test for `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d · 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The odd primes below 256 with their multiply-by-inverse divisibility
/// constants `(r, r⁻¹ mod 2⁶⁴, ⌊(2⁶⁴ − 1)/r⌋)`: for odd `r`, `r | n` iff
/// `n · r⁻¹ mod 2⁶⁴ ≤ ⌊(2⁶⁴ − 1)/r⌋` (Granlund–Montgomery), one multiply
/// and one compare per prime instead of a division.
const SIEVE: [(u64, u64, u64); 53] = {
    let primes: [u64; 53] = [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
        191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
    ];
    let mut table = [(0, 0, 0); 53];
    let mut i = 0;
    while i < primes.len() {
        let r = primes[i];
        // Newton's iteration doubles the correct low bits of the inverse
        // each step; `r` itself is correct to 3 bits for odd `r`.
        let mut inv = r;
        let mut step = 0;
        while step < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(r.wrapping_mul(inv)));
            step += 1;
        }
        table[i] = (r, inv, u64::MAX / r);
        i += 1;
    }
    table
};

/// Whether odd `n` has a prime factor below 256 other than itself — a
/// proof that `n` is composite, so [`is_prime`] would reject it.
fn has_small_factor(n: u64) -> bool {
    SIEVE
        .iter()
        .any(|&(r, inv, max)| n.wrapping_mul(inv) <= max && n != r)
}

/// One rejection-sampling candidate: a word's top `bits` bits, with the
/// top bit and the low bit set (exact bit length, odd).
fn odd_candidate(bits: u32, rng: &mut TranscriptRng) -> u64 {
    (rng.next_u64() >> (64 - bits)) | 1 << (bits - 1) | 1
}

/// Uniform random prime with exactly `bits` bits (`2 ≤ bits ≤ 62`).
///
/// Rejection-samples odd candidates with the top bit set, one word each.
/// A candidate with a small prime factor is rejected before Miller–Rabin;
/// `is_prime` rejects it too, so the result and the words drawn are those
/// of testing every candidate with `is_prime` alone.
pub fn random_prime(bits: u32, rng: &mut TranscriptRng) -> u64 {
    assert!((2..=62).contains(&bits), "bits must be in [2, 62]");
    if bits == 2 {
        return if rng.bernoulli(0.5) { 2 } else { 3 };
    }
    loop {
        let cand = odd_candidate(bits, rng);
        if !has_small_factor(cand) && is_prime(cand) {
            return cand;
        }
    }
}

/// Random safe prime `p = 2q + 1` (`q` prime) with exactly `bits` bits.
///
/// Safe primes give a large prime-order subgroup (the quadratic residues)
/// for Pedersen hashing. `bits` is the size of `p`; feasible up to ~40 bits
/// in tests, larger in release experiments.
///
/// The result is the first candidate `q` of [`random_prime`]`(bits − 1)`'s
/// word stream (one word per candidate) with `q` prime and `2q + 1` prime:
/// the loop that retries `random_prime` until `2q + 1` is prime accepts
/// exactly that candidate. Both tests are pure functions of the candidate,
/// so their order cannot change which candidate is accepted or how many
/// words are drawn; the search therefore sieves `q` and `p` by the primes
/// below 256 first and runs Miller–Rabin only on the few survivors.
pub fn random_safe_prime(bits: u32, rng: &mut TranscriptRng) -> u64 {
    assert!((4..=62).contains(&bits), "bits must be in [4, 62]");
    loop {
        let q = odd_candidate(bits - 1, rng);
        // `q` has exactly `bits − 1` bits, so `p` has exactly `bits`.
        let p = 2 * q + 1;
        if !has_small_factor(q) && !has_small_factor(p) && is_prime(q) && is_prime(p) {
            return p;
        }
    }
}

/// Factorization of `n` as sorted `(prime, exponent)` pairs.
///
/// Trial division by small primes, then Pollard's rho (Brent variant) on
/// the remaining cofactor. Complete for all `u64`.
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    let mut factors: Vec<(u64, u32)> = Vec::new();
    if n < 2 {
        return factors;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        if p * p > n {
            break;
        }
        let mut e = 0;
        while n.is_multiple_of(p) {
            n /= p;
            e += 1;
        }
        if e > 0 {
            factors.push((p, e));
        }
    }
    let mut stack = vec![n];
    let mut found: Vec<u64> = Vec::new();
    while let Some(m) = stack.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            found.push(m);
            continue;
        }
        let d = pollard_rho(m);
        stack.push(d);
        stack.push(m / d);
    }
    found.sort_unstable();
    let mut i = 0;
    while i < found.len() {
        let p = found[i];
        let mut e = 0;
        while i < found.len() && found[i] == p {
            e += 1;
            i += 1;
        }
        factors.push((p, e));
    }
    factors.sort_unstable();
    factors
}

/// Pollard's rho with Brent cycle detection; `n` must be composite and odd
/// with no factor below 50 (guaranteed by the caller, [`factorize`]).
fn pollard_rho(n: u64) -> u64 {
    debug_assert!(n > 1 && !is_prime(n));
    if n.is_multiple_of(2) {
        return 2;
    }
    // Deterministic sequence of (c, x0) attempts; for u64 this always
    // terminates quickly in practice.
    for c in 1u64.. {
        let f = |x: u64| (mul_mod(x, x, n) + c) % n;
        let mut x = 2u64;
        let mut y = 2u64;
        let mut d = 1u64;
        let mut count = 0u64;
        while d == 1 {
            x = f(x);
            y = f(f(y));
            d = gcd(x.abs_diff(y), n);
            count += 1;
            if count > 1 << 24 {
                break; // try next c
            }
        }
        if d != n && d != 1 {
            return d;
        }
    }
    unreachable!("pollard_rho exhausted u64 parameter space")
}

/// Multiplicative order of `a` in `Z_p^*` for prime `p` and `a ≢ 0`.
///
/// Factors `p − 1` and strips each prime factor while the power stays 1.
/// This is the *adversary's* tool: computing orders is exactly what breaks
/// Karp–Rabin fingerprints under white-box observation (§2.6 of the paper).
pub fn multiplicative_order(a: u64, p: u64) -> u64 {
    assert!(is_prime(p), "modulus must be prime");
    assert!(!a.is_multiple_of(p), "a must be a unit");
    let mut order = p - 1;
    for (q, e) in factorize(p - 1) {
        for _ in 0..e {
            if order.is_multiple_of(q) && pow_mod(a, order / q, p) == 1 {
                order /= q;
            } else {
                break;
            }
        }
    }
    order
}

/// A generator of the full group `Z_p^*` for prime `p`.
pub fn find_primitive_root(p: u64, rng: &mut TranscriptRng) -> u64 {
    assert!(is_prime(p) && p > 2);
    let factors = factorize(p - 1);
    loop {
        let g = rng.range(2, p);
        if factors
            .iter()
            .all(|&(q, _)| pow_mod(g, (p - 1) / q, p) != 1)
        {
            return g;
        }
    }
}

/// A generator of the order-`q` quadratic-residue subgroup of `Z_p^*` for a
/// safe prime `p = 2q + 1`: any square other than 1 generates it.
pub fn qr_generator(p: u64, rng: &mut TranscriptRng) -> u64 {
    debug_assert!(is_prime(p) && is_prime((p - 1) / 2));
    loop {
        let a = rng.range(2, p - 1);
        let g = mul_mod(a, a, p);
        if g != 1 {
            return g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primality() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, (1 << 61) - 1];
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        let composites = [0u64, 1, 4, 6, 9, 15, 1 << 20, 3215031751, 25326001];
        for c in composites {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Known strong pseudoprimes to small bases; the deterministic
        // witness set must reject them all.
        for n in [2047u64, 1373653, 9080191, 1050535501, 350269456337] {
            assert!(!is_prime(n), "{n} must be rejected");
        }
    }

    #[test]
    fn random_prime_has_exact_bits() {
        let mut rng = TranscriptRng::from_seed(1);
        for bits in [8u32, 16, 31, 45, 62] {
            let p = random_prime(bits, &mut rng);
            assert!(is_prime(p));
            assert_eq!(64 - p.leading_zeros(), bits, "p={p} bits");
        }
    }

    #[test]
    fn safe_prime_structure() {
        let mut rng = TranscriptRng::from_seed(2);
        let p = random_safe_prime(24, &mut rng);
        assert!(is_prime(p));
        assert!(is_prime((p - 1) / 2));
        assert_eq!(64 - p.leading_zeros(), 24);
    }

    /// [`random_prime`] as it was before the sieve pre-filter, frozen as
    /// the oracle: every candidate goes straight to `is_prime`.
    fn random_prime_oracle(bits: u32, rng: &mut TranscriptRng) -> u64 {
        if bits == 2 {
            return if rng.bernoulli(0.5) { 2 } else { 3 };
        }
        loop {
            let mut cand = rng.next_u64() >> (64 - bits);
            cand |= 1 << (bits - 1);
            cand |= 1;
            if is_prime(cand) {
                return cand;
            }
        }
    }

    /// [`random_safe_prime`] as it was before the sieve pre-filter: retry
    /// the oracle prime until `2q + 1` has `bits` bits and is prime.
    fn random_safe_prime_oracle(bits: u32, rng: &mut TranscriptRng) -> u64 {
        loop {
            let q = random_prime_oracle(bits - 1, rng);
            let p = 2 * q + 1;
            if p >> (bits - 1) == 1 && is_prime(p) {
                return p;
            }
        }
    }

    #[test]
    fn small_factor_sieve_matches_trial_division() {
        for n in (3u64..1 << 16).step_by(2) {
            let trial = (3..256u64).any(|r| is_prime(r) && n % r == 0 && n != r);
            assert_eq!(has_small_factor(n), trial, "n={n}");
        }
        assert!(!has_small_factor((1 << 61) - 1));
        assert!(has_small_factor(251 * ((1 << 53) + 5)));
    }

    #[test]
    fn sieved_generation_matches_frozen_loops_word_for_word() {
        // Every size up to 40 bits — including 3..=8, where candidates
        // can equal a sieve prime — and a sample of larger ones; the next
        // tape word agreeing shows the same number of words was drawn.
        for bits in (2..=40).chain([44, 48, 53, 57, 62]) {
            for seed in 0..100u64 {
                let (mut a, mut b) = (
                    TranscriptRng::from_seed(seed),
                    TranscriptRng::from_seed(seed),
                );
                let p = random_prime(bits, &mut a);
                assert_eq!(
                    p,
                    random_prime_oracle(bits, &mut b),
                    "bits={bits} seed={seed}"
                );
                assert_eq!(a.next_u64(), b.next_u64(), "bits={bits} seed={seed}");
                if bits < 4 {
                    continue;
                }
                let (mut a, mut b) = (
                    TranscriptRng::from_seed(seed),
                    TranscriptRng::from_seed(seed),
                );
                let p = random_safe_prime(bits, &mut a);
                assert_eq!(
                    p,
                    random_safe_prime_oracle(bits, &mut b),
                    "safe bits={bits} seed={seed}"
                );
                assert_eq!(a.next_u64(), b.next_u64(), "safe bits={bits} seed={seed}");
            }
        }
        // Sieve primes themselves are accepted: the 3-bit primes are 5 and
        // 7, and the only 4-bit safe prime is 11 = 2·5 + 1.
        let mut rng = TranscriptRng::from_seed(7);
        let small: Vec<u64> = (0..64).map(|_| random_prime(3, &mut rng)).collect();
        assert!(small.contains(&5) && small.contains(&7));
        assert_eq!(random_safe_prime(4, &mut rng), 11);
    }

    #[test]
    fn factorize_known_values() {
        assert_eq!(factorize(1), vec![]);
        assert_eq!(factorize(2), vec![(2, 1)]);
        assert_eq!(factorize(360), vec![(2, 3), (3, 2), (5, 1)]);
        assert_eq!(factorize(97), vec![(97, 1)]);
        assert_eq!(factorize(1 << 32), vec![(2, 32)]);
        // semiprime with ~30-bit factors exercises Pollard rho
        let a = 1_000_003u64;
        let b = 998_244_353u64;
        assert_eq!(factorize(a * b), vec![(a, 1), (b, 1)]);
    }

    #[test]
    fn factorize_reassembles() {
        for n in [720u64, 123456789, 9_999_999_967, (1 << 61) - 2] {
            let product: u64 = factorize(n).iter().map(|&(p, e)| p.pow(e)).product();
            assert_eq!(product, n);
        }
    }

    #[test]
    fn orders_divide_group_order() {
        let p = 1_000_003u64; // prime
        for a in [2u64, 3, 5, 10, 999_999] {
            let ord = multiplicative_order(a, p);
            assert_eq!((p - 1) % ord, 0);
            assert_eq!(pow_mod(a, ord, p), 1);
            // Minimality: no proper divisor works.
            for (q, _) in factorize(ord) {
                assert_ne!(pow_mod(a, ord / q, p), 1);
            }
        }
    }

    #[test]
    fn primitive_root_generates() {
        let mut rng = TranscriptRng::from_seed(3);
        let p = 65537u64;
        let g = find_primitive_root(p, &mut rng);
        assert_eq!(multiplicative_order(g, p), p - 1);
    }

    #[test]
    fn qr_generator_has_order_q() {
        let mut rng = TranscriptRng::from_seed(4);
        let p = random_safe_prime(20, &mut rng);
        let q = (p - 1) / 2;
        let g = qr_generator(p, &mut rng);
        assert_eq!(multiplicative_order(g, p), q);
    }
}
