//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use wbstream::core::rng::TranscriptRng;
use wbstream::crypto::crhf::{FixedBase, PedersenHash, PedersenMd};
use wbstream::crypto::modular::{add_mod, balanced, inv_mod, mul_mod, pow_mod, sub_mod};
use wbstream::crypto::prime::{factorize, is_prime};
use wbstream::crypto::sha256::{sha256, Sha256};
use wbstream::crypto::sis::{SisMatrix, SisParams};

const P61: u64 = (1 << 61) - 1;

proptest! {
    #[test]
    fn add_mod_is_commutative_and_associative(a in 0..P61, b in 0..P61, c in 0..P61) {
        prop_assert_eq!(add_mod(a, b, P61), add_mod(b, a, P61));
        prop_assert_eq!(
            add_mod(add_mod(a, b, P61), c, P61),
            add_mod(a, add_mod(b, c, P61), P61)
        );
    }

    #[test]
    fn sub_mod_inverts_add_mod(a in 0..P61, b in 0..P61) {
        prop_assert_eq!(sub_mod(add_mod(a, b, P61), b, P61), a);
    }

    #[test]
    fn mul_mod_distributes_over_add(a in 0..P61, b in 0..P61, c in 0..P61) {
        let lhs = mul_mod(a, add_mod(b, c, P61), P61);
        let rhs = add_mod(mul_mod(a, b, P61), mul_mod(a, c, P61), P61);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_mod_addition_law(a in 1..P61, e1 in 0u64..1000, e2 in 0u64..1000) {
        // a^(e1+e2) = a^e1 · a^e2
        prop_assert_eq!(
            pow_mod(a, e1 + e2, P61),
            mul_mod(pow_mod(a, e1, P61), pow_mod(a, e2, P61), P61)
        );
    }

    #[test]
    fn inverse_roundtrip(a in 1..P61) {
        let inv = inv_mod(a, P61).expect("prime modulus");
        prop_assert_eq!(mul_mod(a, inv, P61), 1);
        prop_assert_eq!(inv_mod(inv, P61), Some(a));
    }

    #[test]
    fn balanced_lift_roundtrip(x in 0..P61) {
        let b = balanced(x, P61);
        prop_assert!(b.unsigned_abs() <= P61 / 2 + 1);
        let back = b.rem_euclid(P61 as i64) as u64;
        prop_assert_eq!(back, x);
    }

    #[test]
    fn factorization_reassembles_and_is_prime(n in 2u64..1_000_000_000) {
        let fs = factorize(n);
        let product: u64 = fs.iter().map(|&(p, e)| p.pow(e)).product();
        prop_assert_eq!(product, n);
        for (p, _) in fs {
            prop_assert!(is_prime(p), "{p} not prime");
        }
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..500),
                                         split in 0usize..500) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_distinguishes_any_flip(data in proptest::collection::vec(any::<u8>(), 1..100),
                                     idx in 0usize..100, bit in 0u8..8) {
        let idx = idx % data.len();
        let mut tweaked = data.clone();
        tweaked[idx] ^= 1 << bit;
        prop_assert_ne!(sha256(&data), sha256(&tweaked));
    }

    #[test]
    fn sis_apply_is_linear(seed in 0u64..1000,
                           x in proptest::collection::vec(-3i64..=3, 6),
                           y in proptest::collection::vec(-3i64..=3, 6)) {
        let params = SisParams { d: 3, w: 6, q: 1_000_003, beta_inf: 10 };
        let mut rng = TranscriptRng::from_seed(seed);
        let m = SisMatrix::random_explicit(params, &mut rng);
        let ax = m.apply(&x);
        let ay = m.apply(&y);
        let sum: Vec<i64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let asum = m.apply(&sum);
        for i in 0..3 {
            prop_assert_eq!(asum[i], add_mod(ax[i], ay[i], params.q));
        }
    }

    #[test]
    fn oracle_and_explicit_columns_stay_in_range(j in 0usize..16) {
        let params = SisParams { d: 4, w: 16, q: 97, beta_inf: 2 };
        let m = SisMatrix::from_oracle(params, b"prop");
        for v in m.column(j) {
            prop_assert!(v < 97);
        }
    }
}

/// Items at the ends of the range and around the 32-bit split of a digest's
/// first word.
const EDGE_ITEMS: [u64; 7] = [
    0,
    1,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    u64::MAX - 1,
    u64::MAX,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hash_u64_equals_hash_bytes_of_the_big_endian_bytes(
        seed in 0u64..1_000_000,
        bits in 34u32..=44,
        x in any::<u64>(),
        low in 0u64..(1 << 32),
    ) {
        let mut rng = TranscriptRng::from_seed(seed);
        let md = PedersenMd::generate(bits, &mut rng);
        let tables = md.tables();
        for item in EDGE_ITEMS.into_iter().chain([x, low, (1 << 32) | low]) {
            let want = md.hash_bytes(&item.to_be_bytes());
            prop_assert_eq!(md.hash_u64(item), want, "hash_u64({:#x})", item);
            prop_assert_eq!(tables.hash_u64(item), want, "tables.hash_u64({:#x})", item);
        }
    }

    #[test]
    fn fixed_base_pow_equals_pow_mod_below_q(
        seed in 0u64..1_000_000,
        bits in 34u32..=48,
        e in any::<u64>(),
    ) {
        let mut rng = TranscriptRng::from_seed(seed);
        let params = *PedersenHash::generate(bits, &mut rng).params();
        let exp_bits = u64::BITS - (params.q - 1).leading_zeros();
        for base in [params.g, params.h] {
            let table = FixedBase::new(base, params.p, exp_bits);
            for e in [e % params.q, 0, 1, params.q - 1] {
                prop_assert_eq!(table.pow(e), pow_mod(base, e, params.p), "{}^{}", base, e);
            }
        }
    }

    #[test]
    fn fixed_base_pow_equals_pow_mod_on_any_exponent(
        base in any::<u64>(),
        m in 2u64..P61,
        e in any::<u64>(),
    ) {
        prop_assert_eq!(FixedBase::new(base, m, 64).pow(e), pow_mod(base, e, m));
    }
}
