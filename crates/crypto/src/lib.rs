//! # wb-crypto — cryptographic substrate for white-box robust streaming
//!
//! The paper's computationally-bounded-adversary algorithms (Theorems 1.2,
//! 1.3, 1.5, 1.6, 1.7) lean on two cryptographic objects that remain useful
//! even when **everything is public** — there is no secret key in the
//! white-box model:
//!
//! * **collision-resistant hash functions** (Definition 2.4): publishing
//!   the parameters does not help an efficient adversary find collisions;
//! * **SIS sketching matrices** (Definition 2.15, Theorem 2.16): publishing
//!   `A` does not help an efficient adversary find a *short* kernel vector.
//!
//! This crate builds those objects — and the number theory beneath them —
//! from scratch:
//!
//! | module | contents |
//! |---|---|
//! | [`modular`] | `u64` modular arithmetic with `u128` intermediates |
//! | [`mersenne`] | the fast-reduction Mersenne-61 field used by the word-level hashes |
//! | [`prime`] | deterministic Miller–Rabin, prime/safe-prime generation, Pollard-rho factorization, multiplicative orders |
//! | [`mod@sha256`] | FIPS 180-4 SHA-256, tested against official vectors |
//! | [`oracle`] | the random oracle model of §2.3, instantiated with SHA-256 |
//! | [`crhf`] | Pedersen compression + Merkle–Damgård (Theorem 2.5), and the streaming DL-exponent hash used for string fingerprints (§2.6) |
//! | [`sis`] | SIS matrices (explicit / oracle-backed), the streaming update primitive, and the attack toolbox (brute force, birthday, unbounded mod-q kernel) |
//!
//! Parameters are word-sized (≤ 62-bit moduli) by design: the experiments
//! measure *scaling* of attack cost, not production security — see
//! DESIGN.md §3.

pub mod crhf;
pub mod mersenne;
pub mod modular;
pub mod oracle;
pub mod prime;
pub mod sha256;
pub mod sis;

pub use crhf::{
    DlExpHash, DlExpParams, FixedBase, PedersenHash, PedersenMd, PedersenParams, PedersenTables,
};
pub use oracle::RandomOracle;
pub use sha256::{sha256, sha256_u64, Sha256};
pub use sis::{SisMatrix, SisParams};
