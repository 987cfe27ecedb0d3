//! # alert-crypto
//!
//! The cryptographic substrate of the ALERT reproduction:
//!
//! * [`sha1`](mod@sha1) — SHA-1 from scratch (pseudonym hashing, Section 2.2);
//! * [`cipher`] — a functional SHA-1-CTR stream cipher standing in for the
//!   paper's AES symmetric data path (Section 2.5);
//! * [`aes`] — real AES-128 with CTR mode (FIPS-197 / SP 800-38A test
//!   vectors), for users who want bit-faithful AES framing;
//! * [`pubkey`] — functional textbook RSA over 64-bit moduli standing in
//!   for the paper's RSA (key wrapping, TTL and Bitmap encryption);
//! * [`pseudonym`] — dynamic pseudonym generation and rotation;
//! * [`cost`] — the latency cost model (Section 5.2) through which crypto
//!   strength actually enters the paper's evaluation.
//!
//! The ciphers here are *functional*, not secure: they really transform
//! bytes and really fail with the wrong key, which is what the simulation
//! needs, while production-grade security parameters are represented by
//! their measured latency in [`cost::CostModel`]. See DESIGN.md § 1.

//! ## Example: the paper's session-key handshake in miniature
//!
//! ```
//! use alert_crypto::{open, pk_decrypt, pk_encrypt, seal, KeyPair, SymmetricKey};
//! use alert_rng::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let destination = KeyPair::generate(&mut rng);
//! // S wraps a symmetric key with D's public key (Section 2.5)...
//! let k_s = SymmetricKey::random(&mut rng);
//! let wrapped = pk_encrypt(&destination.public, &k_s.0);
//! // ...and the data path is symmetric from then on.
//! let sealed = seal(&k_s, b"rendezvous at dawn", &mut rng);
//! let unwrapped = pk_decrypt(&destination.private, &wrapped).unwrap();
//! let k_at_d = SymmetricKey(unwrapped.try_into().unwrap());
//! assert_eq!(open(&k_at_d, &sealed), b"rendezvous at dawn");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cipher;
pub mod cost;
pub mod pseudonym;
pub mod pubkey;
pub mod sha1;

pub use aes::Aes128;
pub use cipher::{mac, open, seal, SealedBytes, SymmetricKey};
pub use cost::{CostModel, CryptoOps};
pub use pseudonym::{compute_pseudonym, MacAddress, Pseudonym, PseudonymGenerator};
pub use pubkey::{
    pk_decrypt, pk_encrypt, pk_sign, pk_verify, KeyPair, PkSealed, PrivateKey, PublicKey,
};
pub use sha1::{hmac_sha1, sha1, Digest, Sha1};
