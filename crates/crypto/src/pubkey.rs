//! Functional public-key encryption: schoolbook RSA over 64-bit moduli.
//!
//! The paper uses RSA for the public-key operations (wrapping `K_s` with
//! the destination's public key, encrypting the TTL with a relay's public
//! key, encrypting the Bitmap — Sections 2.5, 2.6, 3.3) and measures RSA
//! at 200–300 ms per operation on a 1.8 GHz CPU (Section 5.2).
//!
//! We implement real textbook RSA with 31-bit primes: key generation
//! (an exact 32-bit Miller–Rabin test), encryption/decryption by modular
//! exponentiation, and blockwise payload handling. A 64-bit modulus is
//! factorable in microseconds, so this is functional-but-toy by
//! construction; the *latency* of production RSA is charged separately
//! through [`crate::cost::CostModel`], which is the only way crypto
//! strength enters the paper's evaluation.

use alert_rng::Rng;

/// RSA public key `(n, e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Modulus `n = p * q`, a 64-bit semiprime.
    pub n: u64,
    /// Public exponent (65537, or 3 for tiny moduli).
    pub e: u64,
}

/// RSA private key `(n, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey {
    /// Modulus, identical to the public key's.
    pub n: u64,
    /// Private exponent.
    pub d: u64,
}

/// A public/private key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    /// The shareable half.
    pub public: PublicKey,
    /// The secret half.
    pub private: PrivateKey,
}

/// Modular multiplication without overflow (via u128).
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation by squaring.
pub fn pow_mod(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    assert!(modulus > 1, "modulus must exceed 1");
    let mut acc = 1u64;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, modulus);
        }
        base = mul_mod(base, base, modulus);
        exp >>= 1;
    }
    acc
}

/// `base^exp mod n` for `n < 2^32`: every product of two residues fits in
/// a `u64`, so no widening is needed.
fn pow_mod_u32(mut base: u64, mut exp: u64, n: u64) -> u64 {
    let mut acc = 1u64;
    base %= n;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % n;
        }
        base = base * base % n;
        exp >>= 1;
    }
    acc
}

/// Exact primality for every `u32`: trial division by the primes up to
/// 37, then strong-probable-prime rounds on the witnesses {2, 7, 61},
/// which no composite below 4,759,123,141 passes.
pub fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u32, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let n = u64::from(n);
    let r = (n - 1).trailing_zeros();
    let d = (n - 1) >> r;
    'witness: for a in [2u64, 7, 61] {
        // A witness that is a multiple of n (only n = 61 here) says nothing.
        if a % n == 0 {
            continue;
        }
        let mut x = pow_mod_u32(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..r {
            x = x * x % n;
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Inverse of `a` modulo `m` by extended Euclid, or `None` when
/// `gcd(a, m) != 1`. Runs in `i64`: with `a, m < 2^62` every Bézout term
/// stays below `2m < 2^63`.
fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    debug_assert!(a < 1 << 62 && m < 1 << 62, "operands must be below 2^62");
    let (mut old_r, mut r) = (a as i64, m as i64);
    let (mut old_s, mut s) = (1i64, 0i64);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(m as i64) as u64)
}

/// A random prime in `[lo, hi)`: odd candidates are drawn until one is
/// prime. Only candidates that fit in a `u32` can pass.
fn random_prime_in<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    loop {
        let candidate = rng.gen_range(lo..hi) | 1;
        if u32::try_from(candidate).is_ok_and(is_prime) {
            return candidate;
        }
    }
}

impl KeyPair {
    /// Generates a key pair with two random 31-bit primes.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let p = random_prime_in(rng, 1 << 30, 1 << 31);
            let q = random_prime_in(rng, 1 << 30, 1 << 31);
            if p == q {
                continue;
            }
            let n = p * q;
            let phi = (p - 1) * (q - 1);
            let e = 65537u64;
            if phi.is_multiple_of(e) {
                continue;
            }
            if let Some(d) = mod_inverse(e, phi) {
                return KeyPair {
                    public: PublicKey { n, e },
                    private: PrivateKey { n, d },
                };
            }
        }
    }
}

/// A blockwise public-key ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PkSealed {
    /// Original plaintext length (the block coding pads to 4-byte blocks).
    pub plain_len: u32,
    /// One u64 ciphertext word per 4-byte plaintext block.
    pub blocks: Vec<u64>,
}

impl PkSealed {
    /// Wire size: 4-byte length header plus 8 bytes per block.
    pub fn wire_len(&self) -> usize {
        4 + self.blocks.len() * 8
    }
}

/// Encrypts arbitrary bytes under `pk`, 4 plaintext bytes per block
/// (guaranteed below the 2^60+ modulus).
pub fn pk_encrypt(pk: &PublicKey, plaintext: &[u8]) -> PkSealed {
    let blocks = plaintext
        .chunks(4)
        .map(|chunk| {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            pow_mod(u64::from(u32::from_be_bytes(word)), pk.e, pk.n)
        })
        .collect();
    PkSealed {
        plain_len: plaintext.len() as u32,
        blocks,
    }
}

/// Decrypts a blockwise ciphertext. Returns `None` when a decrypted block
/// exceeds the 32-bit plaintext domain — the tell-tale of the wrong key.
pub fn pk_decrypt(sk: &PrivateKey, sealed: &PkSealed) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(sealed.blocks.len() * 4);
    for &b in &sealed.blocks {
        let m = pow_mod(b, sk.d, sk.n);
        if m > u64::from(u32::MAX) {
            return None;
        }
        out.extend_from_slice(&(m as u32).to_be_bytes());
    }
    out.truncate(sealed.plain_len as usize);
    Some(out)
}

/// Signs `digest8` (an 8-byte message digest) with the private key:
/// split into two blocks, "decrypt" each.
pub fn pk_sign(sk: &PrivateKey, digest8: &[u8; 8]) -> [u64; 2] {
    let lo = u64::from(u32::from_be_bytes(
        digest8[..4].try_into().expect("8 bytes"),
    ));
    let hi = u64::from(u32::from_be_bytes(
        digest8[4..].try_into().expect("8 bytes"),
    ));
    [pow_mod(lo, sk.d, sk.n), pow_mod(hi, sk.d, sk.n)]
}

/// Verifies a signature produced by [`pk_sign`].
pub fn pk_verify(pk: &PublicKey, digest8: &[u8; 8], sig: &[u64; 2]) -> bool {
    let lo = u64::from(u32::from_be_bytes(
        digest8[..4].try_into().expect("8 bytes"),
    ));
    let hi = u64::from(u32::from_be_bytes(
        digest8[4..].try_into().expect("8 bytes"),
    ));
    pow_mod(sig[0], pk.e, pk.n) == lo && pow_mod(sig[1], pk.e, pk.n) == hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_rng::{SeedableRng, StdRng};

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10, 1000), 24);
        assert_eq!(pow_mod(3, 0, 7), 1);
        assert_eq!(pow_mod(0, 5, 7), 0);
        // (u64::MAX - 1) ≡ 57 (mod u64::MAX - 58); 57^2 = 3249. Exercises
        // the u128 widening path with operands near the u64 boundary.
        assert_eq!(pow_mod(u64::MAX - 1, 2, u64::MAX - 58), 3249);
    }

    #[test]
    fn primality_known_values() {
        for p in [2u32, 3, 5, 7, 97, 65537, 2_147_483_647] {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in [0u32, 1, 4, 100, 65535, 2_147_483_649, 3_215_031_751] {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    /// The `i128` extended Euclid that key generation used before the
    /// `i64` one: the oracle for [`mod_inverse`].
    fn mod_inverse_i128(a: u64, m: u64) -> Option<u64> {
        let (mut old_r, mut r) = (a as i128, m as i128);
        let (mut old_s, mut s) = (1i128, 0i128);
        while r != 0 {
            let q = old_r / r;
            (old_r, r) = (r, old_r - q * r);
            (old_s, s) = (s, old_s - q * s);
        }
        if old_r != 1 {
            return None;
        }
        let mut x = old_s % m as i128;
        if x < 0 {
            x += m as i128;
        }
        Some(x as u64)
    }

    #[test]
    fn mod_inverse_matches_i128_oracle() {
        alert_rng::check(4096, 24, |rng| {
            let m = rng.gen_range(2..1u64 << 62);
            let a = match rng.gen_range(0..3) {
                0 => 65537,
                1 => rng.gen_range(1..m.min(1 << 20)),
                _ => rng.gen_range(1..m),
            };
            let got = mod_inverse(a, m);
            assert_eq!(got, mod_inverse_i128(a, m), "a {a}, m {m}");
            if let Some(x) = got {
                assert!(x < m);
                assert_eq!(u128::from(a) * u128::from(x) % u128::from(m), 1);
            }
        });
    }

    #[test]
    fn keygen_exponents_invert_mod_phi() {
        alert_rng::check(512, 24, |rng| {
            let p = random_prime_in(rng, 1 << 30, 1 << 31);
            let q = random_prime_in(rng, 1 << 30, 1 << 31);
            let phi = (p - 1) * (q - 1);
            let d = mod_inverse(65537, phi);
            assert_eq!(d, mod_inverse_i128(65537, phi), "p {p}, q {q}");
            if let Some(d) = d {
                assert_eq!(65537 * u128::from(d) % u128::from(phi), 1, "p {p}, q {q}");
            }
        });
    }

    #[test]
    fn keygen_produces_working_pair() {
        let mut rng = StdRng::seed_from_u64(11);
        let kp = KeyPair::generate(&mut rng);
        assert!(kp.public.n > 1 << 60);
        // m^(ed) = m for a few sample messages.
        for m in [0u64, 1, 42, 0xFFFF_FFFF] {
            let c = pow_mod(m, kp.public.e, kp.public.n);
            assert_eq!(pow_mod(c, kp.private.d, kp.private.n), m);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(12);
        let kp = KeyPair::generate(&mut rng);
        for len in [0usize, 1, 3, 4, 5, 16, 100] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let sealed = pk_encrypt(&kp.public, &msg);
            assert_eq!(pk_decrypt(&kp.private, &sealed).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn wrong_key_usually_fails_or_garbles() {
        let mut rng = StdRng::seed_from_u64(13);
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let msg = b"temporary destination".to_vec();
        let sealed = pk_encrypt(&kp1.public, &msg);
        match pk_decrypt(&kp2.private, &sealed) {
            None => {}
            Some(garbled) => assert_ne!(garbled, msg),
        }
    }

    #[test]
    fn sign_verify() {
        let mut rng = StdRng::seed_from_u64(14);
        let kp = KeyPair::generate(&mut rng);
        let digest = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let sig = pk_sign(&kp.private, &digest);
        assert!(pk_verify(&kp.public, &digest, &sig));
        let mut tampered = digest;
        tampered[0] ^= 1;
        assert!(!pk_verify(&kp.public, &tampered, &sig));
        let other = KeyPair::generate(&mut rng);
        assert!(!pk_verify(&other.public, &digest, &sig));
    }

    #[test]
    fn wire_len_matches_blocks() {
        let mut rng = StdRng::seed_from_u64(15);
        let kp = KeyPair::generate(&mut rng);
        let sealed = pk_encrypt(&kp.public, &[0u8; 10]); // 3 blocks
        assert_eq!(sealed.blocks.len(), 3);
        assert_eq!(sealed.wire_len(), 4 + 24);
    }
}
