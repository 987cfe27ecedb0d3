//! Fences RSA key generation: the exact 32-bit primality test against a
//! 12-witness Miller–Rabin oracle in u128 arithmetic, and the key stream
//! `KeyPair::generate` draws from a seeded RNG against digests recorded
//! when the pins were committed.

use alert_crypto::pubkey::{is_prime, pow_mod};
use alert_crypto::KeyPair;
use alert_rng::{check, Rng, RngCore, SeedableRng, StdRng};

/// The 12-witness Miller–Rabin in u128 arithmetic that key generation
/// used before the exact 32-bit test: correct for every `u64`.
fn oracle_is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mul_mod = |a: u64, b: u64| (u128::from(a) * u128::from(b) % u128::from(n)) as u64;
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn agrees(n: u32) {
    assert_eq!(is_prime(n), oracle_is_prime(u64::from(n)), "n = {n}");
}

/// Every n below 2^20.
#[test]
fn exhaustive_below_2_pow_20() {
    for n in 0..1u32 << 20 {
        agrees(n);
    }
}

/// Random n over all of u32, and over the band key generation draws from.
#[test]
fn random_u32_and_key_band() {
    check(64, 24, |rng| {
        for _ in 0..256 {
            agrees(rng.gen());
            agrees(rng.gen_range(1u32 << 30..1 << 31) | 1);
        }
    });
}

/// Named primes and the composites that fool weaker tests.
#[test]
fn named_cases() {
    let primes = [2u32, 37, 41, 61, 2_147_483_647, 4_294_967_291];
    // Strong pseudoprimes to base 2; Carmichael numbers; the least strong
    // pseudoprime to bases 2, 3, 5 and the least to 2, 3, 5, 7; u32::MAX
    // = 3 * 5 * 17 * 257 * 65537.
    let composites = [
        2047u32,
        3277,
        4033,
        4681,
        8321,
        561,
        1105,
        1729,
        25_326_001,
        3_215_031_751,
        u32::MAX,
    ];
    for n in primes {
        assert!(is_prime(n), "{n} is prime");
        assert!(oracle_is_prime(u64::from(n)), "oracle: {n} is prime");
    }
    for n in composites {
        assert!(!is_prime(n), "{n} is composite");
        assert!(!oracle_is_prime(u64::from(n)), "oracle: {n} is composite");
    }
}

/// FNV-1a 64 over `(n, e, d)` of the first `count` keys from `seed`, and
/// the RNG's next `u64` afterwards (so a change in the draw count shows).
fn key_stream(seed: u64, count: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..count {
        let kp = KeyPair::generate(&mut rng);
        for word in [kp.public.n, kp.public.e, kp.private.d] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (h, rng.next_u64())
}

/// The first 2,000 keys of three seeds, and the draw count, are pinned.
#[test]
fn key_stream_is_pinned() {
    let pins = [
        (1u64, 0xb00d_f437_a85f_bb02u64, 0x65cf_7e5e_806b_c90eu64),
        (42, 0x45a7_e5fe_72eb_e66e, 0x9734_0e46_e11a_0d59),
        (0x5EED_A1E7, 0x21ab_ca4a_1d9b_0d88, 0x9c82_9b03_57dd_5826),
    ];
    for (seed, digest, next) in pins {
        assert_eq!(key_stream(seed, 2000), (digest, next), "seed {seed:#x}");
    }
}
