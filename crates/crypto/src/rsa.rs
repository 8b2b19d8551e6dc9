//! Toy RSA signatures with a 64-bit modulus.
//!
//! The Octopus protocols require genuine digital-signature *semantics*:
//! nodes sign routing tables, the CA verifies third-party proofs, and
//! signatures from revoked certificates must still verify against the old
//! public key (non-repudiation). We implement textbook RSA over a 64-bit
//! modulus: prime generation with Miller–Rabin, `e = 65537`,
//! `sign = H(m)^d mod n`, `verify: sig^e mod n == H(m) mod n`.
//!
//! 64-bit RSA is trivially breakable; the point is functional fidelity,
//! not security (see the crate-level warning and ARCHITECTURE.md,
//! "Crypto cost model"). The simulators account bandwidth using the
//! paper's 40-byte ECDSA figure.

use std::fmt;

use rand::Rng;

use crate::sha256::sha256;

/// Public verification key `(n, e)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Modulus.
    pub n: u64,
    /// Public exponent.
    pub e: u64,
}

/// An RSA signature (a single residue mod n).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub u64);

/// A signing/verification key pair.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    d: u64,
    /// Reduction constants for `public.n`, computed once at generation.
    mont: Montgomery,
}

/// Errors from signature verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature did not verify against the message and key.
    BadSignature,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // never print the private exponent
        write!(f, "KeyPair({:?})", self.public)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey(n={:x}, e={:x})", self.n, self.e)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({:016x})", self.0)
    }
}

fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Square-and-multiply with one `u128 %` per product. Serves even
/// moduli, which Montgomery reduction cannot, and is the reference the
/// Montgomery path is tested against.
fn powmod_plain(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Montgomery arithmetic modulo an odd `m`, with `R = 2^64`: a residue
/// `x` is held as `x·R mod m`, and a product costs two multiplications
/// and a conditional add where [`mulmod`] costs a 128-bit division.
#[derive(Clone, Copy)]
struct Montgomery {
    m: u64,
    /// `m⁻¹ mod 2^64`.
    m_inv: u64,
    /// `R mod m`: the Montgomery form of 1.
    one: u64,
}

impl Montgomery {
    /// `m` must be odd.
    fn new(m: u64) -> Self {
        debug_assert!(m & 1 == 1, "Montgomery modulus must be odd");
        // Newton's iteration doubles the correct low bits each round;
        // m·m ≡ 1 (mod 8) for odd m, so m itself starts with three
        let mut m_inv = m;
        for _ in 0..5 {
            m_inv = m_inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(m_inv)));
        }
        Montgomery {
            m,
            m_inv,
            one: m.wrapping_neg() % m,
        }
    }

    /// `a·b·R⁻¹ mod m` for `a, b < m`.
    fn mul(&self, a: u64, b: u64) -> u64 {
        let t = a as u128 * b as u128;
        // q·m has the same low word as t, so t − q·m is a multiple of R
        // and the quotient is the difference of the high words
        let q = (t as u64).wrapping_mul(self.m_inv);
        let qm_hi = ((q as u128 * self.m as u128) >> 64) as u64;
        let (r, borrow) = ((t >> 64) as u64).overflowing_sub(qm_hi);
        if borrow {
            r.wrapping_add(self.m)
        } else {
            r
        }
    }

    /// The Montgomery form of `x` (any `x`, reduced first).
    fn enter(&self, x: u64) -> u64 {
        ((((x % self.m) as u128) << 64) % self.m as u128) as u64
    }

    /// Back from Montgomery form.
    fn leave(&self, x: u64) -> u64 {
        self.mul(x, 1)
    }

    /// `base^exp` with `base` and the result in Montgomery form.
    fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        let mut acc = self.one;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// `base^exp mod m` on plain residues.
    fn powmod(&self, base: u64, exp: u64) -> u64 {
        self.leave(self.pow(self.enter(base), exp))
    }
}

fn powmod(base: u64, exp: u64, m: u64) -> u64 {
    if m & 1 == 1 {
        Montgomery::new(m).powmod(base, exp)
    } else {
        powmod_plain(base, exp, m)
    }
}

/// The first twelve primes: trial divisors, and Miller–Rabin witnesses
/// that are exact for every u64.
const TWELVE_WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Witnesses exact below [`THREE_WITNESS_BOUND`] (Jaeschke 1993).
const THREE_WITNESSES: [u64; 3] = [2, 7, 61];

/// The smallest strong pseudoprime to bases 2, 7 and 61
/// (= 48 781 · 97 561). Every 32-bit RSA prime candidate is below it.
const THREE_WITNESS_BOUND: u64 = 4_759_123_141;

/// Deterministic Miller–Rabin after trial division by the first twelve
/// primes. Below 4 759 123 141 the witnesses are {2, 7, 61}; from there
/// up they are the first twelve primes, 2 to 37. Both sets are exact on
/// their range, so the answer is the same as with twelve witnesses
/// everywhere.
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in TWELVE_WITNESSES {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    if n < THREE_WITNESS_BOUND {
        miller_rabin(n, &THREE_WITNESSES)
    } else {
        miller_rabin(n, &TWELVE_WITNESSES)
    }
}

/// `false` when one of `witnesses` proves the odd `n > 2` composite.
/// A witness that `n` divides proves nothing and is skipped.
fn miller_rabin(n: u64, witnesses: &[u64]) -> bool {
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    // n is odd here; the whole test runs in Montgomery form
    let mont = Montgomery::new(n);
    let one = mont.one;
    let minus_one = n - one;
    'witness: for &a in witnesses {
        if a % n == 0 {
            continue;
        }
        let mut x = mont.pow(mont.enter(a), d);
        if x == one || x == minus_one {
            continue;
        }
        for _ in 0..r - 1 {
            x = mont.mul(x, x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

fn modinv(a: u64, m: u64) -> Option<u64> {
    let (g, x, _) = egcd(a as i128, m as i128);
    if g != 1 {
        None
    } else {
        Some(((x % m as i128 + m as i128) % m as i128) as u64)
    }
}

fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> u64 {
    let mut p: u64 = rng.gen_range(0..1u64 << (bits - 1)) | (1 << (bits - 1)) | 1;
    // ensure p-1 not divisible by 65537 so e is invertible
    while !is_prime(p) || (p - 1).is_multiple_of(65537) {
        p = rng.gen_range(0..1u64 << (bits - 1)) | (1 << (bits - 1)) | 1;
    }
    p
}

impl KeyPair {
    /// Generate a fresh key pair with two 32-bit primes.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let p = random_prime(rng, 32);
            let q = random_prime(rng, 32);
            if p == q {
                continue;
            }
            let n = p * q; // fits: both < 2^32
            let phi = (p - 1) * (q - 1);
            let e = 65537u64;
            let Some(d) = modinv(e, phi) else { continue };
            return KeyPair {
                public: PublicKey { n, e },
                d,
                mont: Montgomery::new(n), // n is a product of odd primes
            };
        }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a message: `H(m)^d mod n` where `H` is SHA-256 truncated into
    /// the modulus.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let h = digest_residue(message, self.public.n);
        Signature(self.mont.powmod(h, self.d))
    }
}

impl PublicKey {
    /// Verify `sig` over `message`.
    ///
    /// # Errors
    /// Returns [`SignatureError::BadSignature`] when verification fails.
    pub fn verify(&self, message: &[u8], sig: Signature) -> Result<(), SignatureError> {
        let h = digest_residue(message, self.n);
        if powmod(sig.0, self.e, self.n) == h {
            Ok(())
        } else {
            Err(SignatureError::BadSignature)
        }
    }
}

fn digest_residue(message: &[u8], n: u64) -> u64 {
    let d = sha256(message);
    let x = u64::from_be_bytes(d.0[..8].try_into().expect("32-byte digest"));
    x % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(65537));
        assert!(is_prime(0xFFFF_FFFF_FFFF_FFC5)); // largest u64 prime
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(65536));
        assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn three_witnesses_agree_with_twelve_where_used() {
        // the range 32-bit RSA primes are drawn from starts at 2^31
        for n in ((1u64 << 31) + 1..(1 << 31) + (1 << 20)).step_by(2) {
            let twelve =
                TWELVE_WITNESSES.iter().all(|&p| n % p != 0) && miller_rabin(n, &TWELVE_WITNESSES);
            assert_eq!(is_prime(n), twelve, "{n}");
        }
        // small n, where n can divide a witness (n = 61)
        for n in 2..=1_000u64 {
            let trial = (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
            assert_eq!(is_prime(n), trial, "{n}");
        }
        let n = 3_215_031_751;
        assert!(
            miller_rabin(n, &[2, 3, 5, 7]),
            "strong pseudoprime to 2, 3, 5, 7"
        );
        assert!(!miller_rabin(n, &THREE_WITNESSES) && !is_prime(n));
        // the bound is tight: three witnesses would call it prime, so it
        // must take the twelve-witness path
        let n = THREE_WITNESS_BOUND;
        assert_eq!(48_781 * 97_561, n);
        assert!(miller_rabin(n, &THREE_WITNESSES));
        assert!(!miller_rabin(n, &TWELVE_WITNESSES) && !is_prime(n));
    }

    #[test]
    fn keys_and_signatures_are_pinned() {
        // (n, signature of b"x") for seeds 0..32, recorded before the
        // three-witness primality test and the SHA-NI kernel
        let pinned: [(u64, u64); 32] = [
            (0x5174c1638af5307b, 0x354233f4e16ae4dd),
            (0xa72a90e53149919d, 0x0185bc7e61220e1d),
            (0x8a47aecdd0680a33, 0x77cb1a12959b8377),
            (0x6fff7299ba79f05b, 0x5b62d742f9d24b6c),
            (0x98155b674091f66d, 0x3b8ed41ca0d3cc76),
            (0x6e60dfdf56221fd5, 0x2dbdba381187a2a9),
            (0xa542da0fcce45265, 0x76df7b2c285627a2),
            (0x741b16cd90008f95, 0x1a6601552976ef48),
            (0x7612e6f47e5aa6a1, 0x3c35e75095d8d19d),
            (0x52015c339dd34efb, 0x0529c1a14dd7e728),
            (0xc26fd3a3a8313fa5, 0x27b03c4a01820907),
            (0x590be258a8a3b0df, 0x0105b74a3c956524),
            (0x933e4d7d18c8e009, 0x7f1af823fd5d6a37),
            (0xa03dc12f6af8a0a3, 0x51b066967df65808),
            (0x819da1680031a3e5, 0x405b55451ffb9b16),
            (0x9808b4816c4792ef, 0x399e1923f154de4f),
            (0x6d226c16c9b37ef5, 0x49bdce89a472f8ea),
            (0x7c02be643e996901, 0x1f8120c82a64b86a),
            (0x7eb169b3de9734e7, 0x2bcdc4620e6314f7),
            (0xae19005b3d760099, 0x424e2f326131c3f5),
            (0xa000ae252c78a657, 0x4913cfc424a9a8d2),
            (0x73a93a36be72b8bd, 0x43a4e824148a7aff),
            (0x78710dfbeb693b57, 0x23de05610091d374),
            (0x71048653db581bf5, 0x5de2619ef34905b2),
            (0x869937ed6e170c2d, 0x24f84ca61ca5613d),
            (0x5d331dcef5a8797b, 0x07276b245d2ca359),
            (0x53972d630e0f3be1, 0x04d19ceefd050038),
            (0x79212caf26e0bf19, 0x53efbfa8816d1cc1),
            (0x6a0b0a8d25323069, 0x00597e3c2b5545e2),
            (0xa42f73ac3a1ff2f7, 0x587416f246cd519b),
            (0xa24ea5921a0cdf11, 0x8f1f66bd4bb5d7ef),
            (0xd9fe99fd268c32ed, 0x5bde0b94c40eb20d),
        ];
        for (seed, (n, sig)) in (0u64..).zip(pinned) {
            let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed));
            assert_eq!(kp.public(), PublicKey { n, e: 65537 }, "seed {seed}");
            assert_eq!(kp.sign(b"x"), Signature(sig), "seed {seed}");
        }
    }

    #[test]
    fn powmod_edges() {
        assert_eq!(powmod(2, 10, 1_000_000), 1024);
        assert_eq!(powmod(0, 0, 7), 1);
        assert_eq!(powmod(5, 0, 7), 1);
        // (m+1)^2 ≡ 1 (mod m): exercises the 128-bit intermediate product
        assert_eq!(powmod(u64::MAX - 1, 2, u64::MAX - 2), 1);
    }

    #[test]
    fn powmod_matches_plain_reference() {
        let mut rng = StdRng::seed_from_u64(0x4d4f_4e54);
        let edge_moduli = [
            1u64,
            2,
            3,
            4,
            5,
            65537,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 58, // largest u64 prime
            u64::MAX - 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let edge_values = [0u64, 1, 2, 3, 65537, 1 << 63, u64::MAX - 1, u64::MAX];
        let mut checked = 0u32;
        for &m in &edge_moduli {
            for &base in &edge_values {
                for &exp in &edge_values {
                    assert_eq!(
                        powmod(base, exp, m),
                        powmod_plain(base, exp, m),
                        "{base}^{exp} mod {m}"
                    );
                    checked += 1;
                }
            }
        }
        for i in 0..12_000u32 {
            // every width of modulus, half of them forced odd, and the
            // top of the range where the reduction's borrow matters
            let m = match i % 4 {
                0 => rng.gen::<u64>() | 1,
                1 => (rng.gen::<u64>() >> rng.gen_range(0..63u32)).max(1),
                2 => u64::MAX - rng.gen_range(0..1u64 << 20),
                _ => rng.gen::<u64>().max(1),
            };
            let (base, exp) = (rng.gen::<u64>(), rng.gen::<u64>());
            assert_eq!(
                powmod(base, exp, m),
                powmod_plain(base, exp, m),
                "{base}^{exp} mod {m}"
            );
            checked += 1;
        }
        assert!(checked >= 10_000);
    }

    #[test]
    fn montgomery_mul_matches_mulmod() {
        let mut rng = StdRng::seed_from_u64(0x5245_4443);
        for i in 0..10_000u32 {
            let m = if i % 2 == 0 {
                rng.gen::<u64>() | 1
            } else {
                (u64::MAX - rng.gen_range(0..1u64 << 16)) | 1
            };
            let mont = Montgomery::new(m);
            assert_eq!(m.wrapping_mul(mont.m_inv), 1, "inverse of {m}");
            let (a, b) = (rng.gen::<u64>() % m, rng.gen::<u64>() % m);
            let product = mont.leave(mont.mul(mont.enter(a), mont.enter(b)));
            assert_eq!(product, mulmod(a, b, m), "{a}·{b} mod {m}");
        }
    }

    #[test]
    fn modinv_inverse() {
        let inv = modinv(3, 7).unwrap();
        assert_eq!((3 * inv) % 7, 1);
        assert_eq!(modinv(2, 4), None);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"routing table v1");
        assert!(kp.public().verify(b"routing table v1", sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"honest successor list");
        assert_eq!(
            kp.public().verify(b"manipulated successor list", sig),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", sig).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"msg");
        assert!(kp.public().verify(b"msg", Signature(sig.0 ^ 1)).is_err());
    }

    #[test]
    fn many_keypairs_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..25u32 {
            let kp = KeyPair::generate(&mut rng);
            let msg = i.to_be_bytes();
            let sig = kp.sign(&msg);
            assert!(kp.public().verify(&msg, sig).is_ok(), "keypair {i}");
        }
    }
}
