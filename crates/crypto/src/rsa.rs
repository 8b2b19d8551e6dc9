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
//! not security (see the crate-level warning and DESIGN.md). The
//! simulators account bandwidth using the paper's 40-byte ECDSA figure.

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

/// Deterministic Miller–Rabin, exact for all u64 with these witnesses.
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n % p == 0 {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d % 2 == 0 {
        d /= 2;
        r += 1;
    }
    // n is odd here; the whole test runs in Montgomery form
    let mont = Montgomery::new(n);
    let one = mont.one;
    let minus_one = n - one;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
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
    while !is_prime(p) || (p - 1) % 65537 == 0 {
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
