//! A binary Merkle hash tree.
//!
//! Used to commit to the certificate revocation list so nodes can check
//! membership with log-size proofs, following the Merkle-hash-tree CRL
//! design the paper cites (\[25\] in the bibliography).

use crate::sha256::{sha256, Digest, Sha256};

/// Domain-separation prefixes so a leaf can never be confused with an
/// interior node (second-preimage hardening).
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// A Merkle tree over a list of byte-string leaves.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels\[0\] is the leaf level; the last level has exactly one root.
    levels: Vec<Vec<Digest>>,
}

/// A membership proof: sibling hashes from leaf to root with direction
/// bits (`true` = sibling is on the right).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// (sibling digest, sibling-is-right) pairs bottom-up.
    pub path: Vec<(Digest, bool)>,
}

fn hash_leaf(data: &[u8]) -> Digest {
    Sha256::new().chain(&[LEAF_PREFIX]).chain(data).finalize()
}

fn hash_node(l: &Digest, r: &Digest) -> Digest {
    Sha256::new()
        .chain(&[NODE_PREFIX])
        .chain(&l.0)
        .chain(&r.0)
        .finalize()
}

impl MerkleTree {
    /// Build a tree over `leaves`. An empty list yields the hash of the
    /// empty string as root (a distinguished "empty" commitment).
    #[must_use]
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![sha256(b"")]],
            };
        }
        let mut levels = Vec::new();
        let mut cur: Vec<Digest> = leaves.iter().map(|l| hash_leaf(l.as_ref())).collect();
        levels.push(cur.clone());
        while cur.len() > 1 {
            let mut next = Vec::with_capacity(cur.len().div_ceil(2));
            for pair in cur.chunks(2) {
                let combined = if pair.len() == 2 {
                    hash_node(&pair[0], &pair[1])
                } else {
                    // odd node is promoted by hashing with itself
                    hash_node(&pair[0], &pair[0])
                };
                next.push(combined);
            }
            levels.push(next.clone());
            cur = next;
        }
        MerkleTree { levels }
    }

    /// The root commitment.
    #[must_use]
    pub fn root(&self) -> Digest {
        *self
            .levels
            .last()
            .and_then(|l| l.first())
            .expect("tree always has a root")
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        if self.levels.len() == 1 && self.levels[0].len() == 1 {
            // could be the empty tree; callers don't rely on this case
            1
        } else {
            self.levels[0].len()
        }
    }

    /// Produce a membership proof for leaf `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.levels[0].len(), "leaf index out of range");
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if i.is_multiple_of(2) {
                // sibling on the right (or self-pair at odd tail)
                let s = if i + 1 < level.len() {
                    level[i + 1]
                } else {
                    level[i]
                };
                (s, true)
            } else {
                (level[i - 1], false)
            };
            path.push(sibling);
            i /= 2;
        }
        MerkleProof { index, path }
    }
}

impl MerkleProof {
    /// Verify that `leaf` is committed under `root`.
    #[must_use]
    pub fn verify(&self, leaf: &[u8], root: Digest) -> bool {
        let mut acc = hash_leaf(leaf);
        for (sib, right) in &self.path {
            acc = if *right {
                hash_node(&acc, sib)
            } else {
                hash_node(sib, &acc)
            };
        }
        acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf() {
        let t = MerkleTree::build(&[b"a"]);
        let p = t.prove(0);
        assert!(p.verify(b"a", t.root()));
        assert!(!p.verify(b"b", t.root()));
    }

    #[test]
    fn power_of_two_leaves() {
        let leaves: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i]).collect();
        let t = MerkleTree::build(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            assert!(t.prove(i).verify(leaf, t.root()), "leaf {i}");
        }
    }

    #[test]
    fn odd_leaf_counts() {
        for n in [1usize, 3, 5, 7, 9, 13] {
            let leaves: Vec<Vec<u8>> = (0..n as u8).map(|i| vec![i]).collect();
            let t = MerkleTree::build(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                assert!(t.prove(i).verify(leaf, t.root()), "n={n} leaf {i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let leaves = [b"x".to_vec(), b"y".to_vec(), b"z".to_vec()];
        let t = MerkleTree::build(&leaves);
        let p = t.prove(1);
        assert!(!p.verify(b"x", t.root()));
        assert!(!p.verify(b"q", t.root()));
    }

    #[test]
    fn roots_differ_on_content() {
        let t1 = MerkleTree::build(&[b"a", b"b"]);
        let t2 = MerkleTree::build(&[b"a", b"c"]);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A one-leaf tree whose leaf equals an interior encoding must not
        // collide with a two-leaf tree.
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        let mut interior = vec![NODE_PREFIX];
        interior.extend_from_slice(&a.0);
        interior.extend_from_slice(&b.0);
        let t_forged = MerkleTree::build(&[interior]);
        let t_real = MerkleTree::build(&[b"a".to_vec(), b"b".to_vec()]);
        assert_ne!(t_forged.root(), t_real.root());
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let t1 = MerkleTree::build::<&[u8]>(&[]);
        let t2 = MerkleTree::build::<&[u8]>(&[]);
        assert_eq!(t1.root(), t2.root());
    }
}
