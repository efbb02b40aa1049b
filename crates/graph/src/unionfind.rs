//! Disjoint-set forest (union–find) with path compression and union by
//! rank, used by Kruskal's algorithm and incremental connectivity checks in
//! the buy-at-bulk solvers.

/// A disjoint-set forest over the integers `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of the set containing `x`, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Compress the path.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` if a merge happened (they were in different sets).
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.sets -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_start_disjoint() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.set_count(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already together
        assert_eq!(uf.set_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn chain_compresses() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        for i in 0..100 {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }

    /// Reference implementation: label array with brute-force relabeling.
    struct NaiveSets(Vec<usize>);
    impl NaiveSets {
        fn new(n: usize) -> Self {
            NaiveSets((0..n).collect())
        }
        fn union(&mut self, a: usize, b: usize) {
            let (la, lb) = (self.0[a], self.0[b]);
            if la != lb {
                for l in self.0.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        fn connected(&self, a: usize, b: usize) -> bool {
            self.0[a] == self.0[b]
        }
        fn set_count(&self) -> usize {
            let mut labels: Vec<_> = self.0.clone();
            labels.sort_unstable();
            labels.dedup();
            labels.len()
        }
    }

    proptest! {
        #[test]
        fn matches_naive_oracle(ops in proptest::collection::vec((0usize..20, 0usize..20), 0..60)) {
            let mut uf = UnionFind::new(20);
            let mut naive = NaiveSets::new(20);
            for (a, b) in ops {
                uf.union(a, b);
                naive.union(a, b);
            }
            prop_assert_eq!(uf.set_count(), naive.set_count());
            for a in 0..20 {
                for b in 0..20 {
                    prop_assert_eq!(uf.connected(a, b), naive.connected(a, b));
                }
            }
        }
    }
}
