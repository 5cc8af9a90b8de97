//! Union–find (disjoint set) with path halving and union by size.
//!
//! Used by match clustering: every accepted match `(i, j)` unions the two
//! descriptions; the resulting components are the resolved entity clusters.

/// Disjoint-set forest over dense `u32` element ids.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets with ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
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

    /// Number of disjoint components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Finds the representative of `x`, halving the path on the way.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Read-only find (no path compression); useful behind shared references.
    pub fn find_immutable(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            x = p;
        }
    }

    /// Unions the sets of `a` and `b`. Returns `true` if they were disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups all elements by representative, returning clusters with ≥ `min`
    /// members, each sorted ascending. Cluster order is by smallest member.
    pub fn clusters(&mut self, min: usize) -> Vec<Vec<u32>> {
        let n = self.len();
        let mut by_root: crate::FxHashMap<u32, Vec<u32>> = crate::FxHashMap::default();
        for x in 0..n as u32 {
            by_root.entry(self.find(x)).or_default().push(x);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "each cluster and the list are sorted below"
        )]
        let mut out: Vec<Vec<u32>> = by_root.into_values().filter(|c| c.len() >= min).collect();
        for c in &mut out {
            c.sort_unstable();
        }
        out.sort_unstable_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the set containing `x`.
    fn set_size(uf: &mut UnionFind, x: u32) -> u32 {
        let r = uf.find(x);
        uf.size[r as usize]
    }

    #[test]
    fn singletons_are_disjoint() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.components(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(set_size(&mut uf, 2), 1);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.components(), 3);
        assert!(uf.connected(0, 2));
        assert_eq!(set_size(&mut uf, 1), 3);
    }

    #[test]
    fn clusters_filter_and_sort() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(3, 1);
        uf.union(0, 2);
        let clusters = uf.clusters(2);
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3, 5]]);
        let all = uf.clusters(1);
        assert_eq!(all.len(), 3); // {0,2}, {1,3,5}, {4}
    }

    #[test]
    fn find_immutable_matches_find() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 7);
        uf.union(7, 3);
        let r = uf.find(3);
        assert_eq!(uf.find_immutable(0), r);
        assert_eq!(uf.find_immutable(7), r);
    }

    #[test]
    fn transitive_chain_single_component() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), 1);
        assert_eq!(set_size(&mut uf, 50), 100);
    }
}
