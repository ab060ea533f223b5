//! Compressed Sparse Row graph representation.
//!
//! CSR is the storage layout used by GPOP, X-Stream and PowerGraph alike: an
//! `offsets` array of length `n + 1` and a flat `edges` array holding the
//! neighbor lists back to back. Accessing `neighbors(v)` therefore touches
//! `offsets[v]`, `offsets[v+1]`, and a contiguous slice of `edges` — exactly
//! the two-level indirection pattern whose page-jump behaviour Figure 3 of
//! the paper illustrates.

use crate::VertexId;

/// An immutable directed graph in CSR form, with optional edge weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` is the slice of `edges` holding `v`'s
    /// out-neighbors. Length `num_vertices + 1`.
    offsets: Vec<u64>,
    /// Flat destination array.
    edges: Vec<VertexId>,
    /// Per-edge weights, parallel to `edges` (used by SSSP). `1.0` when the
    /// source data is unweighted.
    weights: Vec<f32>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge list. Self-loops are kept;
    /// duplicate edges are kept (they exist in the SNAP exports too).
    pub fn from_edges(num_vertices: usize, edge_list: &[(VertexId, VertexId)]) -> Self {
        let weighted: Vec<(VertexId, VertexId, f32)> =
            edge_list.iter().map(|&(s, d)| (s, d, 1.0)).collect();
        Self::from_weighted_edges(num_vertices, &weighted)
    }

    /// Builds a CSR from an unsorted weighted edge list using a two-pass
    /// counting sort, which is O(V + E) and allocation-exact.
    pub fn from_weighted_edges(
        num_vertices: usize,
        edge_list: &[(VertexId, VertexId, f32)],
    ) -> Self {
        let mut offsets = vec![0u64; num_vertices + 1];
        for &(src, dst, _) in edge_list {
            assert!(
                (src as usize) < num_vertices && (dst as usize) < num_vertices,
                "edge ({src}, {dst}) out of range for {num_vertices} vertices"
            );
            offsets[src as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let mut edges = vec![0 as VertexId; edge_list.len()];
        let mut weights = vec![0.0f32; edge_list.len()];
        let mut cursor = offsets.clone();
        for &(src, dst, w) in edge_list {
            let slot = cursor[src as usize] as usize;
            edges[slot] = dst;
            weights[slot] = w;
            cursor[src as usize] += 1;
        }
        Csr {
            offsets,
            edges,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Out-neighbors of `v` together with edge weights.
    #[inline]
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.edges[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Raw offsets array (the frameworks need the base pointers to model the
    /// virtual addresses of `offsets[v]` touches).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw edge array.
    #[inline]
    pub fn edges(&self) -> &[VertexId] {
        &self.edges
    }

    /// Edge index range of `v` within the flat edge array.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Returns the transpose graph (in-edges become out-edges). PowerGraph's
    /// Gather phase and PageRank pull-style iterations need it.
    pub fn transpose(&self) -> Csr {
        let mut rev: Vec<(VertexId, VertexId, f32)> = Vec::with_capacity(self.num_edges());
        for v in 0..self.num_vertices() as VertexId {
            for (i, &dst) in self.neighbors(v).iter().enumerate() {
                let w = self.weights[self.offsets[v as usize] as usize + i];
                rev.push((dst, v, w));
            }
        }
        Csr::from_weighted_edges(self.num_vertices(), &rev)
    }

    /// Returns an undirected (symmetrized, deduplicated) version. Triangle
    /// counting operates on the undirected graph.
    pub fn symmetrize(&self) -> Csr {
        let mut both: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.num_edges() * 2);
        for v in 0..self.num_vertices() as VertexId {
            for &dst in self.neighbors(v) {
                if v != dst {
                    both.push((v, dst));
                    both.push((dst, v));
                }
            }
        }
        both.sort_unstable();
        both.dedup();
        Csr::from_edges(self.num_vertices(), &both)
    }

    /// Degree distribution summary, used to validate the synthetic stand-ins
    /// against the character of their SNAP originals.
    pub fn degree_stats(&self) -> DegreeStats {
        let n = self.num_vertices();
        if n == 0 {
            return DegreeStats::default();
        }
        let mut degrees: Vec<usize> = (0..n as VertexId).map(|v| self.degree(v)).collect();
        degrees.sort_unstable();
        let sum: usize = degrees.iter().sum();
        let mean = sum as f64 / n as f64;
        let var = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        DegreeStats {
            min: degrees[0],
            max: degrees[n - 1],
            mean,
            median: degrees[n / 2],
            std_dev: var.sqrt(),
            zero_degree: degrees.iter().take_while(|&&d| d == 0).count(),
        }
    }
}

/// Summary statistics of an out-degree distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    pub median: usize,
    pub std_dev: f64,
    /// Count of isolated (zero out-degree) vertices.
    pub zero_degree: usize,
}

/// Incremental CSR builder for generators that stream edges.
#[derive(Debug, Default)]
pub struct CsrBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, f32)>,
}

impl CsrBuilder {
    pub fn new(num_vertices: usize) -> Self {
        CsrBuilder {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Pre-reserves capacity for `n` edges.
    pub fn with_edge_capacity(num_vertices: usize, n: usize) -> Self {
        CsrBuilder {
            num_vertices,
            edges: Vec::with_capacity(n),
        }
    }

    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push((src, dst, 1.0));
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn build(self) -> Csr {
        Csr::from_weighted_edges(self.num_vertices, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_builds_correct_adjacency() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn degrees_match_neighbor_lengths() {
        let g = diamond();
        for v in 0..4 {
            assert_eq!(g.degree(v), g.neighbors(v).len());
        }
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        // Transposing twice returns the original adjacency (possibly
        // reordered within a neighbor list, so compare sorted).
        let tt = t.transpose();
        for v in 0..4 {
            let mut a = g.neighbors(v).to_vec();
            let mut b = tt.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn symmetrize_makes_undirected_and_dedups() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        let u = g.symmetrize();
        assert_eq!(u.neighbors(0), &[1]);
        assert_eq!(u.neighbors(1), &[0, 2]);
        assert_eq!(u.neighbors(2), &[1]); // self-loop dropped
        assert_eq!(u.num_edges(), 4);
    }

    #[test]
    fn weighted_edges_preserved() {
        let g = Csr::from_weighted_edges(2, &[(0, 1, 2.5), (0, 1, 0.5)]);
        let ws: Vec<f32> = g.neighbors_weighted(0).map(|(_, w)| w).collect();
        assert_eq!(ws, vec![2.5, 0.5]);
    }

    #[test]
    fn degree_stats_on_star() {
        // Star: center 0 points at 1..=4.
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = g.degree_stats();
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 0);
        assert!((s.mean - 0.8).abs() < 1e-12);
        assert_eq!(s.zero_degree, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn builder_matches_direct_construction() {
        let mut b = CsrBuilder::with_edge_capacity(4, 4);
        for &(s, d) in &[(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(s, d);
        }
        assert_eq!(b.num_edges(), 4);
        assert_eq!(b.build(), diamond());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree_stats(), DegreeStats::default());
    }
}
