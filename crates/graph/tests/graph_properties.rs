//! Property tests over graph construction and transforms.

use mpgraph_graph::edgelist::{self, ParseError, MAX_VERTICES};
use mpgraph_graph::{chung_lu, rmat, Csr, RmatConfig, VertexId};
use proptest::prelude::*;

/// Edge-list fragments, valid and not: ids at the vertex limit, huge and
/// negative numbers, weights, comments, junk bytes and line breaks.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "65535",
    "16777216",
    "4294967295",
    "4294967296",
    "-1",
    "2.5",
    "nan",
    "inf",
    "1e9",
    "#",
    "# c",
    " ",
    "\t",
    "\n",
    "\r\n",
    "x",
    "é",
    "\u{0}",
    "",
];

proptest! {
    #[test]
    fn transpose_is_an_involution(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..150)
    ) {
        let g = Csr::from_edges(40, &edges);
        let tt = g.transpose().transpose();
        for v in 0..40u32 {
            let mut a = g.neighbors(v).to_vec();
            let mut b = tt.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn transpose_preserves_edge_count(
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..120)
    ) {
        let g = Csr::from_edges(30, &edges);
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn symmetrize_is_idempotent(
        edges in prop::collection::vec((0u32..25, 0u32..25), 0..100)
    ) {
        let g = Csr::from_edges(25, &edges);
        let s1 = g.symmetrize();
        let s2 = s1.symmetrize();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn symmetrize_makes_degree_symmetric(
        edges in prop::collection::vec((0u32..20, 0u32..20), 0..80)
    ) {
        let g = Csr::from_edges(20, &edges).symmetrize();
        let t = g.transpose();
        for v in 0..20u32 {
            prop_assert_eq!(g.degree(v), t.degree(v));
        }
    }

    #[test]
    fn generators_respect_counts(scale in 4u32..9, edges in 10usize..500, seed in 0u64..50) {
        let g = rmat(RmatConfig::new(scale, edges, seed));
        prop_assert_eq!(g.num_vertices(), 1 << scale);
        prop_assert_eq!(g.num_edges(), edges);
        let c = chung_lu(1 << scale, edges, 2.3, seed);
        prop_assert_eq!(c.num_edges(), edges);
        for v in 0..g.num_vertices() as VertexId {
            for &d in g.neighbors(v) {
                prop_assert!((d as usize) < g.num_vertices());
            }
        }
    }

    /// Arbitrary text parses to a graph or a typed error: never a panic,
    /// and never an allocation sized by one huge vertex id.
    #[test]
    fn edge_list_parse_never_panics(picks in prop::collection::vec(0usize..64, 0..40)) {
        let text: String = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let sep = if i % 3 == 2 { "\n" } else { " " };
                format!("{}{sep}", TOKENS[p % TOKENS.len()])
            })
            .collect();
        match edgelist::parse(std::io::Cursor::new(text.as_bytes())) {
            Ok(g) => prop_assert!(g.num_vertices() <= MAX_VERTICES),
            Err(ParseError::TooManyVertices(_, n)) => prop_assert!(n > MAX_VERTICES),
            Err(_) => {}
        }
    }
}
