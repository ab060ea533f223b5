//! Plain-text edge-list I/O in the SNAP export format: one `src dst` (or
//! `src dst weight`) pair per line, `#`-prefixed comment lines ignored.
//! Lets users run the full pipeline on real SNAP downloads when available.

use crate::{Csr, VertexId};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Largest vertex count [`parse`] accepts: 2^24, about 3.5× the largest
/// Table 2 graph (soc-LiveJournal, 4,847,571 vertices). The CSR allocates
/// per vertex, so one stray huge id must not ask for gigabytes.
pub const MAX_VERTICES: usize = 1 << 24;

/// Parse errors for the edge-list format.
#[derive(Debug)]
pub enum ParseError {
    Io(std::io::Error),
    /// (line number, contents) of the malformed line.
    Malformed(usize, String),
    /// (line number, vertex count the line implies) beyond [`MAX_VERTICES`].
    TooManyVertices(usize, usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed(n, l) => write!(f, "malformed edge at line {n}: {l:?}"),
            ParseError::TooManyVertices(n, v) => write!(
                f,
                "line {n} implies {v} vertices, more than the {MAX_VERTICES} supported"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses an edge list from any reader. Vertex count is `max id + 1`.
pub fn parse<R: BufRead>(reader: R) -> Result<Csr, ParseError> {
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut max_id: VertexId = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (Some(s), Some(d)) = (it.next(), it.next()) else {
            return Err(ParseError::Malformed(idx + 1, line.clone()));
        };
        let w = it.next();
        let src: VertexId = s
            .parse()
            .map_err(|_| ParseError::Malformed(idx + 1, line.clone()))?;
        let dst: VertexId = d
            .parse()
            .map_err(|_| ParseError::Malformed(idx + 1, line.clone()))?;
        let weight: f32 = match w {
            Some(w) => w
                .parse()
                .map_err(|_| ParseError::Malformed(idx + 1, line.clone()))?,
            None => 1.0,
        };
        max_id = max_id.max(src).max(dst);
        if max_id as usize >= MAX_VERTICES {
            return Err(ParseError::TooManyVertices(idx + 1, max_id as usize + 1));
        }
        edges.push((src, dst, weight));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    Ok(Csr::from_weighted_edges(n, &edges))
}

/// Reads an edge-list file from disk.
pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Csr, ParseError> {
    let f = std::fs::File::open(path)?;
    parse(std::io::BufReader::new(f))
}

/// Writes a CSR back out as an edge list (weights included when ≠ 1).
pub fn write_file<P: AsRef<Path>>(g: &Csr, path: P) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    writeln!(w, "# mpgraph edge list: {} vertices", g.num_vertices())?;
    for v in 0..g.num_vertices() as VertexId {
        for (u, wt) in g.neighbors_weighted(v) {
            if wt == 1.0 {
                writeln!(w, "{v} {u}")?;
            } else {
                writeln!(w, "{v} {u} {wt}")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_snap_style_input() {
        let text = "# Directed graph\n# Nodes: 3 Edges: 3\n0 1\n1 2\n2 0\n";
        let g = parse(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn rejects_a_vertex_id_past_the_limit() {
        // One line used to make the CSR ask for 34 GB and abort.
        let err = parse(Cursor::new("4294967295 0\n")).unwrap_err();
        assert!(matches!(err, ParseError::TooManyVertices(1, 4_294_967_296)));
        let over = format!("0 1\n{MAX_VERTICES} 0\n");
        assert!(matches!(
            parse(Cursor::new(over)).unwrap_err(),
            ParseError::TooManyVertices(2, _)
        ));
    }

    #[test]
    fn parses_weights() {
        let g = parse(Cursor::new("0 1 2.5\n1 0 0.5\n")).unwrap();
        let w: Vec<f32> = g.neighbors_weighted(0).map(|(_, w)| w).collect();
        assert_eq!(w, vec![2.5]);
    }

    #[test]
    fn rejects_malformed_line() {
        let err = parse(Cursor::new("0 1\nnot-an-edge\n")).unwrap_err();
        match err {
            ParseError::Malformed(2, _) => {}
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn rejects_lonely_vertex() {
        assert!(parse(Cursor::new("42\n")).is_err());
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse(Cursor::new("# only comments\n\n")).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn roundtrip_through_file() {
        let g = crate::rmat(crate::RmatConfig::new(6, 200, 77));
        let dir = std::env::temp_dir().join("mpgraph_edgelist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.el");
        write_file(&g, &path).unwrap();
        let back = read_file(&path).unwrap();
        // Vertex count may shrink if trailing ids are isolated; compare edges
        // via sorted tuples.
        let collect = |g: &Csr| {
            let mut v: Vec<(VertexId, VertexId)> = (0..g.num_vertices() as VertexId)
                .flat_map(|s| g.neighbors(s).iter().map(move |&d| (s, d)))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(collect(&g), collect(&back));
    }
}
