//! Graph serialization: Graphviz DOT export and the versioned binary
//! snapshot format ([`Snapshot`]) that makes million-router topologies
//! cheap to reload.

use crate::csr::CsrGraph;
use crate::graph::{EdgeId, Graph, NodeId};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::path::Path;

/// Renders the graph in Graphviz DOT format.
///
/// `node_attr` and `edge_attr` return raw DOT attribute strings (e.g.
/// `label="pop", shape=box`); return an empty string for no attributes.
pub fn to_dot<N, E>(
    g: &Graph<N, E>,
    mut node_attr: impl FnMut(NodeId, &N) -> String,
    mut edge_attr: impl FnMut(EdgeId, &E) -> String,
) -> String {
    let mut out = String::from("graph topology {\n");
    for v in g.node_ids() {
        let attrs = node_attr(v, g.node_weight(v));
        if attrs.is_empty() {
            let _ = writeln!(out, "  {};", v.index());
        } else {
            let _ = writeln!(out, "  {} [{}];", v.index(), attrs);
        }
    }
    for (e, a, b, w) in g.edges() {
        let attrs = edge_attr(e, w);
        if attrs.is_empty() {
            let _ = writeln!(out, "  {} -- {};", a.index(), b.index());
        } else {
            let _ = writeln!(out, "  {} -- {} [{}];", a.index(), b.index(), attrs);
        }
    }
    out.push_str("}\n");
    out
}

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HOTSNAP\0";

/// Current snapshot format version. Version 2 added the per-edge f64
/// column section (capacities, weights); version-1 files still load,
/// with no edge f64 columns.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Errors from [`Snapshot::save`] / [`Snapshot::load`].
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's version is not one this build can read.
    BadVersion(u32),
    /// Structural damage: truncated section, checksum mismatch,
    /// inconsistent lengths, or an invalid CSR.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {}", e),
            SnapshotError::BadMagic => write!(f, "not a HOTSNAP snapshot"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot version {} unsupported (max {})",
                    v, SNAPSHOT_VERSION
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {}", why),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit over a byte slice — the snapshot trailer checksum, and
/// the digest the full-scale report oracle pins.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A CSR topology plus named metadata columns, serializable as one
/// self-validating binary file.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic[8] = "HOTSNAP\0"
/// version: u32          n: u64            entries: u64
/// offsets: (n+1) × u32  targets: entries × u32  edge_ids: entries × u32
/// node u32 columns: count u32, then per column name_len u32 + name + n × u32
/// node f64 columns: same shape, n × f64 (bit patterns)
/// edge u32 columns: same shape, (entries/2) × u32
/// edge f64 columns: same shape, (entries/2) × f64 (version ≥ 2 only)
/// checksum: u64 = FNV-1a over every preceding byte
/// ```
///
/// Node columns hold one value per node; edge columns one value per
/// *edge* (half the adjacency entry count, indexed by `EdgeId`). f64
/// columns round-trip bit patterns, so reloading is byte-reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The topology.
    pub csr: CsrGraph,
    /// Named per-node u32 columns (e.g. roles, levels).
    pub node_u32: Vec<(String, Vec<u32>)>,
    /// Named per-node f64 columns (e.g. positions, masses).
    pub node_f64: Vec<(String, Vec<f64>)>,
    /// Named per-edge u32 columns (e.g. link classes).
    pub edge_u32: Vec<(String, Vec<u32>)>,
    /// Named per-edge f64 columns (e.g. capacities), indexed by
    /// `EdgeId` like the u32 edge columns. Absent in version-1 files.
    pub edge_f64: Vec<(String, Vec<f64>)>,
}

impl Snapshot {
    /// Wraps a bare topology with no metadata columns.
    pub fn new(csr: CsrGraph) -> Self {
        Snapshot {
            csr,
            node_u32: Vec::new(),
            node_f64: Vec::new(),
            edge_u32: Vec::new(),
            edge_f64: Vec::new(),
        }
    }

    /// Serializes to bytes (including the checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.csr.node_count();
        let entries = self.csr.targets().len();
        for (name, col) in &self.node_u32 {
            assert_eq!(col.len(), n, "node u32 column '{}' length", name);
        }
        for (name, col) in &self.node_f64 {
            assert_eq!(col.len(), n, "node f64 column '{}' length", name);
        }
        for (name, col) in &self.edge_u32 {
            assert_eq!(col.len(), entries / 2, "edge u32 column '{}' length", name);
        }
        for (name, col) in &self.edge_f64 {
            assert_eq!(col.len(), entries / 2, "edge f64 column '{}' length", name);
        }
        let mut out = Vec::with_capacity(64 + 4 * (n + 1) + 8 * entries);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(entries as u64).to_le_bytes());
        for &o in self.csr.offsets() {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for t in self.csr.targets() {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        for e in self.csr.edge_ids_raw() {
            out.extend_from_slice(&e.0.to_le_bytes());
        }
        let write_cols = |out: &mut Vec<u8>, cols: &[(String, Vec<u32>)]| {
            out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
            for (name, col) in cols {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                for &v in col {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        };
        write_cols(&mut out, &self.node_u32);
        out.extend_from_slice(&(self.node_f64.len() as u32).to_le_bytes());
        for (name, col) in &self.node_f64 {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            for &v in col {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        write_cols(&mut out, &self.edge_u32);
        out.extend_from_slice(&(self.edge_f64.len() as u32).to_le_bytes());
        for (name, col) in &self.edge_f64 {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            for &v in col {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses bytes produced by [`Snapshot::to_bytes`], verifying the
    /// checksum and every structural invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let corrupt = |why: &str| SnapshotError::Corrupt(why.to_string());
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 8 + 4 + 8 {
            return Err(corrupt("truncated header"));
        }
        let payload_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[payload_len..].try_into().unwrap());
        if fnv1a(&bytes[..payload_len]) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        let mut pos = 8usize;
        // Takes the next `count` items of `width` bytes. The sizes come
        // from the file, so the arithmetic is checked and the section is
        // bounded by the bytes present before anything is allocated.
        let take = |pos: &mut usize, count: usize, width: usize| -> Result<&[u8], SnapshotError> {
            match count.checked_mul(width).and_then(|k| pos.checked_add(k)) {
                Some(end) if end <= payload_len => {
                    let s = &bytes[*pos..end];
                    *pos = end;
                    Ok(s)
                }
                Some(_) => Err(corrupt("truncated section")),
                None => Err(corrupt("section size overflows")),
            }
        };
        let read_u32 = |pos: &mut usize| -> Result<u32, SnapshotError> {
            Ok(u32::from_le_bytes(take(pos, 1, 4)?.try_into().unwrap()))
        };
        let read_u64 = |pos: &mut usize| -> Result<u64, SnapshotError> {
            Ok(u64::from_le_bytes(take(pos, 1, 8)?.try_into().unwrap()))
        };
        let version = read_u32(&mut pos)?;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let n =
            usize::try_from(read_u64(&mut pos)?).map_err(|_| corrupt("node count overflows"))?;
        let entries =
            usize::try_from(read_u64(&mut pos)?).map_err(|_| corrupt("entry count overflows"))?;
        let read_u32_vec = |pos: &mut usize, k: usize| -> Result<Vec<u32>, SnapshotError> {
            let raw = take(pos, k, 4)?;
            Ok(raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        };
        let read_f64_vec = |pos: &mut usize, k: usize| -> Result<Vec<f64>, SnapshotError> {
            let raw = take(pos, k, 8)?;
            Ok(raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect())
        };
        let offset_count = n
            .checked_add(1)
            .ok_or_else(|| corrupt("node count overflows"))?;
        let offsets = read_u32_vec(&mut pos, offset_count)?;
        let targets: Vec<NodeId> = read_u32_vec(&mut pos, entries)?
            .into_iter()
            .map(NodeId)
            .collect();
        let edge_ids: Vec<EdgeId> = read_u32_vec(&mut pos, entries)?
            .into_iter()
            .map(EdgeId)
            .collect();
        let csr =
            CsrGraph::from_raw_parts(offsets, targets, edge_ids).map_err(SnapshotError::Corrupt)?;
        let read_name = |pos: &mut usize| -> Result<String, SnapshotError> {
            let len = read_u32(pos)? as usize;
            let raw = take(pos, len, 1)?;
            String::from_utf8(raw.to_vec())
                .map_err(|_| SnapshotError::Corrupt("non-UTF-8 column name".to_string()))
        };
        let mut node_u32 = Vec::new();
        for _ in 0..read_u32(&mut pos)? {
            let name = read_name(&mut pos)?;
            node_u32.push((name, read_u32_vec(&mut pos, n)?));
        }
        let mut node_f64 = Vec::new();
        for _ in 0..read_u32(&mut pos)? {
            let name = read_name(&mut pos)?;
            node_f64.push((name, read_f64_vec(&mut pos, n)?));
        }
        let mut edge_u32 = Vec::new();
        for _ in 0..read_u32(&mut pos)? {
            let name = read_name(&mut pos)?;
            edge_u32.push((name, read_u32_vec(&mut pos, entries / 2)?));
        }
        // Version 1 predates the edge f64 section; such files simply end
        // after the edge u32 columns.
        let mut edge_f64 = Vec::new();
        if version >= 2 {
            for _ in 0..read_u32(&mut pos)? {
                let name = read_name(&mut pos)?;
                edge_f64.push((name, read_f64_vec(&mut pos, entries / 2)?));
            }
        }
        if pos != payload_len {
            return Err(corrupt("trailing bytes after last section"));
        }
        Ok(Snapshot {
            csr,
            node_u32,
            node_f64,
            edge_u32,
            edge_f64,
        })
    }

    /// Writes the snapshot to `path` (atomically: temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn triangle() -> Graph<(), f64> {
        Graph::from_edges(3, vec![(0, 1, 1.5), (1, 2, 2.5), (0, 2, 3.5)])
    }

    #[test]
    fn dot_contains_all_elements() {
        let g = triangle();
        let dot = to_dot(&g, |_, _| String::new(), |_, w| format!("label=\"{}\"", w));
        assert!(dot.starts_with("graph topology {"));
        assert!(dot.contains("0 -- 1 [label=\"1.5\"];"));
        assert!(dot.contains("1 -- 2"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_node_attributes() {
        let mut g: Graph<&str, f64> = Graph::new();
        let a = g.add_node("core");
        let b = g.add_node("leaf");
        g.add_edge(a, b, 1.0);
        let dot = to_dot(&g, |_, w| format!("label=\"{}\"", w), |_, _| String::new());
        assert!(dot.contains("0 [label=\"core\"];"));
        assert!(dot.contains("1 [label=\"leaf\"];"));
        assert!(dot.contains("0 -- 1;"));
    }

    fn sample_snapshot() -> Snapshot {
        let g: Graph<(), ()> = Graph::from_edges(
            5,
            vec![(0, 1, ()), (1, 2, ()), (2, 3, ()), (3, 4, ()), (4, 0, ())],
        );
        let mut s = Snapshot::new(CsrGraph::from_graph(&g));
        s.node_u32.push(("role".into(), vec![0, 1, 1, 2, 2]));
        s.node_f64
            .push(("pos_x".into(), vec![0.0, 1.5, -2.25, f64::MAX, 1e-300]));
        s.edge_u32.push(("class".into(), vec![9, 8, 7, 6, 5]));
        s.edge_f64
            .push(("capacity".into(), vec![45.0, 155.0, 622.0, 2488.0, 9953.0]));
        s
    }

    /// `bytes` with its checksum trailer recomputed, so a forged or
    /// mutated payload reaches the structural checks.
    fn resigned(mut bytes: Vec<u8>) -> Vec<u8> {
        let len = bytes.len() - 8;
        let sum = super::fnv1a(&bytes[..len]);
        bytes[len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Version-1 files (no edge f64 section) still load, with
    /// `edge_f64` empty. Built by stripping the (empty) edge f64
    /// section from a version-2 serialization and re-stamping
    /// version + checksum.
    #[test]
    fn snapshot_reads_version_1() {
        let mut s = sample_snapshot();
        s.edge_f64.clear();
        let v2 = s.to_bytes();
        // Drop the 4-byte zero edge-f64 count and the 8-byte checksum.
        let mut v1 = v2[..v2.len() - 12].to_vec();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let sum = super::fnv1a(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        let back = Snapshot::from_bytes(&v1).unwrap();
        assert_eq!(back, s);
        // Re-saving writes the current version, not the one read.
        assert_eq!(back.to_bytes(), v2);
    }

    #[test]
    fn snapshot_bytes_roundtrip() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        // Re-serialization is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let dir = std::env::temp_dir().join("hotsnap-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.snap");
        let s = sample_snapshot();
        s.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_empty_graph_roundtrip() {
        let g: Graph<(), ()> = Graph::new();
        let s = Snapshot::new(CsrGraph::from_graph(&g));
        let back = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.csr.node_count(), 0);
    }

    #[test]
    fn snapshot_rejects_damage() {
        let s = sample_snapshot();
        let good = s.to_bytes();

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // Future version (checksum recomputed so only the version trips).
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&resigned(bad)),
            Err(SnapshotError::BadVersion(99))
        ));

        // Forged, validly signed headers whose sizes overflow: the node
        // count `n` sits at bytes 12..20, the entry count at 20..28.
        for (at, forged) in [(12, u64::MAX), (12, 1u64 << 62), (20, u64::MAX)] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(
                    Snapshot::from_bytes(&resigned(bad)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "header field at {} forged to {}",
                at,
                forged
            );
        }

        // Single flipped payload byte -> checksum mismatch.
        let mut bad = good.clone();
        bad[40] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::Corrupt(_))
        ));

        // Truncation.
        assert!(matches!(
            Snapshot::from_bytes(&good[..good.len() - 9]),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Snapshot::from_bytes(&good[..4]),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    #[should_panic(expected = "column 'role' length")]
    fn snapshot_checks_column_lengths() {
        let mut s = sample_snapshot();
        s.node_u32[0].1.pop();
        s.to_bytes();
    }

    /// Size fields worth forging: overflowing, wrapping and merely
    /// oversized counts.
    const HOSTILE: [u64; 6] = [
        u64::MAX,
        1 << 62,
        (1 << 62) + 1,
        1 << 32,
        u32::MAX as u64,
        0,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Flipped, truncated, extended or forged payloads, re-signed so
        /// the checksum passes, decode to an error or to a snapshot that
        /// re-serializes to the same bytes and that edge-indexed kernels
        /// accept; they never panic.
        #[test]
        fn snapshot_mutations_never_panic(
            op in 0usize..5,
            at in 0usize..4096,
            value in 0usize..256,
            extra in proptest::collection::vec(0usize..256, 1..24),
        ) {
            let sample = sample_snapshot();
            let good = sample.to_bytes();
            let body = good.len() - 8;
            let mut bytes = good[..body].to_vec();
            match op {
                0 => bytes[at % body] ^= value.max(1) as u8,
                1 => bytes.truncate(at % body),
                2 => {
                    let i = at % (body + 1);
                    bytes.splice(i..i, extra.iter().map(|&b| b as u8));
                }
                3 => {
                    let i = at % (body - 7);
                    let forged = HOSTILE[value % HOSTILE.len()];
                    bytes[i..i + 8].copy_from_slice(&forged.to_le_bytes());
                }
                _ => {
                    // An edge id at or past the edge count, in an
                    // otherwise intact CSR. The edge-id section follows
                    // the 28-byte header, the offsets and the targets.
                    let entries = sample.csr.targets().len();
                    let i = 28 + 4 * (sample.csr.node_count() + 1) + 4 * (entries + at % entries);
                    let forged = (entries / 2 + value) as u32;
                    bytes[i..i + 4].copy_from_slice(&forged.to_le_bytes());
                }
            }
            bytes.extend_from_slice(&[0; 8]);
            let bytes = resigned(bytes);
            if let Ok(s) = Snapshot::from_bytes(&bytes) {
                // Version 1 re-serializes as the current version.
                if bytes[8..12] == SNAPSHOT_VERSION.to_le_bytes() {
                    proptest::prop_assert_eq!(s.to_bytes(), bytes);
                }
                let (masked, _) = s.csr.edge_masked(&vec![true; s.csr.edge_count()]);
                proptest::prop_assert_eq!(masked, s.csr);
            }
        }
    }
}
