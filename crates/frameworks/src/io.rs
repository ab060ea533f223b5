//! Trace persistence: a compact binary format (24 bytes/record, ~4× denser
//! than JSON) plus JSON via serde for interoperability. Lets expensive
//! trace generation be done once and shared across experiment runs — the
//! role ChampSim's `.trace.xz` files play in the paper's workflow.

use crate::trace::{MemRecord, Trace};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes + format version for the binary container.
const MAGIC: &[u8; 8] = b"MPGTRC02";

/// Upper bound on `Vec` capacity reserved from header-declared counts. The
/// header is untrusted input: a corrupt length must cost at most this many
/// reserved elements (the vector still grows to the true size on demand),
/// never an allocation sized by the lie itself.
const MAX_TRUSTED_CAPACITY: usize = 1 << 20;

/// FNV-1a over every byte after the magic; stored as the file trailer so a
/// flipped byte anywhere in the body is detected at load.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Writer adapter that folds everything written into the running checksum.
struct HashingWriter<'a, W: Write> {
    inner: &'a mut W,
    hash: Fnv1a,
}

impl<W: Write> Write for HashingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter mirroring [`HashingWriter`].
struct HashingReader<'a, R: Read> {
    inner: &'a mut R,
    hash: Fnv1a,
}

impl<R: Read> Read for HashingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

/// Errors from the trace container format.
#[derive(Debug)]
pub enum TraceIoError {
    Io(std::io::Error),
    BadMagic,
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "io error: {e}"),
            TraceIoError::BadMagic => write!(f, "not an mpgraph trace file"),
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceIoError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// True when `offsets` is non-decreasing and every entry is `< len`.
fn is_sorted_below(offsets: &[usize], len: usize) -> bool {
    offsets.windows(2).all(|w| w[0] <= w[1]) && offsets.last().is_none_or(|&o| o < len)
}

/// Writes a trace in the binary container format.
pub fn write_binary<W: Write>(trace: &Trace, w: &mut W) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;
    let mut hw = HashingWriter {
        inner: w,
        hash: Fnv1a::new(),
    };
    let w = &mut hw;
    w.write_all(&[trace.num_phases])?;
    write_u64(w, trace.records.len() as u64)?;
    write_u64(w, trace.transitions.len() as u64)?;
    write_u64(w, trace.iteration_starts.len() as u64)?;
    for &t in &trace.transitions {
        write_u64(w, t as u64)?;
    }
    for &t in &trace.iteration_starts {
        write_u64(w, t as u64)?;
    }
    for r in &trace.records {
        write_u64(w, r.pc)?;
        write_u64(w, r.vaddr)?;
        // Flags byte: bit0 write, bit1 dep; then core, phase, gap.
        let flags = (r.is_write as u8) | ((r.dep as u8) << 1);
        w.write_all(&[flags, r.core, r.phase, r.gap])?;
        // 4 bytes padding keeps records 24-byte aligned for mmap use.
        w.write_all(&[0u8; 4])?;
    }
    // Trailer: FNV-1a of everything after the magic.
    let checksum = hw.hash.0;
    write_u64(hw.inner, checksum)?;
    Ok(())
}

/// Reads a trace from the binary container format.
pub fn read_binary<R: Read>(r: &mut R) -> Result<Trace, TraceIoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let mut hr = HashingReader {
        inner: r,
        hash: Fnv1a::new(),
    };
    let r = &mut hr;
    let mut one = [0u8; 1];
    r.read_exact(&mut one)?;
    let num_phases = one[0];
    let n_records = read_u64(r)? as usize;
    let n_transitions = read_u64(r)? as usize;
    let n_iters = read_u64(r)? as usize;
    // Sanity bounds before allocating. These reject the obviously absurd;
    // the capped `with_capacity` below is what makes a lying-but-plausible
    // length cost a bounded reservation plus an EOF error, never an OOM.
    if n_records > 1 << 32 || n_transitions > n_records || n_iters > n_records + 1 {
        return Err(TraceIoError::Corrupt("implausible section sizes"));
    }
    let mut transitions = Vec::with_capacity(n_transitions.min(MAX_TRUSTED_CAPACITY));
    for _ in 0..n_transitions {
        transitions.push(read_u64(r)? as usize);
    }
    let mut iteration_starts = Vec::with_capacity(n_iters.min(MAX_TRUSTED_CAPACITY));
    for _ in 0..n_iters {
        iteration_starts.push(read_u64(r)? as usize);
    }
    let mut records = Vec::with_capacity(n_records.min(MAX_TRUSTED_CAPACITY));
    for _ in 0..n_records {
        let pc = read_u64(r)?;
        let vaddr = read_u64(r)?;
        let mut tail = [0u8; 8];
        r.read_exact(&mut tail)?;
        records.push(MemRecord {
            pc,
            vaddr,
            is_write: tail[0] & 1 != 0,
            dep: tail[0] & 2 != 0,
            core: tail[1],
            phase: tail[2],
            gap: tail[3],
        });
    }
    // Verify the trailer before trusting any of it.
    let computed = hr.hash.0;
    let stored = read_u64(hr.inner)?;
    if stored != computed {
        return Err(TraceIoError::Corrupt("checksum mismatch"));
    }
    // FNV is not a MAC: a file whose trailer was recomputed can still hold
    // any section values. Enforce what `TraceBuilder::finish` guarantees,
    // so consumers may index and split records by these offsets.
    if !is_sorted_below(&transitions, records.len()) {
        return Err(TraceIoError::Corrupt("transitions out of order or range"));
    }
    if !is_sorted_below(&iteration_starts, records.len()) {
        return Err(TraceIoError::Corrupt(
            "iteration starts out of order or range",
        ));
    }
    Ok(Trace {
        records,
        num_phases,
        transitions,
        iteration_starts,
    })
}

/// Saves a trace to `path` (binary container).
pub fn save<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceIoError> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    write_binary(trace, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Loads a trace from `path` (binary container).
pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace, TraceIoError> {
    let f = std::fs::File::open(path)?;
    read_binary(&mut BufReader::new(f))
}

/// Saves a trace as pretty JSON (interoperability / inspection).
pub fn save_json<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceIoError> {
    let json = serde_json::to_string(trace).expect("trace serializes");
    std::fs::write(path, json)?;
    Ok(())
}

/// Loads a trace from JSON.
pub fn load_json<P: AsRef<Path>>(path: P) -> Result<Trace, TraceIoError> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|_| TraceIoError::Corrupt("json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{generate_trace, Framework, TraceConfig};
    use crate::App;
    use mpgraph_graph::{rmat, RmatConfig};

    fn sample_trace() -> Trace {
        let g = rmat(RmatConfig::new(6, 400, 3));
        generate_trace(
            Framework::Gpop,
            App::Pr,
            &g,
            &TraceConfig {
                iterations: 2,
                record_limit: 50_000,
                ..TraceConfig::default()
            },
        )
        .trace
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.records, t.records);
        assert_eq!(back.transitions, t.transitions);
        assert_eq!(back.iteration_starts, t.iteration_starts);
        assert_eq!(back.num_phases, t.num_phases);
    }

    #[test]
    fn binary_is_compact() {
        let t = sample_trace();
        let mut bin = Vec::new();
        write_binary(&t, &mut bin).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            bin.len() * 3 < json.len(),
            "{} vs {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn rejects_wrong_magic() {
        let garbage = b"NOTATRACE_AT_ALL____".to_vec();
        match read_binary(&mut garbage.as_slice()) {
            Err(TraceIoError::BadMagic) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_binary(&mut buf.as_slice()).is_err());
    }

    fn tiny_trace() -> Trace {
        Trace {
            records: (0..300u64)
                .map(|i| MemRecord {
                    pc: 0x400000 + i,
                    vaddr: 0x1000 + i * 64,
                    core: (i % 4) as u8,
                    is_write: i % 7 == 0,
                    phase: (i % 3) as u8,
                    gap: 2,
                    dep: i % 5 == 0,
                })
                .collect(),
            num_phases: 3,
            transitions: vec![100, 200],
            iteration_starts: vec![0, 150],
        }
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let t = tiny_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        // Every sampled single-byte flip — header, counts, payload, or the
        // checksum trailer itself — must surface as an error, never as
        // silently different data and never as a panic or huge allocation.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                read_binary(&mut bad.as_slice()).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn lying_record_count_fails_fast_without_huge_allocation() {
        // A header claiming 2^31 records (plausible per the sanity bound)
        // over an empty body must fail with EOF after a bounded capacity
        // reservation — not attempt a ~50 GB Vec.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(1);
        buf.extend_from_slice(&(1u64 << 31).to_le_bytes()); // records
        buf.extend_from_slice(&0u64.to_le_bytes()); // transitions
        buf.extend_from_slice(&0u64.to_le_bytes()); // iteration starts
        assert!(read_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_implausible_sizes() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(2);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // records
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_binary(&mut buf.as_slice()) {
            Err(TraceIoError::Corrupt(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("mpgraph_trace_io");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.mpgtrc");
        save(&t, &p).unwrap();
        let back = load(&p).unwrap();
        assert_eq!(back.records.len(), t.records.len());
        let pj = dir.join("t.json");
        save_json(&t, &pj).unwrap();
        let back_json = load_json(&pj).unwrap();
        assert_eq!(back_json.records, t.records);
        std::fs::remove_file(p).ok();
        std::fs::remove_file(pj).ok();
    }

    #[test]
    fn dep_and_write_flags_survive() {
        let mut t = sample_trace();
        // Force known flag combos on the first records.
        t.records[0].dep = true;
        t.records[0].is_write = false;
        t.records[1].dep = true;
        t.records[1].is_write = true;
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert!(back.records[0].dep && !back.records[0].is_write);
        assert!(back.records[1].dep && back.records[1].is_write);
    }
}
