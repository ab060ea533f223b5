//! Memory-trace machinery: records, virtual address-space layout, synthetic
//! program counters, per-core recording, and multi-core interleaving.
//!
//! The paper extracts traces with Intel Pin from real executions on 4 cores
//! and feeds them through ChampSim. Our substitution runs the actual graph
//! algorithms in Rust and logs every *modelled* memory touch with a virtual
//! address computed from the data-structure layout and a synthetic PC per
//! code site. What must be preserved for the downstream ML models is:
//!
//! * distinct access patterns per phase (drives phase-specific models),
//! * PC values clustering by phase (drives the PC-based transition
//!   detectors, cf. Figure 2b),
//! * wide page jumps from irregular neighbor access (Figure 3),
//! * interleaved multi-core streams with irregular relative progress.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Cache block size in bytes (matches Table 3 / common x86).
pub const BLOCK_SIZE: u64 = 64;
/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Blocks per page (the spatial range of the delta predictor).
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;

/// One recorded memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRecord {
    /// Synthetic program counter of the instruction.
    pub pc: u64,
    /// Virtual byte address touched.
    pub vaddr: u64,
    /// Logical core (0..num_cores).
    pub core: u8,
    /// Store (true) vs load (false).
    pub is_write: bool,
    /// Ground-truth phase index within the framework's iteration (used for
    /// supervised detector training and for evaluation only — the online
    /// prefetcher never sees it).
    pub phase: u8,
    /// Number of non-memory instructions retired before this access; the
    /// simulator charges them to the front end when computing IPC.
    pub gap: u8,
    /// True when the access address *depends on the data of the previous
    /// load* on this core (e.g. `values[dst]` where `dst` was just loaded
    /// from the edge array). Dependent loads cannot overlap with their
    /// producer — the indirection chains that make graph analytics
    /// latency-bound and prefetching valuable.
    pub dep: bool,
}

impl MemRecord {
    /// Block address (vaddr / 64).
    #[inline]
    pub fn block(&self) -> u64 {
        self.vaddr / BLOCK_SIZE
    }

    /// Page number (vaddr / 4096).
    #[inline]
    pub fn page(&self) -> u64 {
        self.vaddr / PAGE_SIZE
    }

    /// Block offset within the page (0..64).
    #[inline]
    pub fn page_offset(&self) -> u64 {
        (self.vaddr % PAGE_SIZE) / BLOCK_SIZE
    }
}

/// A complete interleaved trace for one application execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    pub records: Vec<MemRecord>,
    /// Number of phases per iteration for the generating framework.
    pub num_phases: u8,
    /// Record indices at which the ground-truth phase changes (the first
    /// record of each new phase, excluding index 0).
    pub transitions: Vec<usize>,
    /// Record index where each iteration begins (index 0 included).
    pub iteration_starts: Vec<usize>,
}

impl Trace {
    /// Total instruction count modelled by the trace (memory + gaps).
    pub fn instruction_count(&self) -> u64 {
        self.records.iter().map(|r| 1 + r.gap as u64).sum()
    }

    /// Slice of records belonging to iteration `i`.
    pub fn iteration(&self, i: usize) -> &[MemRecord] {
        let lo = self.iteration_starts[i];
        let hi = self
            .iteration_starts
            .get(i + 1)
            .copied()
            .unwrap_or(self.records.len());
        &self.records[lo..hi]
    }

    pub fn num_iterations(&self) -> usize {
        self.iteration_starts.len()
    }

    /// Recomputes `transitions` from the per-record phase labels. Useful
    /// after slicing or concatenating traces.
    pub fn recompute_transitions(&mut self) {
        self.transitions.clear();
        for i in 1..self.records.len() {
            if self.records[i].phase != self.records[i - 1].phase {
                self.transitions.push(i);
            }
        }
    }
}

/// Lays out named arrays in a synthetic virtual address space. Regions are
/// page-aligned and separated by an unmapped guard gap so distinct arrays
/// never share a page — as the loader/allocator of a real framework would
/// arrange for large allocations.
#[derive(Debug, Default)]
pub struct AddressSpace {
    next: u64,
    regions: Vec<(String, u64, u64)>, // (name, base, len)
}

impl AddressSpace {
    /// Region alignment (2 MiB, the typical huge-page / mmap granularity).
    const REGION_ALIGN: u64 = 2 * 1024 * 1024;
    /// Bottom of the modelled heap.
    const HEAP_BASE: u64 = 0x10_0000_0000;

    pub fn new() -> Self {
        AddressSpace {
            next: Self::HEAP_BASE,
            regions: Vec::new(),
        }
    }

    /// Allocates a region for `count` elements of `elem_size` bytes and
    /// returns its base address.
    pub fn alloc(&mut self, name: &str, count: usize, elem_size: usize) -> u64 {
        let len = (count.max(1) * elem_size) as u64;
        let base = self.next;
        self.regions.push((name.to_string(), base, len));
        let end = base + len;
        self.next = (end + Self::REGION_ALIGN) & !(Self::REGION_ALIGN - 1);
        base
    }

    /// Named regions allocated so far: (name, base, byte length).
    pub fn regions(&self) -> &[(String, u64, u64)] {
        &self.regions
    }

    /// Returns the region containing `vaddr`, if any.
    pub fn region_of(&self, vaddr: u64) -> Option<&str> {
        self.regions
            .iter()
            .find(|(_, base, len)| vaddr >= *base && vaddr < base + len)
            .map(|(n, _, _)| n.as_str())
    }
}

/// Assigns synthetic PCs. Each (phase, site) pair maps to a fixed PC inside
/// a phase-specific 4 KiB code page, so PCs cluster by phase exactly as
/// Figure 2b shows for the real frameworks. All cores execute the same code,
/// hence share PCs — as real threads do.
#[derive(Debug, Clone, Copy)]
pub struct PcMap {
    base: u64,
}

impl PcMap {
    /// `framework_id` separates the code regions of the three frameworks.
    pub fn new(framework_id: u8) -> Self {
        PcMap {
            base: 0x40_0000 + ((framework_id as u64) << 20),
        }
    }

    /// PC of instruction `site` inside `phase`'s code page.
    #[inline]
    pub fn pc(&self, phase: u8, site: u32) -> u64 {
        self.base + ((phase as u64) << 12) + (site as u64) * 4
    }
}

/// Per-core record buffer used while one phase executes.
#[derive(Debug)]
pub struct PhaseRecorder {
    pub buffers: Vec<Vec<MemRecord>>,
    phase: u8,
    gap_state: u32,
}

impl PhaseRecorder {
    pub fn new(num_cores: usize, phase: u8) -> Self {
        PhaseRecorder {
            buffers: vec![Vec::new(); num_cores],
            phase,
            gap_state: 0x9E37_79B9,
        }
    }

    /// Logs one access on `core`. The gap (non-memory instructions) is a
    /// small deterministic pseudo-random value in 1..=6, standing in for the
    /// arithmetic between loads in real graph kernels.
    #[inline]
    pub fn log(&mut self, core: usize, pc: u64, vaddr: u64, is_write: bool) {
        self.log_impl(core, pc, vaddr, is_write, false);
    }

    /// Logs an access whose address was computed from the previous load's
    /// data (an indirection, serialized by the simulator's core model).
    #[inline]
    pub fn log_dep(&mut self, core: usize, pc: u64, vaddr: u64, is_write: bool) {
        self.log_impl(core, pc, vaddr, is_write, true);
    }

    #[inline]
    fn log_impl(&mut self, core: usize, pc: u64, vaddr: u64, is_write: bool, dep: bool) {
        // xorshift for a cheap deterministic gap sequence.
        self.gap_state ^= self.gap_state << 13;
        self.gap_state ^= self.gap_state >> 17;
        self.gap_state ^= self.gap_state << 5;
        let gap = 1 + (self.gap_state % 6) as u8;
        self.buffers[core].push(MemRecord {
            pc,
            vaddr,
            core: core as u8,
            is_write,
            phase: self.phase,
            gap,
            dep,
        });
    }
}

/// Interleaves per-core buffers of one phase into a single stream, modelling
/// parallel execution: at every step a core is chosen with a probability
/// proportional to a per-core rate that drifts over time, producing bursts
/// and irregular relative progress rather than strict round-robin.
pub fn interleave_phase(rec: PhaseRecorder, rng: &mut ChaCha8Rng, out: &mut Vec<MemRecord>) {
    let mut cursors: Vec<usize> = vec![0; rec.buffers.len()];
    let mut rates: Vec<f64> = vec![1.0; rec.buffers.len()];
    let total: usize = rec.buffers.iter().map(|b| b.len()).sum();
    out.reserve(total);
    let mut remaining = total;
    while remaining > 0 {
        // Occasionally drift rates to model OS scheduling noise.
        if remaining.is_multiple_of(64) {
            for r in rates.iter_mut() {
                *r = (*r * 0.9 + rng.gen::<f64>() * 0.6).clamp(0.2, 2.0);
            }
        }
        let weight_sum: f64 = rec
            .buffers
            .iter()
            .enumerate()
            .filter(|(c, b)| cursors[*c] < b.len())
            .map(|(c, _)| rates[c])
            .sum();
        let mut pick = rng.gen::<f64>() * weight_sum;
        let mut chosen = usize::MAX;
        for (c, b) in rec.buffers.iter().enumerate() {
            if cursors[c] >= b.len() {
                continue;
            }
            pick -= rates[c];
            if pick <= 0.0 {
                chosen = c;
                break;
            }
        }
        if chosen == usize::MAX {
            // Floating-point slack: take the last non-exhausted core.
            // `remaining > 0` guarantees one exists; bail out defensively
            // rather than panic if the invariant is ever violated.
            match rec
                .buffers
                .iter()
                .enumerate()
                .rfind(|(c, b)| cursors[*c] < b.len())
            {
                Some((c, _)) => chosen = c,
                None => break,
            }
        }
        // Emit a small burst from the chosen core: threads run many
        // instructions between context interleavings.
        let burst = 4 + (rng.gen::<u32>() % 12) as usize;
        let b = &rec.buffers[chosen];
        let take = burst.min(b.len() - cursors[chosen]);
        out.extend_from_slice(&b[cursors[chosen]..cursors[chosen] + take]);
        cursors[chosen] += take;
        remaining -= take;
    }
}

/// Accumulates interleaved phases into a [`Trace`], maintaining transition
/// and iteration bookkeeping.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    rng: ChaCha8Rng,
    num_cores: usize,
    /// Hard cap on recorded accesses; generation stops once reached.
    pub record_limit: usize,
}

impl TraceBuilder {
    pub fn new(num_phases: u8, num_cores: usize, seed: u64, record_limit: usize) -> Self {
        TraceBuilder {
            trace: Trace {
                records: Vec::new(),
                num_phases,
                transitions: Vec::new(),
                iteration_starts: Vec::new(),
            },
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE_5EED),
            num_cores,
            record_limit,
        }
    }

    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    pub fn begin_iteration(&mut self) {
        self.trace.iteration_starts.push(self.trace.records.len());
    }

    /// Starts a phase recorder for phase `phase`.
    pub fn phase(&mut self, phase: u8) -> PhaseRecorder {
        PhaseRecorder::new(self.num_cores, phase)
    }

    /// Interleaves and appends one finished phase.
    pub fn commit_phase(&mut self, rec: PhaseRecorder) {
        let start = self.trace.records.len();
        if start > 0 && !rec.buffers.iter().all(|b| b.is_empty()) {
            let prev_phase = self.trace.records[start - 1].phase;
            if prev_phase != rec.phase {
                self.trace.transitions.push(start);
            }
        }
        interleave_phase(rec, &mut self.rng, &mut self.trace.records);
        if self.trace.records.len() > self.record_limit {
            self.trace.records.truncate(self.record_limit);
        }
    }

    pub fn is_full(&self) -> bool {
        self.trace.records.len() >= self.record_limit
    }

    pub fn finish(mut self) -> Trace {
        // Drop bookkeeping that points past the truncated end.
        let n = self.trace.records.len();
        self.trace.transitions.retain(|&t| t < n);
        self.trace.iteration_starts.retain(|&t| t < n);
        if self.trace.iteration_starts.is_empty() && n > 0 {
            self.trace.iteration_starts.push(0);
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_address_decomposition() {
        let r = MemRecord {
            pc: 0,
            vaddr: 0x1234_5678,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 3,
            dep: false,
        };
        assert_eq!(r.block(), 0x1234_5678 / 64);
        assert_eq!(r.page(), 0x1234_5678 / 4096);
        assert_eq!(r.page_offset(), (0x1234_5678 % 4096) / 64);
        assert!(r.page_offset() < BLOCKS_PER_PAGE);
    }

    #[test]
    fn address_space_regions_are_disjoint_and_page_aligned() {
        let mut a = AddressSpace::new();
        let b1 = a.alloc("values", 1000, 4);
        let b2 = a.alloc("edges", 5000, 4);
        assert_eq!(b1 % PAGE_SIZE, 0);
        assert_eq!(b2 % PAGE_SIZE, 0);
        assert!(b2 >= b1 + 4000);
        assert_eq!(a.region_of(b1), Some("values"));
        assert_eq!(a.region_of(b1 + 3999), Some("values"));
        assert_eq!(a.region_of(b1 + 4000), None);
        assert_eq!(a.region_of(b2 + 1), Some("edges"));
    }

    #[test]
    fn pcs_cluster_by_phase() {
        let m = PcMap::new(0);
        // All phase-0 sites live in one 4 KiB page, disjoint from phase 1's.
        let p0 = m.pc(0, 0) / PAGE_SIZE;
        assert_eq!(m.pc(0, 100) / PAGE_SIZE, p0);
        let p1 = m.pc(1, 0) / PAGE_SIZE;
        assert_ne!(p0, p1);
        assert_eq!(m.pc(1, 100) / PAGE_SIZE, p1);
    }

    #[test]
    fn pc_maps_of_frameworks_are_disjoint() {
        let a = PcMap::new(0).pc(0, 0);
        let b = PcMap::new(1).pc(0, 0);
        let c = PcMap::new(2).pc(0, 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn interleave_preserves_per_core_order_and_count() {
        let mut rec = PhaseRecorder::new(3, 0);
        for core in 0..3usize {
            for i in 0..200u64 {
                rec.log(core, 0x400000, ((core as u64) << 32) | (i * 64), false);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut out = Vec::new();
        interleave_phase(rec, &mut rng, &mut out);
        assert_eq!(out.len(), 600);
        for core in 0..3u8 {
            let addrs: Vec<u64> = out
                .iter()
                .filter(|r| r.core == core)
                .map(|r| r.vaddr)
                .collect();
            assert_eq!(addrs.len(), 200);
            assert!(addrs.windows(2).all(|w| w[0] < w[1]), "core order broken");
        }
        // Actually interleaved, not concatenated.
        let first_200_cores: std::collections::HashSet<u8> =
            out[..200].iter().map(|r| r.core).collect();
        assert!(first_200_cores.len() > 1);
    }

    #[test]
    fn builder_tracks_transitions_and_iterations() {
        let mut tb = TraceBuilder::new(2, 2, 9, usize::MAX);
        for _iter in 0..2 {
            tb.begin_iteration();
            for phase in 0..2u8 {
                let mut rec = tb.phase(phase);
                for core in 0..2 {
                    for i in 0..10u64 {
                        rec.log(core, 0x400000 + phase as u64, i * 64, false);
                    }
                }
                tb.commit_phase(rec);
            }
        }
        let t = tb.finish();
        assert_eq!(t.records.len(), 80);
        assert_eq!(t.transitions, vec![20, 40, 60]);
        assert_eq!(t.iteration_starts, vec![0, 40]);
        assert_eq!(t.num_iterations(), 2);
        assert_eq!(t.iteration(0).len(), 40);
        assert_eq!(t.iteration(1).len(), 40);
        let mut t2 = t.clone();
        t2.recompute_transitions();
        assert_eq!(t2.transitions, t.transitions);
    }

    #[test]
    fn record_limit_truncates() {
        let mut tb = TraceBuilder::new(1, 1, 0, 15);
        tb.begin_iteration();
        let mut rec = tb.phase(0);
        for i in 0..100u64 {
            rec.log(0, 0x400000, i * 64, false);
        }
        tb.commit_phase(rec);
        assert!(tb.is_full());
        let t = tb.finish();
        assert_eq!(t.records.len(), 15);
    }

    #[test]
    fn instruction_count_includes_gaps() {
        let mut tb = TraceBuilder::new(1, 1, 0, usize::MAX);
        tb.begin_iteration();
        let mut rec = tb.phase(0);
        rec.log(0, 0x400000, 0, false);
        rec.log(0, 0x400004, 64, false);
        tb.commit_phase(rec);
        let t = tb.finish();
        assert!(t.instruction_count() >= 2 + 2); // each gap >= 1
    }
}
