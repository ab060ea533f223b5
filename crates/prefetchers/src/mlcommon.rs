//! Shared plumbing for the ML-based prefetchers: delta and page
//! vocabularies built from the training trace, the delta-bitmap labels,
//! the training sample walks, sliding history windows, and feature
//! encoders reused by Delta-LSTM, Voyager, TransFetch, and MPGraph.

use mpgraph_frameworks::MemRecord;
use mpgraph_ml::tensor::Matrix;
use std::collections::HashMap;

/// Bidirectional delta↔label mapping over `[-range, +range] \ {0}`: the
/// multi-label output of the delta-bitmap models (TransFetch and MPGraph's
/// delta predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRange {
    pub range: i64,
}

impl DeltaRange {
    pub fn num_labels(&self) -> usize {
        2 * self.range as usize
    }

    pub fn label_of(&self, delta: i64) -> Option<usize> {
        if delta == 0 || delta.abs() > self.range {
            return None;
        }
        Some(if delta > 0 {
            (self.range + delta - 1) as usize
        } else {
            (self.range + delta) as usize
        })
    }

    pub fn delta_of(&self, label: usize) -> i64 {
        let l = label as i64;
        if l >= self.range {
            l - self.range + 1
        } else {
            l - self.range
        }
    }

    /// The `[1, labels]` training target for the access at `pos`: the
    /// in-range block deltas of the next `look_forward` accesses relative
    /// to `records[pos]`'s block.
    pub fn label_bitmap(&self, records: &[MemRecord], pos: usize, look_forward: usize) -> Matrix {
        let cur = records[pos].block() as i64;
        let mut target = Matrix::zeros(1, self.num_labels());
        for fut in records.iter().skip(pos + 1).take(look_forward) {
            if let Some(l) = self.label_of(fut.block() as i64 - cur) {
                target.data[l] = 1.0;
            }
        }
        target
    }
}

/// The strided sample walk of the trainers that read one stream: window
/// starts `0, s, 2s, …` while `start + reach < len`, at most
/// `max_samples` of them, with the stride `s` spreading `max_samples` over
/// `usable` items (each walk keeps its own `reach` and `usable`).
pub fn sample_starts(len: usize, reach: usize, usable: usize, max_samples: usize) -> Vec<usize> {
    let stride = (usable / max_samples.max(1)).max(1);
    (0..len)
        .step_by(stride)
        .take_while(|&i| i + reach < len)
        .take(max_samples)
        .collect()
}

/// Splits `records` into per-core streams of `item(record)` (core id mod
/// 8: the LLC knows the requesting CPU, and a core's own stream carries the
/// temporal structure the interleaved one hides), keeping the streams
/// longer than `t + 1`.
pub fn per_core_streams<T>(
    records: &[MemRecord],
    t: usize,
    item: impl Fn(&MemRecord) -> T,
) -> Vec<Vec<T>> {
    let mut per_core: Vec<Vec<T>> = (0..8).map(|_| Vec::new()).collect();
    for rec in records {
        per_core[(rec.core as usize) % 8].push(item(rec));
    }
    per_core.retain(|s| s.len() > t + 1);
    per_core
}

/// The round-robin sample walk over per-core streams: streams take
/// turns, each advancing its cursor by one stride, until `max_samples`
/// length-`t` windows are drawn or every stream is spent. Returns (stream,
/// window start) pairs in walk order.
pub fn round_robin_windows<T>(
    seqs: &[Vec<T>],
    t: usize,
    max_samples: usize,
) -> Vec<(usize, usize)> {
    let total: usize = seqs.iter().map(Vec::len).sum();
    let usable = total.saturating_sub((t + 1) * seqs.len().max(1));
    let stride = (usable / max_samples.max(1)).max(1);
    let mut cursors = vec![0usize; seqs.len()];
    let mut out = Vec::new();
    let mut which = 0usize;
    while out.len() < max_samples && !seqs.is_empty() {
        let s = which % seqs.len();
        which += 1;
        let i = cursors[s];
        if i + t >= seqs[s].len() {
            if cursors.iter().zip(seqs).all(|(c, s)| c + t >= s.len()) {
                break;
            }
            continue;
        }
        cursors[s] += stride;
        out.push((s, i));
    }
    out
}

/// Maps block-address deltas to dense class ids. Class 0 is the
/// out-of-vocabulary bucket; the rest are the most frequent training deltas.
#[derive(Debug, Clone)]
pub struct DeltaVocab {
    to_class: HashMap<i64, usize>,
    classes: Vec<i64>,
}

impl DeltaVocab {
    /// Builds a vocabulary from the block-delta stream of `records`,
    /// keeping the `max_classes - 1` most frequent deltas.
    pub fn build(records: &[MemRecord], max_classes: usize) -> Self {
        assert!(max_classes >= 2);
        let mut freq: HashMap<i64, u64> = HashMap::new();
        for w in records.windows(2) {
            let d = w[1].block() as i64 - w[0].block() as i64;
            *freq.entry(d).or_insert(0) += 1;
        }
        let mut by_freq: Vec<(i64, u64)> = freq.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut classes = vec![i64::MIN]; // class 0 = OOV sentinel
        let mut to_class = HashMap::new();
        for (d, _) in by_freq.into_iter().take(max_classes - 1) {
            to_class.insert(d, classes.len());
            classes.push(d);
        }
        DeltaVocab { to_class, classes }
    }

    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Delta → class (0 when unseen).
    pub fn class_of(&self, delta: i64) -> usize {
        self.to_class.get(&delta).copied().unwrap_or(0)
    }

    /// Class → delta (`None` for the OOV class).
    pub fn delta_of(&self, class: usize) -> Option<i64> {
        (class != 0).then(|| self.classes[class])
    }
}

/// Maps page numbers to dense tokens. Token 0 is OOV.
#[derive(Debug, Clone)]
pub struct PageVocab {
    to_token: HashMap<u64, usize>,
    pages: Vec<u64>,
    max_tokens: usize,
}

impl PageVocab {
    pub fn build(records: &[MemRecord], max_tokens: usize) -> Self {
        assert!(max_tokens >= 2);
        let mut freq: HashMap<u64, u64> = HashMap::new();
        for r in records {
            *freq.entry(r.page()).or_insert(0) += 1;
        }
        let mut by_freq: Vec<(u64, u64)> = freq.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut pages = vec![u64::MAX];
        let mut to_token = HashMap::new();
        for (p, _) in by_freq.into_iter().take(max_tokens - 1) {
            to_token.insert(p, pages.len());
            pages.push(p);
        }
        PageVocab {
            to_token,
            pages,
            max_tokens,
        }
    }

    /// Number of tokens actually allocated (≤ max_tokens).
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Capacity the embedding tables must size for.
    pub fn capacity(&self) -> usize {
        self.max_tokens
    }

    pub fn token_of(&self, page: u64) -> usize {
        self.to_token.get(&page).copied().unwrap_or(0)
    }

    pub fn page_of(&self, token: usize) -> Option<u64> {
        (token != 0 && token < self.pages.len()).then(|| self.pages[token])
    }
}

/// Splits batched inference lanes into the unique input windows (in
/// first-occurrence order) plus a per-lane index into them. Inference is
/// a pure function of the window, so a batched caller computes each
/// unique window once and fans the rows out to duplicate lanes
/// bit-exactly — same-phase streams co-traversing one frontier present
/// byte-identical histories far more often than independent ones would.
pub fn dedup_lanes<'a, T: Eq + std::hash::Hash>(lanes: &[&'a [T]]) -> (Vec<&'a [T]>, Vec<usize>) {
    let mut unique: Vec<&'a [T]> = Vec::with_capacity(lanes.len());
    let mut lane_of = Vec::with_capacity(lanes.len());
    let mut seen: std::collections::HashMap<&'a [T], usize> =
        std::collections::HashMap::with_capacity(lanes.len());
    for lane in lanes {
        let next = unique.len();
        let idx = *seen.entry(*lane).or_insert(next);
        if idx == next {
            unique.push(lane);
        }
        lane_of.push(idx);
    }
    (unique, lane_of)
}

/// Normalizes a PC to a small f32 feature by hashing, as the paper's input
/// preprocessing does ("the PC is hashed and normalized").
#[inline]
pub fn pc_feature(pc: u64) -> f32 {
    // Fibonacci hashing, top 16 bits, scaled to [0, 1).
    let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
    h as f32 / 65536.0
}

#[cfg(test)]
mod dedup_tests {
    use super::dedup_lanes;

    #[test]
    fn dedup_preserves_first_occurrence_order_and_lane_mapping() {
        let a = [1u64, 2, 3];
        let b = [4u64, 5, 6];
        let lanes: Vec<&[u64]> = vec![&a, &b, &a, &a, &b];
        let (unique, lane_of) = dedup_lanes(&lanes);
        assert_eq!(unique, vec![&a[..], &b[..]]);
        assert_eq!(lane_of, vec![0, 1, 0, 0, 1]);

        let distinct: Vec<&[u64]> = vec![&a, &b];
        let (u2, l2) = dedup_lanes(&distinct);
        assert_eq!(u2.len(), 2);
        assert_eq!(l2, vec![0, 1]);

        let (u3, l3) = dedup_lanes(&[] as &[&[u64]]);
        assert!(u3.is_empty() && l3.is_empty());
    }
}

/// Splits a block address into `out.len()` 4-bit segments
/// (least-significant first), each scaled to [0, 1), written into `out` —
/// TransFetch's "fine-grained address segmentation" input, filled
/// straight into a row of the model's input matrix.
pub fn segment_block(block: u64, out: &mut [f32]) {
    for (i, v) in out.iter_mut().enumerate() {
        *v = ((block >> (4 * i)) & 0xF) as f32 / 16.0;
    }
}

/// Fixed-size history ring of the last `cap` items.
#[derive(Debug, Clone)]
pub struct History<T: Copy> {
    buf: Vec<T>,
    cap: usize,
}

impl<T: Copy> History<T> {
    pub fn new(cap: usize) -> Self {
        History {
            buf: Vec::with_capacity(cap),
            cap,
        }
    }

    pub fn push(&mut self, v: T) {
        if self.buf.len() == self.cap {
            // Rotate-and-overwrite: one memmove, no len churn. Callers need
            // `items()` contiguous, which rules out a VecDeque ring here.
            self.buf.rotate_left(1);
            if let Some(slot) = self.buf.last_mut() {
                *slot = v;
            }
            return;
        }
        self.buf.push(v);
    }

    pub fn is_full(&self) -> bool {
        self.buf.len() == self.cap
    }

    /// Configured window length (reached once `is_full`).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn items(&self) -> &[T] {
        &self.buf
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vaddr: u64) -> MemRecord {
        MemRecord {
            pc: 0x400000,
            vaddr,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 1,
            dep: false,
        }
    }

    #[test]
    fn delta_vocab_ranks_by_frequency() {
        // Deltas: +1 × 6, +2 × 3, -5 × 1 (in blocks of 64 bytes).
        let mut records = vec![rec(0)];
        let mut addr = 0u64;
        for d in [1i64, 1, 1, 2, 1, 2, 1, 2, 1, -5] {
            addr = (addr as i64 + d * 64) as u64;
            records.push(rec(addr));
        }
        let v = DeltaVocab::build(&records, 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.class_of(1), 1); // most frequent
        assert_eq!(v.class_of(2), 2);
        assert_eq!(v.class_of(-5), 0); // dropped → OOV
        assert_eq!(v.delta_of(1), Some(1));
        assert_eq!(v.delta_of(0), None);
    }

    #[test]
    fn page_vocab_roundtrip() {
        let records: Vec<MemRecord> = (0..100).map(|i| rec((i % 5) * 4096)).collect();
        let v = PageVocab::build(&records, 16);
        assert_eq!(v.len(), 6); // 5 pages + OOV
        for p in 0..5u64 {
            let t = v.token_of(p);
            assert_eq!(v.page_of(t), Some(p));
        }
        assert_eq!(v.token_of(999), 0);
    }

    #[test]
    fn page_vocab_caps_tokens() {
        let records: Vec<MemRecord> = (0..100).map(|i| rec(i * 4096)).collect();
        let v = PageVocab::build(&records, 8);
        assert_eq!(v.len(), 8);
        assert!(v.capacity() >= v.len());
    }

    #[test]
    fn pc_feature_is_deterministic_and_bounded() {
        let a = pc_feature(0x401234);
        assert_eq!(a, pc_feature(0x401234));
        assert!((0.0..1.0).contains(&a));
        assert_ne!(pc_feature(0x401234), pc_feature(0x401238));
    }

    #[test]
    fn segments_reconstruct_block() {
        let block = 0xAB_CDEFu64;
        let mut segs = [f32::NAN; 6];
        segment_block(block, &mut segs);
        let mut reconstructed = 0u64;
        for (i, s) in segs.iter().enumerate() {
            reconstructed |= ((s * 16.0).round() as u64) << (4 * i);
        }
        assert_eq!(reconstructed, block);
    }

    #[test]
    fn history_ring_keeps_last_n() {
        let mut h = History::new(3);
        assert!(!h.is_full());
        for i in 0..5 {
            h.push(i);
        }
        assert!(h.is_full());
        assert_eq!(h.items(), &[2, 3, 4]);
        h.clear();
        assert!(h.items().is_empty());
    }
}
