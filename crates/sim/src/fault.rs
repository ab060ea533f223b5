//! Deterministic fault injection for the trace-replay engine.
//!
//! A [`FaultInjector`] perturbs a simulation at four seams, chosen to mirror
//! the failure modes a hardware/ML prefetcher deployment actually sees:
//!
//! * **Corrupted records** — bit flips and field garbling in the incoming
//!   [`MemRecord`] stream (a flaky trace capture or DMA error). The engine
//!   must replay them without panicking; addresses land wherever they land.
//! * **Dropped prefetch requests** — candidates the prefetcher emitted that
//!   never reach the fill queue (arbitration loss, full MSHRs).
//! * **Duplicated prefetch requests** — candidates replayed twice
//!   (retry storms); duplicates burn degree budget and must not corrupt
//!   bookkeeping.
//! * **Detector misfires** — fabricated demand accesses delivered to the
//!   prefetcher's observation port, perturbing its phase detector and
//!   history state the way mis-sampled LLC traffic would.
//! * **Stalled inference** — extra cycles added to the *model-inference*
//!   path for one access (queueing, accelerator contention). Rule-based
//!   prefetchers have no inference path and are immune; ML-backed ones pay
//!   the stall unless a degradation guard sheds load.
//!
//! Everything is driven by one [`SplitMix64`] stream seeded from
//! [`FaultConfig::seed`], so a given `(trace, config)` pair always injects
//! the identical fault sequence — failures reproduce bit-for-bit.
//!
//! The injector is deliberately dependency-free (no `rand`): the sim crate
//! stays minimal and the fault stream is stable across toolchains.

use mpgraph_frameworks::MemRecord;

/// The classes of fault the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    CorruptRecord,
    DropPrefetch,
    DuplicatePrefetch,
    DetectorMisfire,
    StallInference,
}

impl FaultKind {
    pub const ALL: [FaultKind; 5] = [
        FaultKind::CorruptRecord,
        FaultKind::DropPrefetch,
        FaultKind::DuplicatePrefetch,
        FaultKind::DetectorMisfire,
        FaultKind::StallInference,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CorruptRecord => "corrupt-record",
            FaultKind::DropPrefetch => "drop-prefetch",
            FaultKind::DuplicatePrefetch => "duplicate-prefetch",
            FaultKind::DetectorMisfire => "detector-misfire",
            FaultKind::StallInference => "stall-inference",
        }
    }
}

/// Per-class injection rates (probabilities in `[0, 1]`) plus the seed.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    pub seed: u64,
    /// Probability a record is corrupted before replay.
    pub corrupt_record_rate: f64,
    /// Probability each emitted prefetch candidate is silently dropped.
    pub drop_prefetch_rate: f64,
    /// Probability each emitted prefetch candidate is enqueued twice.
    pub duplicate_prefetch_rate: f64,
    /// Probability a fabricated access is fed to the prefetcher before a
    /// real one.
    pub detector_misfire_rate: f64,
    /// Probability an access's inference is stalled by `stall_cycles`.
    pub stall_rate: f64,
    /// Extra inference cycles charged when a stall fires.
    pub stall_cycles: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA17,
            corrupt_record_rate: 0.0,
            drop_prefetch_rate: 0.0,
            duplicate_prefetch_rate: 0.0,
            detector_misfire_rate: 0.0,
            stall_rate: 0.0,
            stall_cycles: 0,
        }
    }
}

impl FaultConfig {
    /// A config injecting only `kind` at the given `rate`.
    pub fn only(kind: FaultKind, rate: f64, seed: u64) -> Self {
        let mut cfg = FaultConfig {
            seed,
            ..FaultConfig::default()
        };
        match kind {
            FaultKind::CorruptRecord => cfg.corrupt_record_rate = rate,
            FaultKind::DropPrefetch => cfg.drop_prefetch_rate = rate,
            FaultKind::DuplicatePrefetch => cfg.duplicate_prefetch_rate = rate,
            FaultKind::DetectorMisfire => cfg.detector_misfire_rate = rate,
            FaultKind::StallInference => {
                cfg.stall_rate = rate;
                cfg.stall_cycles = 2_000;
            }
        }
        cfg
    }

    /// Validates all rates are finite probabilities.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("corrupt_record_rate", self.corrupt_record_rate),
            ("drop_prefetch_rate", self.drop_prefetch_rate),
            ("duplicate_prefetch_rate", self.duplicate_prefetch_rate),
            ("detector_misfire_rate", self.detector_misfire_rate),
            ("stall_rate", self.stall_rate),
        ] {
            if !(0.0..=1.0).contains(&r) || r.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {r}"));
            }
        }
        Ok(())
    }
}

/// Counts of faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub records_corrupted: u64,
    pub prefetches_dropped: u64,
    pub prefetches_duplicated: u64,
    pub detector_misfires: u64,
    pub inference_stalls: u64,
    /// Sum of injected stall cycles.
    pub stall_cycles_injected: u64,
}

impl FaultStats {
    pub fn count(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::CorruptRecord => self.records_corrupted,
            FaultKind::DropPrefetch => self.prefetches_dropped,
            FaultKind::DuplicatePrefetch => self.prefetches_duplicated,
            FaultKind::DetectorMisfire => self.detector_misfires,
            FaultKind::StallInference => self.inference_stalls,
        }
    }

    pub fn total(&self) -> u64 {
        FaultKind::ALL.iter().map(|&k| self.count(k)).sum()
    }
}

/// SplitMix64: tiny, fast, and good enough to decorrelate fault sites.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }
}

/// Stateful injector threaded through one simulation run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SplitMix64,
    pub stats: FaultStats,
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            stats: FaultStats::default(),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Possibly corrupts `r`, returning the record the engine should replay.
    /// Corruption flips a random bit of the address or PC, garbles the core
    /// id, or toggles the dependence flag — the kinds of damage a flaky
    /// capture path produces.
    pub fn corrupt_record(&mut self, r: &MemRecord) -> MemRecord {
        if !self.rng.chance(self.cfg.corrupt_record_rate) {
            return *r;
        }
        self.stats.records_corrupted += 1;
        let mut out = *r;
        match self.rng.next_u64() % 5 {
            0 => out.vaddr ^= 1u64 << (self.rng.next_u64() % 48),
            1 => out.pc ^= 1u64 << (self.rng.next_u64() % 48),
            2 => out.core = (self.rng.next_u64() % 256) as u8,
            3 => out.dep = !out.dep,
            _ => out.phase = (self.rng.next_u64() % 256) as u8,
        }
        out
    }

    /// If a misfire fires, returns a fabricated `(pc, block)` the engine
    /// should present to the prefetcher as a phantom access.
    pub fn detector_misfire(&mut self) -> Option<(u64, u64)> {
        if !self.rng.chance(self.cfg.detector_misfire_rate) {
            return None;
        }
        self.stats.detector_misfires += 1;
        let pc = 0xBAD0_0000 | (self.rng.next_u64() & 0xFFFF);
        let block = self.rng.next_u64() >> 16;
        Some((pc, block))
    }

    /// Extra inference cycles to charge this access (0 when no stall fires).
    pub fn inference_stall(&mut self) -> u64 {
        if !self.rng.chance(self.cfg.stall_rate) {
            return 0;
        }
        self.stats.inference_stalls += 1;
        self.stats.stall_cycles_injected += self.cfg.stall_cycles;
        self.cfg.stall_cycles
    }

    /// Applies drop/duplicate faults to the candidate list in place.
    pub fn mutate_candidates(&mut self, out: &mut Vec<u64>) {
        if self.cfg.drop_prefetch_rate <= 0.0 && self.cfg.duplicate_prefetch_rate <= 0.0 {
            return;
        }
        let mut mutated = Vec::with_capacity(out.len());
        for &block in out.iter() {
            if self.rng.chance(self.cfg.drop_prefetch_rate) {
                self.stats.prefetches_dropped += 1;
                continue;
            }
            mutated.push(block);
            if self.rng.chance(self.cfg.duplicate_prefetch_rate) {
                self.stats.prefetches_duplicated += 1;
                mutated.push(block);
            }
        }
        *out = mutated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> MemRecord {
        MemRecord {
            pc: 0x400000,
            vaddr: 0x10_0000_0000,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 3,
            dep: false,
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        let r = record();
        assert_eq!(inj.corrupt_record(&r), r);
        assert_eq!(inj.detector_misfire(), None);
        assert_eq!(inj.inference_stall(), 0);
        let mut cands = vec![1, 2, 3];
        inj.mutate_candidates(&mut cands);
        assert_eq!(cands, vec![1, 2, 3]);
        assert_eq!(inj.stats.total(), 0);
    }

    #[test]
    fn injection_is_deterministic() {
        let cfg = FaultConfig {
            corrupt_record_rate: 0.5,
            drop_prefetch_rate: 0.3,
            duplicate_prefetch_rate: 0.3,
            detector_misfire_rate: 0.2,
            stall_rate: 0.2,
            stall_cycles: 100,
            seed: 7,
        };
        let run = |cfg: FaultConfig| {
            let mut inj = FaultInjector::new(cfg);
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                let mut r = record();
                r.vaddr += i * 64;
                outcomes.push(inj.corrupt_record(&r).vaddr);
                outcomes.push(inj.inference_stall());
                let mut cands = vec![i, i + 1];
                inj.mutate_candidates(&mut cands);
                outcomes.extend(cands);
            }
            (outcomes, inj.stats)
        };
        let (a, stats_a) = run(cfg);
        let (b, stats_b) = run(cfg);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.total() > 0);
    }

    #[test]
    fn rates_are_respected_roughly() {
        let cfg = FaultConfig::only(FaultKind::CorruptRecord, 0.25, 11);
        let mut inj = FaultInjector::new(cfg);
        let r = record();
        for _ in 0..4000 {
            inj.corrupt_record(&r);
        }
        let frac = inj.stats.records_corrupted as f64 / 4000.0;
        assert!((0.2..0.3).contains(&frac), "corruption fraction {frac}");
    }

    #[test]
    fn only_constructor_targets_one_class() {
        for kind in FaultKind::ALL {
            let cfg = FaultConfig::only(kind, 1.0, 1);
            cfg.validate().expect("valid");
            let mut inj = FaultInjector::new(cfg);
            let r = record();
            inj.corrupt_record(&r);
            inj.detector_misfire();
            inj.inference_stall();
            let mut cands = vec![1, 2];
            inj.mutate_candidates(&mut cands);
            assert!(inj.stats.count(kind) > 0, "{kind:?} not injected");
            for other in FaultKind::ALL {
                if other != kind {
                    assert_eq!(inj.stats.count(other), 0, "{other:?} leaked");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut cfg = FaultConfig {
            stall_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.stall_rate = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.stall_rate = 0.5;
        assert!(cfg.validate().is_ok());
    }
}
