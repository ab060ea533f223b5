//! Property tests for the trip/recover primitive that the resilience
//! guard and the service's per-stream quarantine share
//! (`core::degradation`). The window's running count must agree with a
//! recount and stay bounded for every length, 0 included; a trip is
//! reported only over a full window; and no recovery comes before both
//! the cooldown and the clean run since the last trip.

use mpgraph_core::degradation::{Breaker, Window};
use proptest::prelude::*;

/// Misses among the last `cap` observations.
fn recount(seen: &[bool], cap: usize) -> usize {
    seen[seen.len().saturating_sub(cap)..]
        .iter()
        .filter(|&&m| m)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn window_count_matches_a_recount_and_stays_bounded(
        len in 0usize..12,
        bits in prop::collection::vec(0u8..2, 0..80),
    ) {
        let cap = len.max(1);
        let mut w = Window::new(len);
        let mut seen = Vec::new();
        for &b in &bits {
            w.push(b == 1);
            seen.push(b == 1);
            prop_assert_eq!(w.len(), seen.len().min(cap));
            prop_assert_eq!(w.count(), recount(&seen, cap));
            prop_assert_eq!(w.is_full(), seen.len() >= cap);
            prop_assert_eq!(w.fraction(), w.count() as f64 / w.len() as f64);
        }
        w.clear();
        prop_assert!(w.is_empty() && w.count() == 0 && w.fraction() == 0.0);
    }

    /// A random caller: each op is an observation (0 clean, 1 miss), a
    /// probe (2 faulty, 3 clean) or a forced trip (4), and the clock moves
    /// 0–2 ticks before it. A model tracks what the breaker must report.
    #[test]
    fn breaker_trips_over_full_windows_and_recovers_only_after_cooldown_and_clean_run(
        len in 0usize..10,
        trip_fraction in 0.0f64..1.0,
        cooldown in 0u64..20,
        clean_run in 0u32..8,
        ops in prop::collection::vec((0u8..5, 0u64..3), 0..200),
    ) {
        let cap = len.max(1);
        let mut b = Breaker::new(len, trip_fraction, cooldown, clean_run);
        let mut seen: Vec<bool> = Vec::new();
        let mut now = 0u64;
        let mut tripped_at: Option<u64> = None;
        let mut clean = 0u32;
        for &(op, step) in &ops {
            now += step;
            match op {
                0 | 1 => {
                    seen.push(op == 1);
                    let full = seen.len() >= cap;
                    let frac = recount(&seen, cap) as f64 / cap as f64;
                    let trips = b.observe(op == 1);
                    prop_assert_eq!(trips, full && frac >= trip_fraction);
                    if trips && tripped_at.is_none() {
                        b.trip(now);
                        tripped_at = Some(now);
                        clean = 0;
                    }
                }
                2 | 3 => {
                    clean = if op == 3 { clean + 1 } else { 0 };
                    let recovered = b.probe(now, op == 3);
                    let due = tripped_at.is_some_and(|t| now - t >= cooldown);
                    prop_assert_eq!(recovered, due && clean >= clean_run);
                    if recovered {
                        b.close();
                        tripped_at = None;
                        seen.clear();
                    }
                }
                _ => {
                    // A restart keeps the window, as the level-2 pin needs.
                    b.trip(now);
                    tripped_at = Some(now);
                    clean = 0;
                }
            }
            prop_assert_eq!(b.is_open(), tripped_at.is_some());
            prop_assert_eq!(b.elapsed(now), tripped_at.map(|t| now - t));
            let held = seen.len().min(cap).max(1);
            prop_assert_eq!(b.miss_fraction(), recount(&seen, cap) as f64 / held as f64);
        }
    }
}
