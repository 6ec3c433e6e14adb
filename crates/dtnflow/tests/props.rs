//! Property tests for the DTN-FLOW routing substrate: the distance-vector
//! table and the bandwidth matrix.

use dtnflow_core::config::SimConfig;
use dtnflow_core::ids::LandmarkId;
use dtnflow_router::{BandwidthMatrix, FlowConfig, RoutingTable, StoredVector};
use proptest::prelude::*;

/// The measuring landmark the bandwidth properties read the row of.
const ME: LandmarkId = LandmarkId(0);

/// Random link-delay function over `n` landmarks as a dense vector.
fn arb_links(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![3 => (1u32..1_000).prop_map(|d| d as f64), 1 => Just(f64::INFINITY)],
        n..=n,
    )
}

proptest! {
    #[test]
    fn recomputed_routes_satisfy_triangle_consistency(
        n in 3usize..10,
        seed_links in (3usize..10).prop_flat_map(arb_links),
        vec_delays in proptest::collection::vec(0u32..500, 0..60),
    ) {
        let n = n.min(seed_links.len()).max(3);
        let links = &seed_links[..n];
        let mut rt = RoutingTable::new(LandmarkId(0), n);
        // Install some random neighbour vectors.
        let mut k = 0usize;
        for from in 1..n {
            let mut delays = vec![f64::INFINITY; n];
            delays[from] = 0.0;
            for (d, slot) in delays.iter_mut().enumerate() {
                if d != from && k < vec_delays.len() && vec_delays[k] % 3 != 0 {
                    *slot = vec_delays[k] as f64;
                }
                k += 1;
            }
            rt.receive(LandmarkId::from(from), StoredVector { seq: 1, delays });
        }
        let link = |l: LandmarkId| links[l.index()];
        rt.recompute(&link);
        for dest in 1..n {
            let e = rt.entry(LandmarkId::from(dest));
            if let Some(next) = e.next {
                // The chosen route's delay is exactly link + claimed.
                prop_assert!(links[next.index()].is_finite());
                prop_assert!(e.delay >= links[next.index()] - 1e-9);
                // Backup (when present) is a different neighbour and no
                // better than the primary.
                if let Some(b) = e.backup {
                    prop_assert_ne!(b, next);
                    prop_assert!(e.backup_delay >= e.delay - 1e-9);
                }
            } else {
                prop_assert!(e.delay.is_infinite());
            }
        }
        // Self entry is always zero.
        prop_assert_eq!(rt.delay_to(LandmarkId(0)), 0.0);
        // Coverage equals the fraction of finite entries.
        let finite = (1..n)
            .filter(|&d| rt.delay_to(LandmarkId::from(d)).is_finite())
            .count();
        prop_assert!((rt.coverage() - finite as f64 / (n - 1) as f64).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrips_through_receive(
        n in 3usize..8,
        links in (3usize..8).prop_flat_map(arb_links),
    ) {
        let n = n.min(links.len()).max(3);
        // A landmark's snapshot can be received by another landmark and
        // recomputed without panicking; the receiving side's entries via
        // that neighbour are link + snapshot.
        let mut a = RoutingTable::new(LandmarkId(1), n);
        a.recompute(&|l| links[l.index() % links.len()]);
        let snap = a.snapshot();
        prop_assert_eq!(snap.len(), n);
        prop_assert_eq!(snap[1], 0.0);

        let mut b = RoutingTable::new(LandmarkId(0), n);
        b.receive(LandmarkId(1), StoredVector { seq: 3, delays: snap.clone() });
        b.recompute(&|l| if l.index() == 1 { 5.0 } else { f64::INFINITY });
        for (d, &s) in snap.iter().enumerate().skip(1) {
            let expect = 5.0 + s;
            let got = b.delay_to(LandmarkId::from(d));
            if expect.is_finite() {
                prop_assert!((got - expect).abs() < 1e-9);
            } else {
                prop_assert!(got.is_infinite());
            }
        }
    }

    #[test]
    fn ewma_bandwidth_is_bounded_by_observations(
        arrivals in proptest::collection::vec(0u8..20, 1..40),
        alpha in 0.05f64..1.0,
    ) {
        let mut t = BandwidthMatrix::new(2, alpha);
        let max = *arrivals.iter().max().unwrap() as f64;
        for &count in &arrivals {
            for _ in 0..count {
                t.record_arrival_from(ME, LandmarkId(1));
            }
            t.end_of_unit_all();
            // EWMA of values in [0, max] stays in [0, max].
            let b = t.incoming(ME, LandmarkId(1));
            prop_assert!((0.0..=max + 1e-9).contains(&b), "b {b} max {max}");
        }
    }

    #[test]
    fn reports_are_monotone_in_seq(
        updates in proptest::collection::vec((0u64..50, 0u32..100), 1..40),
    ) {
        let mut t = BandwidthMatrix::new(2, 0.5);
        let mut best_seq = None;
        let mut current = None;
        for &(seq, val) in &updates {
            let accepted = t.apply_report(ME, LandmarkId(1), val as f64, seq);
            let newer = best_seq.is_none_or(|s| seq > s);
            prop_assert_eq!(accepted, newer);
            if newer {
                best_seq = Some(seq);
                current = Some(val as f64);
            }
            prop_assert_eq!(t.outgoing(ME, LandmarkId(1)), current.unwrap());
        }
    }

    #[test]
    fn link_delay_decreases_with_bandwidth(c1 in 1u8..40, c2 in 1u8..40) {
        let sim = SimConfig::default();
        let flow = FlowConfig::default();
        let make = |count: u8| {
            let mut t = BandwidthMatrix::new(2, 1.0);
            for _ in 0..count {
                t.record_arrival_from(ME, LandmarkId(1));
            }
            t.end_of_unit_all();
            t.link_delay(ME, LandmarkId(1), &flow, &sim)
        };
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(make(hi) <= make(lo) + 1e-9);
    }
}
