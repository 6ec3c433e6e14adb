//! Property tests for the core vocabulary types.

use dtnflow_core::geometry::{nearest_site, Point, Rect};
use dtnflow_core::metrics::{quantile_sorted, FiveNum, RunMetrics};
use dtnflow_core::packet::{Packet, PacketLoc};
use dtnflow_core::rngutil::{log_normal, rng_for, weighted_choice, zipf_weights};
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_core::{LandmarkId, PacketId};
use proptest::prelude::*;

proptest! {
    #[test]
    fn simtime_arithmetic_never_panics(a in any::<u64>(), d in any::<u64>()) {
        let t = SimTime(a) + SimDuration(d);
        prop_assert!(t >= SimTime(a) || t == SimTime::MAX);
        let back = t.since(SimTime(a));
        prop_assert!(back.secs() <= d || t == SimTime::MAX);
        // since() is monotone and never negative.
        prop_assert_eq!(SimTime(a).since(t), SimDuration::ZERO);
    }

    #[test]
    fn unit_index_is_monotone(a in 0u64..1u64<<40, b in 0u64..1u64<<40, unit in 1u64..1u64<<20) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let u = SimDuration(unit);
        prop_assert!(SimTime(lo).unit_index(u) <= SimTime(hi).unit_index(u));
        // An instant lies inside its unit.
        let idx = SimTime(lo).unit_index(u);
        prop_assert!(idx * unit <= lo && lo < (idx + 1) * unit);
    }

    #[test]
    fn five_num_bounds_every_sample(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let f = FiveNum::of(&xs).unwrap();
        prop_assert!(f.min <= f.q1 && f.q1 <= f.q3 && f.q3 <= f.max);
        prop_assert!(f.mean >= f.min - 1e-9 && f.mean <= f.max + 1e-9);
        for &x in &xs {
            prop_assert!(x >= f.min && x <= f.max);
        }
    }

    #[test]
    fn quantiles_are_monotone(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        xs.sort_by(f64::total_cmp);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile_sorted(&xs, lo) <= quantile_sorted(&xs, hi) + 1e-9);
    }

    #[test]
    fn metrics_success_rate_is_a_probability(
        delivered in 0u64..500,
        extra in 0u64..500,
        delays in proptest::collection::vec(0u64..1_000_000, 0..50),
    ) {
        let mut m = RunMetrics {
            generated: delivered + extra,
            ..RunMetrics::default()
        };
        for _ in 0..delivered {
            m.record_delivery(SimDuration(7));
        }
        for &d in &delays {
            let _ = d;
        }
        if m.generated > 0 {
            prop_assert!((0.0..=1.0).contains(&m.success_rate()));
        }
        prop_assert!(m.total_cost() >= m.forwarding_ops as f64);
    }

    #[test]
    fn nearest_site_is_really_nearest(
        sites in proptest::collection::vec((-1e4f64..1e4, -1e4f64..1e4), 1..40),
        px in -1e4f64..1e4,
        py in -1e4f64..1e4,
    ) {
        let pts: Vec<Point> = sites.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let p = Point::new(px, py);
        let best = nearest_site(&pts, p);
        for s in &pts {
            prop_assert!(pts[best].distance_sq(p) <= s.distance_sq(p) + 1e-9);
        }
    }

    #[test]
    fn rect_clamp_is_idempotent_and_contained(
        w in 0.1f64..1e4, h in 0.1f64..1e4,
        px in -1e5f64..1e5, py in -1e5f64..1e5,
    ) {
        let r = Rect::from_size(w, h);
        let c = r.clamp(Point::new(px, py));
        prop_assert!(r.contains(c));
        let c2 = r.clamp(c);
        prop_assert!((c.x - c2.x).abs() < 1e-12 && (c.y - c2.y).abs() < 1e-12);
    }

    #[test]
    fn weighted_choice_picks_positive_weights(
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = rng_for(seed, "prop-wchoice");
        for _ in 0..8 {
            let i = weighted_choice(&mut rng, &weights);
            prop_assert!(weights[i] > 0.0);
        }
    }

    #[test]
    fn zipf_weights_are_positive_and_decreasing(n in 1usize..200, s in 0.0f64..3.0) {
        let w = zipf_weights(n, s);
        prop_assert_eq!(w.len(), n);
        prop_assert!(w.iter().all(|&x| x > 0.0));
        prop_assert!(w.windows(2).all(|p| p[0] >= p[1] - 1e-12));
    }

    #[test]
    fn log_normal_is_positive(seed in any::<u64>(), median in 0.1f64..1e4, sigma in 0.0f64..2.0) {
        let mut rng = rng_for(seed, "prop-lognormal");
        for _ in 0..8 {
            prop_assert!(log_normal(&mut rng, median, sigma) > 0.0);
        }
    }

    #[test]
    fn terminal_locations_are_not_live(created in 0u64..1u64<<40) {
        let p = Packet::new(PacketId(0), LandmarkId(0), LandmarkId(1), SimTime(created));
        prop_assert!(p.loc.is_live());
        prop_assert!(!PacketLoc::Expired.is_live());
        prop_assert!(!PacketLoc::Lost.is_live());
        prop_assert!(!PacketLoc::Delivered(SimTime(created)).is_live());
    }

    #[test]
    fn loop_members_detects_exactly_revisits(visits in proptest::collection::vec(0u16..6, 0..24)) {
        let mut p = Packet::new(PacketId(0), LandmarkId(100), LandmarkId(101), SimTime(0));
        // detlint: allow(D1, reason = "model-only membership set in a proptest; only contains() is queried, iteration order never escapes")
        let mut seen = std::collections::HashSet::new();
        for &v in &visits {
            let looped = p.record_station_visit(LandmarkId(v));
            prop_assert_eq!(looped, seen.contains(&v));
            seen.insert(v);
        }
        for v in 0u16..6 {
            let members = p.loop_members(LandmarkId(v));
            let count = visits.iter().filter(|&&x| x == v).count();
            prop_assert_eq!(!members.is_empty(), count >= 2);
            if count >= 2 {
                prop_assert_eq!(members.first(), Some(&LandmarkId(v)));
                prop_assert_eq!(members.last(), Some(&LandmarkId(v)));
            }
        }
    }
}
