//! Golden tests for the paper's bandwidth and link-delay arithmetic:
//! Eq. 4 EWMA smoothing with a hand-computed sequence, and the per-hop
//! delay models `d(i→j) = T/B` (transit interval) and
//! `d(i→j) = T·S/(B·M)` (throughput), including the zero-/low-bandwidth
//! edge cases that make a link unusable.

use dtnflow_core::config::SimConfig;
use dtnflow_core::ids::LandmarkId;
use dtnflow_router::{BandwidthMatrix, FlowConfig, LinkDelayModel};

/// The measuring landmark every test reads its row of.
const ME: LandmarkId = LandmarkId(0);

fn lm(i: u16) -> LandmarkId {
    LandmarkId(i)
}

/// Eq. 4 at α = 0.2 over per-unit arrival counts [3, 1, 0, 2]:
///   B₁ = 0.2·3            = 0.6
///   B₂ = 0.2·1 + 0.8·0.6  = 0.68
///   B₃ = 0.2·0 + 0.8·0.68 = 0.544
///   B₄ = 0.2·2 + 0.8·0.544 = 0.8352
#[test]
fn ewma_matches_hand_computed_sequence() {
    let mut t = BandwidthMatrix::new(2, 0.2);
    let expected = [0.6, 0.68, 0.544, 0.8352];
    for (count, want) in [3u32, 1, 0, 2].into_iter().zip(expected) {
        for _ in 0..count {
            t.record_arrival_from(ME, lm(1));
        }
        t.end_of_unit_all();
        assert!(
            (t.incoming(ME, lm(1)) - want).abs() < 1e-12,
            "after count {count}: {} != {want}",
            t.incoming(ME, lm(1))
        );
    }
    // A landmark with no arrivals stays at zero through every fold.
    assert_eq!(t.incoming(ME, lm(0)), 0.0);
}

/// Transit-interval model: `d = T/B`. With the default 3-day unit
/// (T = 259 200 s) and B = 2 transits/unit, d = 129 600 s.
#[test]
fn transit_interval_delay_matches_formula() {
    let mut t = BandwidthMatrix::new(2, 1.0);
    t.record_arrival_from(ME, lm(1));
    t.record_arrival_from(ME, lm(1));
    t.end_of_unit_all();
    let sim = SimConfig::default();
    assert_eq!(sim.time_unit.secs(), 259_200);
    let flow = FlowConfig {
        delay_model: LinkDelayModel::TransitInterval,
        ..FlowConfig::default()
    };
    let d = t.link_delay(ME, lm(1), &flow, &sim);
    assert!((d - 129_600.0).abs() < 1e-9, "d = {d}");
}

/// Throughput model: `d = T·S/(B·M)`. Defaults: T = 259 200 s,
/// S = 1 024 B, M = 2 048 000 B; with B = 2,
/// d = 259 200 · 1 024 / (2 · 2 048 000) = 64.8 s.
#[test]
fn throughput_delay_matches_formula() {
    let mut t = BandwidthMatrix::new(2, 1.0);
    t.record_arrival_from(ME, lm(1));
    t.record_arrival_from(ME, lm(1));
    t.end_of_unit_all();
    let sim = SimConfig::default();
    assert_eq!(sim.packet_size, 1_024);
    assert_eq!(sim.node_memory, 2_048_000);
    let flow = FlowConfig {
        delay_model: LinkDelayModel::Throughput,
        ..FlowConfig::default()
    };
    let d = t.link_delay(ME, lm(1), &flow, &sim);
    assert!((d - 64.8).abs() < 1e-9, "d = {d}");
}

/// A never-measured link has B = 0 < min_bandwidth: infinite delay under
/// both models (the zero-bandwidth edge case — no division blow-up).
#[test]
fn zero_bandwidth_link_is_unusable() {
    let t = BandwidthMatrix::new(2, 0.2);
    let sim = SimConfig::default();
    for model in [LinkDelayModel::TransitInterval, LinkDelayModel::Throughput] {
        let flow = FlowConfig {
            delay_model: model,
            ..FlowConfig::default()
        };
        assert!(t.link_delay(ME, lm(1), &flow, &sim).is_infinite());
    }
}

/// A measured-but-weak link below `min_bandwidth` is also unusable, and
/// crossing the threshold flips it to a finite delay.
#[test]
fn below_min_bandwidth_is_unusable() {
    let mut t = BandwidthMatrix::new(2, 0.2);
    t.record_arrival_from(ME, lm(1));
    t.end_of_unit_all(); // B = 0.2·1 = 0.2
    let sim = SimConfig::default();
    let strict = FlowConfig {
        min_bandwidth: 0.25,
        ..FlowConfig::default()
    };
    assert!(t.link_delay(ME, lm(1), &strict, &sim).is_infinite());
    let lax = FlowConfig {
        min_bandwidth: 0.1,
        ..FlowConfig::default()
    };
    let d = t.link_delay(ME, lm(1), &lax, &sim);
    assert!((d - 259_200.0 / 0.2).abs() < 1e-9, "d = {d}");
}

/// A reported zero overrides the symmetric fallback (one-way road): the
/// link becomes unusable even though incoming traffic suggests otherwise.
#[test]
fn zero_report_overrides_symmetric_fallback() {
    let mut t = BandwidthMatrix::new(2, 1.0);
    for _ in 0..4 {
        t.record_arrival_from(ME, lm(1));
    }
    t.end_of_unit_all(); // incoming B(1→me) = 4: symmetry would claim 4 back
    let sim = SimConfig::default();
    let flow = FlowConfig::default();
    assert!((t.link_delay(ME, lm(1), &flow, &sim) - 259_200.0 / 4.0).abs() < 1e-9);
    assert!(t.apply_report(ME, lm(1), 0.0, 1));
    assert!(t.link_delay(ME, lm(1), &flow, &sim).is_infinite());
}
