//! Crash-consistency acceptance tests (DESIGN.md §11): a run killed at
//! seeded unit boundaries and restored from its snapshot alone must be
//! byte-indistinguishable — metrics, packets, experiment CSV cells, and
//! (after stripping checkpoint bookkeeping events) observability
//! reports — from a run that never stopped. Corrupted, truncated or
//! mismatched snapshots must be rejected with typed errors, never
//! panics.

use dtnflow_bench::chaos::{
    boundary_inside_outage, checkpoint, outage_plan, resume, run_segment, run_straight,
    run_with_kills, ChaosInputs, SegmentEnd, SECTIONS,
};
use dtnflow_core::config::SimConfig;
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::time::{SimTime, DAY};
use dtnflow_mobility::{Trace, Visit};
use dtnflow_obs::{Recorder, SimEvent, DEFAULT_RING_CAPACITY};
use dtnflow_router::{FlowConfig, FlowRouter, LoopInjection};
use dtnflow_sim::{FaultPlan, SimSession, Workload};
use dtnflow_snapshot::{
    validate_schema, Codec, Reader, SnapshotBuilder, SnapshotError, SnapshotFile, Writer,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Take one checkpoint of the tiny cell at `unit`, for corruption tests.
fn tiny_snapshot(unit: u64) -> Vec<u8> {
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    match run_segment(&inp, None, Some(unit)).expect("segment runs") {
        SegmentEnd::Paused(bytes) => bytes,
        SegmentEnd::Finished(_) => panic!("tiny run ended before unit {unit}"),
    }
}

#[test]
fn tiny_resume_is_byte_identical_at_three_crash_points() {
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    let m = inp.max_unit();
    assert!(m >= 8, "tiny cell too short: {m} units");
    let straight = run_straight(&inp).expect("straight run");
    assert!(straight.conservation_holds());
    for kills in [vec![2], vec![m / 2], vec![m - 2]] {
        let (chaotic, sizes) = run_with_kills(&inp, &kills).expect("chaotic run");
        assert_eq!(sizes.len(), kills.len());
        assert!(chaotic.conservation_holds());
        assert!(
            chaotic.matches(&straight),
            "kill at {kills:?} diverged:\n straight csv {}\n chaotic  csv {}",
            straight.csv_row,
            chaotic.csv_row
        );
    }
}

#[test]
fn tiny_double_kill_chain_is_byte_identical() {
    let inp = ChaosInputs::tiny(11, FaultPlan::none());
    let m = inp.max_unit();
    let straight = run_straight(&inp).expect("straight run");
    // Kill, restore, re-kill at the same boundary, then again later:
    // checkpoints taken from restored processes must compose.
    let kills = [3, 3, m / 2, m - 3];
    let (chaotic, sizes) = run_with_kills(&inp, &kills).expect("chaotic run");
    assert_eq!(sizes.len(), kills.len());
    assert!(chaotic.matches(&straight), "double-kill chain diverged");
}

#[test]
fn tiny_kill_inside_station_outage_is_byte_identical() {
    let base = ChaosInputs::tiny(13, FaultPlan::none());
    let unit_secs = base.cfg.time_unit.secs();
    let plan = outage_plan(&base.trace, unit_secs, 13);
    assert!(!plan.station_outages.is_empty());
    let inp = ChaosInputs { plan, ..base };
    let kill = boundary_inside_outage(&inp.plan, unit_secs, inp.max_unit())
        .expect("an outage spans a unit boundary");
    let straight = run_straight(&inp).expect("straight run");
    let (chaotic, _) = run_with_kills(&inp, &[kill]).expect("chaotic run");
    assert!(chaotic.conservation_holds());
    assert!(
        chaotic.matches(&straight),
        "kill at unit {kill} inside an outage diverged"
    );
}

#[test]
fn snapshot_validates_and_lists_all_sections() {
    let bytes = tiny_snapshot(3);
    let file = SnapshotFile::parse(&bytes).expect("snapshot parses");
    validate_schema(&file, &SECTIONS).expect("snapshot matches the chaos schema");
    for s in &SECTIONS {
        assert!(file.section(s.name).is_ok(), "missing section {}", s.name);
    }
}

#[test]
fn truncated_snapshots_are_rejected_not_panicked() {
    let bytes = tiny_snapshot(3);
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    // Every strict prefix must fail cleanly (checksum or EOF).
    for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
        let err = run_segment(&inp, Some(&bytes[..cut]), None);
        assert!(err.is_err(), "prefix of {cut} bytes was accepted");
    }
}

#[test]
fn corrupted_snapshots_are_rejected_by_checksums() {
    let bytes = tiny_snapshot(3);
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    // Flip one byte at a spread of offsets: the whole-file checksum (or
    // an earlier structural check) must catch every one of them.
    for i in (0..bytes.len()).step_by(bytes.len() / 23 + 1) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        let err = run_segment(&inp, Some(&bad), None);
        assert!(err.is_err(), "flip at byte {i} was accepted");
    }
}

#[test]
fn snapshot_for_different_run_inputs_is_rejected_as_mismatch() {
    let bytes = tiny_snapshot(3);
    // Same shape, different simulation seed: fingerprint must refuse it.
    let other = ChaosInputs::tiny(8, FaultPlan::none());
    match run_segment(&other, Some(&bytes), None) {
        Err(SnapshotError::Mismatch { context }) => {
            assert!(context.contains("seed"), "unexpected context: {context}")
        }
        Err(e) => panic!("expected fingerprint Mismatch, got {e:?}"),
        Ok(_) => panic!("foreign snapshot was accepted"),
    }

    // Same seed, different fault plan: also refused.
    let base = ChaosInputs::tiny(7, FaultPlan::none());
    let plan = outage_plan(&base.trace, base.cfg.time_unit.secs(), 13);
    let faulty = ChaosInputs { plan, ..base };
    assert!(matches!(
        run_segment(&faulty, Some(&bytes), None),
        Err(SnapshotError::Mismatch { .. })
    ));
}

#[test]
fn resumed_lineage_emits_restored_event() {
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    let bytes = tiny_snapshot(3);
    match run_segment(&inp, Some(&bytes), None).expect("resume") {
        SegmentEnd::Finished(art) => {
            assert!(
                art.conservation_holds(),
                "resumed lineage lost track of packets"
            );
            // The canonicalized report strips the bookkeeping events, so
            // equality with the straight run still holds elsewhere; here
            // just confirm the resume itself completed.
            assert!(!art.obs_json.is_empty());
        }
        SegmentEnd::Paused(_) => panic!("unkilled resume paused"),
    }
}

#[test]
fn checkpoint_written_event_lands_inside_the_snapshot_recorder() {
    let inp = ChaosInputs::tiny(7, FaultPlan::none());
    let mut router = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let mut session = SimSession::start(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        &mut router,
        Some(Box::new(Recorder::new(DEFAULT_RING_CAPACITY))),
    );
    assert!(session.run_to_unit(3));
    let bytes = checkpoint(&mut session, &inp, 3);
    let file = SnapshotFile::parse(&bytes).expect("parses");
    let obs = file.section("obs").expect("obs section");
    let mut r = dtnflow_snapshot::Reader::new(&obs.payload);
    let rec = Recorder::decode(&mut r).expect("recorder decodes");
    let snap = rec.snapshot();
    let count = snap
        .event_counts
        .iter()
        .find(|(k, _)| k == "checkpoint_written")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    assert_eq!(count, 1, "CheckpointWritten missing from snapshot recorder");
}

// ---- timer-backed stranded-packet retries (DESIGN.md §14) -------------

/// The tiny outage cell with graceful degradation on, so each station
/// recovery schedules a stranded-packet retry on the engine timer queue.
fn tiny_retry_inputs(seed: u64) -> ChaosInputs {
    let base = ChaosInputs::tiny(seed, FaultPlan::none());
    let plan = outage_plan(&base.trace, base.cfg.time_unit.secs(), seed);
    assert!(!plan.station_outages.is_empty());
    ChaosInputs {
        plan,
        flow: FlowConfig::with_degradation(),
        ..base
    }
}

/// The retry-timer token tag (`dtnflow_router`'s bit-63 namespace); the
/// test asserts a pending timer entry carries it across a checkpoint.
const RETRY_TOKEN_TAG: u64 = 1 << 63;

/// A retry is an ordinary pending timer: it fires at the recovery
/// instant, but only after the station-up event that scheduled it. A
/// checkpoint taken between the two events holds the tagged timer entry
/// in its engine section, and the restored run is byte-identical to the
/// uninterrupted one. A restore that dropped the pending retry would
/// lose the stranded packets' re-queue and diverge.
#[test]
fn pending_retry_timer_survives_checkpoint_restore() {
    let inp = tiny_retry_inputs(13);
    let straight = run_straight(&inp).expect("straight run");
    assert!(straight.conservation_holds());

    // Step one event at a time until a tagged retry timer is pending for
    // a station that still holds stranded packets, so the retry has work
    // to lose.
    let mut router = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let mut session = SimSession::start(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        &mut router,
        Some(Box::new(Recorder::new(DEFAULT_RING_CAPACITY))),
    );
    let mut steps = 0;
    loop {
        assert!(
            session.step_events(1),
            "no retry timer pending before the run ended"
        );
        steps += 1;
        let mut w = Writer::new();
        session.encode_engine(&mut w);
        // Cursor, timer sequence, then the pending `(at, payload, seq)` timers.
        let (_cursor, _timer_seq, timers): (usize, u64, Vec<(u64, u64, u64)>) =
            Codec::decode(&mut Reader::new(&w.into_bytes())).expect("engine section decodes");
        let stranded_retry = |&(_, payload, _): &(u64, u64, u64)| {
            let lm = LandmarkId((payload & 0xFFFF) as u16);
            payload & RETRY_TOKEN_TAG != 0 && session.world().station_packet_count(lm) > 0
        };
        if timers.iter().any(stranded_retry) {
            break;
        }
    }
    let unit = session.now().secs() / inp.cfg.time_unit.secs();
    let bytes = checkpoint(&mut session, &inp, unit);
    drop(session);

    let art = match run_segment(&inp, Some(&bytes), None).expect("resume runs") {
        SegmentEnd::Finished(a) => a,
        SegmentEnd::Paused(_) => panic!("unkilled resume paused"),
    };
    assert!(art.conservation_holds());
    assert!(
        art.matches(&straight),
        "restore across a pending retry timer (after {steps} events) diverged"
    );
}

/// Golden pin of the retry firing order: at each recovery the stranded
/// packets re-queue in ascending packet id — exactly the station-store
/// scan order the old inline implementation used.
#[test]
fn wheel_retries_fire_in_station_scan_order() {
    let inp = tiny_retry_inputs(13);
    let mut router = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let mut session = SimSession::start(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        &mut router,
        Some(Box::new(Recorder::new(1 << 16))),
    );
    session.run_to_end();
    let out = session.finish();
    let rec = out
        .trace
        .and_then(Recorder::downcast)
        .expect("recorder attached");
    assert_eq!(rec.dropped(), 0, "ring too small to pin the retry order");
    // Group consecutive RetryQueued events by (instant, landmark): one
    // group per recovery sweep.
    let mut groups: Vec<(u64, u16, Vec<u32>)> = Vec::new();
    for ev in rec.events() {
        if let SimEvent::RetryQueued { at, lm, pkt } = ev {
            match groups.last_mut() {
                Some((t, l, pkts)) if *t == at.secs() && *l == lm.0 => pkts.push(pkt.0),
                _ => groups.push((at.secs(), lm.0, vec![pkt.0])),
            }
        }
    }
    assert!(
        !groups.is_empty(),
        "fault plan produced no stranded-packet retries"
    );
    for (t, lm, pkts) in &groups {
        assert!(
            pkts.windows(2).all(|w| w[0] < w[1]),
            "retries at t={t} lm={lm} out of scan order: {pkts:?}"
        );
    }
}

// ---- committed snapshot goldens ----------------------------------------

/// A mid-run checkpoint of [`golden_inputs`] at unit `max_unit() / 2`,
/// committed as raw bytes. It pins the whole container — run
/// fingerprint, engine cursor and pending timers, world, router and
/// flight recorder — so any change to the static schedule, the cursor
/// or a codec shows up as a byte diff here.
const MID_RUN_GOLDEN: &[u8] = include_bytes!("goldens/chaos_tiny13_mid.snap");

/// The same kind of checkpoint for [`loop_inputs`]. It pins the codec
/// branches the tiny cell leaves empty: queued and carried §IV-E.2 loop
/// corrections, seen-correction keys and order-2 Markov counts.
const LOOP_GOLDEN: &[u8] = include_bytes!("goldens/chaos_loops13_mid.snap");

/// The tiny cell under its seed-13 station-outage plan, with graceful
/// degradation on so retry timers are pending at the checkpoint.
fn golden_inputs() -> ChaosInputs {
    let base = ChaosInputs::tiny(13, FaultPlan::none());
    let plan = outage_plan(&base.trace, base.cfg.time_unit.secs(), 13);
    ChaosInputs {
        plan,
        flow: FlowConfig::with_degradation(),
        ..base
    }
}

/// A 2-node / 3-landmark corridor whose l0↔l1 leg runs at twice the
/// bandwidth of l1↔l2, so a falsified near-zero claim at l0/l1 makes
/// packets for l2 bounce and real loops form. Every DTN-FLOW extension
/// is on, the predictor has order 2, and the seed-13 outage plan runs.
fn loop_inputs() -> ChaosInputs {
    let mut visits = Vec::new();
    let mut stay = |node: u32, lm: u16, start: u64| {
        visits.push(Visit::new(
            NodeId(node),
            LandmarkId(lm),
            SimTime(start),
            SimTime(start + 6_000),
        ));
    };
    for d in 0..20u64 {
        let base = d * 86_400;
        // Node 0: two l0→l1→l0 round trips a day; node 1: one l1→l2→l1.
        for (k, s) in [(0u64, 1_000u64), (1, 43_000)] {
            let o = base + s + k;
            stay(0, 0, o);
            stay(0, 1, o + 10_000);
            stay(0, 0, o + 20_000);
        }
        stay(1, 1, base + 30_000);
        stay(1, 2, base + 40_000);
        stay(1, 1, base + 50_000);
    }
    let positions = (0..3).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
    let trace = Trace::new("loop-corridor", 2, 3, positions, visits).expect("corridor trace");
    let cfg = SimConfig {
        packets_per_landmark_per_day: 6.0,
        ttl: DAY.mul(3),
        time_unit: DAY,
        seed: 13,
        ..SimConfig::default()
    };
    let workload = Workload::uniform(&cfg, trace.num_landmarks(), trace.duration());
    let plan = outage_plan(&trace, cfg.time_unit.secs(), 13);
    let flow = FlowConfig {
        order_k: 2,
        inject_loops: vec![LoopInjection {
            at_unit: 4,
            members: vec![LandmarkId(0), LandmarkId(1)],
            dest: LandmarkId(2),
        }],
        ..FlowConfig::with_all_extensions()
    };
    ChaosInputs {
        trace,
        cfg,
        flow,
        workload,
        plan,
    }
}

/// The inputs a golden was taken from.
type GoldenInputs = fn() -> ChaosInputs;

/// Each committed golden with the inputs it was taken from.
const GOLDENS: [(&str, &[u8], GoldenInputs); 2] = [
    ("chaos_tiny13_mid", MID_RUN_GOLDEN, golden_inputs),
    ("chaos_loops13_mid", LOOP_GOLDEN, loop_inputs),
];

fn mid_run_snapshot(inp: &ChaosInputs) -> Vec<u8> {
    let unit = inp.max_unit() / 2;
    match run_segment(inp, None, Some(unit)).expect("segment runs") {
        SegmentEnd::Paused(b) => b,
        SegmentEnd::Finished(_) => panic!("run ended before unit {unit}"),
    }
}

#[test]
fn mid_run_snapshot_matches_the_committed_golden() {
    for (name, golden, inputs) in GOLDENS {
        let bytes = mid_run_snapshot(&inputs());
        let first_diff = bytes.iter().zip(golden).position(|(a, b)| a != b);
        assert!(
            bytes == golden,
            "{name}: snapshot ({} B) drifted from the golden ({} B), \
             first differing byte {first_diff:?}",
            bytes.len(),
            golden.len()
        );
    }
}

#[test]
fn loop_golden_holds_corrections_and_order2_counts() {
    let inp = loop_inputs();
    let bytes = mid_run_snapshot(&inp);
    let file = SnapshotFile::parse(&bytes).expect("snapshot parses");
    let mut r = Reader::new(&file.section("router").expect("router section").payload);
    let router = FlowRouter::restore_state(
        &mut r,
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    )
    .expect("router restores");
    let [queued, carried, seen, order2] = router.correction_census();
    assert!(
        queued > 0 && carried > 0 && seen > 0 && order2 > 0,
        "checkpoint leaves a codec branch empty: queued {queued}, carried {carried}, \
         seen {seen}, order-2 nodes {order2}"
    );
}

#[test]
fn resume_from_the_committed_golden_matches_the_straight_run() {
    for (name, golden, inputs) in GOLDENS {
        let inp = inputs();
        let straight = run_straight(&inp).expect("straight run");
        assert!(straight.conservation_holds());
        let art = match run_segment(&inp, Some(golden), None).expect("golden snapshot restores") {
            SegmentEnd::Finished(a) => a,
            SegmentEnd::Paused(_) => panic!("unkilled resume paused"),
        };
        assert!(art.conservation_holds());
        assert!(
            art.matches(&straight),
            "resume from {name} diverged from the straight run"
        );
    }
}

// ---- malformed payloads behind valid checksums -------------------------

/// Every section decoder a restore runs — schema, run fingerprint,
/// router, flight recorder, engine and world — with no simulation.
fn restore_only(inp: &ChaosInputs, bytes: &[u8]) -> Result<(), SnapshotError> {
    resume(inp, &SnapshotFile::parse(bytes)?, &mut None).map(drop)
}

/// At every `stride`-th offset of every section payload of both goldens,
/// overwrite 8 bytes (fewer at the payload's end) with each boundary
/// value, re-stamp the checksums and restore. The checksums pass, so the
/// decoders themselves see the damage: each case must come back `Ok` or
/// as a typed error, never as a panic.
fn sweep_malformed_payloads(stride: usize) {
    const BOUNDARY: [u64; 4] = [0, 1, u32::MAX as u64, u64::MAX];
    for (name, golden, inputs) in GOLDENS {
        let inp = inputs();
        let file = SnapshotFile::parse(golden).expect("golden parses");
        for (i, target) in file.sections.iter().enumerate() {
            for at in (0..target.payload.len()).step_by(stride) {
                for value in BOUNDARY {
                    let mut builder = SnapshotBuilder::new();
                    for (j, s) in file.sections.iter().enumerate() {
                        let mut payload = s.payload.clone();
                        if j == i {
                            let end = (at + 8).min(payload.len());
                            payload[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
                        }
                        builder.add_section(&s.name, s.version, payload);
                    }
                    let bytes = builder.finish();
                    let outcome = catch_unwind(AssertUnwindSafe(|| restore_only(&inp, &bytes)));
                    assert!(
                        outcome.is_ok(),
                        "{name}: `{}` payload with {value:#x} at offset {at} panicked",
                        target.name
                    );
                }
            }
        }
    }
}

#[test]
fn malformed_payloads_are_typed_errors_sampled() {
    sweep_malformed_payloads(101);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "every offset; run with --release")]
fn malformed_payloads_are_typed_errors_at_every_offset() {
    sweep_malformed_payloads(1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn fig11_cell_resume_is_byte_identical() {
    let inp = ChaosInputs::fig11_cell(2_000, FaultPlan::none());
    let m = inp.max_unit();
    let straight = run_straight(&inp).expect("straight run");
    assert!(straight.conservation_holds());
    for kills in [
        vec![m / 4],
        vec![m / 2],
        vec![m - 2],
        vec![m / 4, m / 4, m / 2],
    ] {
        let (chaotic, _) = run_with_kills(&inp, &kills).expect("chaotic run");
        assert!(chaotic.conservation_holds());
        assert!(chaotic.matches(&straight), "fig11 kill {kills:?} diverged");
    }
}
