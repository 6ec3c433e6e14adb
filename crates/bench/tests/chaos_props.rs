//! Property tests for the checkpoint/restore layer: arbitrary kill
//! schedules and mid-unit pause points never perturb outcomes, the
//! container codec is re-encode-stable, and no corruption pattern is
//! silently accepted.

use dtnflow_bench::chaos::{run_segment, run_straight, run_with_kills, ChaosInputs, SegmentEnd};
use dtnflow_router::FlowRouter;
use dtnflow_sim::{FaultPlan, SimSession};
use dtnflow_snapshot::{Reader, SnapshotBuilder, SnapshotFile, Writer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The straight-through artifacts of the shared tiny cell, computed once
/// (every proptest case compares against the same reference).
fn straight_state() -> &'static Vec<u8> {
    static STATE: OnceLock<Vec<u8>> = OnceLock::new();
    STATE.get_or_init(|| {
        let inp = ChaosInputs::tiny(21, FaultPlan::none());
        run_straight(&inp).expect("straight run").state
    })
}

fn tiny_snapshot_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let inp = ChaosInputs::tiny(21, FaultPlan::none());
        match run_segment(&inp, None, Some(4)).expect("segment") {
            SegmentEnd::Paused(b) => b,
            SegmentEnd::Finished(_) => panic!("tiny run ended before unit 4"),
        }
    })
}

fn tiny_router(inp: &ChaosInputs) -> FlowRouter {
    FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    )
}

/// A fresh session over `inp` with no observability sink.
fn start_bare<'a>(inp: &'a ChaosInputs, router: &'a mut FlowRouter) -> SimSession<'a, FlowRouter> {
    SimSession::start(&inp.trace, &inp.cfg, &inp.workload, &inp.plan, router, None)
}

/// Outcome state (metrics + packets, canonical debug) of a finished
/// session without a sink.
fn bare_state(session: SimSession<'_, FlowRouter>) -> String {
    let out = session.finish();
    format!("{:?}\n{:?}", out.metrics, out.packets)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Mid-unit checkpoint property: pause anywhere — after any event
    /// count — checkpoint, restore, and the finished run matches the
    /// straight one; the engine cursor itself round-trips
    /// byte-identically through the restore.
    #[test]
    fn mid_unit_checkpoint_restores_byte_identically(
        seed in 1u64..64,
        steps in 1usize..600,
    ) {
        let inp = ChaosInputs::tiny(seed, FaultPlan::none());
        let mut straight_router = tiny_router(&inp);
        let mut straight = start_bare(&inp, &mut straight_router);
        straight.run_to_end();
        let want = bare_state(straight);

        let mut router = tiny_router(&inp);
        let mut session = start_bare(&inp, &mut router);
        session.step_events(steps);
        let mut ew = Writer::new();
        session.encode_engine(&mut ew);
        let engine_bytes = ew.into_bytes();
        let mut ww = Writer::new();
        session.encode_world(&mut ww);
        let world_bytes = ww.into_bytes();
        let mut rw = Writer::new();
        session.router().save_state(&mut rw);
        let router_bytes = rw.into_bytes();
        drop(session);

        let mut rr = Reader::new(&router_bytes);
        let mut restored_router = FlowRouter::restore_state(
            &mut rr,
            inp.flow.clone(),
            inp.trace.num_nodes(),
            inp.trace.num_landmarks(),
        ).expect("router restores");
        rr.finish("router").expect("router bytes consumed");
        let mut er = Reader::new(&engine_bytes);
        let mut wr = Reader::new(&world_bytes);
        let mut resumed = SimSession::resume(
            &inp.trace,
            &inp.cfg,
            &inp.workload,
            &inp.plan,
            &mut restored_router,
            None,
            &mut er,
            &mut wr,
        ).expect("session resumes");
        er.finish("engine").expect("engine bytes consumed");
        wr.finish("world").expect("world bytes consumed");

        // Re-encoding the freshly resumed engine reproduces the
        // checkpointed cursor bytes exactly.
        let mut ew2 = Writer::new();
        resumed.encode_engine(&mut ew2);
        prop_assert_eq!(
            ew2.into_bytes(), engine_bytes.clone(),
            "engine cursor did not round-trip (steps={})",
            steps
        );

        resumed.run_to_end();
        let got = bare_state(resumed);
        prop_assert_eq!(got, want, "mid-unit checkpoint after {} events diverged", steps);
    }

    /// Any ascending kill schedule (repeats allowed — a re-kill of the
    /// freshly restored process) reproduces the uninterrupted run.
    #[test]
    fn any_kill_schedule_is_byte_identical(
        mut kills in proptest::collection::vec(1u64..19, 1..4),
    ) {
        kills.sort_unstable();
        let inp = ChaosInputs::tiny(21, FaultPlan::none());
        let (chaotic, _) = run_with_kills(&inp, &kills).expect("chaotic run");
        prop_assert!(chaotic.conservation_holds());
        prop_assert_eq!(&chaotic.state, straight_state(), "kills {:?}", kills);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Decode → re-encode of a real checkpoint container is byte-stable
    /// regardless of where we slice sections back together from.
    #[test]
    fn container_reencode_is_byte_stable(_x in 0u8..1) {
        let bytes = tiny_snapshot_bytes();
        let file = SnapshotFile::parse(bytes).expect("parses");
        let mut b = SnapshotBuilder::new();
        for s in &file.sections {
            b.add_section(&s.name, s.version, s.payload.clone());
        }
        prop_assert_eq!(&b.finish(), bytes);
    }

    /// Single-byte corruption anywhere in the container is always
    /// detected (section or whole-file checksum), never accepted and
    /// never a panic.
    #[test]
    fn single_byte_corruption_is_always_detected(
        raw in any::<u64>(),
        mask in 1u8..255,
    ) {
        let bytes = tiny_snapshot_bytes();
        let i = (raw % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[i] ^= mask;
        let inp = ChaosInputs::tiny(21, FaultPlan::none());
        prop_assert!(
            run_segment(&inp, Some(&bad), None).is_err(),
            "flip {mask:#x} at byte {i} was accepted"
        );
    }

    /// Every strict prefix of a container is rejected.
    #[test]
    fn truncation_is_always_detected(raw in any::<u64>()) {
        let bytes = tiny_snapshot_bytes();
        let cut = (raw % bytes.len() as u64) as usize;
        let inp = ChaosInputs::tiny(21, FaultPlan::none());
        prop_assert!(run_segment(&inp, Some(&bytes[..cut]), None).is_err());
    }
}
