//! The group verdict is invisible in outcomes.
//!
//! `UtilityRouter` asks a model that is not deadline-aware once per
//! destination group and ends the group on a "no". `PerPacketRouter`
//! below replays the older per-packet encounter exchange through the
//! same public `UtilityModel` trait, asking before every packet. For
//! every baseline, random tiny traces and configs must give the same
//! run byte for byte under both routers.

use dtnflow_baselines::{GeoComm, Per, Pgr, Prophet, SimBet, UtilityModel, UtilityRouter};
use dtnflow_core::config::SimConfig;
use dtnflow_core::dense::{DenseMap, DenseSet};
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::packet::PacketLoc;
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_mobility::{Trace, Visit};
use dtnflow_sim::{Router, RunSpec, SimOutcome, TransferError, World};
use dtnflow_snapshot::Writer;
use proptest::prelude::*;

/// The per-packet reference: the same carry-and-compare router, but the
/// model is asked before every packet with TTL left and a "no" only skips
/// that packet.
struct PerPacketRouter<U: UtilityModel> {
    model: U,
    groups: Vec<DenseMap<u16, DenseSet<PacketId>>>,
}

impl<U: UtilityModel> PerPacketRouter<U> {
    fn new(model: U) -> Self {
        PerPacketRouter {
            model,
            groups: Vec::new(),
        }
    }

    fn ensure_node(&mut self, node: NodeId) {
        if self.groups.len() <= node.index() {
            self.groups.resize_with(node.index() + 1, DenseMap::new);
        }
    }

    fn index_packet(&mut self, node: NodeId, dst: LandmarkId, pkt: PacketId) {
        self.ensure_node(node);
        self.groups[node.index()].get_or_default(dst.0).insert(pkt);
    }

    fn forward_pass(&mut self, world: &mut World, holder: NodeId, other: NodeId) {
        self.ensure_node(holder);
        let dsts: Vec<u16> = self.groups[holder.index()].keys().collect();
        let now = world.now();
        'pass: for dst in dsts {
            let Some(set) = self.groups[holder.index()].get_mut(dst) else {
                continue;
            };
            set.retain(|p| world.packet(p).loc == PacketLoc::OnNode(holder));
            let pkts: Vec<PacketId> = set.iter().collect();
            let dst_lm = LandmarkId(dst);
            for pkt in pkts {
                let remaining = world.remaining_ttl(pkt);
                if remaining == SimDuration::ZERO {
                    continue;
                }
                if !self
                    .model
                    .should_forward(holder, other, dst_lm, remaining, now)
                {
                    continue;
                }
                match world.transfer_to_node(pkt, other) {
                    Ok(()) => {
                        if let Some(g) = self.groups[holder.index()].get_mut(dst) {
                            g.remove(pkt);
                        }
                        self.index_packet(other, dst_lm, pkt);
                    }
                    Err(TransferError::NoSpace) => break 'pass,
                    Err(_) => continue,
                }
            }
        }
    }
}

impl<U: UtilityModel> Router for PerPacketRouter<U> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.model.on_visit(node, lm, world.now());
        let pending: Vec<PacketId> = world.pending_at(lm).collect();
        for pkt in pending {
            let dst = world.packet(pkt).dst;
            match world.transfer_to_node(pkt, node) {
                Ok(()) => self.index_packet(node, dst, pkt),
                Err(TransferError::NoSpace) => break,
                Err(_) => continue,
            }
        }
    }

    fn on_encounter(
        &mut self,
        world: &mut World,
        newcomer: NodeId,
        present: NodeId,
        _lm: LandmarkId,
    ) {
        let entries = self.model.table_entries(world.num_landmarks());
        world.record_table_exchange(entries * 2);
        self.forward_pass(world, newcomer, present);
        self.forward_pass(world, present, newcomer);
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        let p = world.packet(pkt);
        let PacketLoc::PendingAtSource(src) = p.loc else {
            return;
        };
        let (dst, remaining, now) = (p.dst, world.remaining_ttl(pkt), world.now());
        let mut best: Option<(f64, NodeId)> = None;
        for n in world.nodes_at(src).iter() {
            if !world.node_has_space(n) {
                continue;
            }
            let s = self.model.score(n, dst, remaining, now);
            if best.is_none_or(|(bs, bn)| s > bs || (s == bs && n < bn)) {
                best = Some((s, n));
            }
        }
        if let Some((_, n)) = best {
            if world.transfer_to_node(pkt, n).is_ok() {
                self.index_packet(n, dst, pkt);
            }
        }
    }
}

/// A random valid trace: per node, a sorted run of non-overlapping
/// visits to random landmarks, dense enough that nodes meet often.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        2usize..6,
        2usize..6,
        proptest::collection::vec(0u64..4_000, 4..60),
        0u64..u64::MAX,
    )
        .prop_map(|(num_nodes, num_landmarks, raw, salt)| {
            let mut visits = Vec::new();
            for n in 0..num_nodes {
                let mut t = salt % 500 + n as u64;
                for (i, r) in raw.iter().enumerate() {
                    if i % num_nodes != n {
                        continue;
                    }
                    let lm = ((r ^ salt) as usize + i) % num_landmarks;
                    let stay = 500 + (r * 7 + salt) % 4_000;
                    t += 50 + r % 800;
                    visits.push(Visit::new(
                        NodeId::from(n),
                        LandmarkId::from(lm),
                        SimTime(t),
                        SimTime(t + stay),
                    ));
                    t += stay;
                }
            }
            let positions = (0..num_landmarks)
                .map(|i| Point::new(i as f64 * 50.0, 0.0))
                .collect();
            Trace::new("verdict", num_nodes, num_landmarks, positions, visits)
                .expect("constructed trace is valid")
        })
}

/// Everything a run produces that the router can influence, as bytes.
fn fingerprint(out: &SimOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    out.metrics.encode(&mut w);
    let mut bytes = w.into_bytes();
    for p in &out.packets {
        bytes.extend(format!("{:?} {} {:?};", p.loc, p.hops, p.visited).into_bytes());
    }
    bytes
}

fn same_run<U: UtilityModel>(trace: &Trace, cfg: &SimConfig, make: impl Fn() -> U) {
    let grouped = RunSpec::new(trace, cfg).run(&mut UtilityRouter::new(make()));
    let reference = RunSpec::new(trace, cfg).run(&mut PerPacketRouter::new(make()));
    let name = make().name();
    assert!(
        fingerprint(&grouped) == fingerprint(&reference),
        "{name}: group verdict changed the run\n grouped {:?}\n per-packet {:?}",
        grouped.metrics.summary(),
        reference.metrics.summary(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        ..ProptestConfig::default()
    })]

    #[test]
    fn group_verdict_matches_per_packet_exchange(
        trace in arb_trace(),
        ttl in 600u64..30_000,
        rate in 50.0f64..4_000.0,
        memory_kb in 1u64..12,
        seed in 0u64..1_000,
    ) {
        let cfg = SimConfig {
            packets_per_landmark_per_day: rate,
            ttl: SimDuration::from_secs(ttl),
            time_unit: SimDuration::from_secs(900),
            node_memory: memory_kb * 1_024,
            warmup_fraction: 0.1,
            seed,
            ..SimConfig::default()
        };
        let (n, l) = (trace.num_nodes(), trace.num_landmarks());
        same_run(&trace, &cfg, || SimBet::new(n, l));
        same_run(&trace, &cfg, || Prophet::new(n, l));
        same_run(&trace, &cfg, || Pgr::new(n, l));
        same_run(&trace, &cfg, || GeoComm::new(n, l));
        same_run(&trace, &cfg, || Per::new(n, l));
    }

    #[test]
    fn verdicts_ignore_remaining_unless_deadline_aware(
        walk in proptest::collection::vec((0u32..4, 0u16..5, 1u64..5_000), 1..80),
        queries in proptest::collection::vec((0u32..4, 0u32..4, 0u16..5), 1..20),
        remainings in proptest::collection::vec(1u64..200_000, 2..8),
    ) {
        fn check<U: UtilityModel>(
            mut model: U,
            walk: &[(u32, u16, u64)],
            queries: &[(u32, u32, u16)],
            remainings: &[u64],
        ) {
            let mut now = SimTime::ZERO;
            for &(node, lm, gap) in walk {
                now += SimDuration::from_secs(gap);
                model.on_visit(NodeId(node), LandmarkId(lm), now);
            }
            now += SimDuration::from_secs(1_800);
            let name = model.name();
            assert!(!model.deadline_aware(), "{name} is deadline-aware");
            for &(holder, other, dst) in queries {
                let verdicts: Vec<bool> = remainings
                    .iter()
                    .map(|&r| {
                        model.should_forward(
                            NodeId(holder),
                            NodeId(other),
                            LandmarkId(dst),
                            SimDuration::from_secs(r),
                            now,
                        )
                    })
                    .collect();
                assert!(
                    verdicts.iter().all(|&v| v == verdicts[0]),
                    "{name}: verdict for {holder}->{other} dst {dst} depends on remaining: {verdicts:?}"
                );
            }
        }
        check(SimBet::new(4, 5), &walk, &queries, &remainings);
        check(Prophet::new(4, 5), &walk, &queries, &remainings);
        check(Pgr::new(4, 5), &walk, &queries, &remainings);
        check(GeoComm::new(4, 5), &walk, &queries, &remainings);
    }
}

#[test]
fn only_per_is_deadline_aware() {
    assert!(Per::new(1, 1).deadline_aware());
    assert!(!SimBet::new(1, 1).deadline_aware());
    assert!(!Prophet::new(1, 1).deadline_aware());
    assert!(!Pgr::new(1, 1).deadline_aware());
    assert!(!GeoComm::new(1, 1).deadline_aware());
}
