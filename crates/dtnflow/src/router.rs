//! The DTN-FLOW router: the paper's §IV algorithm wired into the
//! simulator's event hooks.
//!
//! Responsibilities per event:
//!
//! * **arrival** — measure the transit for the bandwidth table, settle the
//!   node's previous prediction (accuracy tracking, §IV-D.4), deliver the
//!   carried routing table / bandwidth report / loop corrections, make the
//!   node's next prediction, run the uplink (packets the node should hand
//!   to this station, §IV-D.1/3 step 5), then the downlink (packets this
//!   station should hand to the node, §IV-D.3 steps 2–4), and arm the
//!   dead-end timer (§IV-E.1);
//! * **departure** — record the completed stay and snapshot the carried
//!   routing table + reverse-bandwidth report (§IV-C.1/2);
//! * **time unit** — Eq. 4 bandwidth smoothing, routing-table recompute,
//!   load-balance rate bookkeeping (§IV-E.3), station re-bucketing, and
//!   any scheduled loop injections (the Table VII experiment).

use crate::bandwidth::BandwidthMatrix;
use crate::config::FlowConfig;
use crate::observer::{ObservationRow, TableObserver};
use crate::routing_table::{RoutingTable, StoredVector};
use dtnflow_core::dense::{DenseMap, DenseSet};
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::packet::PacketLoc;
use dtnflow_core::rankidx::{RankEntry, RankIndex};
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_predictor::{AccuracyTracker, MarkovPredictor, VisitHistory};
use dtnflow_sim::{LossReason, Router, SimEvent, TransferError, World};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};
use std::collections::BTreeSet;

/// Routing-table snapshot + control info a node carries between landmarks.
#[derive(Debug, Clone)]
struct Carried {
    from: LandmarkId,
    seq: u64,
    vector: Vec<f64>,
    entries: usize,
    /// Reverse-bandwidth report: `(addressee, B(addressee→from), unit)`.
    report: Option<(LandmarkId, f64, u64)>,
    corrections: Vec<Correction>,
}

/// A §IV-E.2 loop-correction notice, flooded among the loop members.
/// As it travels, each member appends its *current* delay claim for the
/// destination, so receivers get fresh distance-vector entries immediately
/// instead of waiting for the next periodic exchange ("immediately send
/// their updated distance vector … repeatedly until the next-hop landmark
/// remains unchanged").
#[derive(Debug, Clone, PartialEq)]
struct Correction {
    dest: LandmarkId,
    members: Vec<LandmarkId>,
    hops_left: u32,
    /// `(landmark, its current delay to dest)` — freshest claim per member.
    claims: Vec<(u16, f64)>,
}

/// Per-mobile-node router state.
struct NodeState {
    predictor: MarkovPredictor,
    accuracy: AccuracyTracker,
    history: VisitHistory,
    /// The prediction currently in force: (made at, predicted next, prob).
    predicted: Option<(LandmarkId, LandmarkId, f64)>,
    /// Where the node is and since when (while connected).
    arrival: Option<(LandmarkId, SimTime)>,
    last_landmark: Option<LandmarkId>,
    carried: Option<Carried>,
    /// Bumped on every arrive/depart; stale dead-end timers no-op.
    episode: u64,
}

/// Per-landmark router state.
struct LandmarkState {
    rt: RoutingTable,
    /// Station packets waiting for a carrier toward a next-hop landmark.
    /// Bucket sets are cleared but never dropped on rebucket, so their
    /// storage is reused tick after tick.
    by_next_hop: DenseMap<LandmarkId, DenseSet<PacketId>>,
    /// Station packets indexed by final destination (direct-delivery
    /// opportunities, §IV-D.2). Every packet at the station is filed
    /// here. The router unindexes every packet it moves out and every
    /// fault drop it makes, so only the unit-boundary TTL purge leaves
    /// entries behind, and the same boundary's rebucket clears them
    /// before any hand-off can run.
    by_dst: DenseMap<LandmarkId, DenseSet<PacketId>>,
    /// Station packets addressed to a mobile node (§IV-E.4).
    by_dst_node: DenseMap<NodeId, DenseSet<PacketId>>,
    pending_corrections: Vec<(u64, Correction)>,
    seen_corrections: BTreeSet<(u16, u16)>,
    /// Per-next-hop packet counts this unit (load balancing, §IV-E.3).
    lb_incoming: Vec<u64>,
    lb_outgoing: Vec<u64>,
    overloaded: Vec<bool>,
    unit_seq: u64,
}

/// Routing metadata DTN-FLOW stamps on a packet when forwarding it
/// (§IV-D.3 step 3: next-hop landmark id + expected overall delay).
#[derive(Debug, Clone, Copy)]
struct PktMeta {
    next_hop: Option<LandmarkId>,
    expected: f64,
    /// How many station outages have stranded this packet (degradation:
    /// re-queued on recovery until `MAX_RETRIES` in
    /// `process_stranded_retries`).
    retries: u32,
}

impl Default for PktMeta {
    fn default() -> Self {
        PktMeta {
            next_hop: None,
            expected: f64::INFINITY,
            retries: 0,
        }
    }
}

/// Extension-event counters, for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    pub dead_ends_detected: u64,
    pub loops_detected: u64,
    pub lb_reroutes: u64,
    pub tables_received: u64,
    pub reports_applied: u64,
    /// Packets re-aimed at their backup next hop because the primary was
    /// a known-down landmark (degradation).
    pub fallback_reroutes: u64,
    /// Stranded packets re-queued after their station recovered.
    pub stranded_requeues: u64,
    /// Stranded packets dropped after exhausting their retry budget.
    pub stranded_drops: u64,
}

/// Timer-token namespace tag for station-recovery retries (see
/// [`FlowRouter::retry_token`]): retries ride the engine timer queue as
/// ordinary timer events, distinguished from dead-end timers by this bit.
const RETRY_TOKEN_TAG: u64 = 1 << 63;

/// Recorded stays a node needs before dead-end detection (§IV-E.1)
/// arms: a guard against false positives from a thin stay history.
const DEAD_END_MIN_STAYS: usize = 10;

/// The DTN-FLOW router.
pub struct FlowRouter {
    // detlint: allow(S1, reason = "run input, not state: restore_state receives the same FlowConfig the run started with")
    cfg: FlowConfig,
    nodes: Vec<NodeState>,
    landmarks: Vec<LandmarkState>,
    /// All landmarks' Eq. 4 bandwidth measurements, one flat matrix.
    bw: BandwidthMatrix,
    meta: Vec<PktMeta>,
    observer: TableObserver,
    current_unit: u64,
    /// Frequently-visited landmarks registered per node (§IV-E.4).
    registrations: Vec<Vec<LandmarkId>>,
    /// Landmarks currently known to be down (fault hooks); routing falls
    /// back to backup next hops around them.
    known_down: Vec<bool>,
    /// Per-(landmark, target-landmark) connected carriers ranked by
    /// `accuracy × transit-probability` (DESIGN.md §14), maintained on
    /// arrive/depart/fail so `try_assign_packet` walks a pre-ranked
    /// list instead of rescanning every connected node per packet.
    rank: RankIndex,
    stats: FlowStats,
    /// Reusable packet-id buffer for the per-contact loops (uplink,
    /// §IV-E.4 delivery), taken and restored around each use so the hot
    /// paths never allocate once warm.
    // detlint: allow(S1, reason = "scratch buffer, empty between events by construction")
    scratch_pkts: Vec<PacketId>,
    /// Reusable per-bucket candidate buffer for `assign_to_node`.
    // detlint: allow(S1, reason = "scratch buffer, empty between events by construction")
    scratch_bucket: Vec<PacketId>,
    /// Reusable successor-distribution buffer for `assign_to_node`.
    // detlint: allow(S1, reason = "scratch buffer, empty between events by construction")
    scratch_dist: Vec<(LandmarkId, f64)>,
}

impl FlowRouter {
    /// Create a DTN-FLOW router for a network of the given size.
    pub fn new(cfg: FlowConfig, num_nodes: usize, num_landmarks: usize) -> Self {
        cfg.validate();
        let nodes = (0..num_nodes)
            .map(|_| NodeState {
                predictor: MarkovPredictor::with_landmarks(cfg.order_k, num_landmarks),
                accuracy: AccuracyTracker::with_factors(
                    num_landmarks,
                    cfg.accuracy.init,
                    cfg.accuracy.up,
                    cfg.accuracy.down,
                    cfg.accuracy.floor,
                ),
                history: VisitHistory::new(num_landmarks),
                predicted: None,
                arrival: None,
                last_landmark: None,
                carried: None,
                episode: 0,
            })
            .collect();
        let landmarks = (0..num_landmarks)
            .map(|l| LandmarkState {
                rt: RoutingTable::new(LandmarkId::from(l), num_landmarks),
                by_next_hop: DenseMap::with_index_capacity(num_landmarks),
                by_dst: DenseMap::with_index_capacity(num_landmarks),
                by_dst_node: DenseMap::new(),
                pending_corrections: Vec::new(),
                seen_corrections: BTreeSet::new(),
                lb_incoming: vec![0; num_landmarks],
                lb_outgoing: vec![0; num_landmarks],
                overloaded: vec![false; num_landmarks],
                unit_seq: 0,
            })
            .collect();
        /// EWMA weight `α` of Eq. 4.
        const BANDWIDTH_ALPHA: f64 = 0.2;
        FlowRouter {
            cfg,
            nodes,
            landmarks,
            bw: BandwidthMatrix::new(num_landmarks, BANDWIDTH_ALPHA),
            meta: Vec::new(),
            observer: TableObserver::new(),
            current_unit: 0,
            registrations: vec![Vec::new(); num_nodes],
            known_down: vec![false; num_landmarks],
            rank: RankIndex::new(num_landmarks),
            stats: FlowStats::default(),
            scratch_pkts: Vec::new(),
            scratch_bucket: Vec::new(),
            scratch_dist: Vec::new(),
        }
    }

    /// Extension-event counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Fig. 8 observation rows collected so far.
    pub fn observations(&self) -> &[ObservationRow] {
        self.observer.rows()
    }

    /// The current routing-table rows of a landmark (Table X).
    pub fn routing_rows(&self, lm: LandmarkId) -> Vec<(LandmarkId, LandmarkId, f64)> {
        self.landmarks[lm.index()].rt.rows()
    }

    /// The effective outgoing bandwidth estimate `B(from→to)` (Fig. 16b).
    pub fn bandwidth(&self, from: LandmarkId, to: LandmarkId) -> f64 {
        self.bw.outgoing(from, to)
    }

    /// A node's current prediction, if any: (predicted landmark, prob).
    pub fn prediction(&self, node: NodeId) -> Option<(LandmarkId, f64)> {
        self.nodes[node.index()].predicted.map(|(_, to, p)| (to, p))
    }

    /// The frequently-visited landmarks currently registered for a node.
    pub fn registered_landmarks(&self, node: NodeId) -> &[LandmarkId] {
        &self.registrations[node.index()]
    }

    /// How much §IV-E.2 loop-correction and order ≥ 2 Markov state the
    /// router holds: `[queued corrections, corrections carried by nodes,
    /// seen-correction keys, nodes with non-empty order ≥ 2 counts]`.
    /// Snapshot tests use it to show a checkpoint reaches those codec
    /// branches.
    pub fn correction_census(&self) -> [usize; 4] {
        let lms = &self.landmarks;
        let carried = self.nodes.iter().filter_map(|ns| ns.carried.as_ref());
        let order2 = |p: &MarkovPredictor| p.order() >= 2 && p.observations() > p.order();
        [
            lms.iter().map(|st| st.pending_corrections.len()).sum(),
            carried.map(|c| c.corrections.len()).sum(),
            lms.iter().map(|st| st.seen_corrections.len()).sum(),
            self.nodes.iter().filter(|ns| order2(&ns.predictor)).count(),
        ]
    }

    /// §IV-E.4: send a packet from `src`'s subarea to a mobile node, by
    /// copying it to each of the destination node's registered frequent
    /// landmarks. Returns the created packet copies (empty if the node has
    /// no registration yet). Copies made while `src`'s station is down
    /// are lost to the outage at once, as generated packets are, and
    /// never reach its indices.
    pub fn send_to_node(
        &mut self,
        world: &mut World,
        src: LandmarkId,
        dst_node: NodeId,
    ) -> Vec<PacketId> {
        let vias = self.registrations[dst_node.index()].clone();
        let mut out = Vec::with_capacity(vias.len());
        for via in vias {
            let pkt = world.create_node_packet(src, via, dst_node);
            if world.packet(pkt).loc.is_live() {
                self.station_accept(world, src, pkt, None);
            }
            out.push(pkt);
        }
        out
    }

    // ---- crate-internal services (used by the hybrid extension) ----------

    /// The overall transit score `p_a(lm) · p_pred(lm → toward)` of a node
    /// currently at `lm`; zero when the node is elsewhere or has never
    /// made that transit.
    pub(crate) fn transit_score(&self, node: NodeId, lm: LandmarkId, toward: LandmarkId) -> f64 {
        let ns = &self.nodes[node.index()];
        if ns.predictor.current() != Some(lm) {
            return 0.0;
        }
        ns.accuracy.overall(lm, ns.predictor.probability(toward))
    }

    /// The next-hop landmark stamped on a packet, if any.
    pub(crate) fn stamped_next_hop(&self, pkt: PacketId) -> Option<LandmarkId> {
        self.meta_of(pkt).next_hop
    }

    // ---- bench hooks ------------------------------------------------------
    //
    // The `hotpath` microbenches (crates/bench) drive the real station
    // rebuild over restored state. Hidden from docs; not a stable API.

    /// Rebuild station `lm`'s indices, as a unit boundary, station-down
    /// or retry does (bench support).
    #[doc(hidden)]
    pub fn bench_rebucket(&mut self, world: &World, lm: LandmarkId) {
        self.rebucket(world, lm);
    }

    // ---- internals --------------------------------------------------------

    fn meta_of(&self, pkt: PacketId) -> PktMeta {
        self.meta.get(pkt.index()).copied().unwrap_or_default()
    }

    /// `pkt`'s metadata slot, growing the table to reach it.
    fn meta_mut(&mut self, pkt: PacketId) -> &mut PktMeta {
        if self.meta.len() <= pkt.index() {
            self.meta.resize(pkt.index() + 1, PktMeta::default());
        }
        &mut self.meta[pkt.index()]
    }

    /// Give `pkt` a fresh next hop and expected delay, keeping its retry
    /// count.
    fn restamp(&mut self, pkt: PacketId, next_hop: Option<LandmarkId>, expected: f64) {
        let m = self.meta_mut(pkt);
        m.next_hop = next_hop;
        m.expected = expected;
    }

    /// File (`insert == true`) or delete (`insert == false`) `node`'s
    /// carrier-rank entries at `lm`: one `(accuracy × transit-prob,
    /// node)` key per positive-probability successor of its current
    /// context (DESIGN.md §14). Insert and remove recompute identical
    /// keys because a node's predictor distribution and accuracy are
    /// frozen during its stay — both only move inside `on_arrive`,
    /// before the arrival insert. A node whose predictor does not place
    /// it at `lm` (e.g. its visit record was dropped by the fault plan
    /// and it was last observed elsewhere) files nothing, exactly as
    /// the scan this index replaces skipped it.
    fn rank_update(&mut self, node: NodeId, lm: LandmarkId, insert: bool) {
        let mut dist = std::mem::take(&mut self.scratch_dist);
        let ns = &self.nodes[node.index()];
        if ns.predictor.current() != Some(lm) {
            self.scratch_dist = dist;
            return;
        }
        ns.predictor.distribution_into(&mut dist);
        let acc = ns.accuracy.get(lm);
        for &(target, p) in dist.iter() {
            if target == lm || p <= 0.0 {
                continue;
            }
            let score = acc * p;
            if insert {
                self.rank.insert(lm.index(), target.0, score, node.0);
            } else {
                self.rank.remove(lm.index(), target.0, score, node.0);
            }
        }
        self.scratch_dist = dist;
    }

    fn recompute_tables(&mut self, lm: LandmarkId, world: &World) {
        let flow = &self.cfg;
        let sim = world.config();
        let bw = &self.bw;
        let st = &mut self.landmarks[lm.index()];
        st.rt.recompute(&|to| bw.link_delay(lm, to, flow, sim));
    }

    /// The §IV-D.3 next-hop choice for a `dst`-bound packet sitting at
    /// `lm`: the routing-table entry, diverted to the backup next hop when
    /// the primary is overloaded (§IV-E.3) or a known-down landmark
    /// (degradation). Returns `(next, expected delay, lb-diverted,
    /// down-fallback)`.
    fn choose_next(
        &self,
        lm: LandmarkId,
        dst: LandmarkId,
    ) -> (Option<LandmarkId>, f64, bool, bool) {
        let st = &self.landmarks[lm.index()];
        let entry = st.rt.entry(dst);
        let mut next = entry.next;
        let mut expected = entry.delay;
        let mut lb_diverted = false;
        let mut fellback = false;
        if self.cfg.load_balance {
            /// Divert to the backup only when its delay is at most this
            /// factor of the primary's: offloading onto a far slower path
            /// costs more than the queueing it avoids.
            const MAX_DETOUR: f64 = 2.0;
            if let (Some(nh), Some(bk)) = (next, entry.backup) {
                if st.overloaded[nh.index()]
                    && !st.overloaded[bk.index()]
                    && entry.backup_delay <= MAX_DETOUR * entry.delay
                {
                    next = Some(bk);
                    expected = entry.backup_delay;
                    lb_diverted = true;
                }
            }
        }
        if self.cfg.degradation {
            if let Some(nh) = next {
                if self.known_down[nh.index()] {
                    if let Some(bk) = entry.backup {
                        if bk != nh
                            && !self.known_down[bk.index()]
                            && entry.backup_delay.is_finite()
                        {
                            next = Some(bk);
                            expected = entry.backup_delay;
                            fellback = true;
                        }
                    }
                }
            }
        }
        if dst == lm {
            // A node-addressed packet already at its via landmark: it just
            // waits for the destination node.
            next = None;
            expected = 0.0;
        }
        (next, expected, lb_diverted, fellback)
    }

    /// A packet landed at (or was generated at) station `lm`: choose its
    /// next hop (load-balance aware), stamp it, index it, and try to hand
    /// it to a suitable connected node right away (§IV-D.2/3).
    fn station_accept(
        &mut self,
        world: &mut World,
        lm: LandmarkId,
        pkt: PacketId,
        exclude: Option<NodeId>,
    ) {
        let p = world.packet(pkt);
        let dst = p.dst;
        let dst_node = p.dst_node;
        debug_assert_eq!(p.loc, PacketLoc::AtStation(lm));

        let (next, expected, lb_diverted, fellback) = self.choose_next(lm, dst);
        if lb_diverted {
            self.stats.lb_reroutes += 1;
        }
        if fellback {
            self.stats.fallback_reroutes += 1;
        }
        self.restamp(pkt, next, expected);

        let st = &mut self.landmarks[lm.index()];
        st.by_dst.get_or_default(dst).insert(pkt);
        if let Some(nh) = next {
            st.by_next_hop.get_or_default(nh).insert(pkt);
            st.lb_incoming[nh.index()] += 1;
        }
        if let Some(n) = dst_node {
            st.by_dst_node.get_or_default(n).insert(pkt);
        }

        self.try_assign_packet(world, lm, pkt, exclude);
    }

    /// Find the best connected carrier for one station packet: a node
    /// predicted to transit to the packet's destination (direct delivery)
    /// or, failing that, to its next-hop landmark — ranked by the overall
    /// transit probability `p_a · p_pred` (§IV-D.4).
    ///
    /// Served by the incrementally maintained carrier rank index
    /// (DESIGN.md §14): the pre-ranked `(lm, dst)` list is walked first
    /// — any direct-delivery candidate beats every routed one, whatever
    /// the scores — then the `(lm, next-hop)` list. Each walk stops at
    /// the first eligible member; the lists' `(score desc, id asc)`
    /// order makes that exactly the scan's best-score/lowest-id winner.
    fn try_assign_packet(
        &mut self,
        world: &mut World,
        lm: LandmarkId,
        pkt: PacketId,
        exclude: Option<NodeId>,
    ) {
        // No carrier is filed at the station: neither walk below could
        // find one.
        if !self.rank.has_any(lm.index()) {
            return;
        }
        let meta = self.meta_of(pkt);
        let p = world.packet(pkt);
        debug_assert_eq!(
            p.loc,
            PacketLoc::AtStation(lm),
            "callers pass station packets"
        );
        let dst = p.dst;
        let remaining = world.remaining_ttl(pkt).secs() as f64;

        let pick = |world: &World, list: &[RankEntry]| -> Option<NodeId> {
            list.iter()
                .map(|e| NodeId(e.member))
                .find(|&n| Some(n) != exclude && world.node_has_space(n))
        };
        // Direct delivery (§IV-D.2): any candidate here wins outright.
        if dst != lm {
            if let Some(n) = pick(world, self.rank.ranked(lm.index(), dst.0)) {
                self.hand_to_carrier(world, lm, pkt, n, dst);
                return;
            }
        }
        // Next-hop relay (§IV-D.3 step 4), only when the stamped route
        // still fits the remaining TTL (§IV-D.5 step 4).
        if let Some(nh) = meta.next_hop {
            if nh != lm && meta.expected < remaining {
                if let Some(n) = pick(world, self.rank.ranked(lm.index(), nh.0)) {
                    self.hand_to_carrier(world, lm, pkt, n, nh);
                }
            }
        }
    }

    /// Transfer a station packet to a chosen carrier and stamp it.
    fn hand_to_carrier(
        &mut self,
        world: &mut World,
        lm: LandmarkId,
        pkt: PacketId,
        carrier: NodeId,
        toward: LandmarkId,
    ) -> bool {
        let dst = world.packet(pkt).dst;
        let expected = self.landmarks[lm.index()].rt.delay_to(dst);
        match world.transfer_to_node(pkt, carrier) {
            Ok(()) => {
                self.unindex(world, lm, pkt);
                self.landmarks[lm.index()].lb_outgoing[toward.index()] += 1;
                self.restamp(pkt, Some(toward), expected);
                true
            }
            Err(TransferError::Expired) => {
                self.unindex(world, lm, pkt);
                false
            }
            Err(_) => false,
        }
    }

    /// Remove a packet that left station `lm` from the station's three
    /// indices.
    fn unindex(&mut self, world: &World, lm: LandmarkId, pkt: PacketId) {
        let p = world.packet(pkt);
        let (dst, dst_node) = (p.dst, p.dst_node);
        let meta = self.meta_of(pkt);
        let st = &mut self.landmarks[lm.index()];
        if let Some(set) = st.by_dst.get_mut(dst) {
            set.remove(pkt);
        }
        if let Some(nh) = meta.next_hop {
            if let Some(set) = st.by_next_hop.get_mut(nh) {
                set.remove(pkt);
            }
        }
        if let Some(n) = dst_node {
            if let Some(set) = st.by_dst_node.get_mut(n) {
                set.remove(pkt);
            }
        }
    }

    /// Downlink at node arrival: give the node up to `UPLOAD_CAP` station
    /// packets it can usefully carry — direct-delivery packets first, then
    /// packets routed toward its predicted landmark, in minimum-remaining-
    /// TTL order (§IV-D.5 step 4; TTL order equals id order because every
    /// packet shares one TTL).
    fn assign_to_node(&mut self, world: &mut World, lm: LandmarkId, node: NodeId) {
        // The node can carry packets toward *any* landmark it has a
        // positive predicted probability of transiting to — its whole
        // successor distribution, best first. Within each target, direct-
        // delivery packets (dst == target) precede routed packets
        // (next hop == target), in minimum-remaining-TTL order (equal to
        // id order, since every packet shares one TTL).
        // The distribution and per-bucket candidate lists land in scratch
        // buffers owned by the router (taken here, restored at the single
        // exit below), so this per-contact path stops allocating once the
        // buffers are warm.
        let mut dist = std::mem::take(&mut self.scratch_dist);
        let at_lm = {
            let ns = &self.nodes[node.index()];
            ns.predictor.distribution_into(&mut dist);
            ns.predictor.current()
        };
        if at_lm != Some(lm) || dist.is_empty() {
            self.scratch_dist = dist;
            return;
        }
        /// Packets moved station→node per contact round: `K` of §IV-D.5.
        const UPLOAD_CAP: usize = 50;
        // The cap is the §IV-D.5 *per-round* granularity and only
        // applies when the radio is actually contended; with an
        // unconstrained radio the transfer is bounded by node memory, as
        // in the paper's trace experiments.
        let cap = if world.config().radio_budget_per_unit.is_some() {
            UPLOAD_CAP
        } else {
            usize::MAX
        };
        let mut assigned = 0usize;

        // Phase 0 honours the §IV-D.5 priority: packets whose expected
        // delay fits their remaining TTL go first. Phase 1 is best-effort
        // mop-up — a packet past its feasible window still rides along if
        // capacity remains, rather than freezing at the station.
        let mut bucket = std::mem::take(&mut self.scratch_bucket);
        'phases: for phase in 0..2 {
            for &(h, p) in &dist {
                if h == lm {
                    continue;
                }
                if assigned >= cap || !world.node_has_space(node) {
                    break 'phases;
                }
                // Bulk-load proportionally to the transit confidence: a
                // carrier that only sometimes heads to `h` takes only a
                // slice of the queue, leaving the rest for better-matched
                // carriers instead of stranding mis-transited packets.
                let free_slots = world.node_free_slots(node);
                let mut bucket_quota = ((free_slots as f64) * p).ceil() as usize;
                for direct in [true, false] {
                    if phase == 1 && direct {
                        continue; // direct packets were never deferred
                    }
                    let st = &self.landmarks[lm.index()];
                    let index = if direct { &st.by_dst } else { &st.by_next_hop };
                    let Some(set) = index.get(h) else { continue };
                    bucket.clear();
                    bucket.extend(set.iter());
                    for &pkt in bucket.iter() {
                        if assigned >= cap || bucket_quota == 0 || !world.node_has_space(node) {
                            break;
                        }
                        debug_assert_eq!(
                            world.packet(pkt).loc,
                            PacketLoc::AtStation(lm),
                            "station indices name only packets at the station"
                        );
                        if !direct {
                            let p = world.packet(pkt);
                            if p.dst == h {
                                continue; // handled by the direct pass
                            }
                            let meta = self.meta_of(pkt);
                            let remaining = world.remaining_ttl(pkt).secs() as f64;
                            let feasible = meta.expected < remaining;
                            if feasible != (phase == 0) {
                                continue;
                            }
                        }
                        if self.hand_to_carrier(world, lm, pkt, node, h) {
                            assigned += 1;
                            bucket_quota -= 1;
                        }
                    }
                }
            }
        }
        self.scratch_bucket = bucket;
        self.scratch_dist = dist;
    }

    /// Upload a packet carried by `node` to station `lm` (§IV-D.1, or a
    /// §IV-E.1 dead-end hand-back). A closed loop raises a correction;
    /// a packet the upload did not deliver is accepted at the station,
    /// whose first carrier search skips `node`. A refused upload leaves
    /// the router as it was.
    fn upload(&mut self, world: &mut World, lm: LandmarkId, pkt: PacketId, node: NodeId) {
        let Ok(out) = world.transfer_to_station(pkt, lm) else {
            return;
        };
        if out.loop_closed {
            self.handle_loop(world, lm, pkt);
        }
        if !out.delivered {
            self.station_accept(world, lm, pkt, Some(node));
        }
    }

    /// A packet closed a loop at `lm`: raise and apply a correction
    /// (§IV-E.2).
    fn handle_loop(&mut self, world: &mut World, lm: LandmarkId, pkt: PacketId) {
        self.stats.loops_detected += 1;
        if !self.cfg.loop_correction {
            return;
        }
        let p = world.packet(pkt);
        let dest = p.dst;
        let mut members: Vec<LandmarkId> = p.loop_members(lm).to_vec();
        members.sort();
        members.dedup();
        if members.len() < 2 {
            return;
        }
        let correction = Correction {
            dest,
            members,
            hops_left: 8,
            claims: Vec::new(),
        };
        self.apply_correction(world, lm, correction);
    }

    /// Apply a correction at `lm`.
    ///
    /// 1. Any claims already in the notice are installed as fresh
    ///    distance-vector entries for the destination (this is the
    ///    "updated distance vector" exchange of §IV-E.2).
    /// 2. The *first* time a member landmark sees this loop in a unit, it
    ///    distrusts the other members' stored claims for the destination —
    ///    this is what actually removes the stale entry sustaining the
    ///    loop.
    /// 3. The member appends its own (now recomputed) delay claim and the
    ///    notice is queued for further relaying with a hop budget.
    fn apply_correction(&mut self, world: &World, lm: LandmarkId, mut c: Correction) {
        let dest = c.dest;
        let mut changed = false;
        for &(j, v) in &c.claims {
            if j != lm.0 {
                let seq = self.landmarks[lm.index()].unit_seq;
                self.landmarks[lm.index()]
                    .rt
                    .set_claim(LandmarkId(j), dest, v, seq);
                changed = true;
            }
        }
        let key = (dest.0, c.members.first().map(|m| m.0).unwrap_or(0));
        let first_time = self.landmarks[lm.index()].seen_corrections.insert(key);
        if first_time && c.members.contains(&lm) {
            let others: Vec<LandmarkId> = c.members.iter().copied().filter(|&m| m != lm).collect();
            self.landmarks[lm.index()].rt.distrust(dest, &others);
            changed = true;
        }
        if changed {
            self.recompute_tables(lm, world);
        }
        if c.members.contains(&lm) {
            let my_delay = self.landmarks[lm.index()].rt.delay_to(dest);
            c.claims.retain(|&(j, _)| j != lm.0);
            c.claims.push((lm.0, my_delay));
        }
        if first_time && c.hops_left > 0 {
            let unit = self.current_unit;
            self.landmarks[lm.index()].pending_corrections.push((
                unit,
                Correction {
                    hops_left: c.hops_left - 1,
                    ..c
                },
            ));
        }
    }

    /// Rebuild station `lm`'s indices from its destination index, which
    /// files every packet at the station (DESIGN.md §14), without
    /// reading a packet record:
    ///
    /// 1. entries of packets that left without the router (the unit
    ///    boundary's TTL purge) go: from `by_dst` when its groups count
    ///    more packets than the station holds, from `by_dst_node`
    ///    always;
    /// 2. each destination group chooses its next hop once and stamps
    ///    all its packets with the choice, counting, when the choice fell
    ///    back, the `n` down-fallbacks that choosing once per packet
    ///    counts;
    /// 3. the next-hop buckets are refilled from one ascending walk of
    ///    the station store, each packet appended to the bucket of the
    ///    stamp it was just given.
    ///
    /// Stamps, buckets, map slots and counters equal those of the walk
    /// that chooses per packet and reads each packet's record
    /// (`rebucket_walk`, the test oracle). Every group is rebuilt:
    /// a table may recompute between rebuckets without re-stamping, so
    /// any stamp at the station may be stale. Run by the unit boundary
    /// after the table recompute, and by the station-down and retry
    /// paths.
    fn rebucket(&mut self, world: &World, lm: LandmarkId) {
        let held = world.station_packet_count(lm);
        let st = &mut self.landmarks[lm.index()];
        if st.by_dst.values().map(DenseSet::len).sum::<usize>() > held {
            for group in st.by_dst.values_mut() {
                group.retain(|pkt| world.station_holds(lm, pkt));
            }
        }
        for group in st.by_dst_node.values_mut() {
            group.retain(|pkt| world.station_holds(lm, pkt));
        }
        debug_assert_eq!(
            st.by_dst.values().map(DenseSet::len).sum::<usize>(),
            held,
            "every station packet is filed by destination"
        );
        for dst in (0..self.landmarks.len()).map(LandmarkId::from) {
            let st = &self.landmarks[lm.index()];
            let n = st.by_dst.get(dst).map_or(0, DenseSet::len);
            if n == 0 {
                continue;
            }
            let (next, expected, _, fellback) = self.choose_next(lm, dst);
            if fellback {
                self.stats.fallback_reroutes += n as u64;
            }
            // The group's highest id sets how far the table must reach.
            let top = self.landmarks[lm.index()].by_dst[dst].as_slice()[n - 1];
            self.meta_mut(top);
            for pkt in self.landmarks[lm.index()].by_dst[dst].as_slice() {
                let m = &mut self.meta[pkt.index()];
                m.next_hop = next;
                m.expected = expected;
            }
        }
        let st = &mut self.landmarks[lm.index()];
        for bucket in st.by_next_hop.values_mut() {
            bucket.clear();
        }
        for pkt in world.station_packets(lm) {
            if let Some(nh) = self.meta.get(pkt.index()).and_then(|m| m.next_hop) {
                st.by_next_hop.get_or_default(nh).insert(pkt);
            }
        }
    }

    /// The per-packet walk `rebucket` replaced, kept as its oracle:
    /// clear the three indices, then re-file each packet the station
    /// holds, in ascending id order, choosing its next hop per packet.
    #[cfg(test)]
    fn rebucket_walk(&mut self, world: &World, lm: LandmarkId) {
        let st = &mut self.landmarks[lm.index()];
        for s in st.by_next_hop.values_mut() {
            s.clear();
        }
        for s in st.by_dst.values_mut() {
            s.clear();
        }
        for s in st.by_dst_node.values_mut() {
            s.clear();
        }
        for pkt in world.station_packets(lm) {
            let p = world.packet(pkt);
            let (next, expected, _, fellback) = self.choose_next(lm, p.dst);
            self.stats.fallback_reroutes += u64::from(fellback);
            self.restamp(pkt, next, expected);
            let st = &mut self.landmarks[lm.index()];
            st.by_dst.get_or_default(p.dst).insert(pkt);
            if let Some(nh) = next {
                st.by_next_hop.get_or_default(nh).insert(pkt);
            }
            if let Some(n) = p.dst_node {
                st.by_dst_node.get_or_default(n).insert(pkt);
            }
        }
    }

    /// Landmark `lm`'s own §IV-C.1 unit-boundary work: the trace snapshot
    /// of its freshly folded Eq. 4 estimates, staleness decay, correction
    /// and load-balance bookkeeping, the routing-table recompute and the
    /// station rebucket. It touches only `lm`'s state, the stamps of the
    /// packets at its station and the fallback count, so running the
    /// landmarks one after another in ascending order is the whole
    /// boundary.
    fn landmark_unit(&mut self, world: &mut World, unit: u64, lm: LandmarkId) {
        // Only links with measured traffic are reported.
        if world.trace_enabled() {
            for j in (0..self.landmarks.len()).map(LandmarkId::from) {
                let value = self.bw.incoming(lm, j);
                if value > 0.0 {
                    world.emit(|at| SimEvent::BandwidthUpdated {
                        at,
                        from: j,
                        to: lm,
                        value,
                    });
                }
            }
        }
        let cfg = &self.cfg;
        let st = &mut self.landmarks[lm.index()];
        // Degradation: age out neighbour vectors that have not been
        // refreshed (e.g. across a station outage) before the recompute
        // below re-ranks routes. Past two units of age, each finite delay
        // claim of a vector grows 1.5x per unit.
        const STALENESS_MAX_AGE: u64 = 2;
        const STALENESS_FACTOR: f64 = 1.5;
        if cfg.degradation {
            st.rt.decay_stale(unit, STALENESS_MAX_AGE, STALENESS_FACTOR);
        }
        st.unit_seq = unit;
        st.seen_corrections.clear();
        st.pending_corrections
            .retain(|(born, _)| unit.saturating_sub(*born) <= 1);
        // Load-balance rates (§IV-E.3): overloaded when incoming exceeds
        // THETA x outgoing with real pressure (at least MIN_INCOMING
        // packets this unit) behind it.
        const THETA: f64 = 2.0;
        const MIN_INCOMING: u64 = 50;
        if cfg.load_balance {
            for h in 0..st.overloaded.len() {
                st.overloaded[h] = st.lb_incoming[h] >= MIN_INCOMING
                    && st.lb_incoming[h] as f64 > THETA * st.lb_outgoing[h] as f64;
            }
        }
        st.lb_incoming.iter_mut().for_each(|c| *c = 0);
        st.lb_outgoing.iter_mut().for_each(|c| *c = 0);
        self.recompute_tables(lm, world);
        self.rebucket(world, lm);
    }

    /// Refresh §IV-E.4 registrations, reusing each node's buffer.
    fn refresh_registrations(&mut self) {
        /// Frequently visited landmarks a node registers at (§IV-E.4).
        const FREQUENT_LANDMARKS: usize = 2;
        for (ns, reg) in self.nodes.iter().zip(self.registrations.iter_mut()) {
            ns.history.frequent_landmarks_into(FREQUENT_LANDMARKS, reg);
        }
    }

    fn timer_token(node: NodeId, episode: u64) -> u64 {
        (episode << 24) | node.0 as u64
    }

    fn decode_token(token: u64) -> (NodeId, u64) {
        (NodeId((token & 0xFF_FFFF) as u32), token >> 24)
    }

    /// Token for a station-recovery retry timer: bit 63 tags the retry
    /// namespace, the low bits carry the landmark. Dead-end tokens
    /// (`(episode << 24) | node`) never reach bit 63 — episodes count a
    /// node's visits, bounded far below `2^39`.
    fn retry_token(lm: LandmarkId) -> u64 {
        RETRY_TOKEN_TAG | lm.0 as u64
    }

    /// The landmark of a retry token, or `None` for dead-end tokens.
    fn decode_retry_token(token: u64) -> Option<LandmarkId> {
        (token & RETRY_TOKEN_TAG != 0).then_some(LandmarkId((token & 0xFFFF) as u16))
    }

    /// The stranded-packet scan a station-recovery retry timer triggers
    /// (scheduled by `on_station_up`). Packets stranded inside the failed
    /// station survived the outage: re-queue each one (retry budget
    /// permitting) and try to move the survivors out through any
    /// connected carriers right away.
    fn process_stranded_retries(&mut self, world: &mut World, lm: LandmarkId) {
        /// Station outages a stranded packet survives (re-queued on each
        /// recovery) before it is dropped.
        const MAX_RETRIES: u32 = 8;
        if !self.cfg.degradation {
            return;
        }
        // The retry fires after the recovery instant's other trace events:
        // if the station went down again before the timer fired, the next
        // recovery schedules a fresh one.
        if !world.station_is_up(lm) || self.known_down[lm.index()] {
            return;
        }
        let stranded: Vec<PacketId> = world.station_packets(lm).collect();
        for pkt in stranded {
            let retries = self.meta_of(pkt).retries + 1;
            if retries > MAX_RETRIES {
                self.unindex(world, lm, pkt);
                if world.drop_lost(pkt, LossReason::Outage).is_ok() {
                    self.stats.stranded_drops += 1;
                }
                continue;
            }
            self.meta_mut(pkt).retries = retries;
            world.record_retry();
            world.emit(|at| SimEvent::RetryQueued { at, lm, pkt });
            self.stats.stranded_requeues += 1;
        }
        self.rebucket(world, lm);
        let survivors: Vec<PacketId> = world.station_packets(lm).collect();
        for pkt in survivors {
            self.try_assign_packet(world, lm, pkt, None);
        }
    }

    // ---- checkpoint codec (DESIGN.md §11) ---------------------------------

    /// Serialize the complete mutable router state: per-node learning
    /// state, per-landmark tables and station indices, the bandwidth
    /// matrix, packet metadata, the Fig. 8 observer, and the extension
    /// counters. The config and its derived loop-injection schedule are
    /// *not* written — the restoring run supplies the same `FlowConfig`
    /// it started with. Scratch buffers are excluded (empty between
    /// events by construction).
    ///
    /// The station indices (`by_next_hop`/`by_dst`/`by_dst_node`) are
    /// serialized verbatim rather than rebuilt via `rebucket` on restore:
    /// rebucketing re-runs `choose_next`, which mutates
    /// `stats.fallback_reroutes` and would diverge from the
    /// uninterrupted run.
    pub fn save_state(&self, w: &mut Writer) {
        self.nodes.encode(w);
        w.put_seq(self.landmarks.len(), &self.landmarks, |w, st| st.encode(w));
        self.bw.encode(w);
        self.meta.encode(w);
        self.observer.encode(w);
        self.current_unit.encode(w);
        self.registrations.encode(w);
        self.known_down.encode(w);
        self.rank.encode(w);
        self.stats.encode(w);
    }

    /// Inverse of [`FlowRouter::save_state`]. The caller supplies the
    /// same `FlowConfig` and network dimensions the checkpointed run was
    /// started with; a snapshot whose dimensions disagree is rejected
    /// with [`SnapshotError::Mismatch`], and per-landmark or per-node
    /// tables of the wrong length with [`SnapshotError::Corrupt`].
    pub fn restore_state(
        r: &mut Reader<'_>,
        cfg: FlowConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<FlowRouter, SnapshotError> {
        cfg.validate();
        let router = FlowRouter {
            nodes: Codec::decode(r)?,
            landmarks: r.seq("FlowRouter.landmarks", |r| {
                LandmarkState::decode(r, num_nodes)
            })?,
            bw: Codec::decode(r)?,
            meta: Codec::decode(r)?,
            observer: Codec::decode(r)?,
            current_unit: Codec::decode(r)?,
            cfg,
            registrations: Codec::decode(r)?,
            known_down: Codec::decode(r)?,
            rank: Codec::decode(r)?,
            stats: Codec::decode(r)?,
            scratch_pkts: Vec::new(),
            scratch_bucket: Vec::new(),
            scratch_dist: Vec::new(),
        };
        let dims = [
            ("nodes", router.nodes.len(), num_nodes),
            ("landmarks", router.landmarks.len(), num_landmarks),
            ("bw", router.bw.side(), num_landmarks),
        ];
        for (field, found, run) in dims {
            if found != run {
                return Err(SnapshotError::Mismatch {
                    context: format!("FlowRouter.{field}: snapshot has {found}, run has {run}"),
                });
            }
        }
        // Landmark `l`'s state, with one per-destination cell per landmark.
        let landmark_fits = |(l, st): (usize, &LandmarkState)| {
            let lens = [
                st.rt.size(),
                st.lb_incoming.len(),
                st.lb_outgoing.len(),
                st.overloaded.len(),
            ];
            st.rt.me().index() == l && lens.iter().all(|&n| n == num_landmarks)
        };
        let mut carried = router.nodes.iter().filter_map(|ns| ns.carried.as_ref());
        let valid = router.landmarks.iter().enumerate().all(landmark_fits)
            && carried.all(|c| c.vector.len() == num_landmarks)
            && router.registrations.len() == num_nodes
            && router.known_down.len() == num_landmarks
            && router.rank.groups() == num_landmarks;
        if !valid {
            return Err(SnapshotError::Corrupt {
                context: "FlowRouter",
            });
        }
        Ok(router)
    }
}

// ---- checkpoint codec (module-private state) ------------------------------

impl Codec for Correction {
    fn encode(&self, w: &mut Writer) {
        self.dest.encode(w);
        self.members.encode(w);
        self.hops_left.encode(w);
        self.claims.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Correction {
            dest: Codec::decode(r)?,
            members: Codec::decode(r)?,
            hops_left: Codec::decode(r)?,
            claims: Codec::decode(r)?,
        })
    }
}

impl Codec for Carried {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.seq.encode(w);
        self.vector.encode(w);
        self.entries.encode(w);
        self.report.encode(w);
        self.corrections.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Carried {
            from: Codec::decode(r)?,
            seq: Codec::decode(r)?,
            vector: Codec::decode(r)?,
            entries: Codec::decode(r)?,
            report: Codec::decode(r)?,
            corrections: Codec::decode(r)?,
        })
    }
}

impl Codec for NodeState {
    fn encode(&self, w: &mut Writer) {
        self.predictor.encode(w);
        self.accuracy.encode(w);
        self.history.encode(w);
        self.predicted.encode(w);
        self.arrival.encode(w);
        self.last_landmark.encode(w);
        self.carried.encode(w);
        self.episode.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeState {
            predictor: Codec::decode(r)?,
            accuracy: Codec::decode(r)?,
            history: Codec::decode(r)?,
            predicted: Codec::decode(r)?,
            arrival: Codec::decode(r)?,
            last_landmark: Codec::decode(r)?,
            carried: Codec::decode(r)?,
            episode: Codec::decode(r)?,
        })
    }
}

/// Not a [`Codec`]: decoding needs the run's node count, which bounds
/// the `by_dst_node` keys.
impl LandmarkState {
    fn encode(&self, w: &mut Writer) {
        self.rt.encode(w);
        self.by_next_hop.encode(w);
        self.by_dst.encode(w);
        self.by_dst_node.encode(w);
        self.pending_corrections.encode(w);
        self.seen_corrections.encode(w);
        self.lb_incoming.encode(w);
        self.lb_outgoing.encode(w);
        self.overloaded.encode(w);
        self.unit_seq.encode(w);
    }

    /// Inverse of [`LandmarkState::encode`]. `by_dst_node` keys are
    /// node ids, checked against `num_nodes` before the map allocates
    /// a slot for them.
    fn decode(r: &mut Reader<'_>, num_nodes: usize) -> Result<Self, SnapshotError> {
        Ok(LandmarkState {
            rt: Codec::decode(r)?,
            by_next_hop: Codec::decode(r)?,
            by_dst: Codec::decode(r)?,
            by_dst_node: DenseMap::decode_below(r, num_nodes)?,
            pending_corrections: Codec::decode(r)?,
            seen_corrections: Codec::decode(r)?,
            lb_incoming: Codec::decode(r)?,
            lb_outgoing: Codec::decode(r)?,
            overloaded: Codec::decode(r)?,
            unit_seq: Codec::decode(r)?,
        })
    }
}

impl Codec for PktMeta {
    fn encode(&self, w: &mut Writer) {
        self.next_hop.encode(w);
        self.expected.encode(w);
        self.retries.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(PktMeta {
            next_hop: Codec::decode(r)?,
            expected: Codec::decode(r)?,
            retries: Codec::decode(r)?,
        })
    }
}

impl Codec for FlowStats {
    fn encode(&self, w: &mut Writer) {
        self.dead_ends_detected.encode(w);
        self.loops_detected.encode(w);
        self.lb_reroutes.encode(w);
        self.tables_received.encode(w);
        self.reports_applied.encode(w);
        self.fallback_reroutes.encode(w);
        self.stranded_requeues.encode(w);
        self.stranded_drops.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(FlowStats {
            dead_ends_detected: Codec::decode(r)?,
            loops_detected: Codec::decode(r)?,
            lb_reroutes: Codec::decode(r)?,
            tables_received: Codec::decode(r)?,
            reports_applied: Codec::decode(r)?,
            fallback_reroutes: Codec::decode(r)?,
            stranded_requeues: Codec::decode(r)?,
            stranded_drops: Codec::decode(r)?,
        })
    }
}

impl Router for FlowRouter {
    fn name(&self) -> &'static str {
        "DTN-FLOW"
    }

    fn uses_stations(&self) -> bool {
        true
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        let now = world.now();
        // When the fault plan drops this visit's record, the learning
        // pipeline never sees it: no bandwidth measurement, no accuracy
        // settlement, no predictor observation, no stay history. The
        // physical exchanges (packets, carried tables) still happen.
        let recorded = world.visit_recorded();
        // A down station buffers nothing and learns nothing: no bandwidth
        // measurement and no carried-table delivery until it recovers
        // (this is what lets its neighbours' stored vectors go stale).
        let station_up = world.station_is_up(lm);

        // 1. Transit bookkeeping: bandwidth measurement + prediction
        //    settlement.
        let (prev, predicted) = {
            let ns = &self.nodes[node.index()];
            (ns.last_landmark, ns.predicted)
        };
        // `filter` encodes "a transit has a distinct source" in the type:
        // no source, or a revisit of the same landmark, is not a transit.
        let transit_from = if recorded {
            prev.filter(|&p| p != lm)
        } else {
            None
        };
        if let Some(from) = transit_from {
            if station_up {
                self.bw.record_arrival_from(lm, from);
            }
            if let Some((made_at, to, _)) = predicted {
                if made_at == from {
                    self.nodes[node.index()].accuracy.record(from, to == lm);
                }
            }
        }

        // 2. Deliver carried routing info.
        if station_up {
            if let Some(carried) = self.nodes[node.index()].carried.take() {
                if carried.from != lm {
                    let (c_from, c_entries) = (carried.from, carried.entries);
                    let accepted = self.landmarks[lm.index()].rt.receive(
                        carried.from,
                        StoredVector {
                            seq: carried.seq,
                            delays: carried.vector,
                        },
                    );
                    world.record_table_exchange(carried.entries);
                    world.emit(|at| SimEvent::TableExchanged {
                        at,
                        from: c_from,
                        to: lm,
                        entries: c_entries,
                        accepted,
                    });
                    self.stats.tables_received += 1;
                    if let Some((addressee, value, seq)) = carried.report {
                        if addressee == lm && self.bw.apply_report(lm, carried.from, value, seq) {
                            self.stats.reports_applied += 1;
                        }
                    }
                    if accepted {
                        self.recompute_tables(lm, world);
                    }
                    // `carried` is owned here, so the corrections can be
                    // consumed without the clone a borrowed walk would need.
                    for c in carried.corrections {
                        self.apply_correction(world, lm, c);
                    }
                }
            }
        }

        // 3. Update the node's predictor and make the next prediction.
        {
            let ns = &mut self.nodes[node.index()];
            ns.arrival = Some((lm, now));
            ns.episode += 1;
            if recorded {
                ns.predictor.observe(lm);
                ns.predicted = ns.predictor.predict().map(|(to, p)| (lm, to, p));
            }
        }
        // File the node in the carrier rank index now that its predictor
        // is settled for this stay — the uplink below may already need it
        // as a candidate for other packets at this station.
        self.rank_update(node, lm, true);

        // 4. Uplink: hand over deliverable/improvable packets (§IV-D.1).
        let mut carried_pkts = std::mem::take(&mut self.scratch_pkts);
        carried_pkts.clear();
        carried_pkts.extend(world.node_packets(node));
        for &pkt in carried_pkts.iter() {
            let p = world.packet(pkt);
            let dst = p.dst;
            let meta = self.meta_of(pkt);
            let here_delay = self.landmarks[lm.index()].rt.delay_to(dst);
            let upload = dst == lm
                || meta.next_hop == Some(lm)
                || here_delay < meta.expected * (1.0 + self.cfg.mis_transit_tolerance);
            // §IV-D mis-transit: the packet was stamped toward a different
            // landmark than the one its carrier actually reached.
            if meta.next_hop.is_some_and(|nh| nh != lm && dst != lm) {
                world.emit(|at| SimEvent::MisTransit {
                    at,
                    pkt,
                    node,
                    lm,
                    uploaded: upload,
                });
            }
            if upload {
                self.upload(world, lm, pkt, node);
            }
        }

        // 5. §IV-E.4 deliveries: station packets addressed to this node
        //    (reusing the uplink buffer).
        let mut addressed = carried_pkts;
        addressed.clear();
        if let Some(s) = self.landmarks[lm.index()].by_dst_node.get(node) {
            addressed.extend(s.iter());
        }
        for &pkt in addressed.iter() {
            // A packet that expired on the way out leaves the station too.
            if let Ok(()) | Err(TransferError::Expired) = world.deliver_to_dst_node(pkt, node) {
                self.unindex(world, lm, pkt);
            }
        }
        self.scratch_pkts = addressed;

        // 6. Downlink: load the node with packets it can usefully carry.
        self.assign_to_node(world, lm, node);

        // 7. Dead-end timer (§IV-E.1).
        if let Some(gamma) = self.cfg.dead_end {
            let ns = &self.nodes[node.index()];
            if ns.history.len() >= DEAD_END_MIN_STAYS {
                let overall = ns.history.avg_stay_overall().map(|d| d.secs());
                let here = ns.history.avg_stay_at(lm).map(|d| d.secs());
                let base = match (overall, here) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some(avg) = base {
                    let thr = SimDuration::from_secs(((avg as f64) * gamma).round() as u64 + 1);
                    world.schedule_timer(
                        now + thr,
                        Self::timer_token(node, self.nodes[node.index()].episode),
                    );
                }
            }
        }
    }

    fn on_depart(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        // The node is leaving: delete its carrier-rank entries (same keys
        // the arrival filed — its predictor state has not moved since).
        self.rank_update(node, lm, false);
        // Last-call downlink: packets that reached this station during the
        // node's stay leave with it if they match its prediction.
        self.assign_to_node(world, lm, node);
        let now = world.now();
        // A visit whose record was lost leaves no trace in the learning
        // pipeline: no stay history, and the next transit is measured
        // from the last *recorded* landmark.
        let recorded = world.visit_recorded();
        {
            let ns = &mut self.nodes[node.index()];
            if let Some((at, since)) = ns.arrival.take() {
                debug_assert_eq!(at, lm);
                if recorded && now > since {
                    ns.history.record(lm, since, now);
                }
            }
            if recorded {
                ns.last_landmark = Some(lm);
            }
            ns.episode += 1;
        }
        // Snapshot the carried routing table + reverse-bandwidth report.
        let predicted_to = self.nodes[node.index()]
            .predicted
            .and_then(|(at, to, _)| (at == lm).then_some(to));
        let st = &self.landmarks[lm.index()];
        let report = predicted_to.map(|h| (h, self.bw.incoming(lm, h), st.unit_seq));
        let corrections = st
            .pending_corrections
            .iter()
            .map(|(_, c)| c.clone())
            .collect();
        self.nodes[node.index()].carried = Some(Carried {
            from: lm,
            seq: st.unit_seq,
            vector: st.rt.snapshot(),
            entries: st.rt.table_size(),
            report,
            corrections,
        });
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        // Station-mode packets are born at their source station; anything
        // else would be a sim-side bug, and dropping the event is strictly
        // safer than bringing the whole run down.
        let PacketLoc::AtStation(src) = world.packet(pkt).loc else {
            return;
        };
        self.station_accept(world, src, pkt, None);
    }

    /// The §IV-C.1 unit boundary: scheduled loop injections and the flat
    /// Eq. 4 fold over every landmark's incoming links, then each
    /// landmark's own work in ascending landmark order, then the §IV-E.4
    /// registration refresh.
    fn on_time_unit(&mut self, world: &mut World, unit: u64) {
        self.current_unit = unit;
        // Scheduled loop injections (Table VII experiment).
        for inj in self.cfg.inject_loops.iter().filter(|i| i.at_unit == unit) {
            let k = inj.members.len();
            for (idx, &m) in inj.members.iter().enumerate() {
                let next = inj.members[(idx + 1) % k];
                self.landmarks[m.index()]
                    .rt
                    .set_claim(next, inj.dest, 1.0, unit);
            }
        }
        // The per-landmark folds are independent, so folding them all
        // before any landmark's bookkeeping computes identical values.
        self.bw.end_of_unit_all();
        for lm in (0..self.landmarks.len()).map(LandmarkId::from) {
            self.landmark_unit(world, unit, lm);
        }
        self.refresh_registrations();
    }

    fn on_observe(&mut self, world: &mut World, idx: usize) {
        if world.trace_enabled() {
            for (l, st) in self.landmarks.iter().enumerate() {
                let lm = LandmarkId::from(l);
                let coverage = st.rt.coverage();
                let revision = st.rt.revision();
                world.emit(|at| SimEvent::RouteCoverage {
                    at,
                    lm,
                    coverage,
                    revision,
                });
            }
        }
        let per_landmark = self
            .landmarks
            .iter()
            .map(|st| (st.rt.coverage(), st.rt.next_hops()))
            .collect();
        self.observer.observe(idx, per_landmark);
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        // Station-recovery retries share the timer channel with dead-end
        // detection; the tag bit separates the namespaces.
        if let Some(lm) = Self::decode_retry_token(token) {
            self.process_stranded_retries(world, lm);
            return;
        }
        let Some(gamma) = self.cfg.dead_end else {
            return;
        };
        let (node, episode) = Self::decode_token(token);
        if node.index() >= self.nodes.len() {
            return;
        }
        {
            let ns = &self.nodes[node.index()];
            if ns.episode != episode {
                return; // the stay this timer was armed for has ended
            }
        }
        let Some((lm, since)) = self.nodes[node.index()].arrival else {
            return;
        };
        let elapsed = world.now().since(since);
        let stuck =
            self.nodes[node.index()]
                .history
                .is_dead_end(lm, elapsed, gamma, DEAD_END_MIN_STAYS);
        if !stuck {
            return;
        }
        self.stats.dead_ends_detected += 1;
        // Hand packets back to the landmark so other nodes can take over
        // (§IV-E.1) — but only those the landmark can route onward
        // (the station "utilizes its routing table to decide the next-hop
        // landmark ... and forwards them to the nodes that can carry them
        // out"); a station with no route would just strand the packet.
        let pkts: Vec<PacketId> = world
            .node_packets(node)
            .filter(|&p| {
                let dst = world.packet(p).dst;
                dst == lm || self.landmarks[lm.index()].rt.delay_to(dst).is_finite()
            })
            .collect();
        for pkt in pkts {
            self.upload(world, lm, pkt, node);
        }
    }

    fn on_station_down(&mut self, world: &mut World, lm: LandmarkId) {
        self.known_down[lm.index()] = true;
        if !self.cfg.degradation {
            return;
        }
        // Re-stamp packets at other stations that were aimed at the downed
        // landmark, so carriers stop ferrying toward a dead end and the
        // backup next hop takes over where one exists. A rebucket touches
        // only its own station, so no test below sees another's rebuild.
        for l in (0..self.landmarks.len()).map(LandmarkId::from) {
            let aimed_here = l != lm
                && world.station_is_up(l)
                && self.landmarks[l.index()]
                    .by_next_hop
                    .get(lm)
                    .is_some_and(|s| !s.is_empty());
            if aimed_here {
                self.rebucket(world, l);
            }
        }
    }

    fn on_station_up(&mut self, world: &mut World, lm: LandmarkId) {
        self.known_down[lm.index()] = false;
        if !self.cfg.degradation {
            return;
        }
        // Recompute routes with the landmark available again, then hand
        // the stranded-packet scan to the timer queue: the retry fires as
        // an ordinary timer event at the recovery instant, after the
        // event that scheduled it, and survives a checkpoint taken in
        // between like any pending timer.
        self.recompute_tables(lm, world);
        world.schedule_timer(world.now(), Self::retry_token(lm));
    }

    fn on_node_fail(&mut self, _world: &mut World, node: NodeId, at: Option<LandmarkId>) {
        // A node that dies while connected leaves without an `on_depart`:
        // delete its carrier-rank entries here instead (the predictor
        // state the keys derive from is untouched by the failure).
        if let Some(lm) = at {
            self.rank_update(node, lm, false);
        }
        // Everything the node carried (packets, snapshot tables) is
        // already destroyed by the engine. Reset the router-side view of
        // its in-flight state; its long-term mobility model (predictor,
        // accuracy, stay history) is the node's own persistent memory and
        // survives the failure, so it rejoins with it intact.
        let ns = &mut self.nodes[node.index()];
        ns.carried = None;
        ns.predicted = None;
        ns.arrival = None;
        // Clearing this keeps the failure gap out of the bandwidth
        // measurements: the first post-recovery arrival is not a transit.
        ns.last_landmark = None;
        ns.episode += 1; // stale dead-end timers no-op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoopInjection;
    use dtnflow_core::config::SimConfig;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::time::{SimTime, DAY};
    use dtnflow_mobility::{Trace, Visit};
    use dtnflow_sim::{FaultConfig, FaultPlan, RunSpec, SimSession, Workload};
    use proptest::prelude::*;

    /// A three-landmark corridor: node 0 shuttles l0<->l1, node 1 shuttles
    /// l1<->l2, daily. No node ever visits both ends, so only inter-
    /// landmark relaying can deliver l0->l2 packets.
    fn corridor_trace(days: u64) -> Trace {
        let mut visits = Vec::new();
        for d in 0..days {
            let base = d * 86_400;
            // Node 0: l0 morning, l1 noon, l0 evening.
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 1_000),
                SimTime(base + 10_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 20_000),
                SimTime(base + 30_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 40_000),
                SimTime(base + 50_000),
            ));
            // Node 1: l1 late morning, l2 afternoon, l1 night — offset so
            // it picks up what node 0 dropped at l1.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 32_000),
                SimTime(base + 42_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(2),
                SimTime(base + 52_000),
                SimTime(base + 62_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 72_000),
                SimTime(base + 82_000),
            ));
        }
        let positions = (0..3).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
        Trace::new("corridor", 2, 3, positions, visits).unwrap()
    }

    fn corridor_cfg() -> SimConfig {
        SimConfig {
            packets_per_landmark_per_day: 6.0,
            ttl: DAY.mul(6),
            time_unit: DAY,
            seed: 11,
            ..SimConfig::default()
        }
    }

    #[test]
    fn relays_across_landmarks_without_end_to_end_carriers() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let out = RunSpec::new(&trace, &cfg).run(&mut router);
        assert!(out.metrics.generated > 0);
        // l0 -> l2 (and reverse) packets require the two-hop relay; a
        // healthy DTN-FLOW delivers most packets.
        assert!(
            out.metrics.success_rate() > 0.6,
            "success {}",
            out.metrics.success_rate()
        );
        // Multi-hop deliveries exist: some packet crossed l0 -> l1 -> l2.
        let crossed = out
            .packets
            .iter()
            .any(|p| matches!(p.loc, PacketLoc::Delivered(_)) && p.visited.len() >= 2);
        assert!(crossed, "expected at least one relayed delivery");
        assert!(out.metrics.maintenance_ops > 0.0, "tables were exchanged");
    }

    /// A 4-landmark router whose l0 table routes to l3 via l1 (delay
    /// 1 + 5 = 6) with backup l2 (delay 2 + `backup_claim`, l2's claimed
    /// delay to l3).
    fn detour_router(flow: FlowConfig, backup_claim: f64) -> FlowRouter {
        let mut router = FlowRouter::new(flow, 2, 4);
        let mk = |pairs: &[(usize, f64)], seq| {
            let mut delays = vec![f64::INFINITY; 4];
            for &(d, v) in pairs {
                delays[d] = v;
            }
            StoredVector { seq, delays }
        };
        let link = |l: LandmarkId| match l.index() {
            1 => 1.0,
            2 => 2.0,
            _ => f64::INFINITY,
        };
        let st = &mut router.landmarks[0];
        st.rt.receive(LandmarkId(1), mk(&[(1, 0.0), (3, 5.0)], 1));
        st.rt
            .receive(LandmarkId(2), mk(&[(2, 0.0), (3, backup_claim)], 1));
        st.rt.recompute(&link);
        router
    }

    #[test]
    fn fallback_next_hop_avoids_known_down_landmark() {
        let mut router = detour_router(FlowConfig::with_degradation(), 5.0);

        // Healthy: the primary wins, no fallback flagged.
        let (next, delay, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(1)));
        assert!((delay - 6.0).abs() < 1e-12);
        assert!(!fellback);

        // Primary's landmark is known down: divert to the backup.
        router.known_down[1] = true;
        let (next, delay, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(2)));
        assert!((delay - 7.0).abs() < 1e-12);
        assert!(fellback);

        // Backup down too: nothing better exists, keep the primary.
        router.known_down[2] = true;
        let (next, _, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(1)));
        assert!(!fellback);

        // Without the degradation extension the down-set is ignored.
        router.cfg.degradation = false;
        router.known_down[2] = false;
        let (next, _, _, fellback) = router.choose_next(LandmarkId(0), LandmarkId(3));
        assert_eq!(next, Some(LandmarkId(1)));
        assert!(!fellback);
    }

    /// §IV-E.3: an overloaded primary diverts to a free backup within
    /// twice the primary's delay, and only then.
    #[test]
    fn overloaded_primary_diverts_to_a_free_nearby_backup() {
        let (l0, l1, l2, l3) = (LandmarkId(0), LandmarkId(1), LandmarkId(2), LandmarkId(3));
        let balanced = FlowConfig {
            load_balance: true,
            ..FlowConfig::default()
        };
        let mut router = detour_router(balanced.clone(), 5.0);
        router.landmarks[0].overloaded[1] = true;

        // Backup free and 7 <= 2 x 6: divert.
        let (next, delay, lb_diverted, fellback) = router.choose_next(l0, l3);
        assert_eq!(next, Some(l2));
        assert!((delay - 7.0).abs() < 1e-12);
        assert!(lb_diverted);
        assert!(!fellback);

        // Backup overloaded too: keep the primary.
        router.landmarks[0].overloaded[2] = true;
        let (next, _, lb_diverted, _) = router.choose_next(l0, l3);
        assert_eq!(next, Some(l1));
        assert!(!lb_diverted);

        // Without the extension the overload flags are ignored.
        router.landmarks[0].overloaded[2] = false;
        router.cfg.load_balance = false;
        let (next, _, lb_diverted, _) = router.choose_next(l0, l3);
        assert_eq!(next, Some(l1));
        assert!(!lb_diverted);

        // A packet already at its destination landmark has no next hop.
        router.cfg.load_balance = true;
        let (next, delay, lb_diverted, fellback) = router.choose_next(l0, l0);
        assert_eq!((next, delay), (None, 0.0));
        assert!(!lb_diverted && !fellback);

        // Backup beyond the detour bound (13 > 2 x 6): keep the primary.
        let mut router = detour_router(balanced, 11.0);
        router.landmarks[0].overloaded[1] = true;
        let entry = router.landmarks[0].rt.entry(l3);
        assert_eq!((entry.backup, entry.backup_delay), (Some(l2), 13.0));
        let (next, delay, lb_diverted, _) = router.choose_next(l0, l3);
        assert_eq!(next, Some(l1));
        assert!((delay - 6.0).abs() < 1e-12);
        assert!(!lb_diverted);
    }

    #[test]
    fn bandwidth_tables_learn_the_corridor() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = RunSpec::new(&trace, &cfg).run(&mut router);
        // l0 sees ~2 transits/day to l1 (node 0 shuttling), none to l2.
        let b01 = router.bandwidth(LandmarkId(0), LandmarkId(1));
        let b02 = router.bandwidth(LandmarkId(0), LandmarkId(2));
        assert!(b01 > 0.5, "b01 {b01}");
        assert!(b02 < 0.05, "b02 {b02}");
    }

    #[test]
    fn routing_tables_point_down_the_corridor() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = RunSpec::new(&trace, &cfg).run(&mut router);
        let rows = router.routing_rows(LandmarkId(0));
        let to_l2 = rows.iter().find(|(d, _, _)| *d == LandmarkId(2));
        let (_, next, delay) = to_l2.expect("l0 must know a route to l2");
        assert_eq!(*next, LandmarkId(1), "l0 routes to l2 via l1");
        assert!(delay.is_finite());
    }

    #[test]
    fn predictions_become_confident_on_periodic_movement() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = RunSpec::new(&trace, &cfg).run(&mut router);
        // Node 0 ends at l0 (last visit), so prediction is l1 next.
        let (to, prob) = router.prediction(NodeId(0)).expect("prediction exists");
        assert_eq!(to, LandmarkId(1));
        assert!(prob > 0.9, "prob {prob}");
    }

    #[test]
    fn observer_rows_cover_and_stabilize() {
        let trace = corridor_trace(16);
        let mut cfg = corridor_cfg();
        cfg.observe_points = 10;
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let _ = RunSpec::new(&trace, &cfg).run(&mut router);
        let rows = router.observations();
        assert_eq!(rows.len(), 10);
        let last = rows.last().unwrap();
        assert!(last.avg_coverage > 0.9, "coverage {}", last.avg_coverage);
        assert!(last.avg_stability > 0.9, "stability {}", last.avg_stability);
    }

    #[test]
    fn dead_end_detection_rescues_packets() {
        // Node 0 shuttles for a while, then gets stuck at l1 for days.
        let mut visits = Vec::new();
        for d in 0..10u64 {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 1_000),
                SimTime(base + 10_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 20_000),
                SimTime(base + 30_000),
            ));
            // Node 1 also shuttles l1 <-> l0, slightly offset.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 32_000),
                SimTime(base + 40_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(0),
                SimTime(base + 50_000),
                SimTime(base + 60_000),
            ));
        }
        // Day 10: node 0 arrives at l1 and never leaves (maintenance).
        visits.push(Visit::new(
            NodeId(0),
            LandmarkId(1),
            SimTime(10 * 86_400),
            SimTime(14 * 86_400),
        ));
        // Node 1 keeps shuttling during the stall.
        for d in 10..14u64 {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 32_000),
                SimTime(base + 40_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(0),
                SimTime(base + 50_000),
                SimTime(base + 60_000),
            ));
        }
        let positions = (0..2).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
        let trace = Trace::new("stall", 2, 2, positions, visits).unwrap();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 4.0,
            ttl: DAY.mul(3),
            time_unit: DAY,
            seed: 5,
            ..SimConfig::default()
        };
        let flow = FlowConfig {
            dead_end: Some(2.0),
            ..FlowConfig::default()
        };
        let mut router = FlowRouter::new(flow, 2, 2);
        let _ = RunSpec::new(&trace, &cfg).run(&mut router);
        assert!(
            router.stats().dead_ends_detected > 0,
            "the four-day stall must be detected"
        );
    }

    /// Like the corridor, but the l0<->l1 leg runs at twice the bandwidth
    /// of l1<->l2, so a falsified near-zero claim makes the cheap backward
    /// link attractive and a real routing loop forms (the Fig. 9
    /// scenario: via-l0 = ½T + ε beats the direct 1T link at l1).
    fn asymmetric_corridor_trace(days: u64) -> Trace {
        let mut visits = Vec::new();
        for d in 0..days {
            let base = d * 86_400;
            // Node 0: two l0<->l1 round trips per day.
            for (k, s) in [(0u64, 1_000u64), (1, 43_000)] {
                let o = base + s + k; // k keeps instants distinct
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(0),
                    SimTime(o),
                    SimTime(o + 6_000),
                ));
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(1),
                    SimTime(o + 10_000),
                    SimTime(o + 16_000),
                ));
                visits.push(Visit::new(
                    NodeId(0),
                    LandmarkId(0),
                    SimTime(o + 20_000),
                    SimTime(o + 26_000),
                ));
            }
            // Node 1: one l1<->l2 round trip per day.
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 30_000),
                SimTime(base + 36_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(2),
                SimTime(base + 40_000),
                SimTime(base + 46_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(1),
                SimTime(base + 50_000),
                SimTime(base + 56_000),
            ));
        }
        let positions = (0..3).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
        Trace::new("asym-corridor", 2, 3, positions, visits).unwrap()
    }

    #[test]
    fn injected_loop_is_detected_and_corrected() {
        let trace = asymmetric_corridor_trace(16);
        let cfg = corridor_cfg();
        let inject = vec![LoopInjection {
            at_unit: 6,
            members: vec![LandmarkId(0), LandmarkId(1)],
            dest: LandmarkId(2),
        }];
        let flow = FlowConfig {
            loop_correction: true,
            inject_loops: inject.clone(),
            ..FlowConfig::default()
        };
        let mut with = FlowRouter::new(flow, 2, 3);
        let out_with = RunSpec::new(&trace, &cfg).run(&mut with);
        assert!(
            with.stats().loops_detected > 0,
            "looping packets must be noticed"
        );
        // Corrected run still delivers most packets.
        assert!(
            out_with.metrics.success_rate() > 0.5,
            "success {}",
            out_with.metrics.success_rate()
        );
        // Without correction the loops are never acted upon: the router
        // keeps bouncing packets (detections keep accumulating) and
        // success suffers relative to the corrected run.
        let flow_org = FlowConfig {
            loop_correction: false,
            inject_loops: inject,
            ..FlowConfig::default()
        };
        let mut org = FlowRouter::new(flow_org, 2, 3);
        let out_org = RunSpec::new(&trace, &cfg).run(&mut org);
        assert!(
            out_with.metrics.success_rate() >= out_org.metrics.success_rate(),
            "correction must not hurt: with {} vs org {}",
            out_with.metrics.success_rate(),
            out_org.metrics.success_rate()
        );
    }

    /// Forwards every hook to a DTN-FLOW router and, at each unit
    /// boundary `sends` names, sends one packet from a landmark's
    /// subarea to a mobile node through §IV-E.4.
    struct NodeSender {
        inner: FlowRouter,
        sends: Vec<(u64, LandmarkId, NodeId)>,
        created: Vec<PacketId>,
    }

    impl Router for NodeSender {
        fn name(&self) -> &'static str {
            "node-sender"
        }
        fn uses_stations(&self) -> bool {
            true
        }
        fn on_arrive(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
            self.inner.on_arrive(w, n, l);
        }
        fn on_depart(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
            self.inner.on_depart(w, n, l);
        }
        fn on_packet_generated(&mut self, w: &mut World, p: PacketId) {
            self.inner.on_packet_generated(w, p);
        }
        fn on_time_unit(&mut self, w: &mut World, u: u64) {
            self.inner.on_time_unit(w, u);
            for &(at, src, dst) in &self.sends {
                if at == u {
                    let copies = self.inner.send_to_node(w, src, dst);
                    self.created.extend(copies);
                }
            }
        }
        fn on_timer(&mut self, w: &mut World, t: u64) {
            self.inner.on_timer(w, t);
        }
        fn on_station_down(&mut self, w: &mut World, l: LandmarkId) {
            self.inner.on_station_down(w, l);
        }
        fn on_station_up(&mut self, w: &mut World, l: LandmarkId) {
            self.inner.on_station_up(w, l);
        }
        fn on_node_fail(&mut self, w: &mut World, n: NodeId, at: Option<LandmarkId>) {
            self.inner.on_node_fail(w, n, at);
        }
    }

    /// The corridor sender: at the unit-8 boundary, one packet from
    /// l2's subarea to node 0, who frequents l0/l1, never l2.
    fn node_sender() -> NodeSender {
        NodeSender {
            inner: FlowRouter::new(FlowConfig::default(), 2, 3),
            sends: vec![(8, LandmarkId(2), NodeId(0))],
            created: Vec::new(),
        }
    }

    #[test]
    fn send_to_node_uses_registrations() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let mut router = node_sender();
        let out = RunSpec::new(&trace, &cfg).run(&mut router);
        assert!(!router.created.is_empty(), "copies were created");
        // At least one copy reached node 0.
        let delivered = router
            .created
            .iter()
            .any(|&p| matches!(out.packets[p.index()].loc, PacketLoc::Delivered(_)));
        assert!(delivered, "node-addressed packet must reach node 0");
        // Registrations for node 0 are its frequent haunts.
        let regs = router.inner.registered_landmarks(NodeId(0));
        assert!(regs.contains(&LandmarkId(0)) || regs.contains(&LandmarkId(1)));
    }

    #[test]
    fn timer_token_roundtrip() {
        let (n, e) = FlowRouter::decode_token(FlowRouter::timer_token(NodeId(123), 456));
        assert_eq!(n, NodeId(123));
        assert_eq!(e, 456);
    }

    /// `by_dst_node` keys are node ids: a snapshot naming a node the run
    /// does not have is a typed error, raised before the station index
    /// allocates a slot per id up to that key.
    #[test]
    fn restore_rejects_a_station_index_naming_a_missing_node() {
        let (num_nodes, num_landmarks) = (4, 3);
        let router = FlowRouter::new(FlowConfig::default(), num_nodes, num_landmarks);
        let mut w = Writer::new();
        router.save_state(&mut w);
        let bytes = w.into_bytes();
        // Landmark 0's `by_dst_node` count follows the node states, the
        // landmark count and landmark 0's first three fields.
        let mut prefix = Writer::new();
        router.nodes.encode(&mut prefix);
        prefix.put_usize(num_landmarks);
        let st = &router.landmarks[0];
        st.rt.encode(&mut prefix);
        st.by_next_hop.encode(&mut prefix);
        st.by_dst.encode(&mut prefix);
        let at = prefix.len();
        assert_eq!(bytes[at..at + 8], [0; 8], "empty by_dst_node count");
        for (node, ok) in [(3, true), (4, false), (u64::from(u32::MAX), false)] {
            let mut entry = Writer::new();
            entry.put_usize(1);
            entry.put_u64(node);
            DenseSet::<PacketId>::new().encode(&mut entry);
            let bad = [&bytes[..at], entry.as_bytes(), &bytes[at + 8..]].concat();
            let mut r = Reader::new(&bad);
            let got = FlowRouter::restore_state(&mut r, FlowConfig::default(), 4, 3);
            assert_eq!(got.is_ok(), ok, "by_dst_node key {node}");
        }
    }

    /// Six landmarks, eight nodes: each node makes three stays a day on
    /// its own loop (stride 1, 2 or 3 landmarks, shifted on odd days),
    /// so packets relay over several hops and every station routes
    /// toward several next hops.
    fn mesh_trace(days: u64) -> Trace {
        let mut visits = Vec::new();
        for d in 0..days {
            for n in 0..8u64 {
                for k in 0..3u64 {
                    let lm = LandmarkId(((n + k * (1 + n % 3) + d % 2) % 6) as u16);
                    let start = d * 86_400 + 1_000 + k * 25_000 + n * 1_500;
                    visits.push(Visit::new(
                        NodeId(n as u32),
                        lm,
                        SimTime(start),
                        SimTime(start + 9_000),
                    ));
                }
            }
        }
        let positions = (0..6).map(|i| Point::new(i as f64 * 400.0, 0.0)).collect();
        Trace::new("mesh", 8, 6, positions, visits).unwrap()
    }

    fn state_bytes(router: &FlowRouter) -> Vec<u8> {
        let mut w = Writer::new();
        router.save_state(&mut w);
        w.into_bytes()
    }

    /// Two copies of a mid-run router and world. In both worlds the
    /// station packets `drops` picks are lost behind the router's back,
    /// as the TTL purge does, so their index entries go stale; then
    /// every station of one copy is rebuilt by `rebucket`, of the other
    /// by the per-packet walk. The two routers must encode to the same
    /// bytes: stamps, all three indices with their map slots, and
    /// `FlowStats`.
    fn assert_rebuckets_agree(
        router: &FlowRouter,
        world: &World,
        flow: &FlowConfig,
        drops: &[u32],
        flip_down: Option<usize>,
    ) {
        let (nodes, landmarks) = (world.num_nodes(), world.num_landmarks());
        let mut world_bytes = Writer::new();
        world.encode_state(&mut world_bytes);
        let router_bytes = state_bytes(router);
        let copy = || {
            let mut r = Reader::new(&router_bytes);
            let router = FlowRouter::restore_state(&mut r, flow.clone(), nodes, landmarks);
            let mut r = Reader::new(world_bytes.as_bytes());
            let world = World::decode_state(&mut r, world.config().clone(), nodes, landmarks);
            (router.unwrap(), world.unwrap())
        };
        let (mut walked, mut walked_world) = copy();
        let (mut grouped, mut grouped_world) = copy();
        let held: Vec<PacketId> = (0..landmarks)
            .flat_map(|l| world.station_packets(LandmarkId::from(l)))
            .collect();
        for &d in drops.iter().filter(|_| !held.is_empty()) {
            let pkt = held[d as usize % held.len()];
            let a = walked_world.drop_lost(pkt, LossReason::Outage);
            let b = grouped_world.drop_lost(pkt, LossReason::Outage);
            assert_eq!(a, b);
        }
        // A station going down or up first, as `on_station_down` flips
        // the down-set before its rebuckets.
        if let Some(l) = flip_down {
            for r in [&mut walked, &mut grouped] {
                r.known_down[l] = !r.known_down[l];
            }
        }
        for lm in (0..landmarks).map(LandmarkId::from) {
            walked.rebucket_walk(&walked_world, lm);
            grouped.rebucket(&grouped_world, lm);
        }
        assert!(
            state_bytes(&walked) == state_bytes(&grouped),
            "grouped rebucket diverged from the per-packet walk"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The grouped rebuild equals the per-packet walk it replaced,
        /// at any event of a degradation run with station outages.
        #[test]
        fn grouped_rebucket_equals_the_per_packet_walk(
            seed in any::<u64>(),
            events in 0usize..4_000,
            drops in proptest::collection::vec(any::<u32>(), 0..60),
            flip in 0usize..9,
        ) {
            let trace = mesh_trace(10);
            let cfg = SimConfig {
                packets_per_landmark_per_day: 40.0,
                ttl: DAY.mul(3),
                time_unit: DAY,
                seed,
                ..SimConfig::default()
            };
            let workload = Workload::uniform(&cfg, 6, trace.duration());
            let faults = FaultConfig {
                station_outage_duty: 0.3,
                mean_outage_secs: 86_400.0,
                seed,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::generate(&faults, &trace);
            let flow = FlowConfig::with_degradation();
            let mut router = FlowRouter::new(flow.clone(), 8, 6);
            let mut session = SimSession::start(&trace, &cfg, &workload, &plan, &mut router, None);
            session.step_events(events);
            let flip_down = (flip < 6).then_some(flip);
            assert_rebuckets_agree(session.router(), session.world(), &flow, &drops, flip_down);
        }
    }

    /// Every station index is exact: each `by_dst`, `by_next_hop` and
    /// `by_dst_node` entry names a packet its station holds, filed under
    /// the packet's destination, stamp and destination node, and each
    /// index files as many packets as the station holds with that key.
    fn assert_station_indices_exact(router: &FlowRouter, world: &World) {
        for (l, st) in router.landmarks.iter().enumerate() {
            let lm = LandmarkId::from(l);
            let held = |pkt| assert!(world.station_holds(lm, pkt), "{pkt} is not at {lm}");
            for (dst, group) in st.by_dst.iter() {
                group.iter().for_each(held);
                assert!(group.iter().all(|p| world.packet(p).dst == dst));
            }
            for (nh, bucket) in st.by_next_hop.iter() {
                bucket.iter().for_each(held);
                assert!(bucket
                    .iter()
                    .all(|p| router.meta_of(p).next_hop == Some(nh)));
            }
            for (node, group) in st.by_dst_node.iter() {
                group.iter().for_each(held);
                assert!(group.iter().all(|p| world.packet(p).dst_node == Some(node)));
            }
            let at_station = || world.station_packets(lm);
            let stamped = at_station().filter(|&p| router.meta_of(p).next_hop.is_some());
            let addressed = at_station().filter(|&p| world.packet(p).dst_node.is_some());
            let filed = [
                st.by_dst.values().map(DenseSet::len).sum::<usize>(),
                st.by_next_hop.values().map(DenseSet::len).sum(),
                st.by_dst_node.values().map(DenseSet::len).sum(),
            ];
            let keyed = [at_station().count(), stamped.count(), addressed.count()];
            assert_eq!(filed, keyed, "index sizes at {lm}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Between any two events the station indices are exact, so the
        /// hand-off paths may assume every entry is at its station. A
        /// degradation run with station outages and retries, packets
        /// sent to mobile nodes every unit, and a 30-hour TTL under daily
        /// units, so that packets past their deadline wait at stations
        /// and expire when touched; checked at random pause points.
        #[test]
        fn station_indices_are_exact_between_events(
            seed in any::<u64>(),
            gaps in proptest::collection::vec(1usize..600, 1..12),
        ) {
            let trace = mesh_trace(10);
            let cfg = SimConfig {
                packets_per_landmark_per_day: 40.0,
                ttl: SimDuration::from_secs(30 * 3_600),
                time_unit: DAY,
                seed,
                ..SimConfig::default()
            };
            let workload = Workload::uniform(&cfg, 6, trace.duration());
            let faults = FaultConfig {
                station_outage_duty: 0.3,
                mean_outage_secs: 86_400.0,
                seed,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::generate(&faults, &trace);
            let sends = (2..10).map(|u| (u, LandmarkId::from(u as usize % 6), NodeId((u % 8) as u32)));
            let mut router = NodeSender {
                inner: FlowRouter::new(FlowConfig::with_degradation(), 8, 6),
                sends: sends.collect(),
                created: Vec::new(),
            };
            let mut session = SimSession::start(&trace, &cfg, &workload, &plan, &mut router, None);
            let mut ended = false;
            for gap in gaps {
                ended = !session.step_events(gap);
                assert_station_indices_exact(&session.router().inner, session.world());
                if ended {
                    break;
                }
            }
            drop(session);
            assert!(!ended || !router.created.is_empty(), "a whole run sends to nodes");
        }
    }

    /// The same equality with node-addressed packets (§IV-E.4) at the
    /// stations: every event from the send until the run ends.
    #[test]
    fn grouped_rebucket_equals_the_walk_with_node_addressed_packets() {
        let trace = corridor_trace(16);
        let cfg = corridor_cfg();
        let workload = Workload::uniform(&cfg, 3, trace.duration());
        let flow = FlowConfig::default();
        let mut router = node_sender();
        let plan = FaultPlan::none();
        let mut session = SimSession::start(&trace, &cfg, &workload, &plan, &mut router, None);
        assert!(session.run_to_unit(9), "the send happens at unit 8");
        let mut filed = 0;
        let mut step = 0u32;
        while session.step_events(1) {
            let (router, world) = (&session.router().inner, session.world());
            for st in &router.landmarks {
                filed += st.by_dst_node.values().map(DenseSet::len).sum::<usize>();
            }
            let drops = [step, step.wrapping_mul(7) + 3];
            assert_rebuckets_agree(router, world, &flow, &drops[..(step % 3) as usize], None);
            step += 1;
        }
        assert!(filed > 0, "node-addressed packets waited at a station");
    }

    /// Without a carrier filed at the station, `try_assign_packet` can
    /// hand nothing over: it leaves the world and the router as they
    /// were.
    #[test]
    fn try_assign_packet_without_a_filed_carrier_changes_nothing() {
        let cfg = corridor_cfg();
        let mut world = World::new(cfg, 2, 3);
        let mut router = FlowRouter::new(FlowConfig::default(), 2, 3);
        let (l0, l2) = (LandmarkId(0), LandmarkId(2));
        let pkt = world.create_node_packet(l0, l2, NodeId(1));
        router.station_accept(&mut world, l0, pkt, None);
        assert!(!router.rank.has_any(l0.index()));
        let world_bytes = |w: &World| {
            let mut out = Writer::new();
            w.encode_state(&mut out);
            out.into_bytes()
        };
        let (router_before, world_before) = (state_bytes(&router), world_bytes(&world));
        router.try_assign_packet(&mut world, l0, pkt, None);
        assert!(state_bytes(&router) == router_before, "router changed");
        assert!(world_bytes(&world) == world_before, "world changed");
    }

    /// Node-addressed packets that expire at a station leave all three
    /// of its indices, whether the expiry surfaces on a hand-over
    /// (`hand_to_carrier`) or on the §IV-E.4 delivery at arrival.
    #[test]
    fn expired_node_addressed_packets_leave_every_index() {
        /// At node 0's first arrival, files two node-1-addressed packets
        /// at l0: one waits for a carrier toward l1, the other for node 1
        /// itself. At node 0's second arrival, past their deadlines,
        /// hands the first to node 0 before the arrival runs. No unit
        /// boundary is forwarded, so no rebucket clears what the two
        /// expiry paths leave behind.
        struct Expirer {
            inner: FlowRouter,
            pkts: Vec<PacketId>,
        }
        impl Router for Expirer {
            fn name(&self) -> &'static str {
                "expirer"
            }
            fn uses_stations(&self) -> bool {
                true
            }
            fn on_arrive(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
                if n == NodeId(0) && !self.pkts.is_empty() {
                    let via_l1 = self.pkts[0];
                    assert!(!self.inner.hand_to_carrier(w, l, via_l1, n, LandmarkId(1)));
                    assert_eq!(w.packet(via_l1).loc, PacketLoc::Expired);
                }
                self.inner.on_arrive(w, n, l);
                if n == NodeId(0) && self.pkts.is_empty() {
                    for via in [LandmarkId(1), l] {
                        let pkt = w.create_node_packet(l, via, NodeId(1));
                        self.inner.station_accept(w, l, pkt, None);
                        self.pkts.push(pkt);
                    }
                }
            }
            fn on_depart(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
                self.inner.on_depart(w, n, l);
            }
            fn on_packet_generated(&mut self, w: &mut World, p: PacketId) {
                self.inner.on_packet_generated(w, p);
            }
        }
        let l0 = LandmarkId(0);
        let visits = vec![
            Visit::new(NodeId(0), l0, SimTime(1_000), SimTime(2_000)),
            Visit::new(NodeId(0), l0, SimTime(10_000), SimTime(11_000)),
            Visit::new(NodeId(1), l0, SimTime(12_000), SimTime(13_000)),
        ];
        let positions = vec![Point::new(0.0, 0.0), Point::new(500.0, 0.0)];
        let trace = Trace::new("expiry", 2, 2, positions, visits).unwrap();
        // A one-hour TTL: both packets expire before either later contact.
        let cfg = SimConfig {
            packets_per_landmark_per_day: 0.0,
            ttl: SimDuration::from_secs(3_600),
            time_unit: DAY,
            ..SimConfig::default()
        };
        let mut router = Expirer {
            inner: FlowRouter::new(FlowConfig::default(), 2, 2),
            pkts: Vec::new(),
        };
        let out = RunSpec::new(&trace, &cfg).run(&mut router);
        assert_eq!(router.pkts.len(), 2);
        for &pkt in &router.pkts {
            assert_eq!(out.packets[pkt.index()].loc, PacketLoc::Expired);
        }
        let st = &router.inner.landmarks[l0.index()];
        let indices = [&st.by_next_hop, &st.by_dst];
        let by_landmark = indices.into_iter().flat_map(|m| m.values());
        for set in by_landmark.chain(st.by_dst_node.values()) {
            assert!(set.is_empty(), "stale entries {:?}", set.as_slice());
        }
    }
}
