//! Simulation state and the transfer primitives routers build on.
//!
//! The [`World`] owns every packet, every store, node locations, the run
//! metrics, and — when a radio budget is configured — the per-landmark
//! uplink/downlink budget. Routers never mutate this state directly; they
//! call the transfer methods, which enforce the physical rules every
//! algorithm plays by: co-location, memory limits, TTLs, and single-copy
//! semantics.
//!
//! Custody follows one rule. A live packet sits in exactly the container
//! its `loc` names: a pending pool, a node store or a station store. Every
//! move of a live packet is one take-out step, which removes it from that
//! container and yields the [`Place`] it left, then one landing step: a
//! node store, a station store, delivery, expiry or loss. Terminal packets
//! sit in no container.

use crate::store::PacketStore;
use dtnflow_core::config::SimConfig;
use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::metrics::RunMetrics;
use dtnflow_core::packet::{Packet, PacketLoc};
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_obs::{LossKind, Place, SimEvent, TraceSink};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// Why a transfer was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The packet is already delivered, expired, or lost.
    NotLive,
    /// The packet's TTL elapsed; it has now been dropped.
    Expired,
    /// Source and target are not at the same landmark.
    NotColocated,
    /// The receiving node has no room.
    NoSpace,
    /// The packet is already exactly where it was asked to go.
    SamePlace,
    /// The landmark's radio budget for this time unit is exhausted
    /// (only with `SimConfig::radio_budget_per_unit`).
    RadioBusy,
    /// The landmark's station is down (fault injection): it neither
    /// accepts uplinks nor serves downloads until it recovers.
    StationDown,
}

/// Why constructing a [`World`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The simulation config failed its own validation.
    InvalidConfig(String),
    /// A world needs at least one node and one landmark.
    EmptyNetwork {
        num_nodes: usize,
        num_landmarks: usize,
    },
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
            WorldError::EmptyNetwork {
                num_nodes,
                num_landmarks,
            } => write!(
                f,
                "world needs at least one node and one landmark, got {num_nodes} nodes / {num_landmarks} landmarks"
            ),
        }
    }
}

impl std::error::Error for WorldError {}

/// Why a packet was destroyed by an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// A station outage (generated at a down station, or retries at a
    /// failed station exhausted).
    Outage,
    /// The node carrying it failed.
    Churn,
}

/// What a station upload achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// The station was the packet's destination: it has been delivered.
    pub delivered: bool,
    /// The packet had already visited this station: a routing loop closed
    /// (§IV-E.2).
    pub loop_closed: bool,
}

/// The complete simulation state.
#[derive(Debug)]
pub struct World {
    // detlint: allow(S1, reason = "run input, not state: decode_state receives the same SimConfig the run started with")
    cfg: SimConfig,
    now: SimTime,
    packets: Vec<Packet>,
    node_store: Vec<PacketStore>,
    station_store: Vec<PacketStore>,
    /// Packets generated in a subarea and not yet picked up (no-station
    /// routers only).
    pending: Vec<DenseSet<PacketId>>,
    /// Reusable packet-id buffer for per-arrival scans (never observable:
    /// always cleared before use).
    // detlint: allow(S1, reason = "scratch buffer, always cleared before use")
    scratch_pkts: Vec<PacketId>,
    node_loc: Vec<Option<LandmarkId>>,
    // detlint: allow(S1, reason = "derived occupancy index, rebuilt from node_loc by decode_state")
    present: Vec<DenseSet<NodeId>>,
    metrics: RunMetrics,
    /// Remaining node↔station transfers this time unit, per landmark.
    radio_budget: Option<Vec<u64>>,
    /// Station liveness (fault injection); all `true` without faults.
    station_up: Vec<bool>,
    /// Node failure state (fault injection); all `false` without faults.
    node_failed: Vec<bool>,
    /// Set per landmark when its outage ends; cleared (and the recovery
    /// time recorded) by the station's first successful transfer after.
    awaiting_recovery: Vec<Option<SimTime>>,
    /// Whether the visit being dispatched had its trace record survive
    /// (fault injection; `true` outside fault runs). Routers must skip
    /// predictor/history learning when this is `false`.
    visit_recorded: bool,
    /// The first packet id the expiry purge has not yet passed
    /// (DESIGN.md §14). Every packet shares `cfg.ttl` and packets are
    /// created in time order, so deadlines never decrease with id and
    /// the packet table is itself the expiry schedule: a purge walks
    /// forward from here while the packet under the cursor is due.
    expiry_cursor: usize,
    /// Timers requested by the router, drained by the engine.
    pub(crate) pending_timers: Vec<(SimTime, u64)>,
    /// Attached observability sink (`None` = tracing disabled; event
    /// construction is skipped entirely, see [`World::emit`]).
    // detlint: allow(S1, reason = "sink handle, not state: the recorder checkpoints itself via encode_recorder; the handle is re-attached on resume")
    trace: Option<Box<dyn TraceSink>>,
}

impl World {
    /// Create a world with empty stores and everyone off-network.
    ///
    /// Panics on an invalid config or empty network; use [`World::try_new`]
    /// to surface those as errors instead.
    pub fn new(cfg: SimConfig, num_nodes: usize, num_landmarks: usize) -> Self {
        match Self::try_new(cfg, num_nodes, num_landmarks) {
            Ok(w) => w,
            // detlint: allow(P1, reason = "documented panicking constructor; try_new is the fallible path")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: a malformed config or an empty network is an
    /// `Err`, so experiment sweeps can skip a bad point instead of
    /// aborting.
    pub fn try_new(
        cfg: SimConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<Self, WorldError> {
        cfg.validate().map_err(WorldError::InvalidConfig)?;
        if num_nodes == 0 || num_landmarks == 0 {
            return Err(WorldError::EmptyNetwork {
                num_nodes,
                num_landmarks,
            });
        }
        let radio_budget = cfg.radio_budget_per_unit.map(|b| vec![b; num_landmarks]);
        let per_node = cfg.packets_per_node() as usize;
        Ok(World {
            now: SimTime::ZERO,
            packets: Vec::new(),
            node_store: (0..num_nodes)
                .map(|_| PacketStore::bounded(per_node))
                .collect(),
            station_store: (0..num_landmarks)
                .map(|_| PacketStore::unbounded())
                .collect(),
            pending: vec![DenseSet::new(); num_landmarks],
            scratch_pkts: Vec::new(),
            node_loc: vec![None; num_nodes],
            present: vec![DenseSet::new(); num_landmarks],
            metrics: RunMetrics::default(),
            radio_budget,
            station_up: vec![true; num_landmarks],
            node_failed: vec![false; num_nodes],
            awaiting_recovery: vec![None; num_landmarks],
            visit_recorded: true,
            expiry_cursor: 0,
            pending_timers: Vec::new(),
            trace: None,
            cfg,
        })
    }

    // ---- read-only state -------------------------------------------------

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of mobile nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_loc.len()
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.station_store.len()
    }

    /// Immutable view of a packet.
    pub fn packet(&self, id: PacketId) -> &Packet {
        &self.packets[id.index()]
    }

    /// A packet's remaining lifetime at the current time. Every packet of
    /// a run lives `cfg.ttl` from its creation; this is zero exactly
    /// once that has elapsed.
    #[inline]
    pub fn remaining_ttl(&self, pkt: PacketId) -> SimDuration {
        (self.packets[pkt.index()].created + self.cfg.ttl).since(self.now)
    }

    /// Whether a packet's TTL has elapsed at the current time.
    #[inline]
    fn is_expired(&self, pkt: PacketId) -> bool {
        self.remaining_ttl(pkt) == SimDuration::ZERO
    }

    /// The landmark a node is currently associated with.
    pub fn node_location(&self, node: NodeId) -> Option<LandmarkId> {
        self.node_loc[node.index()]
    }

    /// Nodes currently at a landmark, ascending by id.
    pub fn nodes_at(&self, lm: LandmarkId) -> &DenseSet<NodeId> {
        &self.present[lm.index()]
    }

    /// Packets in a node's memory, ascending by id.
    pub fn node_packets(&self, node: NodeId) -> impl Iterator<Item = PacketId> + '_ {
        self.node_store[node.index()].iter()
    }

    /// Packets that still fit in a node's memory.
    pub fn node_free_slots(&self, node: NodeId) -> usize {
        self.node_store[node.index()].free_slots()
    }

    /// Whether one more packet fits in a node's memory.
    pub fn node_has_space(&self, node: NodeId) -> bool {
        self.node_store[node.index()].free_slots() > 0
    }

    /// Packets stored at a station, ascending by id.
    pub fn station_packets(&self, lm: LandmarkId) -> impl Iterator<Item = PacketId> + '_ {
        self.station_store[lm.index()].iter()
    }

    /// Number of packets stored at a station.
    pub fn station_packet_count(&self, lm: LandmarkId) -> usize {
        self.station_store[lm.index()].len()
    }

    /// Whether the station at `lm` stores `pkt`.
    pub fn station_holds(&self, lm: LandmarkId, pkt: PacketId) -> bool {
        self.station_store[lm.index()].contains(pkt)
    }

    /// Packets pending pickup in a subarea (no-station routers).
    pub fn pending_at(&self, lm: LandmarkId) -> impl Iterator<Item = PacketId> + '_ {
        self.pending[lm.index()].iter()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Whether the station at `lm` is currently up (always `true` outside
    /// fault-injection runs).
    #[inline]
    pub fn station_is_up(&self, lm: LandmarkId) -> bool {
        self.station_up[lm.index()]
    }

    /// Whether `node` is currently failed (off-network due to churn).
    #[inline]
    pub fn node_is_failed(&self, node: NodeId) -> bool {
        self.node_failed[node.index()]
    }

    /// Whether the trace record of the visit being dispatched survived.
    /// `false` only during fault runs with record loss: the contact is
    /// physically happening, but routers must not learn from it.
    #[inline]
    pub fn visit_recorded(&self) -> bool {
        self.visit_recorded
    }

    // ---- observability ---------------------------------------------------

    /// Attach an observability sink; subsequent state changes emit
    /// [`SimEvent`]s into it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detach and return the sink (e.g. to downcast a recorder after a
    /// run).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Borrow the attached sink without detaching it (checkpointing).
    pub(crate) fn trace_sink_mut(&mut self) -> Option<&mut (dyn TraceSink + 'static)> {
        self.trace.as_deref_mut()
    }

    /// Whether a sink is attached. Emission call sites that need to do
    /// extra work to *assemble* an event (beyond moving already-computed
    /// values) should check this first.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Emit one event. The closure receives the current [`SimTime`] and is
    /// only invoked while a sink is attached — with tracing disabled, not
    /// even the event struct is constructed (zero overhead).
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce(SimTime) -> SimEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(make(self.now));
        }
    }

    // ---- router services -------------------------------------------------

    /// Ask the engine to call `Router::on_timer(token)` at `at` (clamped to
    /// now if already past).
    pub fn schedule_timer(&mut self, at: SimTime, token: u64) {
        self.pending_timers.push((at.max(self.now), token));
    }

    /// Account the exchange of a routing/utility table with `entries`
    /// entries (§V-A.1 overall-cost metric).
    pub fn record_table_exchange(&mut self, entries: usize) {
        self.metrics.record_table_exchange(entries);
    }

    /// Account one re-queue/retry of a fault-stranded packet (resilience
    /// metric; routers call this when re-dispatching after an outage).
    pub fn record_retry(&mut self) {
        self.metrics.record_retry();
    }

    // ---- transfers -------------------------------------------------------

    /// Move a live packet to `to`'s memory, from wherever it is: the
    /// pending pool of `to`'s landmark, the station `to` is at, or a
    /// co-located node. Counts one forwarding operation.
    pub fn transfer_to_node(&mut self, pkt: PacketId, to: NodeId) -> Result<(), TransferError> {
        self.check_live(pkt)?;
        let to_lm = self.node_loc[to.index()].ok_or(TransferError::NotColocated)?;
        let (at, from_station) = match self.packets[pkt.index()].loc {
            PacketLoc::PendingAtSource(l) => (Some(l), false),
            PacketLoc::AtStation(l) => (Some(l), true),
            PacketLoc::OnNode(m) if m == to => return Err(TransferError::SamePlace),
            PacketLoc::OnNode(m) => (self.node_loc[m.index()], false),
            _ => return Err(TransferError::NotLive),
        };
        if at != Some(to_lm) {
            return Err(TransferError::NotColocated);
        }
        if from_station && !self.station_up[to_lm.index()] {
            return Err(TransferError::StationDown);
        }
        if !self.node_has_space(to) {
            return Err(TransferError::NoSpace);
        }
        if from_station {
            self.take_radio_budget(to_lm)?;
            self.note_station_activity(to_lm);
        }
        let from = self.take_out(pkt).ok_or(TransferError::NotLive)?;
        // Invariant: `node_has_space` was checked above and nothing
        // touched the store since, so the insert cannot be refused.
        assert!(
            self.node_store[to.index()].insert(pkt),
            "node store refused an insert that fit"
        );
        let p = &mut self.packets[pkt.index()];
        p.loc = PacketLoc::OnNode(to);
        p.hops += 1;
        self.metrics.record_forward();
        self.emit(|at| SimEvent::PacketForwarded {
            at,
            pkt,
            from,
            to: Place::Node(to),
        });
        Ok(())
    }

    /// Upload a packet to the station at `lm` (from a co-located carrier
    /// or the subarea's pending pool). Delivers it when `lm` is its
    /// destination; otherwise stores it and reports whether a routing loop
    /// closed. Counts one forwarding operation.
    pub fn transfer_to_station(
        &mut self,
        pkt: PacketId,
        lm: LandmarkId,
    ) -> Result<TransferOutcome, TransferError> {
        self.check_live(pkt)?;
        if !self.station_up[lm.index()] {
            return Err(TransferError::StationDown);
        }
        match self.packets[pkt.index()].loc {
            PacketLoc::OnNode(m) if self.node_loc[m.index()] == Some(lm) => {
                self.take_radio_budget(lm)?;
            }
            PacketLoc::PendingAtSource(l) if l == lm => {}
            PacketLoc::OnNode(_) | PacketLoc::PendingAtSource(_) => {
                return Err(TransferError::NotColocated);
            }
            PacketLoc::AtStation(l) if l == lm => return Err(TransferError::SamePlace),
            _ => return Err(TransferError::NotLive),
        }
        let from = self.take_out(pkt).ok_or(TransferError::NotLive)?;
        self.note_station_activity(lm);
        self.metrics.record_forward();
        let p = &mut self.packets[pkt.index()];
        p.hops += 1;
        // A node-addressed packet (§IV-E.4) is only delivered by its
        // destination *node* claiming it, never by reaching a landmark.
        if p.dst == lm && p.dst_node.is_none() {
            self.deliver(pkt, lm, from);
            return Ok(TransferOutcome {
                delivered: true,
                loop_closed: false,
            });
        }
        let loop_closed = self.store_at_station(pkt, lm);
        self.emit(|at| SimEvent::PacketForwarded {
            at,
            pkt,
            from,
            to: Place::Station(lm),
        });
        Ok(TransferOutcome {
            delivered: false,
            loop_closed,
        })
    }

    /// Deliver a station-held packet addressed to mobile node `to`
    /// (§IV-E.4), who must be at that station's landmark.
    pub fn deliver_to_dst_node(&mut self, pkt: PacketId, to: NodeId) -> Result<(), TransferError> {
        self.check_live(pkt)?;
        let p = &self.packets[pkt.index()];
        if p.dst_node != Some(to) {
            return Err(TransferError::NotColocated);
        }
        let PacketLoc::AtStation(l) = p.loc else {
            return Err(TransferError::NotLive);
        };
        if self.node_loc[to.index()] != Some(l) {
            return Err(TransferError::NotColocated);
        }
        if !self.station_up[l.index()] {
            return Err(TransferError::StationDown);
        }
        let from = self.take_out(pkt).ok_or(TransferError::NotLive)?;
        self.note_station_activity(l);
        self.packets[pkt.index()].hops += 1;
        self.metrics.record_forward();
        self.deliver(pkt, l, from);
        Ok(())
    }

    // ---- custody steps -----------------------------------------------------

    /// The take-out step: remove a live packet from the pending pool,
    /// node store or station store that holds it and return the place it
    /// left. A terminal packet sits nowhere: `None`, nothing changes.
    fn take_out(&mut self, pkt: PacketId) -> Option<Place> {
        match self.packets[pkt.index()].loc {
            PacketLoc::PendingAtSource(l) => {
                self.pending[l.index()].remove(pkt);
                Some(Place::Pending(l))
            }
            PacketLoc::OnNode(n) => {
                self.node_store[n.index()].remove(pkt);
                Some(Place::Node(n))
            }
            PacketLoc::AtStation(l) => {
                self.station_store[l.index()].remove(pkt);
                Some(Place::Station(l))
            }
            _ => None,
        }
    }

    /// Land a taken-out packet as delivered at `lm`: records its delay
    /// and emits the delivery.
    fn deliver(&mut self, pkt: PacketId, lm: LandmarkId, from: Place) {
        let now = self.now;
        let p = &mut self.packets[pkt.index()];
        p.loc = PacketLoc::Delivered(now);
        let delay = now.since(p.created);
        let hops = p.hops;
        self.metrics.record_delivery(delay);
        self.emit(|at| SimEvent::PacketDelivered {
            at,
            pkt,
            lm,
            delay,
            hops,
            from,
        });
    }

    /// Land a packet in the station store at `lm`, recording the visit.
    /// Returns whether the visit closed a routing loop (§IV-E.2).
    fn store_at_station(&mut self, pkt: PacketId, lm: LandmarkId) -> bool {
        let p = &mut self.packets[pkt.index()];
        let loop_closed = p.record_station_visit(lm);
        p.loc = PacketLoc::AtStation(lm);
        // Invariant: station stores are unbounded, inserts never fail.
        assert!(
            self.station_store[lm.index()].insert(pkt),
            "unbounded station store refused an insert"
        );
        loop_closed
    }

    // ---- engine-side mutations (crate-private) ----------------------------

    fn check_live(&mut self, pkt: PacketId) -> Result<(), TransferError> {
        if !self.packets[pkt.index()].loc.is_live() {
            return Err(TransferError::NotLive);
        }
        if self.is_expired(pkt) {
            self.expire_packet(pkt);
            return Err(TransferError::Expired);
        }
        Ok(())
    }

    /// Record a completed recovery if `lm` was waiting for its first
    /// post-outage transfer.
    fn note_station_activity(&mut self, lm: LandmarkId) {
        if let Some(since) = self.awaiting_recovery[lm.index()].take() {
            self.metrics.record_recovery(self.now.since(since));
        }
    }

    /// Destroy a live packet because of an injected fault, removing it
    /// from wherever it sits and counting it under `reason`. Routers call
    /// this when a stranded packet exhausts its retry budget; the engine
    /// calls it for churn and down-station generation losses.
    pub fn drop_lost(&mut self, pkt: PacketId, reason: LossReason) -> Result<(), TransferError> {
        let from = self.take_out(pkt).ok_or(TransferError::NotLive)?;
        self.packets[pkt.index()].loc = PacketLoc::Lost;
        let kind = match reason {
            LossReason::Outage => {
                self.metrics.record_lost_to_outage();
                LossKind::Outage
            }
            LossReason::Churn => {
                self.metrics.record_lost_to_churn();
                LossKind::Churn
            }
        };
        self.emit(|at| SimEvent::PacketLost {
            at,
            pkt,
            from: Some(from),
            kind,
        });
        Ok(())
    }

    pub(crate) fn station_down(&mut self, lm: LandmarkId) {
        self.station_up[lm.index()] = false;
        // An outage starting before the previous one's recovery completed
        // voids that pending measurement.
        self.awaiting_recovery[lm.index()] = None;
        self.emit(|at| SimEvent::StationDown { at, lm });
    }

    pub(crate) fn station_recover(&mut self, lm: LandmarkId) {
        self.station_up[lm.index()] = true;
        self.awaiting_recovery[lm.index()] = Some(self.now);
        self.emit(|at| SimEvent::StationUp { at, lm });
    }

    /// Fail a node: drop it off the network and destroy everything it
    /// carried (counted as churn losses). Returns how many packets died.
    pub(crate) fn node_fail(&mut self, node: NodeId) -> usize {
        self.node_failed[node.index()] = true;
        if let Some(lm) = self.node_loc[node.index()].take() {
            self.present[lm.index()].remove(node);
            // The failure ends any in-progress contact.
            self.emit(|at| SimEvent::ContactClose { at, node, lm });
        }
        let carried: Vec<PacketId> = self.node_store[node.index()].iter().collect();
        for pkt in &carried {
            // A packet in a node's store is live by construction; a stale
            // entry is a bookkeeping bug worth catching in debug, not a
            // reason to abort a release run mid-experiment.
            let dropped = self.drop_lost(*pkt, LossReason::Churn);
            debug_assert!(dropped.is_ok(), "carried packets are live: {dropped:?}");
        }
        let lost_packets = carried.len() as u64;
        self.emit(|at| SimEvent::NodeFailed {
            at,
            node,
            lost_packets,
        });
        carried.len()
    }

    pub(crate) fn node_recover(&mut self, node: NodeId) {
        self.node_failed[node.index()] = false;
        // The node rejoins the network at its next trace arrival; it is
        // not teleported back mid-visit.
        self.emit(|at| SimEvent::NodeRecovered { at, node });
    }

    pub(crate) fn set_visit_recorded(&mut self, recorded: bool) {
        self.visit_recorded = recorded;
    }

    fn take_radio_budget(&mut self, lm: LandmarkId) -> Result<(), TransferError> {
        if let Some(budget) = &mut self.radio_budget {
            let slot = &mut budget[lm.index()];
            if *slot == 0 {
                return Err(TransferError::RadioBusy);
            }
            *slot -= 1;
        }
        Ok(())
    }

    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "time must not go backwards");
        self.now = t;
    }

    pub(crate) fn reset_radio_budget(&mut self) {
        // `radio_budget` is Some exactly when the config sets a budget
        // (see `try_new`), so the per-unit value is always available here.
        if let (Some(budget), Some(per_unit)) =
            (&mut self.radio_budget, self.cfg.radio_budget_per_unit)
        {
            budget.iter_mut().for_each(|b| *b = per_unit);
        }
    }

    pub(crate) fn node_arrive(&mut self, node: NodeId, lm: LandmarkId) {
        debug_assert!(
            self.node_loc[node.index()].is_none(),
            "node already somewhere"
        );
        self.node_loc[node.index()] = Some(lm);
        self.present[lm.index()].insert(node);
        self.emit(|at| SimEvent::ContactOpen { at, node, lm });
    }

    pub(crate) fn node_depart(&mut self, node: NodeId, lm: LandmarkId) {
        debug_assert_eq!(self.node_loc[node.index()], Some(lm));
        self.node_loc[node.index()] = None;
        self.present[lm.index()].remove(node);
        self.emit(|at| SimEvent::ContactClose { at, node, lm });
    }

    /// Create a packet addressed to a mobile node (§IV-E.4): `via` is one
    /// of the destination node's frequently visited landmarks; the packet
    /// waits at `via`'s station until the node shows up. Landmark-addressed
    /// workload packets are created by the engine instead.
    pub fn create_node_packet(
        &mut self,
        src: LandmarkId,
        via: LandmarkId,
        dst_node: NodeId,
    ) -> PacketId {
        self.create_packet(src, via, Some(dst_node), true)
    }

    /// Create a packet; it starts pending (no-station mode) or directly at
    /// its source station (station mode).
    pub(crate) fn create_packet(
        &mut self,
        src: LandmarkId,
        dst: LandmarkId,
        dst_node: Option<NodeId>,
        station_mode: bool,
    ) -> PacketId {
        assert!(
            src != dst || dst_node.is_some(),
            "packets must cross subareas"
        );
        let id = PacketId::from(self.packets.len());
        let mut p = Packet::new(id, src, dst, self.now);
        p.dst_node = dst_node;
        // The purge walks the table in id order and stops at the first
        // packet not yet due, which is sound only while deadlines never
        // decrease with id: one shared ttl and monotone creation times.
        debug_assert!(
            self.packets.last().is_none_or(|q| q.created <= p.created),
            "packet creation times must be non-decreasing"
        );
        self.packets.push(p);
        self.metrics.generated += 1;
        let start = if !station_mode {
            self.pending[src.index()].insert(id);
            Some(Place::Pending(src))
        } else if self.station_up[src.index()] {
            self.store_at_station(id, src);
            Some(Place::Station(src))
        } else {
            // A down station buffers nothing: the packet is generated (it
            // counts against the delivery rate) but immediately lost to
            // the outage.
            self.packets[id.index()].loc = PacketLoc::Lost;
            self.metrics.record_lost_to_outage();
            None
        };
        self.emit(|at| SimEvent::PacketGenerated {
            at,
            pkt: id,
            src,
            dst,
            start,
        });
        if start.is_none() {
            self.emit(|at| SimEvent::PacketLost {
                at,
                pkt: id,
                from: None,
                kind: LossKind::Outage,
            });
        }
        id
    }

    /// Drop a packet whose TTL elapsed, removing it from wherever it sits.
    pub(crate) fn expire_packet(&mut self, pkt: PacketId) {
        let Some(from) = self.take_out(pkt) else {
            return;
        };
        self.packets[pkt.index()].loc = PacketLoc::Expired;
        self.metrics.record_expiry();
        self.emit(|at| SimEvent::PacketExpired { at, pkt, from });
    }

    /// Drop every live packet whose TTL has elapsed.
    ///
    /// Walks the packet table from the expiry cursor and stops at the
    /// first packet not yet due. Deadlines never decrease with id (see
    /// `create_packet`), so this visits the due packets in ascending id
    /// order and never revisits one. Packets that already died
    /// (delivered, lost, expired on touch) are passed over.
    pub(crate) fn purge_expired(&mut self) {
        while self.expiry_cursor < self.packets.len() {
            let pkt = PacketId::from(self.expiry_cursor);
            if !self.is_expired(pkt) {
                break;
            }
            self.expiry_cursor += 1;
            self.expire_packet(pkt);
        }
    }

    /// Deliver node-carried packets whose destination is `lm` without a
    /// forwarding operation (no-station routers: arrival at the
    /// destination subarea *is* delivery).
    pub(crate) fn auto_deliver_on_arrival(&mut self, node: NodeId, lm: LandmarkId) {
        // Reused buffer: arrivals are the hottest event, and a fresh
        // allocation per arrival dwarfs the delivery work itself.
        let mut here = std::mem::take(&mut self.scratch_pkts);
        here.clear();
        here.extend(
            self.node_store[node.index()]
                .iter()
                .filter(|&p| self.packets[p.index()].dst == lm),
        );
        for &pkt in &here {
            // The TTL may have lapsed since the last purge: that packet
            // is a drop, not a delivery.
            if self.is_expired(pkt) {
                self.expire_packet(pkt);
                continue;
            }
            if let Some(from) = self.take_out(pkt) {
                self.deliver(pkt, lm, from);
            }
        }
        self.scratch_pkts = here;
    }

    pub(crate) fn into_outcome(self) -> (RunMetrics, Vec<Packet>) {
        (self.metrics, self.packets)
    }

    /// Checkpoint encoding (DESIGN.md §11): every observable field in
    /// declaration order, each store as its members alone. Excluded by
    /// design: the config (supplied again on restore and
    /// fingerprint-checked at the snapshot level; store capacities come
    /// from it), `scratch_pkts` (always cleared before use), `present`
    /// (derivable from `node_loc`), and the trace sink (checkpointed
    /// separately so the engine can order the `CheckpointWritten` event
    /// before the recorder bytes are captured).
    pub fn encode_state(&self, w: &mut Writer) {
        self.now.encode(w);
        self.packets.encode(w);
        for stores in [&self.node_store, &self.station_store] {
            w.put_seq(stores.len(), stores.iter(), |w, s| s.members().encode(w));
        }
        self.pending.encode(w);
        self.node_loc.encode(w);
        self.metrics.encode(w);
        self.radio_budget.encode(w);
        self.station_up.encode(w);
        self.node_failed.encode(w);
        self.awaiting_recovery.encode(w);
        self.visit_recorded.encode(w);
        self.expiry_cursor.encode(w);
        self.pending_timers.encode(w);
    }

    /// Inverse of [`World::encode_state`]. The config and network sizes
    /// come from the caller (re-derived from the run inputs); per-node and
    /// per-landmark vector lengths must match them, and store capacities
    /// are the config's. `present` is rebuilt from `node_loc` by an
    /// ascending node scan, which reproduces the exact `DenseSet`
    /// contents incremental arrivals would have built.
    pub fn decode_state(
        r: &mut Reader<'_>,
        cfg: SimConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<World, SnapshotError> {
        let node_capacity = cfg.packets_per_node() as usize;
        let stores = |sets: Vec<DenseSet<PacketId>>, capacity| -> Vec<PacketStore> {
            sets.into_iter()
                .map(|set| PacketStore::with_members(capacity, set))
                .collect()
        };
        let mut world = World {
            cfg,
            now: Codec::decode(r)?,
            packets: Codec::decode(r)?,
            node_store: stores(Codec::decode(r)?, Some(node_capacity)),
            station_store: stores(Codec::decode(r)?, None),
            pending: Codec::decode(r)?,
            scratch_pkts: Vec::new(),
            node_loc: Codec::decode(r)?,
            present: vec![DenseSet::new(); num_landmarks],
            metrics: RunMetrics::decode(r)?,
            radio_budget: Codec::decode(r)?,
            station_up: Codec::decode(r)?,
            node_failed: Codec::decode(r)?,
            awaiting_recovery: Codec::decode(r)?,
            visit_recorded: Codec::decode(r)?,
            expiry_cursor: Codec::decode(r)?,
            pending_timers: Codec::decode(r)?,
            trace: None,
        };
        let w = &world;
        let per_node = [w.node_store.len(), w.node_loc.len(), w.node_failed.len()];
        let per_landmark = [
            w.station_store.len(),
            w.pending.len(),
            w.station_up.len(),
            w.awaiting_recovery.len(),
            w.radio_budget.as_ref().map_or(num_landmarks, Vec::len),
        ];
        let valid = per_node.iter().all(|&n| n == num_nodes)
            && per_landmark.iter().all(|&n| n == num_landmarks)
            && w.packets.iter().enumerate().all(|(i, p)| p.id.index() == i)
            && w.node_loc.iter().flatten().all(|lm| lm.index() < num_landmarks)
            && w.radio_budget.is_some() == w.cfg.radio_budget_per_unit.is_some()
            && w.node_store.iter().all(|s| s.len() <= node_capacity)
            // The purge walks ids from the cursor and stops at the first
            // packet not yet due: the cursor must lie within the table,
            // nothing below it may be live, and creation times (so
            // deadlines) must not decrease with id.
            && w.packets
                .get(..w.expiry_cursor)
                .is_some_and(|passed| passed.iter().all(|p| !p.loc.is_live()))
            && w.packets.windows(2).all(|p| p[0].created <= p[1].created);
        if !valid {
            return Err(SnapshotError::Corrupt { context: "World" });
        }
        for (i, loc) in world.node_loc.iter().enumerate() {
            if let Some(lm) = loc {
                world.present[lm.index()].insert(NodeId::from(i));
            }
        }
        Ok(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::time::{SimDuration, DAY};

    fn world() -> World {
        let cfg = SimConfig {
            node_memory: 2_048, // two packets
            ..SimConfig::default()
        };
        World::new(cfg, 3, 3)
    }

    fn lm(i: u16) -> LandmarkId {
        LandmarkId(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn pending_pickup_and_delivery_cycle() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        let p = w.create_packet(lm(0), lm(1), None, false);
        assert!(w.pending_at(lm(0)).any(|x| x == p));
        w.transfer_to_node(p, n(0)).unwrap();
        assert_eq!(w.packet(p).loc, PacketLoc::OnNode(n(0)));
        assert_eq!(w.metrics().forwarding_ops, 1);
        // Carrier moves to the destination: auto-delivery, no extra op.
        w.node_depart(n(0), lm(0));
        w.set_now(SimTime(100));
        w.node_arrive(n(0), lm(1));
        w.auto_deliver_on_arrival(n(0), lm(1));
        assert!(matches!(w.packet(p).loc, PacketLoc::Delivered(_)));
        assert_eq!(w.metrics().delivered, 1);
        assert_eq!(w.metrics().forwarding_ops, 1);
        assert_eq!(w.metrics().delays, vec![100]);
    }

    #[test]
    fn station_mode_generation_and_upload_delivery() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(2), None, true);
        assert_eq!(w.packet(p).loc, PacketLoc::AtStation(lm(0)));
        w.node_arrive(n(1), lm(0));
        w.transfer_to_node(p, n(1)).unwrap();
        w.node_depart(n(1), lm(0));
        w.set_now(SimTime(50));
        w.node_arrive(n(1), lm(2));
        let out = w.transfer_to_station(p, lm(2)).unwrap();
        assert!(out.delivered);
        assert_eq!(w.metrics().delivered, 1);
        assert_eq!(w.metrics().forwarding_ops, 2);
    }

    #[test]
    fn memory_limit_enforced() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        let a = w.create_packet(lm(0), lm(1), None, false);
        let b = w.create_packet(lm(0), lm(1), None, false);
        let c = w.create_packet(lm(0), lm(1), None, false);
        w.transfer_to_node(a, n(0)).unwrap();
        w.transfer_to_node(b, n(0)).unwrap();
        assert_eq!(w.transfer_to_node(c, n(0)), Err(TransferError::NoSpace));
        assert!(!w.node_has_space(n(0)));
        assert_eq!(w.node_packets(n(0)).count(), 2);
    }

    #[test]
    fn colocation_required() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        w.node_arrive(n(1), lm(1));
        let p = w.create_packet(lm(0), lm(2), None, false);
        // Node 1 is elsewhere.
        assert_eq!(
            w.transfer_to_node(p, n(1)),
            Err(TransferError::NotColocated)
        );
        w.transfer_to_node(p, n(0)).unwrap();
        // Node-to-node requires same landmark.
        assert_eq!(
            w.transfer_to_node(p, n(1)),
            Err(TransferError::NotColocated)
        );
        // Station upload at the wrong landmark also fails.
        assert_eq!(
            w.transfer_to_station(p, lm(1)),
            Err(TransferError::NotColocated)
        );
    }

    #[test]
    fn node_to_node_transfer() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        w.node_arrive(n(1), lm(0));
        let p = w.create_packet(lm(0), lm(2), None, false);
        w.transfer_to_node(p, n(0)).unwrap();
        w.transfer_to_node(p, n(1)).unwrap();
        assert_eq!(w.packet(p).loc, PacketLoc::OnNode(n(1)));
        assert_eq!(w.node_packets(n(0)).count(), 0);
        assert_eq!(w.metrics().forwarding_ops, 2);
        assert_eq!(w.transfer_to_node(p, n(1)), Err(TransferError::SamePlace));
    }

    #[test]
    fn expiry_on_touch_and_purge() {
        let mut w = world();
        w.node_arrive(n(0), lm(0));
        let p = w.create_packet(lm(0), lm(1), None, false);
        w.set_now(SimTime::ZERO + DAY.mul(21)); // past the 20-day TTL
        assert_eq!(w.transfer_to_node(p, n(0)), Err(TransferError::Expired));
        assert_eq!(w.packet(p).loc, PacketLoc::Expired);
        assert_eq!(w.metrics().expired, 1);
        // Purge path.
        let q = w.create_packet(lm(0), lm(1), None, false);
        w.set_now(SimTime::ZERO + DAY.mul(42));
        w.purge_expired();
        assert_eq!(w.packet(q).loc, PacketLoc::Expired);
    }

    #[test]
    fn loop_detection_via_station_revisit() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(2), None, true);
        w.node_arrive(n(0), lm(0));
        w.transfer_to_node(p, n(0)).unwrap();
        w.node_depart(n(0), lm(0));
        w.node_arrive(n(0), lm(1));
        let o1 = w.transfer_to_station(p, lm(1)).unwrap();
        assert!(!o1.loop_closed);
        w.transfer_to_node(p, n(0)).unwrap();
        w.node_depart(n(0), lm(1));
        w.node_arrive(n(0), lm(0));
        let o2 = w.transfer_to_station(p, lm(0)).unwrap();
        assert!(o2.loop_closed, "revisiting the source closes a loop");
    }

    #[test]
    fn dst_node_delivery() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(1), Some(n(2)), true);
        // Wrong node cannot claim it.
        w.node_arrive(n(0), lm(0));
        assert_eq!(
            w.deliver_to_dst_node(p, n(0)),
            Err(TransferError::NotColocated)
        );
        w.node_arrive(n(2), lm(0));
        w.deliver_to_dst_node(p, n(2)).unwrap();
        assert!(matches!(w.packet(p).loc, PacketLoc::Delivered(_)));
    }

    #[test]
    fn radio_budget_limits_station_transfers() {
        let cfg = SimConfig {
            radio_budget_per_unit: Some(1),
            ..SimConfig::default()
        };
        let mut w = World::new(cfg, 2, 2);
        w.node_arrive(n(0), lm(0));
        let a = w.create_packet(lm(0), lm(1), None, true);
        let b = w.create_packet(lm(0), lm(1), None, true);
        w.transfer_to_node(a, n(0)).unwrap();
        // The spent budget refuses every further station transfer.
        for _ in 0..2 {
            assert_eq!(w.transfer_to_node(b, n(0)), Err(TransferError::RadioBusy));
        }
        w.reset_radio_budget();
        w.transfer_to_node(b, n(0)).unwrap();
    }

    #[test]
    fn table_exchange_accounting() {
        let mut w = world();
        w.record_table_exchange(100);
        assert!((w.metrics().maintenance_ops - 2.0).abs() < 1e-12);
    }

    /// Each state the expiry walk or a store capacity cannot hold is a
    /// typed `Corrupt` on decode, not a panic or a wrong purge later.
    #[test]
    fn decode_rejects_a_packet_table_the_purge_cannot_walk() {
        let decode = |w: &World| {
            let mut buf = Writer::new();
            w.encode_state(&mut buf);
            let bytes = buf.into_bytes();
            World::decode_state(&mut Reader::new(&bytes), w.config().clone(), 3, 3).map(|_| ())
        };
        let corrupt = Err(SnapshotError::Corrupt { context: "World" });
        let built = || {
            let mut w = world();
            w.create_packet(lm(0), lm(1), None, false);
            w.set_now(SimTime(100));
            w.create_packet(lm(0), lm(2), None, false);
            w
        };
        assert_eq!(decode(&built()), Ok(()));

        // A cursor past the table: the purge would pass over the next
        // packet created without ever expiring it.
        let mut w = built();
        w.expiry_cursor = 3;
        assert_eq!(decode(&w), corrupt);

        // Creation times going backwards: the walk would stop at the
        // later packet and miss the earlier deadline behind it.
        let mut w = built();
        w.packets[1].created = SimTime::ZERO;
        assert_eq!(decode(&w), Ok(()));
        w.packets[0].created = SimTime(101);
        assert_eq!(decode(&w), corrupt);

        // A live packet the cursor has already passed would never expire.
        let mut w = built();
        w.expiry_cursor = 1;
        assert_eq!(decode(&w), corrupt);
        w.packets[0].loc = PacketLoc::Expired;
        w.pending[0].remove(PacketId(0));
        assert_eq!(decode(&w), Ok(()));

        // Three packets in a two-packet node memory.
        let mut w = built();
        let mut over = PacketStore::unbounded();
        for i in 0..3 {
            over.insert(PacketId(i));
        }
        w.node_store[0] = over;
        assert_eq!(decode(&w), corrupt);
    }

    #[test]
    #[should_panic(expected = "must cross subareas")]
    fn rejects_same_src_dst_packet() {
        let mut w = world();
        w.create_packet(lm(0), lm(0), None, false);
    }

    fn state_bytes(w: &World) -> Vec<u8> {
        let mut out = Writer::new();
        w.encode_state(&mut out);
        out.into_bytes()
    }

    /// The custody rule of the module doc: every live packet sits in
    /// exactly the container its `loc` names and terminal packets in
    /// none; no node store is over its capacity; no packet the expiry
    /// cursor has passed is live; the metrics count every packet in
    /// exactly one state and every hop as one forwarding op.
    fn assert_custody(w: &World) {
        let capacity = w.cfg.packets_per_node() as usize;
        assert!(w.node_store.iter().all(|s| s.len() <= capacity));
        let passed = &w.packets[..w.expiry_cursor];
        assert!(passed.iter().all(|p| !p.loc.is_live()), "live below cursor");
        for p in &w.packets {
            let pkt = p.id;
            let holders = w.pending.iter().filter(|s| s.contains(pkt)).count()
                + w.node_store.iter().filter(|s| s.contains(pkt)).count()
                + w.station_store.iter().filter(|s| s.contains(pkt)).count();
            let named = match p.loc {
                PacketLoc::PendingAtSource(l) => w.pending[l.index()].contains(pkt),
                PacketLoc::OnNode(m) => w.node_store[m.index()].contains(pkt),
                PacketLoc::AtStation(l) => w.station_store[l.index()].contains(pkt),
                _ => {
                    assert_eq!(holders, 0, "terminal {p:?} is still held");
                    continue;
                }
            };
            assert!(named && holders == 1, "{p:?} is held {holders} times");
        }
        let count =
            |f: &dyn Fn(PacketLoc) -> bool| w.packets.iter().filter(|p| f(p.loc)).count() as u64;
        let m = &w.metrics;
        let live = count(&PacketLoc::is_live);
        assert_eq!(m.generated, w.packets.len() as u64);
        assert_eq!(m.generated, m.delivered + m.expired + m.lost() + live);
        assert_eq!(
            m.delivered,
            count(&|l| matches!(l, PacketLoc::Delivered(_)))
        );
        assert_eq!(m.expired, count(&|l| l == PacketLoc::Expired));
        assert_eq!(m.lost(), count(&|l| l == PacketLoc::Lost));
        let hops: u64 = w.packets.iter().map(|p| u64::from(p.hops)).sum();
        assert_eq!(m.forwarding_ops, hops);
    }

    /// One transfer of `pkt`. A terminal packet is refused `NotLive`,
    /// and any refusal but a lapsed TTL leaves the world as it was.
    fn checked_transfer(
        w: &mut World,
        pkt: PacketId,
        transfer: impl FnOnce(&mut World) -> Result<(), TransferError>,
    ) {
        let was_live = w.packet(pkt).loc.is_live();
        let before = state_bytes(w);
        let got = transfer(w);
        if !was_live {
            assert_eq!(got, Err(TransferError::NotLive));
        }
        match got {
            Err(TransferError::Expired) => assert_eq!(w.packet(pkt).loc, PacketLoc::Expired),
            Err(e) => assert!(state_bytes(w) == before, "refused ({e:?}) but changed"),
            Ok(()) => {}
        }
    }

    /// The operands of one random operation: a packet (live ones four
    /// times in five), a node at the landmark where that packet is (three
    /// times in four, when one is there) and that landmark (likewise).
    fn operands(w: &World, x: u16, y: u16) -> (PacketId, NodeId, LandmarkId) {
        let live: Vec<PacketId> = w
            .packets
            .iter()
            .filter(|p| p.loc.is_live())
            .map(|p| p.id)
            .collect();
        let pkt = match (x % 5, live.len()) {
            (0, _) | (_, 0) => PacketId::from(usize::from(x) % w.packets.len().max(1)),
            (_, k) => live[usize::from(x) % k],
        };
        let here = match w.packets.get(pkt.index()).map(|p| p.loc) {
            Some(PacketLoc::PendingAtSource(l) | PacketLoc::AtStation(l)) => Some(l),
            Some(PacketLoc::OnNode(m)) => w.node_location(m),
            _ => None,
        };
        let here = here.filter(|_| !y.is_multiple_of(4));
        let present = here.map_or(&[][..], |l| w.nodes_at(l).as_slice());
        let node = match present.len() {
            0 => n(u32::from(y) % 4),
            k => present[usize::from(y) % k],
        };
        (pkt, node, here.unwrap_or(lm(y % 3)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 192,
            ..Default::default()
        })]

        /// Random operations on a four-node, three-landmark world, in
        /// station and pending mode, with node-addressed packets, a TTL
        /// that lapses within a few steps and, in some cases, a radio
        /// budget: custody holds after every one.
        #[test]
        fn custody_holds_after_every_operation(
            station_mode in proptest::arbitrary::any::<bool>(),
            radio in 0u64..3,
            ops in proptest::collection::vec(
                (0u8..20, proptest::arbitrary::any::<u16>(), proptest::arbitrary::any::<u16>()),
                0..200,
            ),
        ) {
            let cfg = SimConfig {
                node_memory: 2_048, // two packets
                ttl: SimDuration::from_secs(2_000),
                radio_budget_per_unit: (radio > 0).then_some(radio),
                ..SimConfig::default()
            };
            let mut w = World::new(cfg, 4, 3);
            for (op, x, y) in ops {
                let (node, l) = (n(u32::from(x) % 4), lm(y % 3));
                let src = lm(x % 3);
                let (pkt, to, at) = operands(&w, x, y);
                let has_pkt = !w.packets.is_empty();
                match op {
                    0..=2 if w.node_location(node).is_none() && !w.node_is_failed(node) => {
                        w.node_arrive(node, l);
                    }
                    3 | 4 => {
                        if let Some(at) = w.node_location(node) {
                            w.node_depart(node, at);
                        }
                    }
                    5 | 6 if src != l => {
                        w.create_packet(src, l, None, station_mode);
                    }
                    7 => {
                        w.create_node_packet(src, l, node);
                    }
                    8..=10 if has_pkt => {
                        checked_transfer(&mut w, pkt, |w| w.transfer_to_node(pkt, to));
                    }
                    11 | 12 if has_pkt => checked_transfer(&mut w, pkt, |w| {
                        w.transfer_to_station(pkt, at).map(|_| ())
                    }),
                    13 if has_pkt => {
                        let to = w.packet(pkt).dst_node.filter(|_| !y.is_multiple_of(4)).unwrap_or(to);
                        checked_transfer(&mut w, pkt, |w| w.deliver_to_dst_node(pkt, to));
                    }
                    14 if has_pkt => {
                        let reason = [LossReason::Outage, LossReason::Churn][usize::from(y % 2)];
                        checked_transfer(&mut w, pkt, |w| w.drop_lost(pkt, reason));
                    }
                    15 if y.is_multiple_of(3) => {
                        w.node_fail(node);
                    }
                    16 => w.node_recover(node),
                    17 if !w.station_is_up(l) => w.station_recover(l),
                    17 if y.is_multiple_of(3) => w.station_down(l),
                    18 => {
                        w.set_now(w.now() + SimDuration::from_secs(u64::from(y % 600)));
                        // Every other advance is a unit boundary; between
                        // them, lapsed packets wait to expire on touch.
                        if x.is_multiple_of(2) {
                            w.purge_expired();
                            w.reset_radio_budget();
                        }
                    }
                    19 => {
                        if let Some(at) = w.node_location(node) {
                            w.auto_deliver_on_arrival(node, at);
                        }
                    }
                    _ => {}
                }
                assert_custody(&w);
            }
        }
    }

    proptest::proptest! {
        /// The deadline rule `created + cfg.ttl`: `remaining_ttl` counts
        /// down to it and is zero exactly once it has passed, which is
        /// when a purge expires the packet.
        #[test]
        fn remaining_ttl_reaches_zero_exactly_at_the_deadline(
            created in 0u64..1u64 << 40,
            ttl in 1u64..1u64 << 30,
            age in 0u64..1u64 << 31,
        ) {
            let cfg = SimConfig {
                ttl: SimDuration::from_secs(ttl),
                ..SimConfig::default()
            };
            let mut w = World::new(cfg, 1, 2);
            w.set_now(SimTime(created));
            let p = w.create_packet(lm(0), lm(1), None, true);
            proptest::prop_assert_eq!(w.remaining_ttl(p), SimDuration::from_secs(ttl));
            w.set_now(SimTime(created + age));
            let remaining = w.remaining_ttl(p);
            proptest::prop_assert_eq!(remaining.secs(), ttl.saturating_sub(age));
            w.purge_expired();
            let expired = w.packet(p).loc == PacketLoc::Expired;
            proptest::prop_assert_eq!(expired, remaining == SimDuration::ZERO);
            proptest::prop_assert_eq!(w.expiry_cursor, usize::from(expired));
        }
    }
}
