//! Simulation state and the transfer primitives routers build on.
//!
//! The [`World`] owns every packet, every store, node locations, the run
//! metrics, and — when a radio budget is configured — the per-landmark
//! uplink/downlink budget. Routers never mutate this state directly; they
//! call the transfer methods, which enforce the physical rules every
//! algorithm plays by: co-location, memory limits, TTLs, and single-copy
//! semantics.

use crate::store::PacketStore;
use dtnflow_core::config::SimConfig;
use dtnflow_core::deadline::DeadlineQueue;
use dtnflow_core::dense::DenseSet;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_core::metrics::RunMetrics;
use dtnflow_core::packet::{Packet, PacketLoc};
use dtnflow_core::time::SimTime;
use dtnflow_obs::{LossKind, Place, SimEvent, TraceSink};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// Map a live packet location to its observability [`Place`]; terminal
/// states have no place.
fn place_of(loc: PacketLoc) -> Option<Place> {
    match loc {
        PacketLoc::PendingAtSource(l) => Some(Place::Pending(l)),
        PacketLoc::OnNode(n) => Some(Place::Node(n)),
        PacketLoc::AtStation(l) => Some(Place::Station(l)),
        _ => None,
    }
}

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
    // detlint: allow(S1, reason = "network dimension, supplied to decode_state and cross-checked against the snapshot")
    num_nodes: usize,
    // detlint: allow(S1, reason = "network dimension, supplied to decode_state and cross-checked against the snapshot")
    num_landmarks: usize,
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
    /// Packet deadlines in a sorted deadline queue (DESIGN.md §14).
    /// Every created non-stillborn packet is filed once at creation
    /// under `(deadline, id)`; purges pop due entries instead of
    /// scanning all packets. Because every packet shares `cfg.ttl`,
    /// deadlines are non-decreasing in packet id, so each push is an
    /// append and the `(deadline, id)` drain order IS the ascending-id
    /// order the old scan produced. Entries of packets that died early
    /// (delivered, lost, expired on touch) stay filed and are skipped
    /// when drained.
    expiry: DeadlineQueue,
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
        Ok(World {
            now: SimTime::ZERO,
            num_nodes,
            num_landmarks,
            packets: Vec::new(),
            node_store: (0..num_nodes)
                .map(|_| PacketStore::bounded(cfg.node_memory))
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
            expiry: DeadlineQueue::new(),
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
        self.num_nodes
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Immutable view of a packet.
    pub fn packet(&self, id: PacketId) -> &Packet {
        &self.packets[id.index()]
    }

    /// All packets created so far (diagnostics; includes finished ones).
    pub fn packets(&self) -> &[Packet] {
        &self.packets
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

    /// Number of packets in a node's memory.
    pub fn node_packet_count(&self, node: NodeId) -> usize {
        self.node_store[node.index()].len()
    }

    /// Free bytes in a node's memory.
    pub fn node_free_bytes(&self, node: NodeId) -> u64 {
        self.node_store[node.index()].free_bytes()
    }

    /// Whether one more packet fits in a node's memory.
    pub fn node_has_space(&self, node: NodeId) -> bool {
        self.node_store[node.index()].fits(self.cfg.packet_size)
    }

    /// Packets stored at a station, ascending by id.
    pub fn station_packets(&self, lm: LandmarkId) -> impl Iterator<Item = PacketId> + '_ {
        self.station_store[lm.index()].iter()
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
        /// Table entries that fit one packet-equivalent (DESIGN.md §6).
        const ENTRIES_PER_PACKET: usize = 50;
        self.metrics
            .record_table_exchange(entries, ENTRIES_PER_PACKET);
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
        let loc = self.packets[pkt.index()].loc;
        let to_lm = self.node_loc[to.index()].ok_or(TransferError::NotColocated)?;
        let size = self.cfg.packet_size;
        match loc {
            PacketLoc::PendingAtSource(l) => {
                if l != to_lm {
                    return Err(TransferError::NotColocated);
                }
                if !self.node_store[to.index()].fits(size) {
                    return Err(TransferError::NoSpace);
                }
                self.pending[l.index()].remove(pkt);
            }
            PacketLoc::AtStation(l) => {
                if l != to_lm {
                    return Err(TransferError::NotColocated);
                }
                if !self.station_up[l.index()] {
                    return Err(TransferError::StationDown);
                }
                if !self.node_store[to.index()].fits(size) {
                    return Err(TransferError::NoSpace);
                }
                self.take_radio_budget(l)?;
                self.station_store[l.index()].remove(pkt, size);
                self.note_station_activity(l);
            }
            PacketLoc::OnNode(m) => {
                if m == to {
                    return Err(TransferError::SamePlace);
                }
                if self.node_loc[m.index()] != Some(to_lm) {
                    return Err(TransferError::NotColocated);
                }
                if !self.node_store[to.index()].fits(size) {
                    return Err(TransferError::NoSpace);
                }
                self.node_store[m.index()].remove(pkt, size);
            }
            _ => return Err(TransferError::NotLive),
        }
        // Invariant: `fits` was checked above and nothing touched the
        // store since, so the insert cannot be refused.
        assert!(
            self.node_store[to.index()].insert(pkt, size),
            "node store refused an insert that fit"
        );
        let p = &mut self.packets[pkt.index()];
        p.loc = PacketLoc::OnNode(to);
        p.hops += 1;
        self.metrics.record_forward();
        if let Some(from) = place_of(loc) {
            self.emit(|at| SimEvent::PacketForwarded {
                at,
                pkt,
                from,
                to: Place::Node(to),
            });
        }
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
        let size = self.cfg.packet_size;
        let loc = self.packets[pkt.index()].loc;
        match loc {
            PacketLoc::OnNode(m) => {
                if self.node_loc[m.index()] != Some(lm) {
                    return Err(TransferError::NotColocated);
                }
                self.take_radio_budget(lm)?;
                self.node_store[m.index()].remove(pkt, size);
            }
            PacketLoc::PendingAtSource(l) => {
                if l != lm {
                    return Err(TransferError::NotColocated);
                }
                self.pending[l.index()].remove(pkt);
            }
            PacketLoc::AtStation(l) if l == lm => return Err(TransferError::SamePlace),
            _ => return Err(TransferError::NotLive),
        }
        self.note_station_activity(lm);
        self.metrics.record_forward();
        let now = self.now;
        let p = &mut self.packets[pkt.index()];
        p.hops += 1;
        // A node-addressed packet (§IV-E.4) is only delivered by its
        // destination *node* claiming it, never by reaching a landmark.
        if p.dst == lm && p.dst_node.is_none() {
            p.loc = PacketLoc::Delivered(now);
            let delay = now.since(p.created);
            let hops = p.hops;
            self.metrics.record_delivery(delay);
            if let Some(from) = place_of(loc) {
                self.emit(|at| SimEvent::PacketDelivered {
                    at,
                    pkt,
                    lm,
                    delay,
                    hops,
                    from,
                });
            }
            return Ok(TransferOutcome {
                delivered: true,
                loop_closed: false,
            });
        }
        let loop_closed = p.record_station_visit(lm);
        p.loc = PacketLoc::AtStation(lm);
        // Invariant: station stores are unbounded, inserts never fail.
        assert!(
            self.station_store[lm.index()].insert(pkt, size),
            "unbounded station store refused an insert"
        );
        if let Some(from) = place_of(loc) {
            self.emit(|at| SimEvent::PacketForwarded {
                at,
                pkt,
                from,
                to: Place::Station(lm),
            });
        }
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
        let size = self.cfg.packet_size;
        self.station_store[l.index()].remove(pkt, size);
        self.note_station_activity(l);
        let now = self.now;
        let p = &mut self.packets[pkt.index()];
        p.loc = PacketLoc::Delivered(now);
        p.hops += 1;
        let delay = now.since(p.created);
        let hops = p.hops;
        self.metrics.record_delivery(delay);
        self.metrics.record_forward();
        self.emit(|at| SimEvent::PacketDelivered {
            at,
            pkt,
            lm: l,
            delay,
            hops,
            from: Place::Station(l),
        });
        Ok(())
    }

    // ---- engine-side mutations (crate-private) ----------------------------

    fn check_live(&mut self, pkt: PacketId) -> Result<(), TransferError> {
        let p = &self.packets[pkt.index()];
        if !p.loc.is_live() {
            return Err(TransferError::NotLive);
        }
        if p.is_expired_at(self.now) {
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
        let size = self.cfg.packet_size;
        let loc = self.packets[pkt.index()].loc;
        match loc {
            PacketLoc::OnNode(n) => {
                self.node_store[n.index()].remove(pkt, size);
            }
            PacketLoc::AtStation(l) => {
                self.station_store[l.index()].remove(pkt, size);
            }
            PacketLoc::PendingAtSource(l) => {
                self.pending[l.index()].remove(pkt);
            }
            _ => return Err(TransferError::NotLive),
        }
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
        let from = place_of(loc);
        self.emit(|at| SimEvent::PacketLost {
            at,
            pkt,
            from,
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

    /// Remaining node↔station transfers at `lm` this unit (`None` when
    /// radio is unconstrained).
    pub fn radio_budget_left(&self, lm: LandmarkId) -> Option<u64> {
        self.radio_budget.as_ref().map(|b| b[lm.index()])
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
        station_mode: bool,
    ) -> PacketId {
        self.create_packet(src, via, Some(dst_node), station_mode)
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
        let mut p = Packet::new(id, src, dst, self.now, self.cfg.ttl);
        p.dst_node = dst_node;
        if station_mode {
            if !self.station_up[src.index()] {
                // A down station buffers nothing: the packet is generated
                // (it counts against the delivery rate) but immediately
                // lost to the outage.
                p.loc = PacketLoc::Lost;
                self.packets.push(p);
                self.metrics.generated += 1;
                self.metrics.record_lost_to_outage();
                self.emit(|at| SimEvent::PacketGenerated {
                    at,
                    pkt: id,
                    src,
                    dst,
                    start: None,
                });
                self.emit(|at| SimEvent::PacketLost {
                    at,
                    pkt: id,
                    from: None,
                    kind: LossKind::Outage,
                });
                return id;
            }
            p.loc = PacketLoc::AtStation(src);
            p.record_station_visit(src);
            // Invariant: station stores are unbounded, inserts never fail.
            assert!(
                self.station_store[src.index()].insert(id, self.cfg.packet_size),
                "unbounded station store refused an insert"
            );
        } else {
            self.pending[src.index()].insert(id);
        }
        let start = place_of(p.loc);
        let deadline = p.deadline();
        // The queue's (deadline, id) drain order equals ascending id only
        // while deadlines are non-decreasing in id: shared ttl + monotone
        // creation times. Guard the invariant the purge order rests on.
        debug_assert!(
            self.packets.last().is_none_or(|q| q.created <= p.created),
            "packet creation times must be non-decreasing"
        );
        self.packets.push(p);
        self.expiry
            .push(deadline.secs(), id.index() as u64, id.index() as u64);
        self.metrics.generated += 1;
        self.emit(|at| SimEvent::PacketGenerated {
            at,
            pkt: id,
            src,
            dst,
            start,
        });
        id
    }

    /// Drop a packet whose TTL elapsed, removing it from wherever it sits.
    pub(crate) fn expire_packet(&mut self, pkt: PacketId) {
        let size = self.cfg.packet_size;
        let loc = self.packets[pkt.index()].loc;
        match loc {
            PacketLoc::OnNode(n) => {
                self.node_store[n.index()].remove(pkt, size);
            }
            PacketLoc::AtStation(l) => {
                self.station_store[l.index()].remove(pkt, size);
            }
            PacketLoc::PendingAtSource(l) => {
                self.pending[l.index()].remove(pkt);
            }
            _ => return,
        }
        self.packets[pkt.index()].loc = PacketLoc::Expired;
        self.metrics.record_expiry();
        if let Some(from) = place_of(loc) {
            self.emit(|at| SimEvent::PacketExpired { at, pkt, from });
        }
    }

    /// Drop every live packet whose TTL has elapsed.
    ///
    /// Pops the due expiry entries instead of scanning all packets:
    /// they arrive in `(deadline, id)` order — equal to the ascending-id
    /// order of the scan this replaces, since deadlines are
    /// non-decreasing in id (see `create_packet`) — and the due
    /// condition `deadline <= now` is exactly `Packet::is_expired_at`.
    /// Entries whose packet already died (delivered, lost, expired on
    /// touch) are skipped, mirroring the old scan's `is_live` filter.
    pub(crate) fn purge_expired(&mut self) {
        let now = self.now.secs();
        while let Some(e) = self.expiry.pop_due(now) {
            let pkt = PacketId::from(e.payload as usize);
            if self.packets[pkt.index()].loc.is_live() {
                self.expire_packet(pkt);
            }
        }
    }

    /// Deliver node-carried packets whose destination is `lm` without a
    /// forwarding operation (no-station routers: arrival at the
    /// destination subarea *is* delivery).
    pub(crate) fn auto_deliver_on_arrival(&mut self, node: NodeId, lm: LandmarkId) {
        let size = self.cfg.packet_size;
        // Reused buffer: arrivals are the hottest event, and a fresh
        // allocation per arrival dwarfs the delivery work itself.
        let mut here = std::mem::take(&mut self.scratch_pkts);
        here.clear();
        here.extend(
            self.node_store[node.index()]
                .iter()
                .filter(|&p| self.packets[p.index()].dst == lm),
        );
        let now = self.now;
        for &pkt in &here {
            // The TTL may have lapsed since the last purge: that packet
            // is a drop, not a delivery.
            if self.packets[pkt.index()].is_expired_at(now) {
                self.expire_packet(pkt);
                continue;
            }
            self.node_store[node.index()].remove(pkt, size);
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
                from: Place::Node(node),
            });
        }
        self.scratch_pkts = here;
    }

    pub(crate) fn into_outcome(self) -> (RunMetrics, Vec<Packet>) {
        (self.metrics, self.packets)
    }

    /// Checkpoint encoding (DESIGN.md §11): every observable field in
    /// declaration order. Excluded by design: the config and network sizes
    /// (supplied again on restore and fingerprint-checked at the snapshot
    /// level), `scratch_pkts` (always cleared before use), `present`
    /// (derivable from `node_loc`), and the trace sink (checkpointed
    /// separately so the engine can order the `CheckpointWritten` event
    /// before the recorder bytes are captured).
    pub fn encode_state(&self, w: &mut Writer) {
        self.now.encode(w);
        self.packets.encode(w);
        self.node_store.encode(w);
        self.station_store.encode(w);
        self.pending.encode(w);
        self.node_loc.encode(w);
        self.metrics.encode(w);
        self.radio_budget.encode(w);
        self.station_up.encode(w);
        self.node_failed.encode(w);
        self.awaiting_recovery.encode(w);
        self.visit_recorded.encode(w);
        self.expiry.encode(w);
        self.pending_timers.encode(w);
    }

    /// Inverse of [`World::encode_state`]. The config and network sizes
    /// come from the caller (re-derived from the run inputs); per-node and
    /// per-landmark vector lengths must match them. `present` is rebuilt
    /// from `node_loc` by an ascending node scan, which reproduces the
    /// exact `DenseSet` contents incremental arrivals would have built.
    pub fn decode_state(
        r: &mut Reader<'_>,
        cfg: SimConfig,
        num_nodes: usize,
        num_landmarks: usize,
    ) -> Result<World, SnapshotError> {
        let mut world = World {
            cfg,
            now: Codec::decode(r)?,
            num_nodes,
            num_landmarks,
            packets: Codec::decode(r)?,
            node_store: Codec::decode(r)?,
            station_store: Codec::decode(r)?,
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
            expiry: Codec::decode(r)?,
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
            // Expiry payloads are packet ids: one naming a packet that does
            // not exist would panic the next purge.
            && w.expiry.iter().all(|e| e.payload < w.packets.len() as u64);
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
    use dtnflow_core::time::DAY;

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
        assert_eq!(w.node_packet_count(n(0)), 2);
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
        assert_eq!(w.node_packet_count(n(0)), 0);
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
        assert_eq!(w.transfer_to_node(b, n(0)), Err(TransferError::RadioBusy));
        assert_eq!(w.radio_budget_left(lm(0)), Some(0));
        w.reset_radio_budget();
        w.transfer_to_node(b, n(0)).unwrap();
    }

    #[test]
    fn table_exchange_accounting() {
        let mut w = world();
        w.record_table_exchange(100);
        assert!((w.metrics().maintenance_ops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn decode_rejects_an_expiry_entry_naming_a_missing_packet() {
        let mut w = world();
        let p = w.create_packet(lm(0), lm(1), None, false);
        let decode = |w: &World| {
            let mut buf = Writer::new();
            w.encode_state(&mut buf);
            let bytes = buf.into_bytes();
            World::decode_state(&mut Reader::new(&bytes), w.config().clone(), 3, 3).map(|_| ())
        };
        assert_eq!(decode(&w), Ok(()));
        // A later entry naming packet 999 of 1: without the check the
        // world decodes and the next purge indexes past `packets`.
        let deadline = w.packet(p).deadline().secs();
        w.expiry.push(deadline + 1, 999, 999);
        assert_eq!(decode(&w), Err(SnapshotError::Corrupt { context: "World" }));
    }

    #[test]
    #[should_panic(expected = "must cross subareas")]
    fn rejects_same_src_dst_packet() {
        let mut w = world();
        w.create_packet(lm(0), lm(0), None, false);
    }
}
