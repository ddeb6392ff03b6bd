//! The simulated deployment: the real server stack on a virtual clock.
//!
//! A [`SimWorld`] owns `nodes` complete server stacks — each exactly the
//! object graph the TCP server owns: a [`GuardedDatabase`] (snapshot
//! read path and all), a manual-mode [`DelayScheduler`] with the real
//! timer wheel, and the [`FrontDoor`] — all sharing one [`ManualClock`].
//! Clients connect over an in-memory mesh; every frame crosses the real
//! wire codec in both directions, so what travels is bytes, not objects.
//!
//! The world has two modes, chosen by [`SimConfig::nodes`]:
//!
//! * **One node** (the default): a single server. Client frames go
//!   straight to node 0; nothing gossips.
//! * **N nodes**: a sharded cluster behind a router that speaks the
//!   unchanged client protocol. `REGISTER` is broadcast to every node in
//!   node order (registrars assign identities deterministically, so the
//!   router forwards node 0's verdict and swallows the duplicates); a
//!   `WHERE id = k` point query and a keyed write go to the owner node
//!   of the [`PartitionMap`]; anything else lands on node 0. Every
//!   `sync_interval_secs` each node exports a cumulative
//!   [`Frame::Delta`] and sends it to every peer over the real codec;
//!   receivers fold it through [`FrontDoor::apply_delta`] and answer
//!   with `DELTA_ACK`, so `d(i)` converges to the global closed form on
//!   every node. An unchanged delta (quiet node) is not re-sent.
//!   [`SimWorld::connect_node_link`] bypasses the router, and
//!   [`SimWorld::cut_node`] / [`SimWorld::heal_node`] partition a node
//!   away from gossip, leaving client routing intact.
//!
//! Time is event-driven: the world advances the clock straight to the
//! next scheduled thing (a wheel deadline, a frame arrival or a gossip
//! tick) and processes everything due there. A 30-day adversary
//! campaign is a few thousand events — the wheel fast-forwards across
//! empty spans, so the cost is proportional to traffic, never to
//! simulated time.
//!
//! Determinism: the world is single-threaded, every component reads the
//! injected clock, connections and nodes iterate in id order, and all
//! fault sampling draws from one seeded RNG. Two worlds built from the
//! same seed and driven by the same calls produce bit-identical
//! executions — checkable via [`SimWorld::digest`], which folds every
//! delivered frame's bytes and delivery time (client- and peer-side)
//! into an order-sensitive hash.

use crate::net::{Arrival, FaultPlan, LinkError, NetLink, SimNet};
use crate::partition::PartitionMap;
use delayguard_core::clock::{nanos_to_secs, secs_to_nanos, Clock, ManualClock};
use delayguard_core::replica::ReplicaDelta;
use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionControl, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::{read_frame, write_frame, Frame};
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use delayguard_workload::Rng;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Identifies one simulated client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// Configuration of a simulated deployment (the subset of the TCP
/// server's knobs that exist without sockets, plus the cluster shape).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Guard (delay policy) configuration, applied to every node.
    pub guard: GuardConfig,
    /// Front-door (gatekeeper, refusal hints) configuration, applied to
    /// every node.
    pub gate: GateConfig,
    /// Timer-wheel granularity; delays round up to the next tick.
    pub tick: Duration,
    /// Per-connection cap on rows admitted but not yet delivered to the
    /// mesh — mirrors the TCP server's bounded send queue, so the
    /// `Overloaded` backpressure path is reachable in simulation.
    pub send_queue_rows: usize,
    /// Fault plan applied to newly created client links (override per
    /// link with [`SimWorld::set_faults`]).
    pub faults: FaultPlan,
    /// Number of nodes (shards). One is a single server with no router.
    pub nodes: usize,
    /// Gossip cadence in virtual seconds; `0.0` disables replication
    /// (the un-replicated negative control). A one-node world never
    /// gossips.
    pub sync_interval_secs: f64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            guard: GuardConfig::paper_default(),
            gate: GateConfig::default(),
            tick: Duration::from_millis(1),
            send_queue_rows: 4096,
            faults: FaultPlan::ideal(),
            nodes: 1,
            sync_interval_secs: 0.0,
        }
    }
}

// ---- the frame sink (client and peer links) -----------------------------

/// The mesh's [`FrameSink`]: the front door pushes response frames here
/// (scheduler jobs included); the world drains them onto the simulated
/// wire. Row accounting mirrors the TCP server's bounded send queue:
/// reservations are all-or-nothing and released as rows leave.
struct SimSink {
    inner: Mutex<SinkInner>,
}

struct SinkInner {
    queue: Vec<Frame>,
    rows_cap: usize,
    rows_outstanding: usize,
}

impl SimSink {
    fn new(rows_cap: usize) -> SimSink {
        SimSink {
            inner: Mutex::new(SinkInner {
                queue: Vec::new(),
                rows_cap,
                rows_outstanding: 0,
            }),
        }
    }

    /// Take everything queued, releasing row reservations as they leave.
    fn drain(&self) -> Vec<Frame> {
        let mut g = self.inner.lock();
        let out = std::mem::take(&mut g.queue);
        let rows = out
            .iter()
            .filter(|f| matches!(f, Frame::Row { .. } | Frame::Mutated { .. }))
            .count();
        g.rows_outstanding = g.rows_outstanding.saturating_sub(rows);
        out
    }
}

impl FrameSink for SimSink {
    fn push_control(&self, frame: Frame) {
        self.inner.lock().queue.push(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.inner.lock().queue.push(frame);
    }

    fn try_reserve_rows(&self, n: usize) -> bool {
        let mut g = self.inner.lock();
        if g.rows_outstanding + n > g.rows_cap {
            return false;
        }
        g.rows_outstanding += n;
        true
    }

    fn release_rows(&self, n: usize) {
        let mut g = self.inner.lock();
        g.rows_outstanding = g.rows_outstanding.saturating_sub(n);
    }
}

// ---- events -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    ToServer,
    ToClient,
}

struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

enum EvKind {
    /// A frame on a client link.
    Deliver { conn: u64, dir: Dir, bytes: Vec<u8> },
    /// A client link reset by fault injection.
    Reset { conn: u64 },
    /// A frame on a node↔node peer link.
    PeerDeliver {
        from: usize,
        to: usize,
        bytes: Vec<u8>,
    },
    /// The gossip cadence fired.
    SyncTick,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Ev) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Ev) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Ev) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

// ---- nodes and connections ----------------------------------------------

struct Node {
    gate: Arc<FrontDoor>,
    scheduler: Arc<DelayScheduler>,
    registry: Registry,
    /// Inbound peer-link sink: `DELTA_ACK`s accumulate here.
    peer_sink: Arc<SimSink>,
    /// Last exported delta (tables + gate, seq ignored): an unchanged
    /// state is not re-gossiped.
    last_export: Option<ReplicaDelta>,
    /// Cut off from gossip (client routing still works).
    cut: bool,
}

struct Conn {
    peer_ip: [u8; 4],
    open: bool,
    partitioned: bool,
    /// A reset is in flight: new sends are discarded.
    pending_reset: bool,
    faults: FaultPlan,
    /// `Some(j)`: a direct connection to node `j` that bypasses the
    /// router (registration is not broadcast, queries are not routed).
    pinned: Option<usize>,
    /// One sink and session per node: the router fans a client out to
    /// whichever nodes its frames land on, and each node's scheduler
    /// pushes delayed rows into its own sink. The session holds the
    /// protocol version negotiated at `REGISTER`.
    sinks: Vec<Arc<SimSink>>,
    sessions: Vec<Arc<SessionState>>,
    inbox: VecDeque<Arrival>,
    /// FIFO floors per direction: a new frame never arrives before one
    /// sent earlier (unless a reorder fault explicitly lets it overtake).
    fifo_to_server: u64,
    fifo_to_client: u64,
    /// Frames held while partitioned, with their would-be arrival times.
    held: Vec<(Dir, u64, Vec<u8>)>,
}

// ---- the world ----------------------------------------------------------

struct Core {
    clock: Arc<ManualClock>,
    rng: Rng,
    partition: PartitionMap,
    nodes: Vec<Node>,
    heap: BinaryHeap<Reverse<Ev>>,
    next_seq: u64,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    default_faults: FaultPlan,
    send_queue_rows: usize,
    sync_interval_nanos: u64,
    sync_enabled: bool,
    /// A `SyncTick` is sitting in the heap.
    sync_armed: bool,
    /// Peer frames held by a cut: `(from, to, would-be arrival)`.
    held_peer: Vec<(usize, usize, u64, Vec<u8>)>,
    peer_frames_held: u64,
    peer_frames_delivered: u64,
    frames_dropped: u64,
    frames_delivered: u64,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame).expect("frame encodes");
    bytes
}

fn decode(mut bytes: &[u8]) -> Frame {
    read_frame(&mut bytes)
        .expect("frame decodes")
        .expect("non-empty frame")
}

impl Core {
    fn new(seed: u64, config: SimConfig) -> Core {
        let clock = ManualClock::shared();
        let clustered = config.nodes > 1;
        let nodes = (0..config.nodes)
            .map(|j| {
                let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
                let db = Arc::new(GuardedDatabase::with_engine_and_clock(
                    Engine::new(),
                    config.guard,
                    Arc::clone(&dyn_clock),
                ));
                let registry = Registry::new();
                let metrics = ServerMetrics::new(&registry);
                let scheduler =
                    DelayScheduler::manual(config.tick, metrics.clone(), Arc::clone(&dyn_clock));
                let gate = Arc::new(FrontDoor::new(
                    config.gate.clone(),
                    db,
                    Arc::clone(&scheduler),
                    dyn_clock,
                    metrics,
                    registry.clone(),
                ));
                if clustered {
                    // Origins are 1-based: 0 is the single-node default
                    // and must not collide with a real peer in the CRDT
                    // logs.
                    gate.set_node_origin(j as u16 + 1);
                }
                Node {
                    gate,
                    scheduler,
                    registry,
                    peer_sink: Arc::new(SimSink::new(usize::MAX)),
                    last_export: None,
                    cut: false,
                }
            })
            .collect();
        let sync_interval_nanos = if clustered {
            secs_to_nanos(config.sync_interval_secs)
        } else {
            0
        };
        let mut core = Core {
            clock,
            rng: Rng::new(seed),
            partition: PartitionMap::new(config.nodes),
            nodes,
            heap: BinaryHeap::new(),
            next_seq: 0,
            conns: BTreeMap::new(),
            next_conn: 1,
            default_faults: config.faults,
            send_queue_rows: config.send_queue_rows,
            sync_interval_nanos,
            sync_enabled: sync_interval_nanos > 0,
            sync_armed: false,
            held_peer: Vec::new(),
            peer_frames_held: 0,
            peer_frames_delivered: 0,
            frames_dropped: 0,
            frames_delivered: 0,
            digest: FNV_OFFSET,
        };
        if core.sync_enabled {
            core.arm_sync();
        }
        core
    }

    fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    fn arm_sync(&mut self) {
        if self.sync_armed || self.sync_interval_nanos == 0 {
            return;
        }
        let at = self.now_nanos().saturating_add(self.sync_interval_nanos);
        self.push_ev(at, EvKind::SyncTick);
        self.sync_armed = true;
    }

    fn connect(&mut self, peer_ip: [u8; 4], pinned: Option<usize>) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        let n = self.nodes.len();
        self.conns.insert(
            id,
            Conn {
                peer_ip,
                open: true,
                partitioned: false,
                pending_reset: false,
                faults: self.default_faults,
                pinned,
                sinks: (0..n)
                    .map(|_| Arc::new(SimSink::new(self.send_queue_rows)))
                    .collect(),
                sessions: (0..n).map(|_| Arc::new(SessionState::new())).collect(),
                inbox: VecDeque::new(),
                fifo_to_server: 0,
                fifo_to_client: 0,
                held: Vec::new(),
            },
        );
        id
    }

    fn push_ev(&mut self, at: u64, kind: EvKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    /// Put one frame on a client link in direction `dir`, applying the
    /// link's fault plan. Returns `Err` only for client sends on a dead
    /// link.
    fn transmit(&mut self, conn_id: u64, dir: Dir, frame: &Frame) -> Result<(), LinkError> {
        let now = self.now_nanos();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return Err(LinkError::Closed);
        };
        if !conn.open || conn.pending_reset {
            return match dir {
                Dir::ToServer => Err(LinkError::Closed),
                // Server frames to a dead connection vanish, as on TCP.
                Dir::ToClient => Ok(()),
            };
        }
        let bytes = encode(frame);
        let f = conn.faults;
        if f.reset_prob > 0.0 && self.rng.chance(f.reset_prob) {
            conn.pending_reset = true;
            let at = now.saturating_add(secs_to_nanos(f.latency_secs));
            self.push_ev(at, EvKind::Reset { conn: conn_id });
            return Ok(());
        }
        if f.drop_prob > 0.0 && self.rng.chance(f.drop_prob) {
            self.frames_dropped += 1;
            return Ok(());
        }
        let mut latency = f.latency_secs;
        if f.jitter_secs > 0.0 {
            latency += self.rng.f64_range(0.0, f.jitter_secs);
        }
        let overtakable = f.reorder_prob > 0.0 && self.rng.chance(f.reorder_prob);
        if overtakable {
            latency += f.reorder_extra_secs;
        }
        let mut at = now.saturating_add(secs_to_nanos(latency));
        if !overtakable {
            let fifo = match dir {
                Dir::ToServer => &mut conn.fifo_to_server,
                Dir::ToClient => &mut conn.fifo_to_client,
            };
            at = at.max(*fifo);
            *fifo = at;
        }
        if conn.partitioned {
            conn.held.push((dir, at, bytes));
        } else {
            self.push_ev(
                at,
                EvKind::Deliver {
                    conn: conn_id,
                    dir,
                    bytes,
                },
            );
        }
        Ok(())
    }

    /// Send one peer frame `from → to`, holding it if either end is cut.
    fn peer_send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        let at = self.now_nanos();
        if self.nodes[from].cut || self.nodes[to].cut {
            self.held_peer.push((from, to, at, bytes));
            self.peer_frames_held += 1;
        } else {
            self.push_ev(at, EvKind::PeerDeliver { from, to, bytes });
        }
    }

    /// One gossip round: every node exports its cumulative delta and
    /// sends it to every peer, skipping states unchanged since the last
    /// export (the `DELTA_ACK`-driven quiescence of the real wire,
    /// collapsed to its observable effect).
    fn gossip_round(&mut self) {
        for j in 0..self.nodes.len() {
            let delta = self.nodes[j].gate.export_delta();
            if let Some(last) = &self.nodes[j].last_export {
                if last.tables == delta.tables && last.gate == delta.gate {
                    continue;
                }
            }
            let bytes = encode(&Frame::Delta {
                delta: delta.clone(),
            });
            self.nodes[j].last_export = Some(delta);
            for k in 0..self.nodes.len() {
                if k != j {
                    self.peer_send(j, k, bytes.clone());
                }
            }
        }
    }

    /// Drain every sink onto the wire (deterministic order): the
    /// per-connection node sinks in `(conn, node)` order, then the node
    /// peer sinks in node order.
    fn route_outboxes(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            for node in 0..self.nodes.len() {
                let frames = {
                    let Some(conn) = self.conns.get(&id) else {
                        continue;
                    };
                    conn.sinks[node].drain()
                };
                for frame in frames {
                    let _ = self.transmit(id, Dir::ToClient, &frame);
                }
            }
        }
        for j in 0..self.nodes.len() {
            let frames = self.nodes[j].peer_sink.drain();
            for frame in frames {
                // Replies on a peer link go back to the delta's origin.
                if let Frame::DeltaAck { origin, .. } = frame {
                    let to = (origin as usize).wrapping_sub(1);
                    if to < self.nodes.len() && to != j {
                        self.peer_send(j, to, encode(&frame));
                    }
                }
            }
        }
    }

    /// Hand one client frame to node `j`'s front door.
    fn deliver_direct(&mut self, conn_id: u64, j: usize, frame: Frame) {
        let (ip, sink, session) = match self.conns.get(&conn_id) {
            Some(c) => (
                c.peer_ip,
                Arc::clone(&c.sinks[j]),
                Arc::clone(&c.sessions[j]),
            ),
            None => return,
        };
        let control = self.nodes[j].gate.handle_frame(frame, ip, &session, &sink);
        if control == SessionControl::Terminate {
            if let Some(c) = self.conns.get_mut(&conn_id) {
                c.open = false;
            }
        }
    }

    /// The router: deliver one client frame to the node(s) it targets.
    fn route_to_nodes(&mut self, conn_id: u64, frame: Frame) {
        let j = match &frame {
            Frame::Register { .. } => return self.broadcast_register(conn_id, frame),
            Frame::Query { sql, .. } => self.partition.route(sql),
            // Writes pin to the partition key's owner: the mutated row's
            // update-rate weight accrues on the shard that serves it, and
            // peers learn of it through the DELTA sync like any other
            // locally-originated popularity state.
            Frame::Insert { sql, .. } | Frame::Update { sql, .. } | Frame::Delete { sql, .. } => {
                self.partition.route_write(sql)
            }
            _ => 0,
        };
        self.deliver_direct(conn_id, j, frame);
    }

    /// `REGISTER` goes to every node in node order; only node 0's
    /// verdict reaches the client.
    fn broadcast_register(&mut self, conn_id: u64, frame: Frame) {
        let (ip, sinks, sessions) = match self.conns.get(&conn_id) {
            Some(c) => (c.peer_ip, c.sinks.clone(), c.sessions.clone()),
            None => return,
        };
        // Flush anything already queued so the verdict filter below only
        // ever sees registration frames.
        self.route_outboxes();
        let mut terminate = false;
        for j in 0..self.nodes.len() {
            let control =
                self.nodes[j]
                    .gate
                    .handle_frame(frame.clone(), ip, &sessions[j], &sinks[j]);
            terminate |= control == SessionControl::Terminate;
            if j > 0 {
                // Registrars are deterministic: every node hands out the
                // same id. Forward node 0's verdict only.
                let dup = sinks[j].drain();
                debug_assert!(
                    dup.iter()
                        .all(|f| matches!(f, Frame::Registered { .. } | Frame::Refused { .. })),
                    "unexpected frame in registration broadcast: {dup:?}"
                );
            }
        }
        if terminate {
            if let Some(c) = self.conns.get_mut(&conn_id) {
                c.open = false;
            }
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev.kind {
            EvKind::Deliver { conn, dir, bytes } => {
                let pinned = match self.conns.get(&conn) {
                    Some(c) if c.open => c.pinned,
                    _ => return,
                };
                let frame = decode(&bytes);
                self.digest = fnv(self.digest, &ev.at.to_le_bytes());
                self.digest = fnv(self.digest, &[dir as u8]);
                self.digest = fnv(self.digest, &conn.to_le_bytes());
                self.digest = fnv(self.digest, &bytes);
                self.frames_delivered += 1;
                match dir {
                    Dir::ToServer => match pinned {
                        Some(j) => self.deliver_direct(conn, j, frame),
                        // A one-node world has no router.
                        None if self.nodes.len() == 1 => self.deliver_direct(conn, 0, frame),
                        None => self.route_to_nodes(conn, frame),
                    },
                    Dir::ToClient => {
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.inbox.push_back(Arrival {
                                at_secs: nanos_to_secs(ev.at),
                                frame,
                            });
                        }
                    }
                }
            }
            EvKind::Reset { conn } => {
                self.digest = fnv(self.digest, &ev.at.to_le_bytes());
                self.digest = fnv(self.digest, b"reset");
                self.digest = fnv(self.digest, &conn.to_le_bytes());
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.open = false;
                }
            }
            EvKind::PeerDeliver { from, to, bytes } => {
                let frame = decode(&bytes);
                self.digest = fnv(self.digest, &ev.at.to_le_bytes());
                self.digest = fnv(self.digest, b"peer");
                self.digest = fnv(self.digest, &(from as u64).to_le_bytes());
                self.digest = fnv(self.digest, &(to as u64).to_le_bytes());
                self.digest = fnv(self.digest, &bytes);
                self.frames_delivered += 1;
                self.peer_frames_delivered += 1;
                let sink = Arc::clone(&self.nodes[to].peer_sink);
                let _ = self.nodes[to].gate.handle_peer_frame(frame, &sink);
            }
            EvKind::SyncTick => {
                self.sync_armed = false;
                if self.sync_enabled {
                    self.gossip_round();
                    self.arm_sync();
                }
            }
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        self.nodes
            .iter()
            .filter_map(|n| n.scheduler.next_deadline_nanos())
            .min()
    }

    fn next_wake(&self) -> Option<u64> {
        let ev = self.heap.peek().map(|Reverse(e)| e.at);
        match (ev, self.next_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Deliver every transport event due at or before now.
    fn deliver_due(&mut self) {
        loop {
            let due = matches!(self.heap.peek(), Some(Reverse(e)) if e.at <= self.now_nanos());
            if !due {
                break;
            }
            let Reverse(ev) = self.heap.pop().expect("peeked");
            self.dispatch(ev);
        }
    }

    fn poll_schedulers(&mut self) {
        for node in &self.nodes {
            node.scheduler.poll();
        }
    }

    /// Advance to the next scheduled thing and process everything due
    /// there. Returns false when nothing is scheduled anywhere.
    fn step(&mut self) -> bool {
        let Some(next) = self.next_wake() else {
            return false;
        };
        self.clock.advance_to_nanos(next);
        // Wheels first: jobs fired now produce frames that enter the wire
        // at this instant.
        self.poll_schedulers();
        self.route_outboxes();
        self.deliver_due();
        self.route_outboxes();
        true
    }

    /// Move the clock to `deadline` (nothing is scheduled before it) and
    /// process everything due there.
    fn settle_at(&mut self, deadline: u64) {
        self.clock.advance_to_nanos(deadline);
        self.poll_schedulers();
        self.route_outboxes();
        self.deliver_due();
        // Handlers invoked just now may have queued zero-latency replies
        // due at this exact instant; flush them so a bounded wait
        // observes everything that happened strictly within it.
        self.route_outboxes();
        self.deliver_due();
    }

    fn run_for(&mut self, secs: f64) {
        // A positive wait must move time: seconds-to-nanos truncation on
        // a sub-nanosecond wait would otherwise leave the clock exactly
        // where it was, livelocking any caller that retries "just after"
        // an instant the clock cannot quite reach.
        let nanos = match secs_to_nanos(secs) {
            0 if secs > 0.0 => 1,
            n => n,
        };
        let deadline = self.now_nanos().saturating_add(nanos);
        while matches!(self.next_wake(), Some(at) if at <= deadline) {
            self.step();
        }
        self.settle_at(deadline);
    }

    fn run_until_idle(&mut self) {
        while self.step() {}
    }

    // ---- link operations -------------------------------------------------

    fn client_send(&mut self, conn: u64, frame: &Frame) -> Result<(), LinkError> {
        match self.conns.get(&conn) {
            Some(c) if c.open && !c.pending_reset => {}
            _ => return Err(LinkError::Closed),
        }
        self.transmit(conn, Dir::ToServer, frame)
    }

    fn link_recv(&mut self, conn: u64, max_wait_secs: f64) -> Result<Option<Arrival>, LinkError> {
        let deadline = self
            .now_nanos()
            .saturating_add(secs_to_nanos(max_wait_secs));
        loop {
            if let Some(c) = self.conns.get_mut(&conn) {
                if let Some(arrival) = c.inbox.pop_front() {
                    return Ok(Some(arrival));
                }
                if !c.open {
                    return Err(LinkError::Closed);
                }
            } else {
                return Err(LinkError::Closed);
            }
            match self.next_wake() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => {
                    self.settle_at(deadline);
                    let empty = self
                        .conns
                        .get_mut(&conn)
                        .map(|c| c.inbox.pop_front())
                        .unwrap_or(None);
                    return Ok(empty);
                }
            }
        }
    }
}

/// The simulated deployment. See the module docs.
pub struct SimWorld {
    core: Rc<RefCell<Core>>,
}

impl SimWorld {
    /// A fresh world from a seed: `config.nodes` server stacks, one
    /// clock (at zero) and one RNG; gossip armed if the world has peers
    /// and `sync_interval_secs > 0`.
    pub fn new(seed: u64, config: SimConfig) -> SimWorld {
        SimWorld {
            core: Rc::new(RefCell::new(Core::new(seed, config))),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.core.borrow().nodes.len()
    }

    /// The partition map the router routes by.
    pub fn partition_map(&self) -> PartitionMap {
        self.core.borrow().partition
    }

    /// Virtual seconds since the world's epoch.
    pub fn now_secs(&self) -> f64 {
        self.core.borrow().clock.now_secs()
    }

    /// Node `j`'s guarded database (for DDL/seeding around the wire
    /// protocol).
    pub fn db(&self, j: usize) -> Arc<GuardedDatabase> {
        Arc::clone(self.core.borrow().nodes[j].gate.db())
    }

    /// Node `j`'s front door (drain control, gatekeeper inspection).
    pub fn gate(&self, j: usize) -> Arc<FrontDoor> {
        Arc::clone(&self.core.borrow().nodes[j].gate)
    }

    /// The metrics registry node `j`'s front door publishes into.
    pub fn registry(&self, j: usize) -> Registry {
        self.core.borrow().nodes[j].registry.clone()
    }

    /// Open a client connection whose peer address (as every node sees
    /// it) is `peer_ip` — any subnet, no spoofing configuration needed.
    /// In an N-node world the connection goes through the router.
    pub fn connect_link(&self, peer_ip: [u8; 4]) -> MeshLink {
        self.link(peer_ip, None)
    }

    /// Open a client connection wired straight to node `node`, bypassing
    /// the router entirely: registration is not broadcast and queries
    /// are not routed. The baseline the router hop is benchmarked
    /// against (identities registered this way exist only on `node`).
    pub fn connect_node_link(&self, node: usize, peer_ip: [u8; 4]) -> MeshLink {
        assert!(node < self.nodes(), "node {node} out of range");
        self.link(peer_ip, Some(node))
    }

    fn link(&self, peer_ip: [u8; 4], pinned: Option<usize>) -> MeshLink {
        let conn = self.core.borrow_mut().connect(peer_ip, pinned);
        MeshLink {
            core: Rc::clone(&self.core),
            conn,
        }
    }

    /// Override the fault plan of one link.
    pub fn set_faults(&self, conn: ConnId, faults: FaultPlan) {
        if let Some(c) = self.core.borrow_mut().conns.get_mut(&conn.0) {
            c.faults = faults;
        }
    }

    /// Partition a link: frames sent in either direction are held.
    pub fn partition(&self, conn: ConnId) {
        if let Some(c) = self.core.borrow_mut().conns.get_mut(&conn.0) {
            c.partitioned = true;
        }
    }

    /// Heal a partition: held frames flood through, in order, no earlier
    /// than now.
    pub fn heal(&self, conn: ConnId) {
        let mut core = self.core.borrow_mut();
        let now = core.now_nanos();
        let held = match core.conns.get_mut(&conn.0) {
            Some(c) => {
                c.partitioned = false;
                std::mem::take(&mut c.held)
            }
            None => return,
        };
        for (dir, at, bytes) in held {
            let at = at.max(now);
            core.push_ev(
                at,
                EvKind::Deliver {
                    conn: conn.0,
                    dir,
                    bytes,
                },
            );
        }
    }

    /// Enable or disable the gossip cadence. Enabling arms the next
    /// tick one interval from now (never in a one-node world).
    pub fn set_sync_enabled(&self, enabled: bool) {
        let mut core = self.core.borrow_mut();
        core.sync_enabled = enabled;
        if enabled {
            core.arm_sync();
        }
    }

    /// Run one gossip round right now and deliver it (one round fully
    /// converges the cluster: deltas are cumulative).
    pub fn sync_now(&self) {
        self.core.borrow_mut().gossip_round();
        self.run_for(0.0);
    }

    /// Cut node `j` off from gossip: peer frames to and from it are
    /// held. Client routing is unaffected.
    pub fn cut_node(&self, j: usize) {
        self.core.borrow_mut().nodes[j].cut = true;
    }

    /// Heal node `j`: held peer frames whose both endpoints are now
    /// reachable flood through, in order, no earlier than now.
    pub fn heal_node(&self, j: usize) {
        let mut core = self.core.borrow_mut();
        core.nodes[j].cut = false;
        let now = core.now_nanos();
        let held = std::mem::take(&mut core.held_peer);
        for (from, to, at, bytes) in held {
            if core.nodes[from].cut || core.nodes[to].cut {
                core.held_peer.push((from, to, at, bytes));
            } else {
                core.push_ev(at.max(now), EvKind::PeerDeliver { from, to, bytes });
            }
        }
    }

    /// Let `secs` of virtual time pass, processing everything due.
    pub fn run_for(&self, secs: f64) {
        self.core.borrow_mut().run_for(secs);
    }

    /// Run until nothing is scheduled anywhere (wheels empty, wire
    /// quiet). Call [`SimWorld::set_sync_enabled`]`(false)` first if
    /// gossip is on — a live cadence re-arms forever.
    pub fn run_until_idle(&self) {
        self.core.borrow_mut().run_until_idle();
    }

    /// Process exactly one scheduled instant (the earliest wheel
    /// deadline, frame arrival or gossip tick). Returns false if nothing
    /// is scheduled — used by work-conserving drivers that multiplex
    /// many links.
    pub fn step_once(&self) -> bool {
        self.core.borrow_mut().step()
    }

    /// Graceful shutdown, like the TCP server's: every node refuses new
    /// work, gossip stops, and every in-flight delayed tuple is
    /// delivered at its deadline.
    pub fn shutdown(&self) {
        for j in 0..self.nodes() {
            self.gate(j).begin_drain();
        }
        self.set_sync_enabled(false);
        self.run_until_idle();
    }

    /// Order-sensitive FNV-1a hash of every event processed so far
    /// (delivery time, direction or peer pair, connection, frame bytes):
    /// equal digests mean bit-identical executions.
    pub fn digest(&self) -> u64 {
        self.core.borrow().digest
    }

    /// Frames dropped by fault injection so far.
    pub fn frames_dropped(&self) -> u64 {
        self.core.borrow().frames_dropped
    }

    /// Frames delivered so far, client- and peer-side.
    pub fn frames_delivered(&self) -> u64 {
        self.core.borrow().frames_delivered
    }

    /// Peer frames delivered so far.
    pub fn peer_frames_delivered(&self) -> u64 {
        self.core.borrow().peer_frames_delivered
    }

    /// Peer frames ever held by a cut.
    pub fn peer_frames_held(&self) -> u64 {
        self.core.borrow().peer_frames_held
    }

    /// Peer frames currently held (0 when fully healed and drained).
    pub fn peer_frames_pending(&self) -> usize {
        self.core.borrow().held_peer.len()
    }

    /// One-line view of everything that could wake the world — for
    /// diagnosing a driver that spins without making progress.
    pub fn debug_snapshot(&self) -> String {
        let core = self.core.borrow();
        let inboxes: Vec<usize> = core.conns.values().map(|c| c.inbox.len()).collect();
        let pending: usize = core.nodes.iter().map(|n| n.scheduler.pending()).sum();
        format!(
            "now={}ns heap={} peek={:?} wheel_pending={} wheel_next={:?} inboxes={:?}",
            core.clock.now_nanos(),
            core.heap.len(),
            core.heap.peek().map(|Reverse(e)| e.at),
            pending,
            core.next_deadline(),
            inboxes
        )
    }
}

impl SimNet for SimWorld {
    fn connect(&mut self, from_ip: [u8; 4]) -> Result<Box<dyn NetLink>, LinkError> {
        Ok(Box::new(self.connect_link(from_ip)))
    }

    fn wait(&mut self, secs: f64) {
        self.run_for(secs);
    }

    fn now_secs(&self) -> f64 {
        SimWorld::now_secs(self)
    }
}

/// A client's end of a mesh connection.
pub struct MeshLink {
    core: Rc<RefCell<Core>>,
    conn: u64,
}

impl MeshLink {
    /// This link's connection id (for [`SimWorld::set_faults`],
    /// [`SimWorld::partition`], ...).
    pub fn id(&self) -> ConnId {
        ConnId(self.conn)
    }
}

impl NetLink for MeshLink {
    fn send(&mut self, frame: &Frame) -> Result<(), LinkError> {
        self.core.borrow_mut().client_send(self.conn, frame)
    }

    fn recv(&mut self, max_wait_secs: f64) -> Result<Option<Arrival>, LinkError> {
        self.core.borrow_mut().link_recv(self.conn, max_wait_secs)
    }

    fn now_secs(&self) -> f64 {
        self.core.borrow().clock.now_secs()
    }

    fn is_open(&self) -> bool {
        self.core
            .borrow()
            .conns
            .get(&self.conn)
            .is_some_and(|c| c.open)
    }
}
