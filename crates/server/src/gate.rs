//! The transport-agnostic front door: admission, delay pricing, and
//! deadline scheduling, shared verbatim by the threaded TCP server
//! ([`crate::server`]) and the deterministic simulation harness
//! (`delayguard-testkit`).
//!
//! A transport owns sockets (or simulated links) and per-connection
//! queues; everything the paper actually specifies — gatekeeper
//! admission, per-tuple delay charging, scheduling rows on the timer
//! wheel, refusal codes and retry hints, drain accounting — lives here,
//! behind two small seams:
//!
//! * [`FrameSink`]: where response frames go. The TCP server's bounded
//!   `SendQueue` implements it; the testkit's in-memory connection does
//!   too. `try_reserve_rows` is the backpressure seam: a `SELECT`
//!   reserves send-queue slots chunk by chunk as the executor produces
//!   rows ([`GateConfig::stream_chunk_rows`]) and is refused
//!   `Overloaded` the moment a chunk does not fit — *before* that
//!   chunk's tuples are charged to the popularity ledger.
//! * [`Clock`][delayguard_core::clock::Clock]: the front door never
//!   reads the wall directly; gatekeeper timestamps and scheduler
//!   deadlines come from the injected clock, so the same admission code
//!   is exact under simulation.
//!
//! Because both transports route every frame through [`FrontDoor`],
//! properties proven in simulation (refusal retry hints are exact, drain
//! delivers every charged tuple, Sybil swarms gain nothing) are
//! properties of the code the real server runs — not of a model of it.

use crate::metrics::ServerMetrics;
use crate::protocol::{Frame, RefuseReason, PROTOCOL_VERSION, ROWS_UNKNOWN};
use crate::scheduler::{DelayScheduler, Job};
use delayguard_core::clock::{secs_to_nanos, Clock};
use delayguard_core::gatekeeper::{
    Admission, Gatekeeper, GatekeeperConfig, Ipv4, RefusalReason, RegistrationOutcome, UserId,
};
use delayguard_core::replica::ReplicaDelta;
use delayguard_core::{ChargedChunk, DeadlineStream, GuardedDatabase, StreamedQuery};
use delayguard_query::ast::Statement;
use delayguard_query::engine::StatementOutput;
use delayguard_query::{parse, RowBuf};
use delayguard_sim::Registry;
use delayguard_storage::{Row, RowId};
use parking_lot::Mutex as PMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a session's response frames go. Implemented by the TCP server's
/// bounded per-connection send queue and by the testkit's simulated
/// connection.
pub trait FrameSink: Send + Sync + 'static {
    /// Queue a control frame (registration, refusal, begin/done, stats,
    /// error). Control frames bypass the row budget; they are small and
    /// bounded by the client's own request rate.
    fn push_control(&self, frame: Frame);

    /// Queue a row frame into a slot previously reserved with
    /// [`FrameSink::try_reserve_rows`]. Must never block: scheduler jobs
    /// call this on the wheel thread.
    fn push_row(&self, frame: Frame);

    /// Reserve capacity for `n` row frames, all-or-nothing, so a chunk
    /// either streams completely or the query is refused at the chunk
    /// boundary (with nothing from that chunk charged).
    fn try_reserve_rows(&self, n: usize) -> bool;

    /// Queue a batch of row frames whose deadlines landed on the same
    /// scheduler tick, in order, into slots previously reserved with
    /// [`FrameSink::try_reserve_rows`]. Must never block, like
    /// [`FrameSink::push_row`]. The default forwards one frame at a
    /// time; transports with a locked per-connection queue override it
    /// to take the lock (and wake the writer) once per batch.
    fn push_rows(&self, frames: &mut Vec<Frame>) {
        for frame in frames.drain(..) {
            self.push_row(frame);
        }
    }

    /// Return `n` row slots reserved with [`FrameSink::try_reserve_rows`]
    /// without sending anything — the error path of a write that reserved
    /// its `MUTATED` reply slot and then failed to apply. Sinks that
    /// account reservations must override this or the slots leak for the
    /// connection's lifetime.
    fn release_rows(&self, _n: usize) {}
}

/// Which write verb a mutation frame carried. The opcode is the
/// client's *claim*; [`FrontDoor::handle_mutation`] checks it against
/// the parsed statement so a `DELETE` can never ride in on an `INSERT`
/// frame's semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationVerb {
    Insert,
    Update,
    Delete,
}

impl MutationVerb {
    fn name(self) -> &'static str {
        match self {
            MutationVerb::Insert => "INSERT",
            MutationVerb::Update => "UPDATE",
            MutationVerb::Delete => "DELETE",
        }
    }
}

/// Per-connection protocol state negotiated at `REGISTER`.
///
/// A connection starts at version 1 (legacy count-up-front framing) and
/// is upgraded when its `REGISTER` frame carries a version byte; the
/// effective version is the minimum of the client's and
/// [`PROTOCOL_VERSION`]. The transport owns one of these per connection
/// and passes it to every [`FrontDoor::handle_frame`] call.
#[derive(Debug)]
pub struct SessionState {
    version: AtomicU8,
}

impl SessionState {
    /// A fresh connection: legacy framing until `REGISTER` negotiates up.
    pub fn new() -> SessionState {
        SessionState {
            version: AtomicU8::new(1),
        }
    }

    /// The negotiated protocol version.
    pub fn version(&self) -> u8 {
        self.version.load(Ordering::Relaxed)
    }

    /// Whether `SELECT` results use `ROWS_END`-trailer framing.
    pub fn streaming(&self) -> bool {
        self.version() >= 2
    }

    fn negotiate(&self, client_version: u8) {
        self.version
            .store(client_version.clamp(1, PROTOCOL_VERSION), Ordering::Relaxed);
    }
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState::new()
    }
}

/// What the transport should do with the session after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep reading frames.
    Continue,
    /// Terminate the session (protocol violation).
    Terminate,
}

/// Policy knobs the front door needs (a transport-independent subset of
/// the server's configuration).
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Gatekeeper (registration + rate limiting) policy.
    pub gatekeeper: GatekeeperConfig,
    /// Honor the `claimed_ip` field of `REGISTER` frames. Off by default
    /// (the peer address is authoritative); enable behind a trusted
    /// proxy, or in tests that need many subnets over loopback.
    pub trust_client_ip: bool,
    /// Retry hint attached to refusals that have no exact gatekeeper
    /// hint (`Overloaded`, `ShuttingDown`, `Unregistered`).
    pub retry_after_secs: f64,
    /// How many rows a streaming `SELECT` pulls from the executor (and
    /// reserves in the send queue) per chunk. Bounds the executor-side
    /// buffering per connection at `stream_chunk_rows × row size`,
    /// independent of result-set size.
    pub stream_chunk_rows: usize,
    /// Append per-table popularity detail (access totals and the full
    /// key → rank order) to `STATS` replies. **Off by default, and it
    /// must stay off on anything reachable by untrusted peers**: the rank
    /// order is exactly what the delay policy prices from, so serving it
    /// hands a database-extraction adversary the target list the timing
    /// side channel would otherwise have to infer — and short-circuits
    /// delay shaping entirely. Enable only on an operator-facing,
    /// authenticated surface.
    pub stats_expose_popularity: bool,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            gatekeeper: GatekeeperConfig::default(),
            trust_client_ip: false,
            retry_after_secs: 1.0,
            stream_chunk_rows: 256,
            stats_expose_popularity: false,
        }
    }
}

/// The front door itself: everything between "bytes decoded into a
/// [`Frame`]" and "frames handed to a [`FrameSink`]".
pub struct FrontDoor {
    config: GateConfig,
    db: Arc<GuardedDatabase>,
    gatekeeper: PMutex<Gatekeeper>,
    scheduler: Arc<DelayScheduler>,
    metrics: ServerMetrics,
    registry: Registry,
    clock: Arc<dyn Clock>,
    /// Set first during shutdown: refuse all new work.
    draining: AtomicBool,
    /// Query handlers between the draining check and their last
    /// `schedule` call; shutdown waits for this to reach zero before
    /// draining the wheel, so no delay is scheduled after the drain.
    inflight_queries: AtomicUsize,
    /// Monotone sequence stamped onto exported replication deltas.
    delta_seq: AtomicU64,
}

impl FrontDoor {
    /// A front door over `db`, scheduling deadlines on `scheduler` and
    /// reading time from `clock`. The scheduler must share `clock` (and
    /// the guard should too) or deadlines drift.
    pub fn new(
        config: GateConfig,
        db: Arc<GuardedDatabase>,
        scheduler: Arc<DelayScheduler>,
        clock: Arc<dyn Clock>,
        metrics: ServerMetrics,
        registry: Registry,
    ) -> FrontDoor {
        FrontDoor {
            gatekeeper: PMutex::new(Gatekeeper::new(config.gatekeeper)),
            config,
            db,
            scheduler,
            metrics,
            registry,
            clock,
            draining: AtomicBool::new(false),
            inflight_queries: AtomicUsize::new(0),
            delta_seq: AtomicU64::new(0),
        }
    }

    /// Seconds on the front door's clock.
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// The rank-revealing `STATS` appendix, rendered only when
    /// `stats_expose_popularity` is on: per observed table, the access
    /// total and the complete popularity order the policy prices from.
    fn render_popularity(&self) -> String {
        use std::fmt::Write as _;
        // `write!` appends into the one growing buffer (infallible for
        // `String`); STATS is a control verb, not the wire hot path, but
        // the R6 allocation budget is cheap to honor anyway.
        let mut out = String::new();
        for table in self.db.tables() {
            let _ = writeln!(
                out,
                "popularity_table {table}  accesses {}",
                self.db.access_events(&table)
            );
            for (key, rank) in self.db.popularity_table(&table) {
                let _ = writeln!(out, "popularity_rank {table}  key {key}  rank {rank}");
            }
        }
        out
    }

    /// The injected clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The delay scheduler deadlines land on.
    pub fn scheduler(&self) -> &Arc<DelayScheduler> {
        &self.scheduler
    }

    /// The guarded database.
    pub fn db(&self) -> &Arc<GuardedDatabase> {
        &self.db
    }

    /// The metrics this front door publishes.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The registry backing `STATS` replies.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Direct gatekeeper access (attack-economics assertions in tests).
    pub fn gatekeeper(&self) -> &PMutex<Gatekeeper> {
        &self.gatekeeper
    }

    // ---- cluster replication (peer links) --------------------------------

    /// Set this node's cluster origin id. Must be called before traffic:
    /// the origin stamps every gatekeeper charge log and every exported
    /// delta, and peers key their remote stores by it.
    pub fn set_node_origin(&self, origin: u16) {
        self.gatekeeper.lock().set_origin(origin);
    }

    /// This node's cluster origin id (0 on a standalone server).
    pub fn node_origin(&self) -> u16 {
        self.gatekeeper.lock().origin()
    }

    /// Snapshot everything this node has locally originated — popularity
    /// per table, gatekeeper charge logs — as one [`ReplicaDelta`],
    /// stamped with the next monotone sequence number.
    pub fn export_delta(&self) -> ReplicaDelta {
        let seq = self.delta_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.deltas_exported.inc();
        let gate = self.gatekeeper.lock().export_gate_delta();
        ReplicaDelta {
            origin: gate.origin,
            seq,
            tables: self.db.export_table_deltas(),
            gate,
        }
    }

    /// Fold a peer's delta: gatekeeper charge logs merge CRDT-style
    /// (commutative, idempotent), popularity state replaces-if-newer in
    /// the guard's remote store and republishes merged snapshots.
    /// Returns whether the popularity half was new.
    pub fn apply_delta(&self, delta: &ReplicaDelta) -> bool {
        // The gate merge is unconditionally safe: charge-log entries are
        // append-only and keyed by (origin, seq), so replaying an old
        // delta merges nothing.
        self.gatekeeper.lock().merge_gate_delta(&delta.gate);
        let fresh = self.db.apply_replica_delta(delta);
        if fresh {
            self.metrics.deltas_applied.inc();
        } else {
            self.metrics.deltas_stale.inc();
        }
        fresh
    }

    /// Handle one frame from an authenticated *peer node* link. Clients
    /// never reach this path — [`Self::handle_frame`] terminates sessions
    /// that send replication frames — so the transport decides which
    /// connections are peers (the cluster sim marks its inter-node links;
    /// a TCP deployment would gate on listener or auth).
    pub fn handle_peer_frame<S: FrameSink>(&self, frame: Frame, sink: &Arc<S>) -> SessionControl {
        match frame {
            Frame::Delta { delta } => {
                self.apply_delta(&delta);
                sink.push_control(Frame::DeltaAck {
                    origin: delta.origin,
                    seq: delta.seq,
                });
                SessionControl::Continue
            }
            // Acks are bookkeeping for the sender's skip-if-unchanged
            // logic; the front door itself has nothing to update.
            Frame::DeltaAck { .. } => SessionControl::Continue,
            other => {
                sink.push_control(Frame::Error {
                    query_id: 0,
                    message: format!("unexpected frame on peer link: {other:?}"),
                });
                SessionControl::Terminate
            }
        }
    }

    // ---- drain accounting ------------------------------------------------

    /// Refuse all new queries and registrations from this point on.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the front door is refusing new work.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Handlers that passed the draining check but have not finished
    /// scheduling yet. Shutdown waits for zero before draining the wheel.
    pub fn inflight_queries(&self) -> usize {
        self.inflight_queries.load(Ordering::SeqCst)
    }

    // ---- frame dispatch --------------------------------------------------

    /// Handle one decoded client frame. `peer_ip` is the transport's
    /// authoritative view of the peer (IPv4 octets); `session` is the
    /// connection's negotiated protocol state.
    pub fn handle_frame<S: FrameSink>(
        &self,
        frame: Frame,
        peer_ip: [u8; 4],
        session: &SessionState,
        sink: &Arc<S>,
    ) -> SessionControl {
        match frame {
            Frame::Register {
                claimed_ip,
                version,
            } => {
                session.negotiate(version);
                self.handle_register(claimed_ip, peer_ip, sink.as_ref());
                SessionControl::Continue
            }
            Frame::Query {
                query_id,
                user,
                sql,
            } => {
                self.handle_query(query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Insert {
                query_id,
                user,
                sql,
            } => {
                self.handle_mutation(MutationVerb::Insert, query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Update {
                query_id,
                user,
                sql,
            } => {
                self.handle_mutation(MutationVerb::Update, query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Delete {
                query_id,
                user,
                sql,
            } => {
                self.handle_mutation(MutationVerb::Delete, query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Stats => {
                let mut rendered = self.registry.render();
                if self.config.stats_expose_popularity {
                    rendered.push_str(&self.render_popularity());
                }
                sink.push_control(Frame::StatsReply { rendered });
                SessionControl::Continue
            }
            other => {
                sink.push_control(Frame::Error {
                    query_id: 0,
                    message: format!("unexpected frame from client: {other:?}"),
                });
                SessionControl::Terminate
            }
        }
    }

    /// Handle a `REGISTER` frame.
    pub fn handle_register(&self, claimed_ip: [u8; 4], peer_ip: [u8; 4], sink: &dyn FrameSink) {
        let retry = self.config.retry_after_secs;
        if self.draining() {
            self.metrics.refused_shutdown.inc();
            sink.push_control(Frame::Refused {
                query_id: 0,
                reason: RefuseReason::ShuttingDown,
                retry_after_secs: retry,
            });
            return;
        }
        let ip = if self.config.trust_client_ip && claimed_ip != [0, 0, 0, 0] {
            claimed_ip
        } else {
            peer_ip
        };
        let now = self.now_secs();
        let outcome = self.gatekeeper.lock().register(Ipv4(ip), now);
        match outcome {
            RegistrationOutcome::Admitted { user, fee_charged } => {
                self.metrics.users_registered.inc();
                sink.push_control(Frame::Registered {
                    user: user.0,
                    fee: fee_charged,
                });
            }
            RegistrationOutcome::TooSoon { retry_at } => {
                self.metrics.registrations_refused.inc();
                sink.push_control(Frame::Refused {
                    query_id: 0,
                    reason: RefuseReason::RegistrationTooSoon,
                    retry_after_secs: (retry_at - now).max(0.0),
                });
            }
        }
    }

    /// Handle a `QUERY` frame: admission, delay pricing, and scheduling
    /// every row (and the final `DONE`) on the wheel.
    ///
    /// `SELECT` results are executed through the streaming pipeline: rows
    /// are pulled in [`GateConfig::stream_chunk_rows`]-sized chunks, each
    /// chunk reserves its send-queue slots *before* its tuples are
    /// charged, and charged chunks land on the wheel while the executor
    /// is still producing the next one. Version-≥2 sessions get
    /// trailer framing (`ROWS_BEGIN` with [`ROWS_UNKNOWN`], then a
    /// `ROWS_END` count); legacy sessions still see the exact count in
    /// `ROWS_BEGIN`, which requires draining the executor first.
    pub fn handle_query<S: FrameSink>(
        &self,
        query_id: u32,
        user: u64,
        sql: &str,
        session: &SessionState,
        sink: &Arc<S>,
    ) {
        // Entered before the draining check; shutdown waits for this count
        // to reach zero before draining the wheel, so every delay we
        // schedule below is delivered.
        self.inflight_queries.fetch_add(1, Ordering::SeqCst);
        let _guard = InflightGuard(self);
        if !self.admit(query_id, user, sink.as_ref()) {
            return;
        }
        let trailer_framing = session.streaming();
        let result = self.db.execute_streaming(sql, |query| match query {
            StreamedQuery::Rows(mut stream) => {
                self.metrics.queries_admitted.inc();
                if trailer_framing {
                    self.stream_select(query_id, &mut stream, sink);
                } else {
                    self.materialize_select(query_id, &mut stream, sink);
                }
            }
            StreamedQuery::Finished(resp) => {
                self.metrics.queries_admitted.inc();
                self.metrics.delay_micros_charged.add_secs(resp.delay_secs);
                let tuples = match &resp.output {
                    StatementOutput::Inserted { rids } => rids.len() as u32,
                    StatementOutput::Updated { rids } => rids.len() as u32,
                    StatementOutput::Deleted { rids } => rids.len() as u32,
                    _ => 0,
                };
                let delay_secs = resp.delay_secs;
                let done_sink = Arc::clone(sink);
                self.scheduler.schedule(
                    resp.deadline_nanos(),
                    Box::new(move || {
                        done_sink.push_control(Frame::Done {
                            query_id,
                            delay_secs,
                            tuples,
                        })
                    }),
                );
            }
        });
        if let Err(e) = result {
            self.metrics.query_errors.inc();
            sink.push_control(Frame::Error {
                query_id,
                message: e.to_string(),
            });
        }
    }

    /// Handle a write frame (`INSERT`/`UPDATE`/`DELETE`): admission,
    /// verb check, reserve-before-apply, and a single `MUTATED` reply.
    ///
    /// The order of checks is deliberate:
    ///
    /// 1. v1 sessions are refused with [`RefuseReason::WritesUnsupported`]
    ///    — they never negotiated the mutation surface, and guessing at
    ///    framing an old client cannot parse is worse than an explicit
    ///    code.
    /// 2. The SQL is parsed and checked against the frame's verb *before*
    ///    anything is reserved, so malformed writes have no release path.
    /// 3. One reply slot is reserved in the send queue before the
    ///    statement is applied ([`FrameSink::try_reserve_rows`], the same
    ///    backpressure seam `SELECT` chunks use): a write whose `MUTATED`
    ///    confirmation cannot be delivered is refused `Overloaded` before
    ///    it mutates anything, never applied-but-unconfirmable.
    /// 4. The `MUTATED` reply rides the wheel at the statement's deadline
    ///    and consumes the reservation via [`FrameSink::push_row`]; if
    ///    the engine rejects the statement after the reservation, the
    ///    slot is handed back with [`FrameSink::release_rows`].
    pub fn handle_mutation<S: FrameSink>(
        &self,
        verb: MutationVerb,
        query_id: u32,
        user: u64,
        sql: &str,
        session: &SessionState,
        sink: &Arc<S>,
    ) {
        let retry = self.config.retry_after_secs;
        self.inflight_queries.fetch_add(1, Ordering::SeqCst);
        let _guard = InflightGuard(self);
        // A draining server answers `ShuttingDown` first (inside `admit`);
        // otherwise v1 sessions are refused before they spend a token.
        if session.version() < 2 && !self.draining() {
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::WritesUnsupported,
                retry_after_secs: 0.0,
            });
            return;
        }
        if !self.admit(query_id, user, sink.as_ref()) {
            return;
        }
        let stmt = match parse(sql) {
            Ok(stmt) => stmt,
            Err(e) => {
                self.metrics.query_errors.inc();
                sink.push_control(Frame::Error {
                    query_id,
                    message: e.to_string(),
                });
                return;
            }
        };
        let table = match (&stmt, verb) {
            (Statement::Insert { table, .. }, MutationVerb::Insert)
            | (Statement::Update { table, .. }, MutationVerb::Update)
            | (Statement::Delete { table, .. }, MutationVerb::Delete) => table.clone(),
            _ => {
                self.metrics.query_errors.inc();
                sink.push_control(Frame::Error {
                    query_id,
                    message: format!("statement does not match {} frame", verb.name()),
                });
                return;
            }
        };
        if !sink.try_reserve_rows(1) {
            // Refuse BEFORE applying: a write we could not confirm is a
            // write that did not happen.
            self.metrics.refused_backpressure.inc();
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::Overloaded,
                retry_after_secs: retry,
            });
            return;
        }
        let result = self.db.execute_stmt_streaming(&stmt, |query| match query {
            StreamedQuery::Finished(resp) => {
                self.metrics.queries_admitted.inc();
                let rows = match &resp.output {
                    StatementOutput::Inserted { rids } => rids.len() as u32,
                    StatementOutput::Updated { rids } => rids.len() as u32,
                    StatementOutput::Deleted { rids } => rids.len() as u32,
                    _ => 0,
                };
                Some((rows, resp.deadline_nanos()))
            }
            // Unreachable after the verb check; tolerated defensively so
            // a planner change cannot panic the wheel thread.
            StreamedQuery::Rows(_) => None,
        });
        match result {
            Ok(Some((rows, deadline))) => {
                // The engine released its table lock when the closure
                // returned; reading the catalog version here cannot
                // deadlock, and it observes this statement's own bump.
                let data_version = self.db.table_data_version(&table).unwrap_or(0);
                let reply_sink = Arc::clone(sink);
                self.scheduler.schedule(
                    deadline,
                    Box::new(move || {
                        reply_sink.push_row(Frame::Mutated {
                            query_id,
                            rows,
                            data_version,
                        })
                    }),
                );
            }
            Ok(None) => {
                sink.release_rows(1);
                self.metrics.query_errors.inc();
                sink.push_control(Frame::Error {
                    query_id,
                    message: format!("{} frame produced a row stream", verb.name()),
                });
            }
            Err(e) => {
                sink.release_rows(1);
                self.metrics.query_errors.inc();
                sink.push_control(Frame::Error {
                    query_id,
                    message: e.to_string(),
                });
            }
        }
    }

    /// Admission for one statement frame: refuse it while draining, then
    /// ask the gatekeeper. A refused frame is answered here — a
    /// `REFUSED` frame with its retry hint, and the matching refusal
    /// counter bumped — and `false` is returned.
    fn admit(&self, query_id: u32, user: u64, sink: &dyn FrameSink) -> bool {
        let retry = self.config.retry_after_secs;
        if self.draining() {
            self.metrics.refused_shutdown.inc();
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::ShuttingDown,
                retry_after_secs: retry,
            });
            return false;
        }
        let now = self.now_secs();
        let (reason, hint) = {
            let mut gk = self.gatekeeper.lock();
            let reason = match gk.admit(UserId(user), now) {
                Admission::Granted => return true,
                Admission::Refused(reason) => reason,
            };
            // Rate refusals carry the gatekeeper's exact refill time; a
            // client that waits precisely this long is admitted, one that
            // retries earlier is refused again.
            let hint = match reason {
                RefusalReason::UserRateExceeded | RefusalReason::SubnetRateExceeded => gk
                    .retry_at(UserId(user), now)
                    .map(|at| (at - now).max(0.0))
                    .unwrap_or(retry),
                RefusalReason::Unregistered => retry,
            };
            (reason, hint)
        };
        let counter = match reason {
            RefusalReason::Unregistered => &self.metrics.refused_unregistered,
            RefusalReason::UserRateExceeded => &self.metrics.refused_user_rate,
            RefusalReason::SubnetRateExceeded => &self.metrics.refused_subnet_rate,
        };
        counter.inc();
        sink.push_control(Frame::Refused {
            query_id,
            reason: wire_reason(reason),
            retry_after_secs: hint,
        });
        false
    }

    /// Schedule one chunk's rows on the wheel: consecutive rows whose
    /// deadlines land on the same scheduler tick are coalesced into a
    /// single job that hands the sink the whole batch at once
    /// ([`FrameSink::push_rows`] — one queue lock and one writer wakeup
    /// per tick per connection instead of one per row), and the chunk's
    /// jobs are filed under one wheel-lock acquisition
    /// ([`DelayScheduler::schedule_batch`]). Release times and frame
    /// order are exactly those of row-at-a-time scheduling: a batch
    /// fires at the shared tick, and the wheel's same-tick insertion
    /// order is preserved. Returns the next row sequence number.
    fn schedule_rows<S: FrameSink>(
        &self,
        query_id: u32,
        mut seq: u32,
        issued_at_nanos: u64,
        rows: &[(RowId, Row)],
        offsets: &[f64],
        sink: &Arc<S>,
    ) -> u32 {
        let tick_nanos = self.scheduler.tick_nanos();
        let mut jobs: Vec<(u64, Job)> = Vec::new();
        let mut batch: Vec<Frame> = Vec::new();
        let mut batch_deadline = 0u64;
        let flush = |batch: &mut Vec<Frame>, batch_deadline: u64, jobs: &mut Vec<(u64, Job)>| {
            if batch.is_empty() {
                return;
            }
            let job_sink = Arc::clone(sink);
            let mut frames = std::mem::take(batch);
            jobs.push((
                batch_deadline,
                Box::new(move || job_sink.push_rows(&mut frames)),
            ));
        };
        for ((_rid, row), &offset) in rows.iter().zip(offsets) {
            let deadline = issued_at_nanos.saturating_add(secs_to_nanos(offset));
            if !batch.is_empty()
                && deadline.div_ceil(tick_nanos) != batch_deadline.div_ceil(tick_nanos)
            {
                flush(&mut batch, batch_deadline, &mut jobs);
            }
            if batch.is_empty() {
                batch_deadline = deadline;
            }
            batch.push(Frame::Row {
                query_id,
                seq,
                row: row.clone(),
            });
            seq += 1;
        }
        flush(&mut batch, batch_deadline, &mut jobs);
        self.scheduler.schedule_batch(jobs);
        seq
    }

    /// Version-≥2 `SELECT` delivery: pull → reserve → charge → schedule,
    /// one bounded chunk at a time, with trailer framing.
    fn stream_select<S: FrameSink>(
        &self,
        query_id: u32,
        stream: &mut DeadlineStream<'_, '_>,
        sink: &Arc<S>,
    ) {
        let retry = self.config.retry_after_secs;
        let chunk_rows = self.config.stream_chunk_rows.max(1);
        let mut seq: u32 = 0;
        let mut began = false;
        // Chunk-sized scratch recycled across the whole stream: the
        // executor decodes into `buf` and pricing fills `charged` with
        // no per-chunk allocation.
        let mut buf = RowBuf::new();
        let mut charged = ChargedChunk::default();
        loop {
            let n = match stream.next_chunk_into(chunk_rows, &mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) => {
                    // Mid-stream executor failure: already-scheduled rows
                    // still deliver at their deadlines; the error frame
                    // tells the client the stream is truncated.
                    self.metrics.query_errors.inc();
                    sink.push_control(Frame::Error {
                        query_id,
                        message: e.to_string(),
                    });
                    return;
                }
            };
            if !sink.try_reserve_rows(n) {
                // Refuse BEFORE charging: the tuples of this chunk are
                // neither delayed-priced nor recorded in the popularity
                // ledger, so a shed query costs the requester nothing.
                self.metrics.refused_backpressure.inc();
                let refused = Frame::Refused {
                    query_id,
                    reason: RefuseReason::Overloaded,
                    retry_after_secs: retry,
                };
                if !began {
                    sink.push_control(refused);
                } else {
                    // Earlier chunks were charged and are on the wheel;
                    // the drain invariant ("every charged tuple is
                    // delivered") means the refusal must trail them.
                    let refuse_sink = Arc::clone(sink);
                    self.scheduler.schedule(
                        stream.deadline_nanos(),
                        Box::new(move || refuse_sink.push_control(refused)),
                    );
                }
                return;
            }
            let before_secs = stream.delay_secs();
            stream.charge_into(buf.rows(), &mut charged);
            self.metrics
                .delay_micros_charged
                .add_secs(stream.delay_secs() - before_secs);
            if !began {
                began = true;
                sink.push_control(Frame::RowsBegin {
                    query_id,
                    columns: stream.columns().to_vec(),
                    rows: ROWS_UNKNOWN,
                });
            }
            self.metrics.rows_streamed.add(n as u64);
            seq = self.schedule_rows(
                query_id,
                seq,
                stream.issued_at_nanos(),
                buf.rows(),
                &charged.offsets,
                sink,
            );
        }
        if !began {
            sink.push_control(Frame::RowsBegin {
                query_id,
                columns: stream.columns().to_vec(),
                rows: ROWS_UNKNOWN,
            });
        }
        // Trailer and DONE ride the wheel at the final deadline; they are
        // inserted after every row, so stable same-tick ordering emits
        // ROWS_END after the last row and DONE last of all.
        let rows = seq;
        let delay_secs = stream.delay_secs();
        let done_at = stream.deadline_nanos();
        let end_sink = Arc::clone(sink);
        self.scheduler.schedule(
            done_at,
            Box::new(move || end_sink.push_control(Frame::RowsEnd { query_id, rows })),
        );
        let done_sink = Arc::clone(sink);
        self.scheduler.schedule(
            done_at,
            Box::new(move || {
                done_sink.push_control(Frame::Done {
                    query_id,
                    delay_secs,
                    tuples: rows,
                })
            }),
        );
    }

    /// Legacy (version-1) `SELECT` delivery: the client expects the exact
    /// row count in `ROWS_BEGIN`, so the executor is drained first; the
    /// whole result then reserves all-or-nothing and is only charged if
    /// it fits.
    fn materialize_select<S: FrameSink>(
        &self,
        query_id: u32,
        stream: &mut DeadlineStream<'_, '_>,
        sink: &Arc<S>,
    ) {
        let retry = self.config.retry_after_secs;
        let mut rows = Vec::new();
        loop {
            match stream.next_chunk(usize::MAX) {
                Ok(Some(mut chunk)) => rows.append(&mut chunk),
                Ok(None) => break,
                Err(e) => {
                    self.metrics.query_errors.inc();
                    sink.push_control(Frame::Error {
                        query_id,
                        message: e.to_string(),
                    });
                    return;
                }
            }
        }
        let n = rows.len();
        if !sink.try_reserve_rows(n) {
            // Nothing has been charged yet: pull happened, pricing did
            // not, so the refused query leaves no trace in the ledger.
            self.metrics.refused_backpressure.inc();
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::Overloaded,
                retry_after_secs: retry,
            });
            return;
        }
        let charged = stream.charge(&rows);
        self.metrics
            .delay_micros_charged
            .add_secs(stream.delay_secs());
        sink.push_control(Frame::RowsBegin {
            query_id,
            columns: stream.columns().to_vec(),
            rows: n as u32,
        });
        self.metrics.rows_streamed.add(n as u64);
        self.schedule_rows(
            query_id,
            0,
            stream.issued_at_nanos(),
            &rows,
            &charged.offsets,
            sink,
        );
        let delay_secs = stream.delay_secs();
        let done_sink = Arc::clone(sink);
        self.scheduler.schedule(
            stream.deadline_nanos(),
            Box::new(move || {
                done_sink.push_control(Frame::Done {
                    query_id,
                    delay_secs,
                    tuples: n as u32,
                })
            }),
        );
    }
}

/// Map a gatekeeper refusal onto its wire code.
pub fn wire_reason(reason: RefusalReason) -> RefuseReason {
    match reason {
        RefusalReason::Unregistered => RefuseReason::Unregistered,
        RefusalReason::UserRateExceeded => RefuseReason::UserRate,
        RefusalReason::SubnetRateExceeded => RefuseReason::SubnetRate,
    }
}

/// Decrements `inflight_queries` on every exit path of `handle_query`.
struct InflightGuard<'a>(&'a FrontDoor);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight_queries.fetch_sub(1, Ordering::SeqCst);
    }
}
