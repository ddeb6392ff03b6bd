//! The fixed program configuration: a seeded, warmed guarded database
//! behind the real TCP server on 127.0.0.1, and one registered client
//! connection.

use crate::inputs::{Dataset, Workload, ALPHA, CAP, WARM_ACCESSES, WARM_UPDATES};
use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::update::UpdateDelayPolicy;
use delayguard_core::{ChargingModel, GuardConfig, GuardPolicy, GuardedDatabase};
use delayguard_query::StatementOutput;
use delayguard_server::protocol::{read_frame_buffered, write_frame};
use delayguard_server::{Frame, Server, ServerConfig, ServerHandle, PROTOCOL_VERSION};
use delayguard_sim::Registry;
use delayguard_storage::RowId;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Timer-wheel tick of the server.
pub const TICK: Duration = Duration::from_millis(1);
/// Rows a streaming SELECT pulls and reserves per chunk.
pub const CHUNK_ROWS: usize = 256;

/// Which pricing policy a database runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Eq. 1 alone.
    AccessRate,
    /// Eq. 1 max Eq. 9.
    Hybrid,
}

impl Pricing {
    /// The policy each workload runs: `mixed_rw` prices its live data
    /// with the hybrid, the read-only workloads with the access term.
    pub fn of(workload: Workload) -> Pricing {
        if workload.writes() {
            Pricing::Hybrid
        } else {
            Pricing::AccessRate
        }
    }

    /// The other policy, priced on the same tuples for comparison.
    pub fn other(self) -> Pricing {
        match self {
            Pricing::AccessRate => Pricing::Hybrid,
            Pricing::Hybrid => Pricing::AccessRate,
        }
    }
}

/// `AccessRate(α, β = 1)` capped at `cap`, optionally max-combined with
/// an update term under the same cap; per-query-max charging, snapshot
/// read path, shaping off.
pub fn guard_config(pricing: Pricing) -> GuardConfig {
    let access = AccessDelayPolicy::new(ALPHA, 1.0).with_cap(CAP);
    let policy = match pricing {
        Pricing::AccessRate => GuardPolicy::AccessRate(access),
        Pricing::Hybrid => GuardPolicy::Hybrid(access, UpdateDelayPolicy::new(1.0).with_cap(CAP)),
    };
    GuardConfig::paper_default()
        .with_policy(policy)
        .with_charging(ChargingModel::PerQueryMax)
}

/// Rates and bursts far above anything one connection can send, and no
/// registration interval: `admit` still runs on every operation.
pub fn wide_open_gatekeeper() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1e9,
        per_user_burst: 1e9,
        per_subnet_rate: 1e9,
        per_subnet_burst: 1e9,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

/// Create, fill and warm `t`. Popularity is warmed by Zipf weight in the
/// dataset's rank order, keyed by the `RowId`s the inserts returned; the
/// hybrid policy also gets a warmed update history.
pub fn seeded_db(data: &Dataset, config: GuardConfig) -> Arc<GuardedDatabase> {
    let pricing = match config.policy {
        GuardPolicy::Hybrid(..) => Pricing::Hybrid,
        _ => Pricing::AccessRate,
    };
    let db = GuardedDatabase::new(config);
    let now = db.now_secs();
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", now)
        .expect("create table");
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", now)
        .expect("create index");
    let mut rids: Vec<RowId> = Vec::with_capacity(data.n as usize);
    for sql in data.insert_batches() {
        match db.execute_at(&sql, now).expect("insert batch").output {
            StatementOutput::Inserted { rids: batch } => rids.extend(batch),
            other => panic!("unexpected insert output: {other:?}"),
        }
    }
    assert_eq!(rids.len() as u64, data.n, "one RowId per seeded row");
    let by_rid = |counts: Vec<(u64, f64)>| -> Vec<(RowId, f64)> {
        counts
            .into_iter()
            .map(|(id, units)| (rids[id as usize], units))
            .collect()
    };
    let now = db.now_secs();
    db.warm_accesses("t", &by_rid(data.zipf_counts(WARM_ACCESSES)), now);
    if pricing == Pricing::Hybrid {
        db.warm_updates("t", &by_rid(data.zipf_counts(WARM_UPDATES)), now);
    }
    Arc::new(db)
}

/// Server configuration: wide-open gatekeeper, 1 ms tick, and a send
/// queue that never refuses the closed-loop window.
pub fn server_config(workload: Workload) -> ServerConfig {
    ServerConfig {
        gatekeeper: wide_open_gatekeeper(),
        max_sessions: 4,
        send_queue_rows: (workload.window() * workload.rows_per_op() * 2).max(1 << 16),
        tick: TICK,
        stream_chunk_rows: CHUNK_ROWS,
        ..ServerConfig::default()
    }
}

/// A running server and the client's registered connection.
pub struct Deployment {
    pub server: ServerHandle,
    pub stream: TcpStream,
    pub user: u64,
}

impl Deployment {
    /// Seed, warm, start the server and register over a fresh connection.
    pub fn start(data: &Dataset, workload: Workload) -> Deployment {
        let db = seeded_db(data, guard_config(Pricing::of(workload)));
        let server = Server::start(
            "127.0.0.1:0",
            server_config(workload),
            Arc::clone(&db),
            Registry::new(),
        )
        .expect("start server");
        let stream = TcpStream::connect(server.addr()).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let user = register(&stream);
        Deployment {
            server,
            stream,
            user,
        }
    }

    /// Close the connection and shut the server down.
    pub fn stop(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        drop(self.stream);
        self.server.shutdown();
    }
}

fn register(stream: &TcpStream) -> u64 {
    let mut w = stream.try_clone().expect("clone stream");
    write_frame(
        &mut w,
        &Frame::Register {
            claimed_ip: [0; 4],
            version: PROTOCOL_VERSION,
        },
    )
    .expect("send REGISTER");
    w.flush().expect("flush REGISTER");
    // Unbuffered: a buffered reader could swallow bytes the receiver
    // thread must see.
    let mut r: &TcpStream = stream;
    match read_frame_buffered(&mut r, &mut Vec::new()) {
        Ok(Some(Frame::Registered { user, .. })) => user,
        other => panic!("registration failed: {other:?}"),
    }
}
