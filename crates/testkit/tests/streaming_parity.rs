//! Wire-level parity between the v2 streaming pipeline (trailer framing,
//! chunked reservation) and the v1 materialized path (count-up-front
//! framing): same rows, same per-row release times, same charged delay,
//! byte-for-byte identical `ROW`/`DONE` frames. Plus the
//! charge-before-shed regression: a query refused by send-queue
//! backpressure must charge nothing and record no access events.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_core::snapshot::SnapshotPolicy;
use delayguard_core::GuardedDatabase;
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::{Frame, ROWS_UNKNOWN};
use delayguard_testkit::net::{register_once_with_version, run_query, Arrival, LinkError, NetLink};
use delayguard_testkit::{check, QueryOutcome, SimConfig, SimWorld};
use std::time::Duration;

fn open_gatekeeper() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1000.0,
        per_user_burst: 1000.0,
        per_subnet_rate: 1000.0,
        per_subnet_burst: 1000.0,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

fn guard_config(cap_secs: f64) -> GuardConfig {
    // Refresh after every statement so both framing modes apply their
    // recorded accesses at the same points: the v2 path records one event
    // per chunk, the v1 path one per statement, and an eager refresh
    // collapses that difference before the next query prices anything.
    GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs),
        ))
        .with_charging(ChargingModel::PerTupleSum)
        .with_snapshot_policy(SnapshotPolicy {
            max_pending_events: 1,
            ..SnapshotPolicy::default()
        })
}

fn seed_directory(db: &GuardedDatabase, rows: usize) {
    db.execute_at(
        "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
        0.0,
    )
    .unwrap();
    db.execute_at("CREATE UNIQUE INDEX directory_pk ON directory (id)", 0.0)
        .unwrap();
    for id in 0..rows {
        db.execute_at(
            &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
            0.0,
        )
        .unwrap();
    }
}

fn sim_world(seed: u64, rows: usize, cap_secs: f64, send_queue_rows: usize) -> SimWorld {
    let world = SimWorld::new(
        seed,
        SimConfig {
            guard: guard_config(cap_secs),
            gate: GateConfig {
                gatekeeper: open_gatekeeper(),
                // Small enough that a 10-row scan spans several chunks.
                stream_chunk_rows: 3,
                ..GateConfig::default()
            },
            tick: Duration::from_millis(1),
            send_queue_rows,
            ..SimConfig::default()
        },
    );
    seed_directory(&world.db(0), rows);
    world
}

/// Run one query, collecting every frame of the exchange with its arrival
/// time, through the terminal `DONE`/`REFUSED`/`ERROR`.
fn run_raw(
    link: &mut dyn NetLink,
    query_id: u32,
    user: u64,
    sql: &str,
    timeout_secs: f64,
) -> Result<Vec<Arrival>, LinkError> {
    link.send(&Frame::Query {
        query_id,
        user,
        sql: sql.to_owned(),
    })?;
    let deadline = link.now_secs() + timeout_secs;
    let mut frames = Vec::new();
    loop {
        let remaining = deadline - link.now_secs();
        if remaining <= 0.0 {
            return Ok(frames);
        }
        let Some(arrival) = link.recv(remaining)? else {
            return Ok(frames);
        };
        let terminal = matches!(
            arrival.frame,
            Frame::Done { .. } | Frame::Refused { .. } | Frame::Error { .. }
        );
        frames.push(arrival);
        if terminal {
            return Ok(frames);
        }
    }
}

const PARITY_QUERIES: &[&str] = &[
    "SELECT * FROM directory",
    "SELECT entry FROM directory WHERE id < 5",
    "SELECT * FROM directory ORDER BY id DESC LIMIT 3",
    "SELECT * FROM directory",
];

#[test]
fn streaming_and_materialized_framing_agree_on_the_wire() {
    check(
        "streaming_and_materialized_framing_agree_on_the_wire",
        2031,
        |seed| {
            let run = |version: u8| {
                let world = sim_world(seed, 10, 0.3, 4096);
                let mut link = world.connect_link([10, 0, 0, 1]);
                let user = register_once_with_version(&mut link, [0; 4], version, 5.0)
                    .expect("link alive")
                    .expect("admitted");
                let mut exchanges = Vec::new();
                for (i, sql) in PARITY_QUERIES.iter().enumerate() {
                    exchanges.push(run_raw(&mut link, i as u32 + 1, user, sql, 30.0).unwrap());
                }
                exchanges
            };
            let legacy = run(1);
            let streaming = run(2);
            assert_eq!(legacy.len(), streaming.len());
            for (qi, (l, s)) in legacy.iter().zip(streaming.iter()).enumerate() {
                // Substance: the ROW and DONE frames — payloads, sequence
                // numbers, charged delay — and their release times must be
                // bit-identical across the two framings.
                let substance = |frames: &[Arrival]| -> Vec<(u64, Frame)> {
                    frames
                        .iter()
                        .filter(|a| matches!(a.frame, Frame::Row { .. } | Frame::Done { .. }))
                        .map(|a| (a.at_secs.to_bits(), a.frame.clone()))
                        .collect()
                };
                assert_eq!(
                    substance(l),
                    substance(s),
                    "query {qi}: rows/done diverge between framings"
                );
                // Framing: v1 announces the exact count up front and sends
                // no trailer; v2 announces ROWS_UNKNOWN and trails with the
                // count.
                let n_rows = l
                    .iter()
                    .filter(|a| matches!(a.frame, Frame::Row { .. }))
                    .count() as u32;
                match &l[0].frame {
                    Frame::RowsBegin { rows, .. } => assert_eq!(*rows, n_rows),
                    other => panic!("query {qi}: legacy exchange began with {other:?}"),
                }
                assert!(
                    !l.iter().any(|a| matches!(a.frame, Frame::RowsEnd { .. })),
                    "query {qi}: legacy session received a trailer"
                );
                match &s[0].frame {
                    Frame::RowsBegin { rows, .. } => assert_eq!(*rows, ROWS_UNKNOWN),
                    other => panic!("query {qi}: streaming exchange began with {other:?}"),
                }
                let trailer = s
                    .iter()
                    .find(|a| matches!(a.frame, Frame::RowsEnd { .. }))
                    .expect("streaming session must receive a trailer");
                match trailer.frame {
                    Frame::RowsEnd { rows, .. } => assert_eq!(rows, n_rows),
                    _ => unreachable!(),
                }
            }
        },
    );
}

#[test]
fn legacy_client_still_gets_count_up_front_framing() {
    check(
        "legacy_client_still_gets_count_up_front_framing",
        77,
        |seed| {
            let world = sim_world(seed, 10, 0.1, 4096);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once_with_version(&mut link, [0; 4], 1, 5.0)
                .expect("link alive")
                .expect("admitted");
            match run_query(&mut link, 1, user, "SELECT * FROM directory", 30.0).unwrap() {
                QueryOutcome::Rows {
                    announced, rows, ..
                } => {
                    // `announced` comes straight from ROWS_BEGIN here: a v1
                    // session never sees ROWS_END, so the count must be exact
                    // up front.
                    assert_eq!(announced, 10);
                    assert_eq!(rows.len(), 10);
                }
                other => panic!("expected rows, got {other:?}"),
            }
        },
    );
}

#[test]
fn backpressure_refusal_charges_nothing() {
    check("backpressure_refusal_charges_nothing", 4011, |seed| {
        for version in [1u8, 2u8] {
            // A 2-row send queue cannot hold even one 3-row chunk (nor, on
            // a v1 session, the whole 10-row result): the very first
            // reservation fails, so the refusal must precede any charging.
            let world = sim_world(seed, 10, 0.3, 2);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once_with_version(&mut link, [0; 4], version, 5.0)
                .expect("link alive")
                .expect("admitted");
            match run_query(&mut link, 1, user, "SELECT * FROM directory", 30.0).unwrap() {
                QueryOutcome::Refused { .. } => {}
                other => panic!("v{version}: expected backpressure refusal, got {other:?}"),
            }
            let charged = world
                .registry(0)
                .counter("server_delay_micros_charged")
                .get();
            assert_eq!(charged, 0, "v{version}: refused query charged delay");
            assert_eq!(
                world.registry(0).counter("server_rows_streamed").get(),
                0,
                "v{version}: refused query streamed rows"
            );

            // And no access events leaked: the shed query must not have
            // warmed the popularity counts, so a later scan prices exactly
            // as on a control world that never saw the refusal.
            let control = sim_world(seed, 10, 0.3, 2);
            let at = world.now_secs().max(control.now_secs()) + 1.0;
            let after_refusal = world
                .db(0)
                .execute_at("SELECT * FROM directory", at)
                .unwrap()
                .delay_secs;
            let untouched = control
                .db(0)
                .execute_at("SELECT * FROM directory", at)
                .unwrap()
                .delay_secs;
            assert_eq!(
                after_refusal.to_bits(),
                untouched.to_bits(),
                "v{version}: refused query left access events behind"
            );
        }
    });
}
