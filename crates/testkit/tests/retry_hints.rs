//! Refusal retry hints, exercised at scale in virtual time: a thousand
//! refuse→wait→retry cycles against the token bucket, probes just
//! before the hint, and exact registration-interval hints.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::RefuseReason;
use delayguard_testkit::net::{register_once, register_until_admitted, run_query};
use delayguard_testkit::{check, QueryOutcome, SimConfig, SimWorld};
use std::time::Duration;

fn world_with(seed: u64, gatekeeper: GatekeeperConfig) -> SimWorld {
    let guard = GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(0.0),
        ))
        .with_charging(ChargingModel::PerQueryMax);
    let world = SimWorld::new(
        seed,
        SimConfig {
            guard,
            gate: GateConfig {
                gatekeeper,
                ..GateConfig::default()
            },
            tick: Duration::from_millis(1),
            send_queue_rows: 4096,
            ..SimConfig::default()
        },
    );
    let db = world.db(0);
    db.execute_at("CREATE TABLE directory (id INT NOT NULL)", 0.0)
        .unwrap();
    db.execute_at("INSERT INTO directory VALUES (1)", 0.0)
        .unwrap();
    world
}

/// A thousand refuse→honor-the-hint→retry cycles, entirely in virtual
/// time. The bucket holds one token refilling at 1/s: each cycle's
/// first query drains it, the second is refused with an exact hint,
/// and waiting out the hint always re-admits. Every ~7th cycle also
/// probes just *before* the hint and must be refused again — the hint
/// is exact, not padded.
#[test]
fn thousand_refusal_retry_cycles_honor_exact_hints() {
    check(
        "thousand_refusal_retry_cycles_honor_exact_hints",
        55,
        |seed| {
            let world = world_with(
                seed,
                GatekeeperConfig {
                    per_user_rate: 1.0,
                    per_user_burst: 1.0,
                    per_subnet_rate: 1e9,
                    per_subnet_burst: 1e9,
                    registration: RegistrationPolicy::interval(0.0),
                    storefront_query_threshold: 0,
                },
            );
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once(&mut link, [0; 4], 5.0)
                .expect("link alive")
                .expect("admitted");

            let sql = "SELECT * FROM directory WHERE id = 1";
            let mut qid = 0u32;
            macro_rules! run {
                () => {{
                    qid += 1;
                    run_query(&mut link, qid, user, sql, 30.0).expect("link alive")
                }};
            }

            let started = world.now_secs();
            let mut admitted = 0u64;
            let mut refused = 0u64;
            let mut probes_refused = 0u64;
            for cycle in 0..1000u64 {
                // Drain the bucket.
                match run!() {
                    QueryOutcome::Rows { .. } => admitted += 1,
                    other => panic!("cycle {cycle}: expected rows, got {other:?}"),
                }
                // Immediately again: refused, with a positive exact hint.
                let hint = match run!() {
                    QueryOutcome::Refused {
                        reason: RefuseReason::UserRate,
                        retry_after_secs,
                    } => {
                        refused += 1;
                        assert!(
                            retry_after_secs > 0.0,
                            "cycle {cycle}: hint must be positive"
                        );
                        retry_after_secs
                    }
                    other => panic!("cycle {cycle}: expected user-rate refusal, got {other:?}"),
                };
                if cycle % 7 == 0 {
                    // Probe 1 ms before the hint: still refused.
                    world.run_for((hint - 1e-3).max(0.0));
                    match run!() {
                        QueryOutcome::Refused {
                            reason: RefuseReason::UserRate,
                            ..
                        } => probes_refused += 1,
                        other => panic!("cycle {cycle}: early probe admitted: {other:?}"),
                    }
                    world.run_for(1e-3 + 1e-6);
                } else {
                    world.run_for(hint + 1e-6);
                }
            }
            assert_eq!(admitted, 1000);
            assert_eq!(refused, 1000);
            assert_eq!(probes_refused, 143, "every 7th cycle probes early");
            // ~1000 bucket refills of 1 s each happened in virtual time.
            let elapsed = world.now_secs() - started;
            assert!(
                (999.0..1100.0).contains(&elapsed),
                "virtual elapsed {elapsed}s, expected about 1000s"
            );
        },
    );
}

/// Registration hints are exact: with a 10 s global interval, each of
/// five identities is refused exactly once, and the five admissions land
/// 10 s apart.
#[test]
fn registration_interval_hints_are_exact() {
    check("registration_interval_hints_are_exact", 56, |seed| {
        let interval = 10.0;
        let mut world = world_with(
            seed,
            GatekeeperConfig {
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                registration: RegistrationPolicy::interval(interval),
                storefront_query_threshold: 0,
            },
        );
        let mut refusals_total = 0;
        let mut admitted_at = Vec::new();
        for j in 0..5u8 {
            let mut link = world.connect_link([10, j, 0, 1]);
            let (_user, refusals) =
                register_until_admitted(&mut world, &mut link, [0; 4], 60.0).expect("registration");
            refusals_total += refusals;
            admitted_at.push(world.now_secs());
        }
        // First admitted instantly; each later identity refused exactly
        // once, then admitted right at the hinted instant.
        assert_eq!(refusals_total, 4);
        for w in admitted_at.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                (gap - interval).abs() < 1e-3,
                "admissions {gap}s apart, expected {interval}s"
            );
        }
    });
}
