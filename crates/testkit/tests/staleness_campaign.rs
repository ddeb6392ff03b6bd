//! §3 staleness guarantees, end to end: a live `UPDATE` stream pushed
//! through the new mutation frames races an extraction crawl in virtual
//! time, and the stale fraction of the extracted copy must land on the
//! Eq. 11/12 closed form. Also the inertness proof for the combined
//! access+update policy: with the update term zeroed, a read-only world
//! is bit-identical to the plain access-rate world.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::GuardPolicy;
use delayguard_core::update::UpdateDelayPolicy;
use delayguard_core::GuardConfig;
use delayguard_server::gate::GateConfig;
use delayguard_testkit::net::{self, QueryOutcome};
use delayguard_testkit::world::{SimConfig, SimWorld};
use delayguard_testkit::{check, check_seeds, FaultPlan, StalenessCampaign, StalenessParams};
use std::time::Duration;

/// `(seed, world digest)` of the staleness race, pinned from a known-good
/// build (mutations included in the wire trace).
const PINNED: (u64, u64) = (23, 10_625_801_717_193_776_267);

fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
    assert!(
        (actual - expected).abs() <= tol * expected.abs(),
        "{what}: measured {actual}, expected {expected} (±{:.0}%)",
        tol * 100.0
    );
}

/// The tentpole claim: race the crawl against the update stream and the
/// measured stale fraction lands within 10% of
/// [`delayguard_core::analysis::stale_fraction_exact`], on the pinned
/// seed and on any `TESTKIT_REPLAY` seed.
#[test]
fn stale_fraction_tracks_the_closed_form() {
    check_seeds("stale_fraction_tracks_the_closed_form", &[17, 43], |seed| {
        let mut campaign = StalenessCampaign::new(seed, StalenessParams::default());
        let analytic_total = campaign.analytic_total();
        let report = campaign.run();

        // The crawl pays the Eq. 9 total (the warmed tracker makes the
        // estimated rates exact at crawl start; tick rounding and the
        // crawl's own drift stay under the tolerance).
        assert_close(
            report.total_delay_secs,
            analytic_total,
            0.05,
            "crawl total vs Eq. 9 sum",
        );
        // No tuple is ever released before its charged delay.
        assert!(
            report.min_margin_secs >= -1e-6,
            "early release: margin {}",
            report.min_margin_secs
        );
        // The headline §3 number.
        assert_close(
            report.stale_fraction,
            report.expected_fraction,
            0.10,
            "stale fraction vs Eq. 11/12 exact form",
        );
        // The exact form sits next to the paper's asymptotic S_max.
        assert_close(
            report.expected_fraction,
            report.smax,
            0.05,
            "exact form vs asymptotic S_max",
        );
        // The update stream really ran: the schedule predicts
        // crawl_secs · r_max · H(n) ≈ 520 statements at the defaults.
        assert!(
            report.updates_issued > 300,
            "suspiciously quiet update stream: {}",
            report.updates_issued
        );
        // Age-of-information is bounded by the crawl itself: a stale
        // value was captured mid-crawl, so its age is positive and no
        // older than the full crawl.
        assert!(report.stale > 0);
        assert!(report.mean_age_secs > 0.0);
        assert!(
            report.max_age_secs <= report.crawl_secs + 1e-6,
            "age {} exceeds crawl {}",
            report.max_age_secs,
            report.crawl_secs
        );
        assert!(report.mean_age_secs <= report.max_age_secs);
    });
}

/// Same seed, same race — bit-identical world digest and identical
/// verdicts, mutations included (the replay harness must cover writes).
#[test]
fn staleness_race_replays_bit_identically() {
    check("staleness_race_replays_bit_identically", PINNED.0, |seed| {
        let run = |seed| {
            let mut campaign = StalenessCampaign::new(seed, StalenessParams::default());
            let report = campaign.run();
            (
                campaign.world().digest(),
                report.stale,
                report.total_delay_secs,
            )
        };
        let (d1, stale1, total1) = run(seed);
        let (d2, stale2, total2) = run(seed);
        assert_eq!(d1, d2, "staleness race diverged for seed {seed}");
        if seed == PINNED.0 {
            assert_eq!(d1, PINNED.1, "pinned execution moved");
        }
        assert_eq!(stale1, stale2);
        assert_eq!(total1.to_bits(), total2.to_bits());
    });
}

/// The combined access+update policy is inert when the update term is
/// off: a read-only run under `Hybrid(access, update)` with the update
/// cap at zero is bit-identical — digest and totals — to the plain
/// access-rate world, while a live update term changes the wire trace
/// and only raises prices (max-combine).
#[test]
fn update_term_off_is_bit_identical_for_reads() {
    check("update_term_off_is_bit_identical_for_reads", 19, |seed| {
        let run = |policy: GuardPolicy| {
            let world = SimWorld::new(
                seed,
                SimConfig {
                    guard: GuardConfig::paper_default().with_policy(policy),
                    gate: GateConfig {
                        gatekeeper: GatekeeperConfig {
                            per_user_rate: 1e9,
                            per_user_burst: 1e9,
                            per_subnet_rate: 1e9,
                            per_subnet_burst: 1e9,
                            registration: RegistrationPolicy::interval(0.0),
                            storefront_query_threshold: 0,
                        },
                        ..GateConfig::default()
                    },
                    tick: Duration::from_millis(1),
                    send_queue_rows: 4096,
                    faults: FaultPlan::ideal(),
                },
            );
            let db = world.db();
            db.execute_at(
                "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
                0.0,
            )
            .expect("create table");
            for id in 0..16 {
                db.execute_at(
                    &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
                    0.0,
                )
                .expect("insert");
            }
            // Age the world (read-only: no row ever sees an update
            // event, so a live update term prices at its cap), then
            // crawl twice.
            world.run_for(1000.0);
            let mut world = world;
            let mut link = world.connect_link([10, 0, 0, 1]);
            let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
                .expect("register");
            let mut total = 0.0;
            for pass in 0..2u32 {
                for id in 0..16u64 {
                    let sql = format!("SELECT * FROM directory WHERE id = {id}");
                    let qid = 100 * (pass + 1) + id as u32;
                    match net::run_query(&mut link, qid, user, &sql, 3600.0).expect("link alive") {
                        QueryOutcome::Rows { delay_secs, .. } => total += delay_secs,
                        other => panic!("id {id}: {other:?}"),
                    }
                }
            }
            (world.digest(), total)
        };

        let access = AccessDelayPolicy::new(1.5, 1.0);
        let (d_plain, t_plain) = run(GuardPolicy::AccessRate(access));
        let (d_off, t_off) = run(GuardPolicy::Hybrid(
            access,
            UpdateDelayPolicy::new(0.3).with_cap(0.0),
        ));
        assert_eq!(
            d_plain, d_off,
            "a zeroed update term must not perturb the world (seed {seed})"
        );
        assert_eq!(t_plain.to_bits(), t_off.to_bits());

        let (d_on, t_on) = run(GuardPolicy::Hybrid(
            access,
            UpdateDelayPolicy::new(0.3).with_cap(30.0),
        ));
        assert_ne!(d_plain, d_on, "a live update term must change the trace");
        assert!(t_on > t_plain, "max-combine only raises prices");
    });
}
