//! §2.4 adversary campaigns in virtual time, asserted against the
//! paper's closed forms: a 30+-day sequential extraction crawl (Eq. 3/4),
//! the Sybil swarm racing the registration interval (§2.4's k·t + T/k
//! economics), the per-/24 subnet-aggregated swarm, and a
//! popularity-aware crawler demonstrating that delay concentrates on the
//! unpopular tail. Each campaign runs in seconds of wall clock; every
//! failure prints a `TESTKIT_REPLAY=<seed>` command.

use delayguard_core::analysis;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_testkit::{check, check_seeds, Campaign, CampaignParams, CrawlReport};
use std::time::Instant;

const DAY_SECS: f64 = 86_400.0;

/// `(seed, world digest)` of the sequential campaign, pinned from a
/// known-good build: a refactor of the serving or pricing path must not
/// move a single bit of the wire trace.
const PINNED: (u64, u64) = (2004, 9_880_225_460_889_492_086);

fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
    assert!(
        (actual - expected).abs() <= tol * expected.abs(),
        "{what}: measured {actual}, expected {expected} (±{:.0}%)",
        tol * 100.0
    );
}

/// One full sequential extraction campaign: a user probe at the median
/// rank, then the crawl of all n tuples. Returns the probe's charged
/// delay, the crawl report, the world digest, and the real elapsed time.
fn sequential_campaign(seed: u64) -> (f64, CrawlReport, u64, f64) {
    let wall = Instant::now();
    let mut campaign = Campaign::new(seed, CampaignParams::default());
    let median = campaign.median_rank();
    let probe = campaign.sequential_crawl([172, 16, 0, 1], &[median]);
    let ranks = campaign.all_ranks();
    let crawl = campaign.sequential_crawl([10, 0, 0, 1], &ranks);
    (
        probe.total_delay_secs,
        crawl,
        campaign.world().digest(),
        wall.elapsed().as_secs_f64(),
    )
}

#[test]
fn sequential_campaign_digest_is_pinned() {
    let (_, _, digest, _) = sequential_campaign(PINNED.0);
    assert_eq!(digest, PINNED.1);
}

/// The acceptance campaign: >30 simulated days of sequential extraction
/// in seconds of wall clock, bit-identical across two same-seed runs,
/// with the measured adversary-to-user delay ratio within 10% of Eq. 4.
#[test]
fn thirty_day_sequential_campaign_matches_eq4() {
    check("thirty_day_sequential_campaign_matches_eq4", 2004, |seed| {
        let (user_delay, crawl, digest, elapsed) = sequential_campaign(seed);
        let (user_delay2, crawl2, digest2, elapsed2) = sequential_campaign(seed);

        // Reproducibility: the two runs are bit-identical.
        assert_eq!(digest, digest2, "same seed must give identical executions");
        assert_eq!(user_delay.to_bits(), user_delay2.to_bits());
        assert_eq!(
            crawl.total_delay_secs.to_bits(),
            crawl2.total_delay_secs.to_bits()
        );
        assert_eq!(
            crawl.finished_secs.to_bits(),
            crawl2.finished_secs.to_bits()
        );

        // Scale: a month-plus of simulated campaign, seconds of wall.
        let campaign = Campaign::new(seed, CampaignParams::default());
        let n = campaign.params().n;
        assert_eq!(crawl.queries, n);
        assert_eq!(crawl.tuples, n);
        assert!(
            crawl.wall_secs() >= 30.0 * DAY_SECS,
            "campaign spanned only {:.1} simulated days",
            crawl.wall_secs() / DAY_SECS
        );
        assert!(
            elapsed < 5.0 && elapsed2 < 5.0,
            "a 30-day campaign must run in <5s wall, took {elapsed:.2}s / {elapsed2:.2}s"
        );

        // Eq. 3: the crawl's charged total matches the closed form.
        assert_close(
            crawl.total_delay_secs,
            campaign.analytic_total(),
            0.10,
            "adversary total delay",
        );
        // The crawl's *wall* time is the charged total plus wheel
        // rounding — same closed form.
        assert_close(
            crawl.wall_secs(),
            campaign.analytic_total(),
            0.10,
            "adversary wall time",
        );
        // The median user's single query.
        assert_close(
            user_delay,
            campaign.analytic_delay_at_rank(campaign.median_rank()),
            0.10,
            "median user delay",
        );
        // Eq. 4: the asymmetry ratio.
        assert_close(
            crawl.total_delay_secs / user_delay,
            campaign.analytic_ratio(),
            0.10,
            "adversary-to-user delay ratio (Eq. 4)",
        );
        // Enforcement is never early, and nothing was refused (the
        // gatekeeper is open; the delay policy is the only brake).
        assert!(crawl.min_margin_secs >= -1e-6, "a tuple was released early");
        assert_eq!(crawl.refused, 0);
    });
}

/// The Sybil swarm: k identities register serially (paying the
/// registration interval t each) and crawl stripes concurrently. With
/// t chosen by `registration_interval_for` for a 2× slowdown target and
/// k at the optimum √(T/t), the measured wall matches the
/// (k−1)·t + max-stripe prediction and lands in the band the paper's
/// 2√(t·T) economics promise.
#[test]
fn sybil_swarm_pays_the_registration_interval() {
    check("sybil_swarm_pays_the_registration_interval", 2005, |seed| {
        let wall = Instant::now();
        let mut params = CampaignParams::default();
        let probe = Campaign::new(seed, params.clone());
        let total = probe.analytic_total();
        let t_register = analysis::registration_interval_for(total, 0.5);
        let (k_opt, optimum_wall) = analysis::sybil_optimum(total, t_register);
        let k = k_opt.round() as usize;
        assert_eq!(k, 4, "the worked example sits at k=4");
        params.gatekeeper.registration = RegistrationPolicy::interval(t_register);

        let mut campaign = Campaign::new(seed, params);
        let ranks = campaign.all_ranks();
        let report = campaign.swarm_crawl(&Campaign::sybil_ips(k as u64), &ranks);

        // Serial registration: each identity after the first is refused
        // exactly once and admitted exactly t later.
        assert_eq!(report.identities, k as u64);
        assert_eq!(report.registration_refusals, (k - 1) as u64);
        assert_close(
            report.registration_wall_secs(),
            (k - 1) as f64 * t_register,
            0.01,
            "registration wall",
        );

        // The swarm still pays the full extraction total in charged
        // delay — parallelism buys wall time, not delay.
        assert_close(report.total_delay_secs, total, 0.10, "swarm charged total");
        assert_eq!(report.tuples, campaign.params().n);

        // Wall prediction: registration plus the slowest stripe.
        let slowest_stripe = (0..k)
            .map(|j| {
                (1..=campaign.params().n)
                    .filter(|rank| (*rank as usize - 1) % k == j)
                    .map(|rank| campaign.analytic_delay_at_rank(rank))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let predicted = (k - 1) as f64 * t_register + slowest_stripe;
        assert_close(report.wall_secs(), predicted, 0.10, "sybil campaign wall");

        // The paper's economics: the swarm beats sequential by about the
        // engineered factor, but cannot beat the 2√(t·T) bound by much —
        // the registration interval is doing its job.
        assert!(
            report.wall_secs() < 0.55 * total,
            "swarm wall {:.0}s should beat sequential {total:.0}s by ~2x",
            report.wall_secs()
        );
        assert!(
            report.wall_secs() > 0.75 * optimum_wall,
            "swarm wall {:.0}s far below the 2sqrt(tT) bound {optimum_wall:.0}s",
            report.wall_secs()
        );
        assert!(
            report.min_margin_secs >= -1e-6,
            "a tuple was released early"
        );
        assert!(
            wall.elapsed().as_secs_f64() < 5.0,
            "sybil campaign must run in <5s wall"
        );
    });
}

/// Subnet aggregation: the same 8-identity swarm is throttled to the
/// /24's aggregate rate when clustered, but fans out to per-user rates
/// when spread — clustered extraction takes >4x longer.
#[test]
fn clustered_swarm_is_throttled_by_subnet_aggregation() {
    check(
        "clustered_swarm_is_throttled_by_subnet_aggregation",
        2006,
        |seed| {
            let params = CampaignParams {
                n: 200,
                cap_secs: 0.05,
                tick: std::time::Duration::from_millis(1),
                gatekeeper: GatekeeperConfig {
                    per_user_rate: 20.0,
                    per_user_burst: 1.0,
                    per_subnet_rate: 5.0,
                    per_subnet_burst: 1.0,
                    registration: RegistrationPolicy::interval(0.0),
                    storefront_query_threshold: 0,
                },
                ..CampaignParams::default()
            };
            let k = 8;

            let mut clustered = Campaign::new(seed, params.clone());
            let ranks = clustered.all_ranks();
            let clustered_report = clustered.swarm_crawl(&Campaign::clustered_ips(k), &ranks);

            let mut spread = Campaign::new(seed, params);
            let spread_report = spread.swarm_crawl(&Campaign::sybil_ips(k), &ranks);

            // Both extract everything...
            assert_eq!(clustered_report.tuples, 200);
            assert_eq!(spread_report.tuples, 200);
            // ...but the clustered swarm is held to the subnet's 5 q/s:
            // 200 queries take at least ~40 virtual seconds.
            assert!(
                clustered_report.wall_secs() > 35.0,
                "clustered swarm finished in {:.1}s, subnet rate not enforced",
                clustered_report.wall_secs()
            );
            assert!(
                clustered_report.wall_secs() > 4.0 * spread_report.wall_secs(),
                "clustered {:.1}s vs spread {:.1}s: aggregation should cost >4x",
                clustered_report.wall_secs(),
                spread_report.wall_secs()
            );
            // The throttle works through explicit refusals with hints, all
            // honored (no tuple lost, nothing early).
            assert!(clustered_report.refused_queries > 0);
            assert!(clustered_report.min_margin_secs >= -1e-6);
            assert!(spread_report.min_margin_secs >= -1e-6);
        },
    );
}

/// A popularity-aware adversary and an honest Zipf user, against the
/// same closed forms: the popular head is almost free (delay lives in
/// the tail), and a Zipf-sampled workload's charged total matches the
/// per-rank analytic sum.
#[test]
fn popularity_aware_crawls_match_the_analytics() {
    check_seeds(
        "popularity_aware_crawls_match_the_analytics",
        &[31, 32],
        |seed| {
            let mut campaign = Campaign::new(seed, CampaignParams::default());
            let n = campaign.params().n;

            // The popular head: 100 of 1100 tuples for ~0.1% of the
            // full-crawl delay bill.
            let head: Vec<u64> = (1..=100).collect();
            let head_analytic: f64 = head
                .iter()
                .map(|&r| campaign.analytic_delay_at_rank(r))
                .sum();
            let head_report = campaign.sequential_crawl([10, 9, 0, 1], &head);
            assert_close(
                head_report.total_delay_secs,
                head_analytic,
                0.10,
                "popular-head crawl total",
            );
            assert!(
                head_report.total_delay_secs < 0.01 * campaign.analytic_total(),
                "the head must be cheap: delay concentrates on the tail"
            );

            // An honest user sampling ranks from Zipf(alpha): the charged
            // total matches the analytic delay of those exact ranks.
            let sampled = campaign.zipf_ranks(300);
            let sampled_analytic: f64 = sampled
                .iter()
                .map(|&r| campaign.analytic_delay_at_rank(r))
                .sum();
            let user_report = campaign.sequential_crawl([172, 16, 5, 1], &sampled);
            assert_eq!(user_report.queries, 300);
            assert_close(
                user_report.total_delay_secs,
                sampled_analytic,
                0.10,
                "zipf user charged total",
            );
            // Per-query, the Zipf user pays far less than the crawler's
            // per-tuple average — the policy's whole point.
            let user_mean = user_report.total_delay_secs / 300.0;
            let crawler_mean = campaign.analytic_total() / n as f64;
            assert!(
                user_mean < 0.5 * crawler_mean,
                "zipf user mean {user_mean:.1}s vs crawler mean {crawler_mean:.1}s"
            );
            assert!(user_report.min_margin_secs >= -1e-6);
        },
    );
}
