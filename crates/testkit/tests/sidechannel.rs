//! Red-team campaigns against the delay channel itself.
//!
//! The §3 policy prices tuple `i` at `d(i) = i^(α+β)/(N·f_max)` — a
//! *strictly increasing* function of popularity rank. The price is also a
//! response time, so the delay that defends the database doubles as an
//! oracle that leaks exactly what the defense is protecting: which tuples
//! are rare. These campaigns drive that attack end to end on the virtual
//! clock — a rank-inference crawler that sorts the table by observed
//! response time, and an adaptive attacker that fits the delay-vs-rank
//! power law from a handful of probes and budgets toward the value tail —
//! and then show that the `DelayShaping` policy (geometric delay buckets
//! plus seeded per-query jitter) collapses both, at a bounded and
//! closed-form price hike for honest users (the shaped Eq. 3 / Eq. 4
//! forms in `delayguard_core::analysis`).
//!
//! Campaign geometry (`CampaignParams::sidechannel`): n = 1024,
//! α = β = 1, cap 8000 s, so raw delays run `d(1) ≈ 7 ms` …
//! `d(1024) ≈ 7690 s`, all distinct — the unshaped control leaks the
//! complete rank order (τ ≈ 1). Shaping quantizes onto edges
//! `8000·1000^m` = {…, 8 ms, 8 s, 8000 s}: the ~33 hottest ranks share
//! the fast buckets, ranks ~34–1024 the 8000 s bucket, and the analytic
//! τ ceiling drops to ≈ 0.06 (with within-bucket permutation noise
//! σ ≈ 0.02, so the 0.15 collapse bound sits >4σ away for any seed).
//!
//! Every failure prints a `TESTKIT_REPLAY=<seed>` rerun command, and all
//! assertions are robust to arbitrary seeds (CI replays this suite under
//! random seeds).

use delayguard_core::shaping::DelayShaping;
use delayguard_testkit::{check, check_seeds, Campaign, CampaignParams, RankInferenceReport};
use std::time::Instant;

const USER_IP: [u8; 4] = [172, 16, 0, 1];
const CRAWLER_IP: [u8; 4] = [10, 0, 0, 1];
const PROBER_IP: [u8; 4] = [10, 0, 1, 1];

/// `(seed, world digest)` of the shaped rank-inference campaign, pinned
/// from a known-good build.
const PINNED: (u64, u64) = (42, 1_952_046_180_144_676_267);

fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
    assert!(
        (actual - expected).abs() <= tol * expected.abs(),
        "{what}: measured {actual}, expected {expected} (±{:.0}%)",
        tol * 100.0
    );
}

/// One full rank-inference campaign: an honest probe of the median rank
/// first (clean Eq. 3 economics, before the crawl perturbs popularity),
/// then the attacker's shuffled full-table timing sweep.
fn rank_inference_campaign(seed: u64, shaped: bool) -> (Campaign, f64, RankInferenceReport) {
    let mut campaign = Campaign::new(seed, CampaignParams::sidechannel(shaped));
    let median = campaign.median_rank();
    let probe = campaign.crawl_observations(USER_IP, &[median]);
    let report = campaign.rank_inference_crawl(CRAWLER_IP);
    (campaign, probe.observations[0].charged_secs, report)
}

/// The attack this PR exists to demonstrate: with shaping off, a crawler
/// that issues one query per tuple in a *shuffled* order and sorts by
/// observed response time recovers the popularity ranking essentially
/// perfectly — Kendall τ ≈ 1 and the entire value tail identified — while
/// paying exactly the Eq. 4 adversary total.
#[test]
fn unshaped_timing_channel_leaks_rank_order() {
    check("unshaped_timing_channel_leaks_rank_order", 41, |seed| {
        let wall = Instant::now();
        let (campaign, median_charge, report) = rank_inference_campaign(seed, false);

        // The leak: observed time orders the table by secret rank.
        assert!(
            report.tau >= 0.9,
            "control crawl must recover rank order, τ = {}",
            report.tau
        );
        assert!(
            report.tail_recall >= 0.9,
            "control crawl must find the value tail, recall = {}",
            report.tail_recall
        );
        // With every raw delay distinct, the analytic ceiling is ~1 too.
        assert!(campaign.analytic_tau_ceiling() > 0.999);

        // Never-early: responses arrive at or after their deadlines.
        assert!(report.sweep.min_margin_secs >= -1e-6);

        // Economics stay on the closed forms: the median-rank user pays
        // Eq. 3, the full crawl pays Eq. 4.
        assert_close(
            median_charge,
            campaign.analytic_delay_at_rank(campaign.median_rank()),
            0.10,
            "control median-user delay (Eq. 3)",
        );
        assert_close(
            report.sweep.total_charged_secs,
            campaign.analytic_total(),
            0.10,
            "control adversary total (Eq. 4)",
        );

        let elapsed = wall.elapsed().as_secs_f64();
        assert!(
            elapsed < 10.0,
            "campaign must stay fast, took {elapsed:.2}s"
        );
    });
}

/// The defense: with shaping on, the same crawler's τ collapses below
/// 0.15 (and tracks the analytic cross-bucket ceiling), tail recall falls
/// to chance, honest users pay the shaped Eq. 3 form (8 s bucket × mean
/// jitter for the median rank), the adversary pays the shaped Eq. 4
/// total, and the whole shaped execution is bit-identical under replay.
#[test]
fn shaping_collapses_rank_inference() {
    check("shaping_collapses_rank_inference", PINNED.0, |seed| {
        let wall = Instant::now();
        let (campaign, median_charge, report) = rank_inference_campaign(seed, true);
        let (campaign2, median_charge2, report2) = rank_inference_campaign(seed, true);

        // Determinism with shaping ON: jitter is a pure function of
        // (shaping seed, query nonce, tuple key), so a same-seed rerun is
        // bit-identical down to the wire digest.
        assert_eq!(
            campaign.world().digest(),
            campaign2.world().digest(),
            "same seed must give identical shaped executions"
        );
        if seed == PINNED.0 {
            assert_eq!(
                campaign.world().digest(),
                PINNED.1,
                "pinned execution moved"
            );
        }
        assert_eq!(median_charge.to_bits(), median_charge2.to_bits());
        assert_eq!(
            report.sweep.total_charged_secs.to_bits(),
            report2.sweep.total_charged_secs.to_bits()
        );
        assert_eq!(report.tau.to_bits(), report2.tau.to_bits());

        // The collapse: |τ| within the ISSUE bound, and close to the
        // re-derived cross-bucket ceiling.
        let ceiling = campaign.analytic_tau_ceiling();
        assert!(ceiling < 0.12, "bucket geometry ceiling {ceiling}");
        assert!(
            report.tau.abs() <= 0.15,
            "shaped τ must collapse, got {}",
            report.tau
        );
        assert!(
            (report.tau - ceiling).abs() <= 0.08,
            "shaped τ {} should track the analytic ceiling {ceiling}",
            report.tau
        );
        // Tail recall falls to chance (~k/bucket ≈ 0.13), far below the
        // control's ≥ 0.9.
        assert!(
            report.tail_recall <= 0.40,
            "shaped tail recall must be near chance, got {}",
            report.tail_recall
        );

        // Shaping may only raise prices, never serve early.
        assert!(report.sweep.min_margin_secs >= -1e-6);
        assert!(report.sweep.total_charged_secs > campaign.analytic_total());

        // Economics stay on the *re-derived* closed forms.
        assert_close(
            median_charge,
            campaign.analytic_shaped_median_user_delay(),
            0.10,
            "shaped median-user delay (shaped Eq. 3)",
        );
        assert_close(
            report.sweep.total_charged_secs,
            campaign.analytic_shaped_total(),
            0.10,
            "shaped adversary total (shaped Eq. 4)",
        );

        let elapsed = wall.elapsed().as_secs_f64();
        assert!(
            elapsed < 20.0,
            "campaign must stay fast, took {elapsed:.2}s"
        );
    });
}

/// The adaptive attacker: probe 32 random tuples, fit the delay-vs-rank
/// power law by matching sorted probe delays to rank order statistics,
/// then sweep and target the slowest-looking eighth. Unshaped it recovers
/// a steep law (true exponent α + β = 2) and captures the tail; shaped,
/// targeting collapses to chance and the whole attack costs several times
/// more.
#[test]
fn adaptive_attacker_only_profits_unshaped() {
    check("adaptive_attacker_only_profits_unshaped", 43, |seed| {
        let wall = Instant::now();
        // k = n/8: the popularity tracker's rank sketch bands ~16
        // adjacent tail ranks together (delays are flat within a band),
        // so the band straddling the cutoff must stay a small fraction
        // of k for the control capture to be sharp.
        let tail_k = 128;

        let mut control = Campaign::new(seed, CampaignParams::sidechannel(false));
        let open = control.adaptive_probe_attack(PROBER_IP, 32, tail_k);
        assert!(
            open.fitted_exponent > 1.0 && open.fitted_exponent < 3.0,
            "control fit should recover a steep power law (α+β = 2), got {}",
            open.fitted_exponent
        );
        assert!(
            open.tail_capture >= 0.9,
            "control targeting must capture the tail, got {}",
            open.tail_capture
        );
        assert!(open.sweep.min_margin_secs >= -1e-6);

        let mut shaped = Campaign::new(seed, CampaignParams::sidechannel(true));
        let defended = shaped.adaptive_probe_attack(PROBER_IP, 32, tail_k);
        // No assertion on the shaped fitted exponent: a probe set that
        // happens to straddle the bucket boundary still yields a steep
        // two-level "fit" — the collapse shows up where it matters, in
        // targeting accuracy and price.
        assert!(
            defended.tail_capture <= 0.40,
            "shaped targeting must fall to chance, got {}",
            defended.tail_capture
        );
        assert!(defended.sweep.min_margin_secs >= -1e-6);
        let price_ratio = defended.sweep.total_charged_secs / open.sweep.total_charged_secs;
        assert!(
            price_ratio >= 2.5,
            "shaping must make the attack several times pricier, ratio {price_ratio:.2}"
        );

        let elapsed = wall.elapsed().as_secs_f64();
        assert!(
            elapsed < 20.0,
            "campaign must stay fast, took {elapsed:.2}s"
        );
    });
}

/// Disabled shaping is inert end to end: a control world whose (disabled)
/// shaping carries arbitrary geometry and seed produces the bit-identical
/// wire digest of a plain control world — the pre-PR behavior — while an
/// *enabled* shaping visibly changes the trace.
#[test]
fn disabled_shaping_is_inert_end_to_end() {
    check("disabled_shaping_is_inert_end_to_end", 44, |seed| {
        let short_crawl = |params: CampaignParams| {
            let mut campaign = Campaign::new(seed, params);
            let ranks: Vec<u64> = (1..=32).collect();
            let report = campaign.crawl_observations(CRAWLER_IP, &ranks);
            (campaign.world().digest(), report.total_charged_secs)
        };

        let (plain_digest, plain_total) = short_crawl(CampaignParams::sidechannel(false));

        // Same world, but the disabled knob carries a loud geometry.
        let mut loud_but_off = CampaignParams::sidechannel(false);
        let mut s = DelayShaping::new(123.0, 7.0, 0.5, 0xDEAD_BEEF);
        s.enabled = false;
        loud_but_off.shaping = s;
        let (off_digest, off_total) = short_crawl(loud_but_off);
        assert_eq!(
            plain_digest, off_digest,
            "disabled shaping must not perturb the execution"
        );
        assert_eq!(plain_total.to_bits(), off_total.to_bits());

        // And the enabled defense actually changes the wire trace.
        let (shaped_digest, shaped_total) = short_crawl(CampaignParams::sidechannel(true));
        assert_ne!(plain_digest, shaped_digest);
        assert!(shaped_total > plain_total);
    });
}

/// Randomized-robustness sweep: for several seeds, the shaped campaign
/// replays bit-identically and the collapse + economics bounds hold.
#[test]
fn shaped_campaigns_replay_across_seeds() {
    check_seeds(
        "shaped_campaigns_replay_across_seeds",
        &[2004, 0x51DE],
        |seed| {
            let (campaign, median_charge, report) = rank_inference_campaign(seed, true);
            let (campaign2, median_charge2, report2) = rank_inference_campaign(seed, true);
            assert_eq!(campaign.world().digest(), campaign2.world().digest());
            assert_eq!(median_charge.to_bits(), median_charge2.to_bits());
            assert_eq!(report.tau.to_bits(), report2.tau.to_bits());
            assert!(report.tau.abs() <= 0.15, "τ = {}", report.tau);
            assert!(report.tail_recall <= 0.40);
            assert!(report.sweep.min_margin_secs >= -1e-6);
            assert_close(
                report.sweep.total_charged_secs,
                campaign.analytic_shaped_total(),
                0.10,
                "shaped adversary total",
            );
        },
    );
}
