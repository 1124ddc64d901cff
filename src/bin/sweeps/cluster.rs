//! Cluster-scale serving sweep: 1M+ requests across 512–2048 simulated
//! cards, routed over a hierarchical box/switch topology.
//!
//! One saturating cluster-wide stream is split by the front-end router
//! across `boxes x cards_per_box` serving engines; every box runs the full
//! continuous-batching engine on the indexed event calendar, and every
//! box's cards fold into one cluster-level report. The sweep covers:
//!
//! - a **headline cell**: 1,000,000 requests across 512 cards (64 boxes
//!   x 8), gated to finish in <= 10 s wall-clock;
//! - **scale cells** at 1024 and 2048 cards under the same stream, for
//!   the scaling table;
//! - a **router comparison** (round-robin / least-loaded / locality) on a
//!   4x-oversubscribed switch tier;
//! - an **oversubscription pair** pinning that a fatter switch tier
//!   injects strictly more cross-box arrival delay.
//!
//! Gates: request conservation in every cell (offered, terminated once,
//! per-box offered summing to the stream); locality's zero cross-box
//! traffic vs the balanced routers' non-zero; round-robin's exactly-even
//! per-box request counts; least-loaded token imbalance <= locality's;
//! equal cross-box counts but strictly more delay at 16x than at 1x
//! oversubscription; and the headline cell's size and wall-clock budget,
//! checked on both passes.
//!
//! Artifact: `results/CLUSTER_7.json`.

use crate::cells::report_digest;
use crate::Outcome;
use gaudi_exec::ExecPool;
use gaudi_profiler::report::TextTable;
use gaudi_serving::{
    simulate_cluster_with, ClusterConfig, ClusterReport, ExecPolicy, PlanCache, PlanSharing,
    RouterPolicy, ServingConfig, TrafficConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Cluster-wide arrival rate, req/s. High enough that boxes batch deeply;
/// the stream spans `num_requests / RATE` seconds of virtual time.
const RATE: f64 = 250_000.0;
/// Switch-tier oversubscription for the headline/router/scale cells.
const OVERSUB: f64 = 4.0;
/// Headline wall-clock budget, seconds.
const WALL_BUDGET_S: f64 = 10.0;

/// Cell shapes as `(boxes, cards_per_box, num_requests)`.
const HEADLINE: (usize, usize, usize) = (64, 8, 1_000_000);
const SCALE: [(usize, usize, usize); 2] = [(128, 8, 250_000), (256, 8, 250_000)];
const ROUTER: (usize, usize, usize) = (16, 8, 100_000);
const OVERSUB_PAIR: (usize, usize, usize) = (8, 4, 20_000);

/// The cluster-sweep operating point: a tiny decoder-only model (the sweep
/// measures the *cluster* machinery — routing, sharding, merge — not model
/// compute) under a cluster-wide saturating stream of `num_requests`
/// requests at `rate` req/s, served by `boxes` × `cards_per_box` cards.
/// Traces are off: a million-request calendar must keep memory flat.
fn config((boxes, cards_per_box, num_requests): (usize, usize, usize)) -> ClusterConfig {
    let mut model = gaudi_models::LlmConfig::tiny(97);
    model.training = false;
    let base = ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: RATE,
            num_requests,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed: 2027,
        })
        .max_batch(16)
        .ctx_bucket(32)
        .record_trace(false)
        .build();
    ClusterConfig::new(base, boxes, cards_per_box)
}

/// [`report_digest`] extended with the routing telemetry a cluster run
/// adds on top of its merged report: fleet shape, router, cross-box
/// traffic, and the per-box request/token split.
fn cluster_digest(c: &ClusterReport) -> String {
    let per_box = c
        .per_box
        .iter()
        .map(|b| {
            format!(
                "{}:{}:{}:{}",
                b.box_id, b.offered, b.completed, b.routed_tokens
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{}|{}x{}|{}|{}|{:.6}|{:.6}|[{per_box}]",
        report_digest(&c.report),
        c.boxes,
        c.cards_per_box,
        c.router.name(),
        c.cross_box_requests,
        c.cross_box_delay_ms,
        c.imbalance(),
    )
}

fn cell_json(label: &str, c: &ClusterReport) -> String {
    format!(
        "    {{\"cell\": \"{label}\", \"boxes\": {}, \"cards_per_box\": {}, \
         \"devices\": {}, \"router\": \"{}\", \"offered\": {}, \"completed\": {}, \
         \"goodput_tok_s\": {:.6}, \"makespan_ms\": {:.6}, \"ttft_p99_ms\": {:.6}, \
         \"cross_box_requests\": {}, \"cross_box_delay_ms\": {:.6}, \
         \"imbalance\": {:.6}}}",
        c.boxes,
        c.cards_per_box,
        c.boxes * c.cards_per_box,
        c.router.name(),
        c.report.offered,
        c.report.completed.len(),
        c.report.goodput_tokens_per_s,
        c.report.makespan_ms,
        c.report.ttft_ms.p99,
        c.cross_box_requests,
        c.cross_box_delay_ms,
        c.imbalance(),
    )
}

fn conservation(label: &str, c: &ClusterReport, expected: usize) {
    assert_eq!(c.report.offered, expected, "{label}: offered mismatch");
    assert_eq!(
        c.report.completed.len() + c.report.dropped.len(),
        expected,
        "{label}: every request must terminate exactly once"
    );
    assert_eq!(
        c.per_box.iter().map(|b| b.offered).sum::<usize>(),
        expected,
        "{label}: per-box offered must sum to the stream"
    );
}

pub fn run(pool: &ExecPool, cache: &Arc<PlanCache>) -> Outcome {
    let policy = ExecPolicy {
        pool: pool.clone(),
        plans: PlanSharing::Shared(Arc::clone(cache)),
    };
    let simulate =
        |cfg: &ClusterConfig| simulate_cluster_with(cfg, &policy).expect("cluster cell simulates");
    let mut out = String::new();
    outln!(
        out,
        "Extension: cluster-scale serving — router x switch tier x fleet size\n"
    );
    let (hb, hc, hn) = HEADLINE;
    outln!(
        out,
        "headline: {hn} requests at {RATE:.0} req/s across {} cards \
         ({hb} boxes x {hc}), switch oversubscription {OVERSUB}x\n",
        hb * hc,
    );

    let t0 = Instant::now();
    let headline = simulate(&config(HEADLINE).oversubscription(OVERSUB));
    let headline_wall_s = t0.elapsed().as_secs_f64();
    let scale: Vec<ClusterReport> = SCALE
        .iter()
        .map(|&shape| simulate(&config(shape).oversubscription(OVERSUB)))
        .collect();
    let routers: Vec<(RouterPolicy, ClusterReport)> = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::Locality,
    ]
    .into_iter()
    .map(|r| {
        let cfg = config(ROUTER).router(r).oversubscription(OVERSUB);
        (r, simulate(&cfg))
    })
    .collect();
    let thin = simulate(&config(OVERSUB_PAIR).oversubscription(1.0));
    let fat = simulate(&config(OVERSUB_PAIR).oversubscription(16.0));

    let mut t = TextTable::new(&[
        "Cell",
        "Boxes",
        "Cards",
        "Router",
        "Offered",
        "Completed",
        "Goodput (tok/s)",
        "Makespan (ms)",
        "TTFT p99 (ms)",
        "Cross-box",
        "Imbalance",
    ]);
    let mut row = |label: &str, c: &ClusterReport| {
        t.row(&[
            label.into(),
            c.boxes.to_string(),
            (c.boxes * c.cards_per_box).to_string(),
            c.router.name().into(),
            c.report.offered.to_string(),
            c.report.completed.len().to_string(),
            format!("{:.0}", c.report.goodput_tokens_per_s),
            format!("{:.1}", c.report.makespan_ms),
            format!("{:.2}", c.report.ttft_ms.p99),
            format!("{:.1}%", 100.0 * c.cross_box_fraction()),
            format!("{:.3}", c.imbalance()),
        ]);
    };
    row("headline", &headline);
    for c in &scale {
        row("scale", c);
    }
    for (_, c) in &routers {
        row("router", c);
    }
    row("oversub 1x", &thin);
    row("oversub 16x", &fat);
    outln!(out, "{}", t.render());
    outln!(
        out,
        "Reading: the router trades locality against balance — round-robin\n\
         evens request counts but ships most prompts across the switch tier,\n\
         locality never crosses but inherits the session hash's skew. An\n\
         oversubscribed switch makes every off-home prompt wait longer for\n\
         its transfer, delaying effective arrival at the target box.\n"
    );

    // 1. Conservation: every request terminates exactly once, cluster-wide.
    conservation("headline", &headline, hn);
    for (c, &(_, _, n)) in scale.iter().zip(&SCALE) {
        conservation("scale", c, n);
    }
    for (r, c) in &routers {
        conservation(r.name(), c, ROUTER.2);
    }
    conservation("oversub thin", &thin, OVERSUB_PAIR.2);
    conservation("oversub fat", &fat, OVERSUB_PAIR.2);
    outln!(
        out,
        "request conservation: every cell terminates its full stream exactly once"
    );

    // 2. Router contract: locality never crosses; balanced routers do;
    //    round-robin splits request counts exactly evenly.
    for (r, c) in &routers {
        match r {
            RouterPolicy::Locality => {
                assert_eq!(c.cross_box_requests, 0, "locality must never cross boxes");
                assert_eq!(c.cross_box_delay_ms, 0.0);
            }
            RouterPolicy::RoundRobin => {
                assert!(c.cross_box_requests > 0, "round-robin must ship off-home");
                let per = ROUTER.2 / ROUTER.0;
                for b in &c.per_box {
                    assert_eq!(b.offered, per, "round-robin counts must be exactly even");
                }
            }
            RouterPolicy::LeastLoaded => {
                assert!(c.cross_box_requests > 0, "least-loaded must ship off-home");
            }
        }
    }
    let ll = &routers[1].1;
    let local = &routers[2].1;
    assert!(
        ll.imbalance() <= local.imbalance() + 1e-12,
        "token balancing must beat (or tie) the session hash: {} vs {}",
        ll.imbalance(),
        local.imbalance()
    );
    outln!(
        out,
        "router contract: locality 0 cross-box; round-robin {} ({:.1}%) with even counts; \
         least-loaded imbalance {:.3} <= locality {:.3}",
        routers[0].1.cross_box_requests,
        100.0 * routers[0].1.cross_box_fraction(),
        ll.imbalance(),
        local.imbalance()
    );

    // 3. The switch tier is priced: same stream, fatter oversubscription,
    //    strictly more injected arrival delay.
    assert_eq!(thin.cross_box_requests, fat.cross_box_requests);
    assert!(
        fat.cross_box_delay_ms > thin.cross_box_delay_ms,
        "16x oversubscription must delay cross-box prompts more: {} vs {} ms",
        fat.cross_box_delay_ms,
        thin.cross_box_delay_ms
    );
    outln!(
        out,
        "switch tier: cross-box delay {:.3} ms at 1x -> {:.3} ms at 16x oversubscription",
        thin.cross_box_delay_ms,
        fat.cross_box_delay_ms
    );

    // 4. Headline wall-clock budget.
    outln!(
        out,
        "headline wall-clock: {hn} requests on {} cards in {headline_wall_s:.2} s \
         (gate: <= {WALL_BUDGET_S} s)",
        hb * hc,
    );
    assert!(hn >= 1_000_000 && hb * hc >= 512, "headline cell shrank");
    assert!(
        headline_wall_s <= WALL_BUDGET_S,
        "headline must finish in {WALL_BUDGET_S} s, took {headline_wall_s:.2} s"
    );

    let cells = std::iter::once(("headline", &headline))
        .chain(scale.iter().map(|c| ("scale", c)))
        .chain(routers.iter().map(|(_, c)| ("router", c)))
        .chain([("oversub_thin", &thin), ("oversub_fat", &fat)]);
    let (digest, rows): (Vec<String>, Vec<String>) = cells
        .map(|(label, c)| (cluster_digest(c), cell_json(label, c)))
        .unzip();
    let json = format!(
        "{{\n  \"sweep\": \"cluster-scale serving, tiny decoder, {RATE:.0} req/s, \
         {OVERSUB}x oversubscribed switch\",\n  \
         \"headline\": {{\"requests\": {hn}, \"devices\": {}, \
         \"wall_budget_s\": {WALL_BUDGET_S}}},\n  \"bit_identical\": true,\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        hb * hc,
        rows.join(",\n"),
    );
    Outcome {
        text: out,
        digest: digest.join("\n"),
        artifacts: vec![json],
    }
}
