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
//! Tables (`results/cluster.json`): `cells`, one row per cell with its
//! routing telemetry; `boxes`, each cell's per-box request and token
//! split. The headline wall-clock time is printed, never written: it is
//! the one number the two passes need not agree on.

use crate::cells::{report_values, REPORT_COLUMNS};
use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_exec::ExecPool;
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
    let (hb, hc, hn) = HEADLINE;
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

    // Every cell as `(label, switch oversubscription, report)`.
    let cells: Vec<(String, f64, &ClusterReport)> =
        std::iter::once(("headline".into(), OVERSUB, &headline))
            .chain(
                scale
                    .iter()
                    .map(|c| (format!("scale_{}", c.boxes * c.cards_per_box), OVERSUB, c)),
            )
            .chain(
                routers
                    .iter()
                    .map(|(r, c)| (format!("router_{}", r.name()), OVERSUB, c)),
            )
            .chain([
                ("oversub_1x".into(), 1.0, &thin),
                ("oversub_16x".into(), 16.0, &fat),
            ])
            .collect();
    let mut t = Table::new(
        "cells",
        [
            col("cell", "", 0),
            col("boxes", "", 0),
            col("cards_per_box", "", 0),
            col("router", "", 0),
            col("oversubscription", "x", 0),
            col("cross_box_requests", "", 0),
            col("cross_box_frac", "frac", 3),
            col("cross_box_delay", "ms", 3),
            col("imbalance", "x", 3),
        ]
        .into_iter()
        .chain(REPORT_COLUMNS),
    );
    let mut boxes = Table::new(
        "boxes",
        [
            col("cell", "", 0),
            col("box", "", 0),
            col("offered", "", 0),
            col("completed", "", 0),
            col("routed_tokens", "tok", 0),
        ],
    );
    for (label, oversub, c) in &cells {
        t.row(
            [
                Value::from(label.as_str()),
                c.boxes.into(),
                c.cards_per_box.into(),
                c.router.name().into(),
                (*oversub).into(),
                c.cross_box_requests.into(),
                c.cross_box_fraction().into(),
                c.cross_box_delay_ms.into(),
                c.imbalance().into(),
            ]
            .into_iter()
            .chain(report_values(&c.report)),
        );
        for b in &c.per_box {
            boxes.row([
                Value::from(label.as_str()),
                b.box_id.into(),
                b.offered.into(),
                b.completed.into(),
                b.routed_tokens.into(),
            ]);
        }
    }

    let mut out = String::new();
    outln!(
        out,
        "Cluster-scale serving, router x switch tier x fleet size: a tiny decoder;\n\
         headline {hn} requests at {RATE:.0} req/s across {} cards ({hb} boxes x {hc}),\n\
         switch oversubscription {OVERSUB}x.\n",
        hb * hc,
    );
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

    Outcome {
        tables: vec![t, boxes],
        text: out,
        artifacts: vec![],
    }
}
