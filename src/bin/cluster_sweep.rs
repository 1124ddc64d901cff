//! Extension: cluster-scale serving sweep — 1M+ requests across 512–2048
//! simulated cards, routed over a hierarchical box/switch topology.
//!
//! The PR-7 acceptance harness. One saturating cluster-wide stream is
//! split by the front-end router across `boxes x cards_per_box` serving
//! engines; every box runs the full continuous-batching engine on the
//! indexed event calendar, and every box's cards fold into one
//! cluster-level report. The sweep covers:
//!
//! - a **headline cell**: >= 1,000,000 requests across 512 cards
//!   (64 boxes x 8), gated to finish in <= 10 s wall-clock;
//! - **scale cells** at 1024 and 2048 cards under the same stream, for
//!   the scaling table;
//! - a **router comparison** (round-robin / least-loaded / locality) on a
//!   4x-oversubscribed switch tier;
//! - an **oversubscription pair** pinning that a fatter switch tier
//!   injects strictly more cross-box arrival delay.
//!
//! Gates (asserted, not just printed): request conservation in every
//! cell, locality's zero cross-box traffic vs the balanced routers'
//! non-zero, round-robin's exactly-even per-box request counts, the
//! headline wall-clock budget, and two-run bit-identity of every digest
//! and of the `results/CLUSTER_7.json` bytes.
//!
//! ```sh
//! cargo run --release --bin cluster_sweep [-- --threads N] [--quick]
//! ```

use gaudi_profiler::report::TextTable;
use gaudi_serving::{
    simulate_cluster_with, ClusterConfig, ClusterReport, ExecPolicy, PlanCache, PlanSharing,
    RouterPolicy,
};
use habana_gaudi_study::bin_support::{cluster_digest, cluster_sweep_config, Flags};
use std::sync::Arc;
use std::time::Instant;

/// Cluster-wide arrival rate, req/s. High enough that boxes batch deeply;
/// the stream spans `num_requests / RATE` seconds of virtual time.
const RATE: f64 = 250_000.0;
/// Switch-tier oversubscription for the headline/router/scale cells.
const OVERSUB: f64 = 4.0;
/// Headline wall-clock budget, seconds (full mode only).
const WALL_BUDGET_S: f64 = 10.0;

struct SweepShape {
    headline: (usize, usize, usize),
    scale: Vec<(usize, usize, usize)>,
    router: (usize, usize, usize),
    oversub_pair: (usize, usize, usize),
}

impl SweepShape {
    fn full() -> Self {
        SweepShape {
            headline: (64, 8, 1_000_000),
            scale: vec![(128, 8, 250_000), (256, 8, 250_000)],
            router: (16, 8, 100_000),
            oversub_pair: (8, 4, 20_000),
        }
    }

    /// CI smoke: same shape, two orders of magnitude smaller.
    fn quick() -> Self {
        SweepShape {
            headline: (8, 4, 20_000),
            scale: vec![(16, 4, 10_000), (32, 4, 10_000)],
            router: (4, 4, 8_000),
            oversub_pair: (4, 2, 4_000),
        }
    }
}

struct Sweep {
    headline: ClusterReport,
    headline_wall_s: f64,
    scale: Vec<ClusterReport>,
    routers: Vec<(RouterPolicy, ClusterReport)>,
    thin: ClusterReport,
    fat: ClusterReport,
    digest: String,
}

fn run(cfg: &ClusterConfig, policy: &ExecPolicy) -> ClusterReport {
    simulate_cluster_with(cfg, policy).expect("cluster cell simulates")
}

fn sweep(shape: &SweepShape, policy: &ExecPolicy) -> Sweep {
    let (hb, hc, hn) = shape.headline;
    let headline_cfg = cluster_sweep_config(hb, hc, hn, RATE).oversubscription(OVERSUB);
    let t0 = Instant::now();
    let headline = run(&headline_cfg, policy);
    let headline_wall_s = t0.elapsed().as_secs_f64();

    let scale: Vec<ClusterReport> = shape
        .scale
        .iter()
        .map(|&(b, c, n)| {
            run(
                &cluster_sweep_config(b, c, n, RATE).oversubscription(OVERSUB),
                policy,
            )
        })
        .collect();

    let (rb, rc, rn) = shape.router;
    let routers: Vec<(RouterPolicy, ClusterReport)> = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastLoaded,
        RouterPolicy::Locality,
    ]
    .into_iter()
    .map(|r| {
        let cfg = cluster_sweep_config(rb, rc, rn, RATE)
            .router(r)
            .oversubscription(OVERSUB);
        (r, run(&cfg, policy))
    })
    .collect();

    let (ob, oc, on) = shape.oversub_pair;
    let thin = run(
        &cluster_sweep_config(ob, oc, on, RATE).oversubscription(1.0),
        policy,
    );
    let fat = run(
        &cluster_sweep_config(ob, oc, on, RATE).oversubscription(16.0),
        policy,
    );

    let digest = std::iter::once(&headline)
        .chain(&scale)
        .chain(routers.iter().map(|(_, r)| r))
        .chain([&thin, &fat])
        .map(cluster_digest)
        .collect::<Vec<_>>()
        .join("\n");
    Sweep {
        headline,
        headline_wall_s,
        scale,
        routers,
        thin,
        fat,
        digest,
    }
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

fn main() {
    let flags = Flags::parse(
        "cluster_sweep [--threads N] [--quick]",
        &["--threads"],
        &["--quick"],
    );
    let quick = flags.switch("--quick");
    let shape = if quick {
        SweepShape::quick()
    } else {
        SweepShape::full()
    };
    let policy = ExecPolicy {
        pool: flags.pool(),
        plans: PlanSharing::Shared(Arc::new(PlanCache::new())),
    };

    println!("Extension: cluster-scale serving — router x switch tier x fleet size\n");
    let (hb, hc, hn) = shape.headline;
    println!(
        "headline: {hn} requests at {RATE:.0} req/s across {} cards \
         ({hb} boxes x {hc}), switch oversubscription {OVERSUB}x{}\n",
        hb * hc,
        if quick { " [--quick]" } else { "" },
    );
    let s = sweep(&shape, &policy);

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
    row("headline", &s.headline);
    for c in &s.scale {
        row("scale", c);
    }
    for (_, c) in &s.routers {
        row("router", c);
    }
    row("oversub 1x", &s.thin);
    row("oversub 16x", &s.fat);
    println!("{}", t.render());
    println!(
        "Reading: the router trades locality against balance — round-robin\n\
         evens request counts but ships most prompts across the switch tier,\n\
         locality never crosses but inherits the session hash's skew. An\n\
         oversubscribed switch makes every off-home prompt wait longer for\n\
         its transfer, delaying effective arrival at the target box.\n"
    );

    // 1. Conservation: every request terminates exactly once, cluster-wide.
    conservation("headline", &s.headline, hn);
    for (c, &(_, _, n)) in s.scale.iter().zip(&shape.scale) {
        conservation("scale", c, n);
    }
    for (r, c) in &s.routers {
        conservation(r.name(), c, shape.router.2);
    }
    conservation("oversub thin", &s.thin, shape.oversub_pair.2);
    conservation("oversub fat", &s.fat, shape.oversub_pair.2);
    println!("request conservation: every cell terminates its full stream exactly once");

    // 2. Router contract: locality never crosses; balanced routers do;
    //    round-robin splits request counts exactly evenly.
    for (r, c) in &s.routers {
        match r {
            RouterPolicy::Locality => {
                assert_eq!(c.cross_box_requests, 0, "locality must never cross boxes");
                assert_eq!(c.cross_box_delay_ms, 0.0);
            }
            RouterPolicy::RoundRobin => {
                assert!(c.cross_box_requests > 0, "round-robin must ship off-home");
                let per = shape.router.2 / shape.router.0;
                for b in &c.per_box {
                    assert_eq!(b.offered, per, "round-robin counts must be exactly even");
                }
            }
            RouterPolicy::LeastLoaded => {
                assert!(c.cross_box_requests > 0, "least-loaded must ship off-home");
            }
        }
    }
    let ll = &s.routers[1].1;
    let local = &s.routers[2].1;
    assert!(
        ll.imbalance() <= local.imbalance() + 1e-12,
        "token balancing must beat (or tie) the session hash: {} vs {}",
        ll.imbalance(),
        local.imbalance()
    );
    println!(
        "router contract: locality 0 cross-box; round-robin {} ({:.1}%) with even counts; \
         least-loaded imbalance {:.3} <= locality {:.3}",
        s.routers[0].1.cross_box_requests,
        100.0 * s.routers[0].1.cross_box_fraction(),
        ll.imbalance(),
        local.imbalance()
    );

    // 3. The switch tier is priced: same stream, fatter oversubscription,
    //    strictly more injected arrival delay.
    assert_eq!(s.thin.cross_box_requests, s.fat.cross_box_requests);
    assert!(
        s.fat.cross_box_delay_ms > s.thin.cross_box_delay_ms,
        "16x oversubscription must delay cross-box prompts more: {} vs {} ms",
        s.fat.cross_box_delay_ms,
        s.thin.cross_box_delay_ms
    );
    println!(
        "switch tier: cross-box delay {:.3} ms at 1x -> {:.3} ms at 16x oversubscription",
        s.thin.cross_box_delay_ms, s.fat.cross_box_delay_ms
    );

    // 4. Headline wall-clock budget (full mode; quick cells are too small
    //    to say anything about throughput).
    println!(
        "headline wall-clock: {} requests on {} cards in {:.2} s{}",
        hn,
        hb * hc,
        s.headline_wall_s,
        if quick {
            " (budget not gated under --quick)".to_string()
        } else {
            format!(" (gate: <= {WALL_BUDGET_S} s)")
        }
    );
    if !quick {
        assert!(hn >= 1_000_000 && hb * hc >= 512, "headline cell shrank");
        assert!(
            s.headline_wall_s <= WALL_BUDGET_S,
            "headline must finish in {WALL_BUDGET_S} s, took {:.2} s",
            s.headline_wall_s
        );
    }

    // 5. Bit-identical reproduction, including the JSON artifact bytes.
    let again = sweep(&shape, &policy);
    let reproducible = s.digest == again.digest;
    println!("re-run with identical seed reproduces every cell: {reproducible}");
    assert!(reproducible, "the cluster sweep must be deterministic");

    let json_of = |s: &Sweep| {
        let mut rows: Vec<String> = Vec::new();
        rows.push(cell_json("headline", &s.headline));
        for c in &s.scale {
            rows.push(cell_json("scale", c));
        }
        for (_, c) in &s.routers {
            rows.push(cell_json("router", c));
        }
        rows.push(cell_json("oversub_thin", &s.thin));
        rows.push(cell_json("oversub_fat", &s.fat));
        format!(
            "{{\n  \"sweep\": \"cluster-scale serving, tiny decoder, {RATE:.0} req/s, \
             {OVERSUB}x oversubscribed switch\",\n  \"quick\": {quick},\n  \
             \"headline\": {{\"requests\": {hn}, \"devices\": {}, \
             \"wall_budget_s\": {WALL_BUDGET_S}}},\n  \"bit_identical\": true,\n  \
             \"cells\": [\n{}\n  ]\n}}\n",
            hb * hc,
            rows.join(",\n"),
        )
    };
    let json = json_of(&s);
    assert_eq!(
        json,
        json_of(&again),
        "CLUSTER_7.json must be bit-identical"
    );
    let out = std::path::Path::new("results").join("CLUSTER_7.json");
    std::fs::create_dir_all("results").expect("results/ exists or is creatable");
    std::fs::write(&out, &json).expect("CLUSTER_7.json is writable");
    println!("\nwrote {}", out.display());
}
