//! Cluster layer: route one request stream across per-box serving engines.
//!
//! The engine ([`crate::engine`]) simulates one box — up to a handful of
//! data-parallel replica cards behind one admission queue. This module
//! scales the same machinery to a datacenter row: a front-end router
//! splits the stream over `boxes` independent boxes of `cards_per_box`
//! cards each, every box runs the full continuous-batching engine, and
//! every card of every box folds into one cluster-level [`ServingReport`]
//! through the same merge that folds a box's replicas, with the same
//! conservation invariants (every request terminates exactly once,
//! cluster-wide).
//!
//! Routing is where cluster serving differs from a big box. Each request
//! has a deterministic **home box** — a hash of its id, standing in for
//! session affinity (its conversation history / prefix KV lives there).
//! The three [`RouterPolicy`]s trade locality against balance:
//!
//! - [`Locality`](RouterPolicy::Locality) always routes home: zero
//!   cross-box traffic, load as uneven as the hash happens to land;
//! - [`RoundRobin`](RouterPolicy::RoundRobin) perfectly balances request
//!   *counts*, shipping most requests off-home;
//! - [`LeastLoaded`](RouterPolicy::LeastLoaded) balances outstanding
//!   routed *tokens* (a static estimate — the router does not watch
//!   completions), also mostly off-home.
//!
//! An off-home request pays the switch tier: its prompt (4 bytes per
//! token) crosses the inter-box fabric of the hierarchical
//! [`Topology`], and the transfer time (oversubscribed bandwidth plus two
//! switch hops — [`Topology::cross_box_transfer_ns`]) delays the
//! request's effective arrival at the target box. Everything stays a pure
//! function of the configuration: boxes fan out over the policy's
//! [`gaudi_exec::ExecPool`] but are merged in box order, so the cluster
//! report is bit-identical across execution policies.

use crate::engine::{check_config, into_inner, simulate_records, take, ExecPolicy, ServingConfig};
use crate::error::ServingError;
use crate::idhash::splitmix64;
use crate::report::{Ranks, Records, ServingReport, Tally};
use crate::request::{ceil_us, generate_requests, Request};
use gaudi_hw::Topology;
use std::sync::Mutex;

/// How the front-end router assigns requests to boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Strict arrival-order round-robin over the boxes: request counts
    /// balance exactly, locality is ignored.
    #[default]
    RoundRobin,
    /// Route each request to the box with the fewest outstanding routed
    /// tokens (ties to the lowest box index): token load balances,
    /// locality is ignored.
    LeastLoaded,
    /// Route each request to its home box: no cross-box traffic, load as
    /// even as the session hash.
    Locality,
}

impl RouterPolicy {
    /// Short name for tables and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round_robin",
            RouterPolicy::LeastLoaded => "least_loaded",
            RouterPolicy::Locality => "locality",
        }
    }
}

/// Configuration of a cluster simulation: the fleet shape, the switch
/// tier, the router, and the per-box serving configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of independent serving boxes.
    pub boxes: usize,
    /// Data-parallel replica cards per box.
    pub cards_per_box: usize,
    /// Switch-tier oversubscription (`>= 1.0`; 1.0 = non-blocking). See
    /// [`gaudi_hw::SwitchTier`].
    pub oversubscription: f64,
    /// Request-to-box assignment policy.
    pub router: RouterPolicy,
    /// The per-box engine configuration. Its `traffic` describes the
    /// **cluster-wide** stream (the router splits it); its `devices`
    /// field is ignored and replaced by `cards_per_box`. A fault plan, if
    /// any, is applied identically to every box.
    pub box_config: ServingConfig,
}

impl ClusterConfig {
    /// A cluster of `boxes` × `cards_per_box` cards serving
    /// `box_config`'s stream through a non-blocking switch tier and the
    /// default round-robin router.
    pub fn new(box_config: ServingConfig, boxes: usize, cards_per_box: usize) -> Self {
        ClusterConfig {
            boxes,
            cards_per_box,
            oversubscription: 1.0,
            router: RouterPolicy::default(),
            box_config,
        }
    }

    /// The same cluster under a different router policy.
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// The same cluster with an oversubscribed switch tier.
    pub fn oversubscription(mut self, factor: f64) -> Self {
        self.oversubscription = factor;
        self
    }

    /// Total simulated cards.
    pub fn devices(&self) -> usize {
        self.boxes * self.cards_per_box
    }

    /// The hierarchical topology the router prices transfers against.
    pub fn topology(&self) -> Topology {
        Topology::cluster(
            &self.box_config.hw,
            self.boxes,
            self.cards_per_box,
            self.oversubscription,
        )
    }
}

/// Per-box slice of a cluster run, for balance and scaling analysis.
#[derive(Debug, Clone)]
pub struct BoxSummary {
    /// Box index.
    pub box_id: usize,
    /// Requests routed to (and terminated by) this box.
    pub offered: usize,
    /// Requests that completed within every SLO.
    pub completed: usize,
    /// Total tokens routed to this box (the least-loaded router's load
    /// measure).
    pub routed_tokens: u64,
    /// This box's goodput against its own makespan, tokens/s.
    pub goodput_tokens_per_s: f64,
    /// This box's local makespan, ms.
    pub makespan_ms: f64,
    /// This box's card availability against its **own** makespan (the
    /// [`ServingReport::availability`] a run of this box alone reports).
    pub availability: f64,
}

/// Result of a cluster simulation: the cluster-level report plus the
/// routing telemetry and per-box slices a report cannot carry.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The cluster-level report: every card of every box, in box order,
    /// summarized once, as if the cluster were one big box. Its counters
    /// (restarts, checkpoint bytes, restore time, recovered tokens, ...)
    /// are cluster totals.
    pub report: ServingReport,
    /// Fleet shape.
    pub boxes: usize,
    /// Cards per box.
    pub cards_per_box: usize,
    /// The router policy that produced this run.
    pub router: RouterPolicy,
    /// Requests routed off their home box (each paid one cross-box
    /// prompt transfer).
    pub cross_box_requests: usize,
    /// Total arrival delay injected by cross-box prompt transfers, ms.
    pub cross_box_delay_ms: f64,
    /// Per-box slices, in box order.
    pub per_box: Vec<BoxSummary>,
}

impl ClusterReport {
    /// Token-load imbalance across boxes: max routed tokens / mean routed
    /// tokens (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self
            .per_box
            .iter()
            .map(|b| b.routed_tokens)
            .max()
            .unwrap_or(0);
        let total: u64 = self.per_box.iter().map(|b| b.routed_tokens).sum();
        if total == 0 {
            return 1.0;
        }
        max as f64 * self.per_box.len() as f64 / total as f64
    }

    /// Fraction of requests routed off their home box.
    pub fn cross_box_fraction(&self) -> f64 {
        if self.report.offered == 0 {
            return 0.0;
        }
        self.cross_box_requests as f64 / self.report.offered as f64
    }

    /// Device-weighted cluster availability: each box contributes its own
    /// [`BoxSummary::availability`] (measured against its *local*
    /// makespan) weighted by its card count. `self.report.availability()`
    /// keeps an idle or early-finishing box's cards up through the cluster
    /// makespan too; the two gauges differ only in normalizing each box's
    /// down time by its own makespan here and by the cluster's there.
    pub fn availability(&self) -> f64 {
        let cards: usize = self.per_box.len() * self.cards_per_box;
        if cards == 0 {
            return 1.0;
        }
        let weighted: f64 = self
            .per_box
            .iter()
            .map(|b| b.availability * self.cards_per_box as f64)
            .sum();
        weighted / cards as f64
    }

    /// One-paragraph text summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cluster: {} boxes x {} cards ({} devices), router {}\n\
             offered {} | completed {} | dropped {} | goodput {:.0} tok/s\n\
             makespan {:.1} ms | ttft p99 {:.2} ms | cross-box {} ({:.1}%) | imbalance {:.3}",
            self.boxes,
            self.cards_per_box,
            self.boxes * self.cards_per_box,
            self.router.name(),
            self.report.offered,
            self.report.completed.len(),
            self.report.dropped.len(),
            self.report.goodput_tokens_per_s,
            self.report.makespan_ms,
            self.report.ttft_ms.p99,
            self.cross_box_requests,
            100.0 * self.cross_box_fraction(),
            self.imbalance(),
        );
        let r = &self.report;
        if r.restarts > 0 || r.checkpoint_bytes > 0 {
            out.push_str(&format!(
                "\navailability {:.4} | restarts {} | checkpointed {} B | \
                 restored {:.2} ms | recovered {} tok",
                self.availability(),
                r.restarts,
                r.checkpoint_bytes,
                r.restore_ms,
                r.recovered_tokens,
            ));
        }
        out
    }
}

/// Bytes the router ships when a prompt leaves its home box: one `u32`
/// token id per prompt token.
const BYTES_PER_PROMPT_TOKEN: u64 = 4;

/// Run a cluster simulation under the default execution policy.
pub fn simulate_cluster(cfg: &ClusterConfig) -> Result<ClusterReport, ServingError> {
    simulate_cluster_with(cfg, &ExecPolicy::default())
}

/// [`simulate_cluster`] under an explicit [`ExecPolicy`]: boxes fan out
/// across the policy's pool (each box simulates serially inline, so an
/// N-box cluster never nests fan-out), and their counters fold in box
/// order once every box has ended — the report is bit-identical across
/// policies.
pub fn simulate_cluster_with(
    cfg: &ClusterConfig,
    policy: &ExecPolicy,
) -> Result<ClusterReport, ServingError> {
    if cfg.boxes == 0 {
        return Err(ServingError::InvalidConfig(
            "cluster needs at least one box".into(),
        ));
    }
    if cfg.cards_per_box == 0 {
        return Err(ServingError::InvalidConfig(
            "boxes need at least one card".into(),
        ));
    }
    if !(cfg.oversubscription.is_finite() && cfg.oversubscription >= 1.0) {
        return Err(ServingError::InvalidConfig(format!(
            "oversubscription must be a finite factor >= 1.0, got {}",
            cfg.oversubscription
        )));
    }
    cfg.box_config
        .traffic
        .validate()
        .map_err(ServingError::InvalidConfig)?;

    let topo = cfg.topology();
    let mut requests = generate_requests(&cfg.box_config.traffic);
    requests.sort_by_key(|r| (r.arrival_us, r.id));

    // Route the stream. All router state is integer arithmetic over the
    // sorted stream, so the assignment is a pure function of the config.
    let mut shards: Vec<Vec<Request>> = vec![Vec::new(); cfg.boxes];
    let mut routed_tokens: Vec<u64> = vec![0; cfg.boxes];
    let mut rr = 0usize;
    let mut cross_box_requests = 0usize;
    let mut cross_box_delay_ms = 0.0f64;
    for mut r in requests {
        // Session affinity: SplitMix64 scatters consecutive ids uniformly.
        let home = (splitmix64(r.id) % cfg.boxes as u64) as usize;
        let target = match cfg.router {
            RouterPolicy::Locality => home,
            RouterPolicy::RoundRobin => {
                let t = rr;
                rr = (rr + 1) % cfg.boxes;
                t
            }
            // The first box with the fewest routed tokens: ties go low.
            RouterPolicy::LeastLoaded => (1..cfg.boxes).fold(0, |least, b| {
                if routed_tokens[b] < routed_tokens[least] {
                    b
                } else {
                    least
                }
            }),
        };
        routed_tokens[target] += r.total_tokens() as u64;
        if target != home {
            // The prompt crosses the switch tier before the target box
            // can see the request: oversubscribed bandwidth plus two
            // switch hops, quantized up to the engine's µs arrival grid.
            cross_box_requests += 1;
            let ns = topo.cross_box_transfer_ns(r.prompt_len as u64 * BYTES_PER_PROMPT_TOKEN);
            let late = || format!("request {} arrives past the µs clock", r.id);
            r.arrival_us = ceil_us(ns / 1e3)
                .and_then(|delay_us| r.arrival_us.checked_add(delay_us))
                .ok_or_else(|| ServingError::InvalidConfig(late()))?;
            cross_box_delay_ms += ns / 1e6;
        }
        shards[target].push(r);
    }

    // Every box serves its shard with the full engine; boxes are
    // independent, so they are the parallel grain (serial inline within a
    // box), all in one fan-out. Each box takes its routed shard instead of
    // copying it, and its cards place their records in the cluster's slots
    // as they run, so what a box returns is counters only; those fold in
    // box order afterwards, and the pool surfaces the lowest-index error.
    let mut box_cfg = cfg.box_config.clone();
    box_cfg.devices = cfg.cards_per_box;
    check_config(&box_cfg)?;
    let inner = ExecPolicy {
        pool: gaudi_exec::ExecPool::serial(),
        plans: policy.plans.clone(),
    };
    // The generator numbers the stream `0..num_requests`, so each record's
    // slot is its id.
    let records = Mutex::new(Records::new(Ranks::Range {
        first: 0,
        len: cfg.box_config.traffic.num_requests,
    }));
    let shards: Vec<Mutex<Vec<Request>>> = shards.into_iter().map(Mutex::new).collect();
    let parts = policy.pool.try_par_map(&shards, |_, shard| {
        simulate_records(&box_cfg, take(shard), &inner, &records)
    })?;
    let mut cluster = Tally::default();
    let mut per_box = Vec::with_capacity(cfg.boxes);
    for (b, part) in parts.into_iter().enumerate() {
        per_box.push(BoxSummary {
            box_id: b,
            offered: part.report.offered,
            completed: part.completed,
            routed_tokens: routed_tokens[b],
            goodput_tokens_per_s: part.goodput_tokens_per_s(),
            makespan_ms: part.report.makespan_ms,
            availability: part.availability(),
        });
        cluster.absorb(part);
    }

    Ok(ClusterReport {
        report: cluster.finish(into_inner(records)),
        boxes: cfg.boxes,
        cards_per_box: cfg.cards_per_box,
        router: cfg.router,
        cross_box_requests,
        cross_box_delay_ms,
        per_box,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TrafficConfig;
    use gaudi_models::LlmConfig;

    fn cluster_config(boxes: usize, cards: usize, requests: usize) -> ClusterConfig {
        let mut model = LlmConfig::tiny(97);
        model.training = false;
        let base = ServingConfig::builder()
            .model(model)
            .traffic(TrafficConfig {
                arrival_rate_per_s: 2_000.0,
                num_requests: requests,
                prompt_range: (8, 64),
                output_range: (4, 16),
                zipf_s: 1.1,
                seed: 2024,
            })
            .max_batch(4)
            .ctx_bucket(32)
            .record_trace(false)
            .build();
        ClusterConfig::new(base, boxes, cards)
    }

    #[test]
    fn cluster_conserves_every_request_exactly_once() {
        for router in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::Locality,
        ] {
            let cfg = cluster_config(4, 2, 120).router(router);
            let c = simulate_cluster(&cfg).unwrap();
            assert_eq!(c.report.offered, 120, "router {router:?}");
            assert_eq!(
                c.report.completed.len() + c.report.dropped.len(),
                120,
                "router {router:?}"
            );
            assert_eq!(c.report.devices, 8);
            assert_eq!(
                c.per_box.iter().map(|b| b.offered).sum::<usize>(),
                120,
                "router {router:?}"
            );
        }
    }

    #[test]
    fn locality_never_crosses_boxes_and_balanced_routers_do() {
        let local =
            simulate_cluster(&cluster_config(4, 1, 100).router(RouterPolicy::Locality)).unwrap();
        assert_eq!(local.cross_box_requests, 0);
        assert_eq!(local.cross_box_delay_ms, 0.0);

        let rr =
            simulate_cluster(&cluster_config(4, 1, 100).router(RouterPolicy::RoundRobin)).unwrap();
        assert!(rr.cross_box_requests > 0, "round-robin must ship off-home");
        assert!(rr.cross_box_delay_ms > 0.0);
        // Round-robin request counts are exactly even.
        for b in &rr.per_box {
            assert_eq!(b.offered, 25);
        }

        let ll =
            simulate_cluster(&cluster_config(4, 1, 100).router(RouterPolicy::LeastLoaded)).unwrap();
        assert!(ll.cross_box_requests > 0);
        // Token balancing beats (or ties) the hash's token balance.
        assert!(ll.imbalance() <= local.imbalance() + 1e-12);
    }

    #[test]
    fn least_loaded_routes_equal_requests_like_round_robin() {
        // Every request has the same length, so every routed request adds
        // the same tokens: the least-loaded box is the first one of the
        // fewest requests, which is round-robin's next box, ties going to
        // the lowest box.
        for (boxes, cards) in [(3, 1), (4, 2), (5, 1)] {
            let mut cfg = cluster_config(boxes, cards, 97);
            cfg.box_config.traffic.prompt_range = (24, 24);
            cfg.box_config.traffic.output_range = (6, 6);
            let rr = simulate_cluster(&cfg.clone().router(RouterPolicy::RoundRobin)).unwrap();
            let mut ll = simulate_cluster(&cfg.router(RouterPolicy::LeastLoaded)).unwrap();
            assert_eq!(ll.router, RouterPolicy::LeastLoaded);
            ll.router = RouterPolicy::RoundRobin;
            assert_eq!(format!("{ll:?}"), format!("{rr:?}"), "{boxes} boxes");
        }
    }

    #[test]
    fn cross_box_transfers_delay_arrivals_through_the_switch_tier() {
        // Same cluster, fatter oversubscription: off-home requests wait
        // longer for their prompt, so total injected delay grows.
        let thin = simulate_cluster(&cluster_config(4, 1, 100).oversubscription(1.0)).unwrap();
        let fat = simulate_cluster(&cluster_config(4, 1, 100).oversubscription(16.0)).unwrap();
        assert_eq!(thin.cross_box_requests, fat.cross_box_requests);
        assert!(fat.cross_box_delay_ms > thin.cross_box_delay_ms);
    }

    #[test]
    fn a_transfer_past_the_arrival_clock_is_a_config_error() {
        let invalid = |cfg: &ClusterConfig| {
            matches!(simulate_cluster(cfg), Err(ServingError::InvalidConfig(_)))
        };
        // One request so rare that its one gap fills the µs clock: routed
        // off-home, any transfer delay overflows it.
        for boxes in 2..=4 {
            let mut cfg = cluster_config(boxes, 1, 1);
            cfg.box_config.traffic.arrival_rate_per_s = 1e-300;
            assert!(invalid(&cfg), "{boxes} boxes");
        }
        // A switch tier so oversubscribed that one prompt's transfer alone
        // fills the clock.
        assert!(invalid(&cluster_config(2, 1, 20).oversubscription(1e30)));
    }

    #[test]
    fn identical_configs_produce_bit_identical_cluster_reports() {
        let cfg = cluster_config(3, 2, 90).router(RouterPolicy::LeastLoaded);
        let a = simulate_cluster(&cfg).unwrap();
        let b = simulate_cluster(&cfg).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn single_box_cluster_matches_the_plain_engine() {
        // One box, locality routing: nothing crosses, nothing delays —
        // the cluster path must reduce to the box engine bit-for-bit.
        let cfg = cluster_config(1, 2, 60).router(RouterPolicy::Locality);
        let c = simulate_cluster(&cfg).unwrap();
        let mut plain = cfg.box_config;
        plain.devices = 2;
        let direct = crate::engine::simulate(&plain).unwrap();
        assert_eq!(format!("{:?}", c.report), format!("{direct:?}"));
        assert_eq!(c.cross_box_requests, 0);
    }

    #[test]
    fn cluster_availability_weights_boxes_by_their_own_makespan() {
        // Each box's availability is measured against its *local*
        // makespan before device-weighting, while the merged report's
        // gauge measures every card against the cluster makespan.
        use gaudi_hw::{fault::FaultPlan, DeviceId};

        let mut cfg = cluster_config(2, 2, 120);
        cfg.box_config.faults = FaultPlan::none().kill_for(DeviceId(1), 5.0, 20.0);
        cfg.box_config.robustness = crate::RobustnessConfig::unlimited().checkpoint(4.0, 64e9);
        let c = simulate_cluster(&cfg).unwrap();

        // The same plan hits every box: both restart once and both
        // checkpoint.
        assert_eq!(c.report.restarts, 2);
        assert!(c.availability() < 1.0, "a down window must cost up-time");
        assert!(c.report.checkpoint_bytes > 0, "live chains must snapshot");

        // Device-weighted identity: equal-width boxes reduce to the mean
        // of the per-box values...
        let mean = c.per_box.iter().map(|b| b.availability).sum::<f64>() / c.boxes as f64;
        assert!((c.availability() - mean).abs() < 1e-12);
        // ...and the merged report's gauge differs whenever box makespans
        // differ: both keep a card that ended the run up alive through
        // the makespan, but the same down window weighs less against the
        // longer cluster makespan than against its shorter box's own.
        let spans: Vec<f64> = c.per_box.iter().map(|b| b.makespan_ms).collect();
        assert!(
            (spans[0] - spans[1]).abs() > 1e-9,
            "fixture must produce uneven box makespans, got {spans:?}"
        );
        assert!(
            (c.availability() - c.report.availability()).abs() > 1e-9,
            "per-box {} vs cluster-makespan {} should diverge under uneven makespans",
            c.availability(),
            c.report.availability()
        );
        assert!(c.render().contains("availability"));
    }

    #[test]
    fn fault_free_cluster_is_fully_available() {
        // Two requests over 5 boxes x 2 cards: three boxes stay empty and
        // the two busy boxes each leave one card idle. No card died.
        let c = simulate_cluster(&cluster_config(5, 2, 2)).unwrap();
        assert_eq!(c.report.completed.len(), 2);
        assert_eq!(c.availability(), 1.0);
        assert_eq!(c.report.availability(), 1.0);
    }

    #[test]
    fn malformed_cluster_configs_are_rejected() {
        let ok = cluster_config(2, 2, 10);
        assert!(simulate_cluster(&ClusterConfig {
            boxes: 0,
            ..ok.clone()
        })
        .is_err());
        assert!(simulate_cluster(&ClusterConfig {
            cards_per_box: 0,
            ..ok.clone()
        })
        .is_err());
        assert!(simulate_cluster(&ok.clone().oversubscription(0.5)).is_err());
        let mut zero = ok;
        zero.box_config.traffic.num_requests = 0;
        assert!(simulate_cluster(&zero).is_err());
    }
}
