//! `GaudiSession` — the one-stop facade over the simulated device.
//!
//! The workspace's layers (graph → compiler → runtime → profiler) are each
//! usable on their own, but every example was wiring them together by hand.
//! A session owns that plumbing: configure hardware and compiler once,
//! then `run` graphs (compile → execute → trace) and `serve` request
//! streams without touching `GraphCompiler` or `Runtime` directly.
//!
//! ```
//! use habana_gaudi_study::prelude::*;
//!
//! let session = GaudiSession::builder()
//!     .hw(GaudiConfig::hls1())
//!     .options(CompilerOptions {
//!         scheduler: SchedulerKind::Overlap,
//!         ..CompilerOptions::default()
//!     })
//!     .build()?;
//!
//! let mut g = Graph::new();
//! let x = g.input("x", &[4, 4])?;
//! let y = g.softmax(x)?;
//! g.mark_output(y);
//!
//! let report = session.run(&g, Feeds::auto(0).with_input("x", Tensor::ones(&[4, 4])?))?;
//! assert_eq!(report.outputs[0].dims(), &[4, 4]);
//! assert!(!report.trace.is_empty());
//! # Ok::<(), habana_gaudi_study::GaudiError>(())
//! ```

use crate::error::GaudiError;
use gaudi_compiler::{CompilerOptions, Parallelism, PartitionSpec};
use gaudi_graph::Graph;
use gaudi_hw::{FaultPlan, GaudiConfig, Topology};
use gaudi_runtime::{Feeds, MultiRunReport, NumericsMode, RunReport, Runtime};
use gaudi_serving::{simulate, RobustnessConfig, ServingConfig, ServingReport};

/// A configured simulated device — or box of devices: hardware model,
/// compiler options, and a parallelism layout.
///
/// Build one with [`GaudiSession::builder`]; the example at the top of
/// this file shows the full flow. Sessions default to a single card; ask for a
/// multi-card box with [`GaudiSessionBuilder::devices`] and (optionally) a
/// specific [`GaudiSessionBuilder::parallelism`] layout.
pub struct GaudiSession {
    hw: GaudiConfig,
    options: CompilerOptions,
    numerics: NumericsMode,
    devices: usize,
    parallelism: Parallelism,
    spec: PartitionSpec,
    faults: FaultPlan,
    robustness: Option<RobustnessConfig>,
    runtime: Runtime,
}

impl GaudiSession {
    /// Start configuring a session. Defaults: HLS-1 hardware, SynapseAI-like
    /// compiler options, full numerics.
    pub fn builder() -> GaudiSessionBuilder {
        GaudiSessionBuilder::default()
    }

    /// An HLS-1 session with default options — the shortest path to `run`.
    pub fn hls1() -> Self {
        GaudiSession::builder()
            .build()
            .expect("default session is valid")
    }

    /// Compile `graph`, execute it with `feeds`, and return outputs, trace,
    /// makespan, and peak-HBM estimate in one report.
    ///
    /// On a multi-card session ([`GaudiSessionBuilder::devices`] > 1 with a
    /// non-trivial parallelism) the graph is partitioned, run across the box
    /// via [`Runtime::run_partitioned`], and the reassembled full outputs are
    /// returned — callers see the same interface either way.
    pub fn run(&self, graph: &Graph, feeds: Feeds) -> Result<RunReport, GaudiError> {
        self.run_with_mode(graph, feeds, self.numerics)
    }

    /// Like [`run`](Self::run), overriding the session's numerics mode for
    /// one call (e.g. `NumericsMode::ShapeOnly` for paper-scale shapes whose
    /// activations would not fit host memory).
    pub fn run_with_mode(
        &self,
        graph: &Graph,
        feeds: Feeds,
        mode: NumericsMode,
    ) -> Result<RunReport, GaudiError> {
        if self.parallelism.world() > 1 {
            let multi = self.run_partitioned_with_mode(graph, feeds, mode)?;
            return Ok(RunReport {
                outputs: multi.outputs,
                trace: multi.trace,
                makespan_ms: multi.makespan_ms,
                peak_hbm_bytes: multi.peak_hbm_bytes_per_device,
                compiled_graph: multi.compiled_graph,
            });
        }
        Ok(self.runtime.run(graph, &feeds, mode)?)
    }

    /// Run `graph` across the session's box and return the full
    /// [`MultiRunReport`] (per-device plans, collective share, device-tagged
    /// trace) instead of the flattened [`RunReport`].
    ///
    /// Works on any session; a single-card session runs a trivial 1-way
    /// partition.
    pub fn run_partitioned(
        &self,
        graph: &Graph,
        feeds: Feeds,
    ) -> Result<MultiRunReport, GaudiError> {
        self.run_partitioned_with_mode(graph, feeds, self.numerics)
    }

    /// [`run_partitioned`](Self::run_partitioned) with an explicit numerics
    /// mode.
    ///
    /// The session's permanent link degradations reprice every collective
    /// against the slowest link. A windowed flap returns
    /// [`GaudiError::Config`] naming the edge: the run is priced once,
    /// without a clock, so the flap has no instant to be active at.
    pub fn run_partitioned_with_mode(
        &self,
        graph: &Graph,
        feeds: Feeds,
        mode: NumericsMode,
    ) -> Result<MultiRunReport, GaudiError> {
        if self.faults.link_degradations.is_empty() {
            return Ok(self.runtime.run_partitioned(
                graph,
                self.parallelism,
                &self.spec,
                &feeds,
                mode,
            )?);
        }
        if let Some(flap) = self
            .faults
            .link_degradations
            .iter()
            .find(|l| l.window.is_some())
        {
            return Err(GaudiError::Config(format!(
                "link {}-{} flaps over a window, but a partitioned run is priced \
                 once, without a clock; only permanent degradations apply",
                flap.a, flap.b
            )));
        }
        // Degraded links reprice every collective against the bottleneck.
        let topo = Topology::hls1_box(&self.hw, self.parallelism.world())
            .degraded(&self.faults.link_degradations);
        Ok(self.runtime.run_partitioned_on(
            graph,
            self.parallelism,
            &self.spec,
            &feeds,
            mode,
            &topo,
        )?)
    }

    /// Run a multi-tenant serving simulation on this session's hardware and
    /// compiler configuration (the `hw`/`opts`/`devices` fields of `cfg` are
    /// replaced by the session's own; serving replicates data-parallel, one
    /// engine per card). A session-level
    /// [`fault plan`](GaudiSessionBuilder::faults) overrides the one in
    /// `cfg`, killing and degrading those replicas.
    /// A session-level [`robustness`](GaudiSessionBuilder::robustness)
    /// policy likewise overrides the one in `cfg`. Requests the policy
    /// sheds, expires or fails are in the report's `dropped` list.
    pub fn serve(&self, cfg: &ServingConfig) -> Result<ServingReport, GaudiError> {
        let mut cfg = cfg.clone();
        cfg.hw = self.hw.clone();
        cfg.opts = self.options.clone();
        cfg.devices = self.devices;
        if !self.faults.is_empty() {
            cfg.faults = self.faults.clone();
        }
        if let Some(rb) = &self.robustness {
            cfg.robustness = rb.clone();
        }
        Ok(simulate(&cfg)?)
    }

    /// The hardware configuration this session simulates.
    pub fn hw(&self) -> &GaudiConfig {
        &self.hw
    }

    /// The compiler options every `run`/`serve` uses.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The session's default numerics mode.
    pub fn numerics(&self) -> NumericsMode {
        self.numerics
    }

    /// Number of cards in the session's box.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The data×tensor parallel layout `run` uses on a multi-card session.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The fault plan every `serve` and partitioned `run` is subjected to
    /// (empty by default: pristine hardware).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The overload-protection policy `serve` imposes, if any.
    pub fn robustness(&self) -> Option<&RobustnessConfig> {
        self.robustness.as_ref()
    }
}

/// Builder for [`GaudiSession`].
#[derive(Default)]
pub struct GaudiSessionBuilder {
    hw: Option<GaudiConfig>,
    options: Option<CompilerOptions>,
    numerics: Option<NumericsMode>,
    devices: Option<usize>,
    parallelism: Option<Parallelism>,
    partition_spec: Option<PartitionSpec>,
    faults: Option<FaultPlan>,
    robustness: Option<RobustnessConfig>,
}

impl GaudiSessionBuilder {
    /// Select the hardware model (default: `GaudiConfig::hls1()`).
    pub fn hw(mut self, hw: GaudiConfig) -> Self {
        self.hw = Some(hw);
        self
    }

    /// Select compiler options (default: `CompilerOptions::default()`, the
    /// SynapseAI-like configuration).
    pub fn options(mut self, options: CompilerOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Select the default numerics mode (default: `NumericsMode::Full`).
    pub fn numerics(mut self, mode: NumericsMode) -> Self {
        self.numerics = Some(mode);
        self
    }

    /// Size the box: how many simulated cards the session owns (default 1).
    ///
    /// With more than one card and no explicit [`parallelism`](Self::parallelism),
    /// `run` defaults to tensor parallelism across all cards.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = Some(n);
        self
    }

    /// Choose the data×tensor layout multi-card `run`s use. Its world size
    /// must not exceed [`devices`](Self::devices).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = Some(p);
        self
    }

    /// Override which inputs the partitioner shards (default:
    /// [`PartitionSpec::llm`], the LLM naming convention).
    pub fn partition_spec(mut self, spec: PartitionSpec) -> Self {
        self.partition_spec = Some(spec);
        self
    }

    /// Subject the session to a deterministic fault plan (default: none).
    ///
    /// Card failures apply to `serve` (the dead
    /// replica's work is re-queued onto survivors); link degradations also
    /// reprice the collectives of partitioned `run`s. The plan is validated
    /// against the session's device count at [`build`](Self::build).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Impose an overload-protection policy on every `serve` (default:
    /// none — the serving config's own policy applies). Validated at
    /// [`build`](Self::build).
    pub fn robustness(mut self, cfg: RobustnessConfig) -> Self {
        self.robustness = Some(cfg);
        self
    }

    /// Construct the session.
    pub fn build(self) -> Result<GaudiSession, GaudiError> {
        let hw = self.hw.unwrap_or_else(GaudiConfig::hls1);
        let options = self.options.unwrap_or_default();
        let numerics = self.numerics.unwrap_or(NumericsMode::Full);
        let devices = self.devices.unwrap_or(1);
        if devices == 0 {
            return Err(GaudiError::Config(
                "a session needs at least 1 device".into(),
            ));
        }
        let parallelism = self.parallelism.unwrap_or_else(|| {
            if devices > 1 {
                Parallelism::tensor(devices)
            } else {
                Parallelism::single()
            }
        });
        if parallelism.data == 0 || parallelism.tensor == 0 {
            return Err(GaudiError::Config(
                "parallelism degrees must be at least 1".into(),
            ));
        }
        if parallelism.world() > devices {
            return Err(GaudiError::Config(format!(
                "parallelism needs {} cards but the session has {}",
                parallelism.world(),
                devices
            )));
        }
        let spec = self.partition_spec.unwrap_or_else(PartitionSpec::llm);
        let faults = self.faults.unwrap_or_else(FaultPlan::none);
        faults.validate(devices)?;
        if let Some(rb) = &self.robustness {
            rb.validate().map_err(GaudiError::Robustness)?;
        }
        let runtime = Runtime::new(hw.clone(), options.clone());
        Ok(GaudiSession {
            hw,
            options,
            numerics,
            devices,
            parallelism,
            spec,
            faults,
            robustness: self.robustness,
            runtime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_serving::{RobustnessConfig, TrafficConfig};
    use gaudi_tensor::Tensor;

    fn softmax_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 4]).unwrap();
        let y = g.softmax(x).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let s = GaudiSession::builder().build().unwrap();
        assert_eq!(
            s.hw().memory.hbm_capacity_bytes,
            GaudiConfig::hls1().memory.hbm_capacity_bytes
        );
        assert_eq!(s.numerics(), NumericsMode::Full);

        let s = GaudiSession::builder()
            .hw(GaudiConfig::hls1())
            .options(CompilerOptions {
                fuse_elementwise: true,
                ..CompilerOptions::default()
            })
            .numerics(NumericsMode::ShapeOnly)
            .build()
            .unwrap();
        assert_eq!(s.numerics(), NumericsMode::ShapeOnly);
        assert!(
            s.options().fuse_elementwise,
            "the session keeps its options"
        );
    }

    #[test]
    fn run_produces_outputs_and_trace() {
        let s = GaudiSession::hls1();
        let g = softmax_graph();
        let feeds = Feeds::auto(0).with_input("x", Tensor::ones(&[4, 4]).unwrap());
        let r = s.run(&g, feeds).unwrap();
        assert_eq!(r.outputs.len(), 1);
        assert!(!r.trace.is_empty());
        assert!(r.makespan_ms > 0.0);
    }

    #[test]
    fn run_with_mode_skips_numerics() {
        let s = GaudiSession::hls1();
        let g = softmax_graph();
        let r = s
            .run_with_mode(&g, Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap();
        assert!(r.outputs.is_empty());
        assert!(r.makespan_ms > 0.0);
    }

    #[test]
    fn serve_uses_session_hardware() {
        let s = GaudiSession::hls1();
        let mut cfg = ServingConfig::paper_gpt();
        cfg.traffic = TrafficConfig {
            num_requests: 5,
            prompt_range: (8, 32),
            output_range: (2, 8),
            ..TrafficConfig::default()
        };
        let r = s.serve(&cfg).unwrap();
        assert_eq!(r.completed.len(), 5);
        assert!(r.kv_peak_bytes <= r.kv_capacity_bytes);
    }

    #[test]
    fn missing_feed_surfaces_as_gaudi_error() {
        let s = GaudiSession::hls1();
        let mut g = Graph::new();
        let x = g.input("x", &[2, 2]).unwrap();
        g.mark_output(x);
        let err = s.run(&g, Feeds::default()).unwrap_err();
        assert!(matches!(err, GaudiError::Runtime(_)));
    }

    fn mlp_graph(d: usize, hidden: usize) -> Graph {
        use gaudi_graph::Activation;
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8, d]).unwrap();
        let w1 = g.parameter("mlp.fc1.w", &[d, hidden]).unwrap();
        let b1 = g.parameter("mlp.fc1.b", &[hidden]).unwrap();
        let h = g.matmul(x, w1).unwrap();
        let h = g.add(h, b1).unwrap();
        let h = g.activation(Activation::Gelu, h).unwrap();
        let w2 = g.parameter("mlp.fc2.w", &[hidden, d]).unwrap();
        let b2 = g.parameter("mlp.fc2.b", &[d]).unwrap();
        let y = g.matmul(h, w2).unwrap();
        let y = g.add(y, b2).unwrap();
        g.mark_output(y);
        g
    }

    fn mlp_feeds(d: usize) -> Feeds {
        use gaudi_tensor::SeededRng;
        let mut rng = SeededRng::new(11);
        let x = Tensor::randn(&[4, 8, d], 1.0, &mut rng).unwrap();
        Feeds::auto(3).with_input("x", x)
    }

    #[test]
    fn multi_card_session_matches_single_card_numerics() {
        let g = mlp_graph(16, 32);
        let reference = GaudiSession::hls1().run(&g, mlp_feeds(16)).unwrap();

        let s = GaudiSession::builder().devices(2).build().unwrap();
        assert_eq!(s.devices(), 2);
        assert_eq!(s.parallelism(), Parallelism::tensor(2));
        let r = s.run(&g, mlp_feeds(16)).unwrap();
        assert_eq!(r.outputs[0].dims(), reference.outputs[0].dims());
        let diff = r.outputs[0].max_abs_diff(&reference.outputs[0]);
        assert!(diff < 1e-4, "diff {diff}");
        assert_eq!(r.trace.devices().len(), 2, "one lane group per card");
    }

    #[test]
    fn run_partitioned_reports_collective_time() {
        let g = mlp_graph(16, 32);
        let s = GaudiSession::builder()
            .devices(4)
            .parallelism(Parallelism { data: 2, tensor: 2 })
            .build()
            .unwrap();
        let r = s.run_partitioned(&g, mlp_feeds(16)).unwrap();
        assert_eq!(r.plan.devices(), 4);
        assert!(r.collective_share() > 0.0, "TP inserts all-reduces");
    }

    #[test]
    fn undersized_box_is_a_config_error() {
        let err = GaudiSession::builder()
            .devices(2)
            .parallelism(Parallelism::tensor(4))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, GaudiError::Config(_)));
        assert!(err.to_string().contains("4 cards"));

        let err = GaudiSession::builder()
            .devices(0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, GaudiError::Config(_)));
    }

    #[test]
    fn serve_inherits_session_devices() {
        let s = GaudiSession::builder().devices(2).build().unwrap();
        let mut cfg = ServingConfig::paper_gpt();
        cfg.traffic = TrafficConfig {
            num_requests: 6,
            prompt_range: (8, 32),
            output_range: (2, 8),
            ..TrafficConfig::default()
        };
        let r = s.serve(&cfg).unwrap();
        assert_eq!(r.devices, 2);
        assert_eq!(r.completed.len(), 6);
    }

    #[test]
    fn fault_plan_is_validated_at_build() {
        use gaudi_hw::DeviceId;
        let err = GaudiSession::builder()
            .devices(2)
            .faults(FaultPlan::none().kill(DeviceId(7), 1.0))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, GaudiError::Fault(_)));
        assert!(err.to_string().contains("fault plan"));
    }

    #[test]
    fn session_fault_plan_degrades_serving() {
        use gaudi_hw::DeviceId;
        let mut cfg = ServingConfig::paper_gpt();
        cfg.traffic = TrafficConfig {
            num_requests: 12,
            arrival_rate_per_s: 40.0,
            prompt_range: (8, 32),
            output_range: (2, 8),
            ..TrafficConfig::default()
        };
        let s = GaudiSession::builder()
            .devices(2)
            .faults(FaultPlan::none().kill(DeviceId(1), 20.0))
            .build()
            .unwrap();
        assert!(!s.faults().is_empty());
        let r = s.serve(&cfg).unwrap();
        assert_eq!(r.completed.len(), 12, "failures must not drop requests");
        assert_eq!(r.failed_replicas, 1);
        assert!(r.availability() < 1.0);
    }

    #[test]
    fn session_robustness_policy_overrides_serving_config() {
        use gaudi_serving::DropKind;
        let mut cfg = ServingConfig::paper_gpt();
        cfg.traffic = TrafficConfig {
            num_requests: 20,
            arrival_rate_per_s: 1e6,
            prompt_range: (8, 32),
            output_range: (2, 8),
            ..TrafficConfig::default()
        };
        let s = GaudiSession::builder()
            .robustness(RobustnessConfig::default().queue_depth(2))
            .build()
            .unwrap();
        assert!(s.robustness().is_some());
        let r = s.serve(&cfg).unwrap();
        assert!(r.shed() > 0, "a 2-deep queue must shed the burst");
        assert!(r.max_queue_depth <= 2);
        assert!(r.dropped.iter().all(|d| d.kind == DropKind::Rejected));
        assert_eq!(r.completed.len() + r.dropped.len(), 20);
        // A session policy overrides the config's: an unlimited session
        // serves a shedding config's whole burst.
        cfg.robustness = RobustnessConfig::default().queue_depth(2);
        assert!(GaudiSession::hls1().serve(&cfg).unwrap().shed() > 0);
        let lax = GaudiSession::builder()
            .robustness(RobustnessConfig::unlimited())
            .build()
            .unwrap();
        let r = lax.serve(&cfg).unwrap();
        assert_eq!(r.completed.len(), 20);
        assert!(r.dropped.is_empty());
    }

    #[test]
    fn malformed_robustness_policy_fails_at_build() {
        let err = GaudiSession::builder()
            .robustness(RobustnessConfig::default().ttft_deadline(-5.0))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, GaudiError::Robustness(_)));
        assert!(err.to_string().contains("robustness"));
    }

    #[test]
    fn a_flapping_link_is_rejected_by_the_partitioned_run() {
        use gaudi_hw::DeviceId;
        let g = mlp_graph(16, 32);
        let flapping = GaudiSession::builder()
            .devices(2)
            .faults(FaultPlan::none().flap_link(DeviceId(0), DeviceId(1), 0.2, 1e9, 2e9))
            .build()
            .unwrap();
        match flapping.run_partitioned(&g, mlp_feeds(16)) {
            Err(GaudiError::Config(msg)) => assert!(msg.contains("link D0-D1"), "{msg}"),
            Err(e) => panic!("expected a config error, got {e}"),
            Ok(r) => panic!("a flap was priced into a {} ms run", r.makespan_ms),
        }
    }

    #[test]
    fn degraded_links_slow_the_partitioned_run() {
        use gaudi_hw::DeviceId;
        let g = mlp_graph(16, 32);
        let clean = GaudiSession::builder()
            .devices(2)
            .build()
            .unwrap()
            .run_partitioned(&g, mlp_feeds(16))
            .unwrap();
        let degraded = GaudiSession::builder()
            .devices(2)
            .faults(FaultPlan::none().degrade_link(DeviceId(0), DeviceId(1), 0.2))
            .build()
            .unwrap()
            .run_partitioned(&g, mlp_feeds(16))
            .unwrap();
        assert!(
            degraded.makespan_ms > clean.makespan_ms,
            "a 5x slower link must lengthen the run"
        );
        let diff = degraded.outputs[0].max_abs_diff(&clean.outputs[0]);
        assert_eq!(diff, 0.0, "degradation must not perturb numerics");
    }
}
