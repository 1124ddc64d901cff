//! Multi-card topology: device identities and the inter-device link model.
//!
//! The paper profiles a single Gaudi of an HLS-1 box, but the architecture's
//! headline feature is scale-out: every chip integrates 10×100 GbE RoCE v2
//! ports (§2.1). This module gives the rest of the workspace an explicit
//! notion of *which* card work runs on ([`DeviceId`]) and what moving bytes
//! between cards costs ([`Link`], [`Topology`]).
//!
//! The link parameters are **RoCE-plausible defaults derived from the spec
//! sheet** (aggregate port bandwidth, a microsecond-scale message latency) —
//! they are *not* measured in the source paper, which never runs multi-card.
//! Collective timings use the classic ring/tree closed forms.

use crate::config::{GaudiConfig, RoceConfig};
use crate::fault::LinkDegradation;

/// Identity of one Gaudi card in a multi-card box.
///
/// Device 0 is the implicit card of every single-device simulation; traces
/// and plans produced by the single-device paths tag their work with
/// `DeviceId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// Zero-based index of the device.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Point-to-point link cost model: a fixed per-message latency plus a
/// bandwidth term. All times in nanoseconds, bandwidth in bytes/ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Per-message latency in nanoseconds.
    pub latency_ns: f64,
    /// Sustained bandwidth in bytes per nanosecond (= GB/s).
    pub bandwidth_bytes_per_ns: f64,
}

impl Link {
    /// Derive a link from the RoCE port configuration: all ports bonded into
    /// one logical pipe (10 × 100 Gbit/s = 125 bytes/ns for HLS-1 defaults).
    pub fn from_roce(roce: &RoceConfig) -> Self {
        Link {
            latency_ns: roce.message_latency_ns,
            bandwidth_bytes_per_ns: roce.num_ports as f64 * roce.port_gbit_per_s / 8.0,
        }
    }

    /// Time to move `bytes` over the link, ns.
    pub fn time_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bandwidth_bytes_per_ns
    }
}

impl Default for Link {
    fn default() -> Self {
        Link::from_roce(&RoceConfig::default())
    }
}

/// The inter-box switch tier of a hierarchical (cluster) topology.
///
/// HLS-1 boxes attach to the datacenter fabric through their scale-out
/// RoCE ports; a leaf/spine switch tier joins the boxes. The tier is
/// modelled by two numbers: how much slower the uplinks are than the
/// intra-box fabric (`oversubscription` — the classic ratio of injection
/// bandwidth to uplink share; 1.0 means a non-blocking fabric) and the
/// extra store-and-forward latency each switch traversal adds
/// (`hop_latency_ns`). A box-to-box message crosses two switch hops
/// (source leaf up, destination leaf down).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchTier {
    /// Ratio of intra-box injection bandwidth to the uplink share a card
    /// actually gets through the switch tier; `>= 1.0`. Inter-box
    /// bandwidth is `link.bandwidth / oversubscription`.
    pub oversubscription: f64,
    /// Extra latency of one switch traversal, ns. An inter-box message
    /// pays two (leaf up + leaf down) on top of the NIC link latency.
    pub hop_latency_ns: f64,
}

impl SwitchTier {
    /// A non-blocking tier: full bandwidth through the switches, with a
    /// default per-hop traversal cost of 500 ns per switch.
    pub fn nonblocking() -> Self {
        SwitchTier {
            oversubscription: 1.0,
            hop_latency_ns: 500.0,
        }
    }

    /// The same tier with a different oversubscription factor.
    pub fn oversubscribed(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "oversubscription must be >= 1.0, got {factor}"
        );
        self.oversubscription = factor;
        self
    }
}

/// A box of `devices` identical Gaudi cards joined by uniform [`Link`]s
/// (the all-to-all RoCE fabric of an HLS-1), or — in the hierarchical
/// form built by [`Topology::cluster`] — several such boxes joined by an
/// inter-box [`SwitchTier`].
///
/// Collective timings use the standard closed forms for ring collectives
/// (bandwidth-optimal) and a binomial tree for broadcast; every method
/// returns `0.0` for a single-device topology. When the ring spans boxes,
/// the closed forms route through the bottleneck tier: the slowest ring
/// edge is an inter-box edge, so bandwidth divides by the switch
/// oversubscription and every step pays two extra switch hops of latency
/// (the slowest-member property of ring algorithms, one tier up).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of cards in the box (flat form) or in the whole cluster
    /// (hierarchical form).
    pub devices: usize,
    /// The uniform inter-card link (nominal, before degradation).
    pub link: Link,
    /// Links running below nominal bandwidth (fault injection). Ring
    /// collectives pace to the slowest participating link, so every
    /// collective closed form divides bandwidth by
    /// [`bottleneck_factor`](Self::bottleneck_factor).
    pub link_degradations: Vec<LinkDegradation>,
    /// Cards per box. Flat topologies put every card in one box
    /// (`cards_per_box == devices`); [`Topology::cluster`] sets the box
    /// size explicitly. Never zero.
    pub cards_per_box: usize,
    /// The inter-box switch tier, when the topology is hierarchical.
    /// `None` means all cards share one box-level fabric (the flat form).
    pub switch: Option<SwitchTier>,
}

impl Topology {
    /// One card, no interconnect (all collective times are zero).
    pub fn single() -> Self {
        Topology {
            devices: 1,
            link: Link::default(),
            link_degradations: Vec::new(),
            cards_per_box: 1,
            switch: None,
        }
    }

    /// An HLS-1-like box of `devices` cards using the RoCE link defaults
    /// from `cfg`.
    pub fn hls1_box(cfg: &GaudiConfig, devices: usize) -> Self {
        assert!(devices >= 1, "topology needs at least one device");
        Topology {
            devices,
            link: Link::from_roce(&cfg.roce),
            link_degradations: Vec::new(),
            cards_per_box: devices,
            switch: None,
        }
    }

    /// A flat sub-ring of `devices` cards carved out of this topology's
    /// fabric (same links, same degradations) — what a tensor-parallel
    /// group inside one box sees.
    pub fn subring(&self, devices: usize) -> Self {
        assert!(devices >= 1, "topology needs at least one device");
        Topology {
            devices,
            link: self.link,
            link_degradations: self.link_degradations.clone(),
            cards_per_box: devices,
            switch: None,
        }
    }

    /// A hierarchical cluster of `boxes` HLS-1-like boxes of
    /// `cards_per_box` cards each, joined by a leaf/spine switch tier
    /// oversubscribed by `oversubscription` (1.0 = non-blocking).
    ///
    /// Intra-box edges keep the full RoCE link; inter-box edges see
    /// `bandwidth / oversubscription` and pay two extra switch hops of
    /// latency per message.
    pub fn cluster(
        cfg: &GaudiConfig,
        boxes: usize,
        cards_per_box: usize,
        oversubscription: f64,
    ) -> Self {
        assert!(boxes >= 1, "cluster needs at least one box");
        assert!(cards_per_box >= 1, "boxes need at least one card");
        let switch = if boxes > 1 {
            Some(SwitchTier::nonblocking().oversubscribed(oversubscription))
        } else {
            None
        };
        Topology {
            devices: boxes * cards_per_box,
            link: Link::from_roce(&cfg.roce),
            link_degradations: Vec::new(),
            cards_per_box,
            switch,
        }
    }

    /// The same box with `degradations` applied on top of any existing
    /// ones (a fault plan repricing the fabric).
    pub fn degraded(mut self, degradations: &[LinkDegradation]) -> Self {
        self.link_degradations.extend_from_slice(degradations);
        self
    }

    /// The slowest registered link factor, in `(0, 1]`. The modelled
    /// fabric is uniform and every collective rings through all cards, so
    /// one slow edge paces the whole collective — the classic
    /// slowest-member property of ring algorithms.
    pub fn bottleneck_factor(&self) -> f64 {
        self.link_degradations
            .iter()
            .map(|l| l.factor.clamp(f64::MIN_POSITIVE, 1.0))
            .fold(1.0, f64::min)
    }

    /// Bandwidth the collectives actually see: nominal × bottleneck.
    pub fn effective_bandwidth_bytes_per_ns(&self) -> f64 {
        self.link.bandwidth_bytes_per_ns * self.bottleneck_factor()
    }

    /// Number of boxes the cards occupy (`ceil(devices / cards_per_box)`;
    /// 1 for every flat topology).
    pub fn boxes(&self) -> usize {
        self.devices.div_ceil(self.cards_per_box)
    }

    /// Zero-based index of the box holding `device`.
    pub fn box_of(&self, device: DeviceId) -> usize {
        device.0 / self.cards_per_box
    }

    /// Whether the device ring spans more than one box — i.e. whether
    /// collectives must route through the switch tier.
    pub fn spans_boxes(&self) -> bool {
        self.switch.is_some() && self.boxes() > 1
    }

    /// Per-step latency of the ring the collectives run on: the NIC link
    /// latency, plus two switch hops when the ring crosses boxes (a ring
    /// step is paced by its slowest edge, and with cards numbered box by
    /// box the slowest edge is a box-boundary edge).
    fn ring_step_latency_ns(&self) -> f64 {
        match (&self.switch, self.spans_boxes()) {
            (Some(tier), true) => self.link.latency_ns + 2.0 * tier.hop_latency_ns,
            _ => self.link.latency_ns,
        }
    }

    /// Bandwidth of the bottleneck tier the collectives pace to: the
    /// degraded intra-box bandwidth for one box, divided by the switch
    /// oversubscription when the ring crosses boxes.
    pub fn bottleneck_bandwidth_bytes_per_ns(&self) -> f64 {
        let intra = self.effective_bandwidth_bytes_per_ns();
        match (&self.switch, self.spans_boxes()) {
            (Some(tier), true) => intra / tier.oversubscription,
            _ => intra,
        }
    }

    /// NIC hops a message from `src` to `dst` traverses: 0 on-card, 1
    /// across the intra-box fabric, 3 through the switch tier (source NIC
    /// → leaf → leaf → destination NIC).
    pub fn hops(&self, src: DeviceId, dst: DeviceId) -> usize {
        if src == dst {
            0
        } else if self.box_of(src) == self.box_of(dst) {
            1
        } else {
            3
        }
    }

    /// Time to move `bytes` point-to-point from `src` to `dst`, priced per
    /// hop: intra-box transfers pay the NIC link; inter-box transfers pay
    /// the NIC link at the oversubscribed uplink bandwidth plus two switch
    /// traversals. `0.0` on-card.
    pub fn nic_transfer_time_ns(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        match self.hops(src, dst) {
            0 => 0.0,
            1 => self.link.latency_ns + bytes as f64 / self.effective_bandwidth_bytes_per_ns(),
            _ => {
                let tier = self.switch.expect("inter-box hop count implies a switch");
                self.link.latency_ns
                    + 2.0 * tier.hop_latency_ns
                    + bytes as f64
                        / (self.effective_bandwidth_bytes_per_ns() / tier.oversubscription)
            }
        }
    }

    /// Time to ship `bytes` from one box to another through the switch
    /// tier (any cross-box card pair — the fabric is uniform). `0.0` when
    /// the topology has a single box.
    pub fn cross_box_transfer_ns(&self, bytes: u64) -> f64 {
        if !self.spans_boxes() {
            return 0.0;
        }
        self.nic_transfer_time_ns(DeviceId(0), DeviceId(self.cards_per_box), bytes)
    }

    /// Ring all-reduce of `bytes` (the full, unsharded payload) across the
    /// box: `2·(P-1)/P · bytes / bw` plus `2·(P-1)` message latencies.
    /// When the ring spans boxes, `bw` is the oversubscribed switch tier
    /// and each latency term includes the two switch hops.
    pub fn allreduce_time_ns(&self, bytes: u64) -> f64 {
        if self.devices <= 1 {
            return 0.0;
        }
        let p = self.devices as f64;
        let volume = 2.0 * (p - 1.0) / p * bytes as f64;
        volume / self.bottleneck_bandwidth_bytes_per_ns()
            + 2.0 * (p - 1.0) * self.ring_step_latency_ns()
    }

    /// Ring all-gather producing `bytes` of gathered output per device:
    /// `(P-1)/P · bytes / bw` plus `(P-1)` message latencies, through the
    /// bottleneck tier.
    pub fn allgather_time_ns(&self, bytes: u64) -> f64 {
        if self.devices <= 1 {
            return 0.0;
        }
        let p = self.devices as f64;
        let volume = (p - 1.0) / p * bytes as f64;
        volume / self.bottleneck_bandwidth_bytes_per_ns() + (p - 1.0) * self.ring_step_latency_ns()
    }

    /// Ring reduce-scatter over `bytes` of input per device (same wire cost
    /// shape as all-gather).
    pub fn reducescatter_time_ns(&self, bytes: u64) -> f64 {
        self.allgather_time_ns(bytes)
    }

    /// Binomial-tree broadcast of `bytes` from one root: `ceil(log2 P)`
    /// store-and-forward steps through the bottleneck tier.
    pub fn broadcast_time_ns(&self, bytes: u64) -> f64 {
        if self.devices <= 1 {
            return 0.0;
        }
        let steps = (self.devices as f64).log2().ceil();
        steps
            * (self.ring_step_latency_ns()
                + bytes as f64 / self.bottleneck_bandwidth_bytes_per_ns())
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box4() -> Topology {
        Topology::hls1_box(&GaudiConfig::hls1(), 4)
    }

    #[test]
    fn device_id_displays_and_orders() {
        assert_eq!(DeviceId(3).to_string(), "D3");
        assert!(DeviceId(0) < DeviceId(1));
        assert_eq!(DeviceId::default(), DeviceId(0));
    }

    #[test]
    fn link_from_hls1_roce_defaults() {
        let l = Link::from_roce(&RoceConfig::default());
        assert!((l.bandwidth_bytes_per_ns - 125.0).abs() < 1e-9);
        assert_eq!(l.latency_ns, 3000.0);
        // 1 MiB over 125 B/ns ≈ 8.4 µs + latency.
        let t = l.time_ns(1 << 20);
        assert!(t > 8000.0 && t < 12_000.0);
    }

    #[test]
    fn single_device_collectives_are_free() {
        let t = Topology::single();
        assert_eq!(t.allreduce_time_ns(1 << 30), 0.0);
        assert_eq!(t.allgather_time_ns(1 << 30), 0.0);
        assert_eq!(t.reducescatter_time_ns(1 << 30), 0.0);
        assert_eq!(t.broadcast_time_ns(1 << 30), 0.0);
    }

    #[test]
    fn allreduce_costs_about_twice_allgather() {
        let bytes = 256 << 20;
        let mut last = 0.0;
        for world in [2, 4, 8] {
            let t = Topology::hls1_box(&GaudiConfig::hls1(), world);
            let ar = t.allreduce_time_ns(bytes);
            let ag = t.allgather_time_ns(bytes);
            assert!(ar > 1.9 * ag && ar < 2.1 * ag);
            assert_eq!(ag, t.reducescatter_time_ns(bytes));
            // All-reduce grows with the world: its volume factor tends to
            // 2× the bytes, plus 2·(P-1) message latencies.
            assert!(ar > last, "world {world}");
            let lat = 2.0 * (world - 1) as f64 * t.link.latency_ns;
            assert!(ar < 2.0 * bytes as f64 / t.link.bandwidth_bytes_per_ns + lat + 1.0);
            last = ar;
        }
    }

    #[test]
    fn broadcast_scales_logarithmically() {
        let cfg = GaudiConfig::hls1();
        let t2 = Topology::hls1_box(&cfg, 2).broadcast_time_ns(1 << 20);
        let t8 = Topology::hls1_box(&cfg, 8).broadcast_time_ns(1 << 20);
        assert!((t8 / t2 - 3.0).abs() < 1e-9); // log2(8) / log2(2)
    }

    #[test]
    fn degraded_links_slow_collectives_by_the_bottleneck() {
        let clean = box4();
        let bytes = 256u64 << 20;
        let degraded = clean
            .clone()
            .degraded(&[LinkDegradation {
                a: DeviceId(1),
                b: DeviceId(2),
                factor: 0.5,
                window: None,
            }])
            .degraded(&[LinkDegradation {
                a: DeviceId(0),
                b: DeviceId(1),
                factor: 0.8,
                window: None,
            }]);
        assert_eq!(degraded.bottleneck_factor(), 0.5);
        // Bandwidth term doubles; latency term is unchanged.
        let lat = 2.0 * 3.0 * clean.link.latency_ns;
        let clean_bw = clean.allreduce_time_ns(bytes) - lat;
        let slow_bw = degraded.allreduce_time_ns(bytes) - lat;
        assert!((slow_bw / clean_bw - 2.0).abs() < 1e-9);
        assert!(degraded.allgather_time_ns(bytes) > clean.allgather_time_ns(bytes));
        assert!(degraded.broadcast_time_ns(bytes) > clean.broadcast_time_ns(bytes));
    }

    #[test]
    fn unit_factor_degradation_is_a_noop() {
        let clean = box4();
        let degraded = clean.clone().degraded(&[LinkDegradation {
            a: DeviceId(2),
            b: DeviceId(3),
            factor: 1.0,
            window: None,
        }]);
        assert_eq!(degraded.bottleneck_factor(), 1.0);
        let bytes = 64u64 << 20;
        assert_eq!(
            degraded.allreduce_time_ns(bytes),
            clean.allreduce_time_ns(bytes)
        );
    }

    #[test]
    fn flat_topologies_are_one_box() {
        let t = box4();
        assert_eq!(t.boxes(), 1);
        assert_eq!(t.cards_per_box, 4);
        assert!(t.switch.is_none());
        assert!(!t.spans_boxes());
        assert_eq!(t.box_of(DeviceId(3)), 0);
        assert_eq!(t.cross_box_transfer_ns(1 << 20), 0.0);
    }

    #[test]
    fn cluster_assigns_cards_to_boxes_in_id_order() {
        let c = Topology::cluster(&GaudiConfig::hls1(), 4, 8, 2.0);
        assert_eq!(c.devices, 32);
        assert_eq!(c.boxes(), 4);
        assert_eq!(c.box_of(DeviceId(0)), 0);
        assert_eq!(c.box_of(DeviceId(7)), 0);
        assert_eq!(c.box_of(DeviceId(8)), 1);
        assert_eq!(c.box_of(DeviceId(31)), 3);
        assert!(c.spans_boxes());
    }

    #[test]
    fn single_box_cluster_is_flat() {
        let flat = Topology::hls1_box(&GaudiConfig::hls1(), 8);
        let c = Topology::cluster(&GaudiConfig::hls1(), 1, 8, 4.0);
        assert!(c.switch.is_none(), "one box needs no switch tier");
        let bytes = 64u64 << 20;
        assert_eq!(c.allreduce_time_ns(bytes), flat.allreduce_time_ns(bytes));
        assert_eq!(c.broadcast_time_ns(bytes), flat.broadcast_time_ns(bytes));
    }

    #[test]
    fn hop_counts_price_the_tiers() {
        let c = Topology::cluster(&GaudiConfig::hls1(), 2, 4, 2.0);
        assert_eq!(c.hops(DeviceId(1), DeviceId(1)), 0);
        assert_eq!(c.hops(DeviceId(0), DeviceId(3)), 1);
        assert_eq!(c.hops(DeviceId(0), DeviceId(4)), 3);
        let bytes = 1u64 << 20;
        let intra = c.nic_transfer_time_ns(DeviceId(0), DeviceId(3), bytes);
        let inter = c.nic_transfer_time_ns(DeviceId(0), DeviceId(4), bytes);
        assert_eq!(c.nic_transfer_time_ns(DeviceId(2), DeviceId(2), bytes), 0.0);
        // Inter-box: two switch hops of latency and half the bandwidth.
        let tier = c.switch.unwrap();
        let expect =
            intra + 2.0 * tier.hop_latency_ns + bytes as f64 / c.link.bandwidth_bytes_per_ns;
        assert!((inter - expect).abs() < 1e-9);
        assert_eq!(c.cross_box_transfer_ns(bytes), inter);
    }

    #[test]
    fn oversubscription_slows_cross_box_collectives_monotonically() {
        let cfg = GaudiConfig::hls1();
        let bytes = 256u64 << 20;
        let t1 = Topology::cluster(&cfg, 4, 8, 1.0).allreduce_time_ns(bytes);
        let t2 = Topology::cluster(&cfg, 4, 8, 2.0).allreduce_time_ns(bytes);
        let t4 = Topology::cluster(&cfg, 4, 8, 4.0).allreduce_time_ns(bytes);
        assert!(t1 < t2 && t2 < t4);
        // The bandwidth term scales linearly with the oversubscription.
        let lat = 2.0 * 31.0 * (cfg.roce.message_latency_ns + 2.0 * 500.0);
        assert!(((t4 - lat) / (t2 - lat) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nonblocking_cluster_still_pays_switch_latency() {
        let cfg = GaudiConfig::hls1();
        let flat = Topology::hls1_box(&cfg, 32);
        let c = Topology::cluster(&cfg, 4, 8, 1.0);
        let bytes = 64u64 << 20;
        // Same bandwidth term, strictly more latency.
        assert!(c.allreduce_time_ns(bytes) > flat.allreduce_time_ns(bytes));
        assert_eq!(
            c.bottleneck_bandwidth_bytes_per_ns(),
            flat.effective_bandwidth_bytes_per_ns()
        );
    }

    #[test]
    fn degradations_compose_with_the_switch_tier() {
        let c = Topology::cluster(&GaudiConfig::hls1(), 2, 4, 2.0).degraded(&[LinkDegradation {
            a: DeviceId(0),
            b: DeviceId(1),
            factor: 0.5,
            window: None,
        }]);
        // Bottleneck = degraded intra bandwidth / oversubscription.
        let expect = c.link.bandwidth_bytes_per_ns * 0.5 / 2.0;
        assert!((c.bottleneck_bandwidth_bytes_per_ns() - expect).abs() < 1e-9);
    }

    #[test]
    fn subring_inherits_fabric_but_not_hierarchy() {
        let c = Topology::cluster(&GaudiConfig::hls1(), 4, 8, 2.0).degraded(&[LinkDegradation {
            a: DeviceId(0),
            b: DeviceId(1),
            factor: 0.5,
            window: None,
        }]);
        let sub = c.subring(4);
        assert_eq!(sub.devices, 4);
        assert_eq!(sub.boxes(), 1);
        assert!(sub.switch.is_none());
        assert_eq!(sub.link, c.link);
        assert_eq!(sub.bottleneck_factor(), 0.5);
    }
}
