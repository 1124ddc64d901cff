//! Deterministic fault injection: what breaks, when, and by how much.
//!
//! The paper characterizes Gaudi in steady state; a production box does not
//! stay there. A [`FaultPlan`] is a *schedule* of hardware misbehavior —
//! whole-card failures at known times and RoCE links running below nominal
//! bandwidth — that the serving and runtime layers consume to model
//! graceful degradation.
//!
//! Plans are plain data: building one never touches a clock or an OS RNG,
//! so a simulation driven by a plan is exactly as reproducible as the plan
//! itself. [`FaultCampaign::seeded`] lowers a correlated burst model to a
//! randomized-but-deterministic plan from a `u64` seed (SplitMix64). The
//! `fault` experiment of the `sweeps` binary checks the consequence: its
//! two passes must agree on every faulted report bit for bit.
//!
//! What each fault means to consumers:
//!
//! * **Card failure** ([`CardFailure`]): the device stops at `at_ms`. The
//!   serving layer halts that replica at the next phase boundary at or
//!   after the failure time and re-queues its unfinished work elsewhere.
//!   A failure with `restart_after_ms` is *transient*: the card comes back
//!   `restart_after_ms` later with cold caches (the serving layer gives
//!   the replica a cold recipe table and it rejoins the dispatch pool).
//! * **Link degradation** ([`LinkDegradation`]): an inter-card edge runs at
//!   `factor` × nominal bandwidth. Ring collectives pace to the slowest
//!   participating link, so [`crate::Topology`] prices collectives against
//!   the bottleneck factor (see [`crate::Topology::bottleneck_factor`]).
//!   A degradation with a `window` is a *flap*: the edge is degraded only
//!   inside `[start_ms, end_ms)` and nominal outside it.
//!
//! [`FaultPlan::validate`] rejects contradictory schedules — a second kill
//! of a device inside an earlier kill's down window (or after a permanent
//! kill), duplicate degradations of the same edge whose active windows
//! overlap — with a descriptive error instead of letting last-write-wins
//! pick a silent winner.

use crate::topology::{DeviceId, Topology};

/// A whole-card failure at a known simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardFailure {
    /// The card that dies.
    pub device: DeviceId,
    /// Failure time in simulated milliseconds (≥ 0).
    pub at_ms: f64,
    /// Down-time before the card restarts, ms. `None` means the failure is
    /// permanent; `Some(d)` means the card is back (with cold caches) at
    /// `at_ms + d`, the end of the half-open down window `[at_ms, at_ms+d)`.
    pub restart_after_ms: Option<f64>,
}

/// One inter-card link running below nominal bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// One endpoint of the degraded edge.
    pub a: DeviceId,
    /// The other endpoint.
    pub b: DeviceId,
    /// Remaining bandwidth fraction, in `(0, 1]`.
    pub factor: f64,
    /// Active window `[start_ms, end_ms)`, or `None` for a permanent
    /// degradation. A windowed entry models a link flap: nominal bandwidth
    /// outside the window.
    pub window: Option<(f64, f64)>,
}

/// A malformed fault plan, rejected before any simulation runs.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A fault names a device the box does not have.
    UnknownDevice {
        /// The out-of-range device.
        device: DeviceId,
        /// How many devices the box has.
        devices: usize,
    },
    /// A card failure time is negative or not finite.
    BadFailureTime {
        /// The device whose failure time is malformed.
        device: DeviceId,
        /// The offending time.
        at_ms: f64,
    },
    /// A link degradation factor is outside `(0, 1]`.
    BadLinkFactor {
        /// One endpoint of the edge.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
        /// The offending factor.
        factor: f64,
    },
    /// A restart delay is zero, negative, or not finite.
    BadRestart {
        /// The device whose restart delay is malformed.
        device: DeviceId,
        /// The kill time the delay is attached to.
        at_ms: f64,
        /// The offending delay.
        restart_after_ms: f64,
    },
    /// Two failures of the same device contradict each other: the second
    /// kill lands inside the first one's down window (or after a permanent
    /// kill — a dead card cannot die again).
    OverlappingFailures {
        /// The doubly-killed device.
        device: DeviceId,
        /// The earlier kill time.
        first_ms: f64,
        /// The contradictory later kill time.
        second_ms: f64,
    },
    /// A link-flap window is empty, reversed, negative, or not finite.
    BadLinkWindow {
        /// One endpoint of the edge.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
        /// Window start, ms.
        start_ms: f64,
        /// Window end, ms.
        end_ms: f64,
    },
    /// Two degradations of the same edge are simultaneously active: their
    /// windows overlap (a permanent degradation overlaps everything), so
    /// the edge's bandwidth would be ambiguous.
    OverlappingLinkDegradations {
        /// One endpoint of the doubly-degraded edge.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
    },
    /// A [`FaultCampaign`] parameter is out of range: an out-of-range
    /// cascade seed device, a spread/decay probability outside `[0, 1]`, a
    /// non-positive down window or horizon.
    BadCampaign {
        /// What was wrong with the campaign.
        reason: String,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownDevice { device, devices } => {
                write!(f, "fault names {device} but the box has {devices} devices")
            }
            FaultError::BadFailureTime { device, at_ms } => {
                write!(
                    f,
                    "failure time {at_ms} ms for {device} must be finite and >= 0"
                )
            }
            FaultError::BadLinkFactor { a, b, factor } => {
                write!(
                    f,
                    "link {a}-{b} degradation factor {factor} must be in (0, 1]"
                )
            }
            FaultError::BadRestart {
                device,
                at_ms,
                restart_after_ms,
            } => write!(
                f,
                "restart delay {restart_after_ms} ms for {device} killed at \
                 {at_ms} ms must be finite and > 0"
            ),
            FaultError::OverlappingFailures {
                device,
                first_ms,
                second_ms,
            } => write!(
                f,
                "{device} is killed at {second_ms} ms while already down from \
                 the kill at {first_ms} ms — failures of one device must not \
                 overlap"
            ),
            FaultError::BadLinkWindow {
                a,
                b,
                start_ms,
                end_ms,
            } => write!(
                f,
                "link {a}-{b} flap window [{start_ms}, {end_ms}) ms must be \
                 non-empty, finite, and start at >= 0"
            ),
            FaultError::OverlappingLinkDegradations { a, b } => write!(
                f,
                "link {a}-{b} has two degradations active at the same time — \
                 their windows must not overlap"
            ),
            FaultError::BadCampaign { reason } => {
                write!(f, "fault campaign rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A deterministic schedule of hardware faults for one simulated box.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Whole-card failures. A device may fail repeatedly, but
    /// [`FaultPlan::validate`] requires the down windows to be disjoint
    /// (and nothing may follow a permanent kill).
    pub card_failures: Vec<CardFailure>,
    /// Degraded inter-card links (permanent or windowed flaps; windows on
    /// the same edge must not overlap).
    pub link_degradations: Vec<LinkDegradation>,
}

impl FaultPlan {
    /// The empty plan: nothing fails, nothing degrades.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.card_failures.is_empty() && self.link_degradations.is_empty()
    }

    /// Add a permanent whole-card failure: `device` dies at `at_ms`.
    pub fn kill(mut self, device: DeviceId, at_ms: f64) -> Self {
        self.card_failures.push(CardFailure {
            device,
            at_ms,
            restart_after_ms: None,
        });
        self
    }

    /// Add a transient whole-card failure: `device` dies at `at_ms` and
    /// restarts (cold caches) after `down_ms` of down-time.
    pub fn kill_for(mut self, device: DeviceId, at_ms: f64, down_ms: f64) -> Self {
        self.card_failures.push(CardFailure {
            device,
            at_ms,
            restart_after_ms: Some(down_ms),
        });
        self
    }

    /// Permanently degrade the `a`–`b` link to `factor` × nominal bandwidth.
    pub fn degrade_link(mut self, a: DeviceId, b: DeviceId, factor: f64) -> Self {
        self.link_degradations.push(LinkDegradation {
            a,
            b,
            factor,
            window: None,
        });
        self
    }

    /// Flap the `a`–`b` link: `factor` × nominal bandwidth inside
    /// `[start_ms, end_ms)`, nominal outside it.
    pub fn flap_link(
        mut self,
        a: DeviceId,
        b: DeviceId,
        factor: f64,
        start_ms: f64,
        end_ms: f64,
    ) -> Self {
        self.link_degradations.push(LinkDegradation {
            a,
            b,
            factor,
            window: Some((start_ms, end_ms)),
        });
        self
    }

    /// The up/down transition schedule of `device`, sorted by time: each
    /// kill contributes `(at_ms, false)`, and a transient kill additionally
    /// contributes `(at_ms + restart_after_ms, true)` for the restart.
    /// Empty when the plan never touches the device.
    pub fn transitions(&self, device: DeviceId) -> Vec<(f64, bool)> {
        let mut out = Vec::new();
        for c in self.card_failures.iter().filter(|c| c.device == device) {
            out.push((c.at_ms, false));
            if let Some(d) = c.restart_after_ms {
                out.push((c.at_ms + d, true));
            }
        }
        out.sort_by(|x, y| x.partial_cmp(y).expect("failure times are finite"));
        out
    }

    /// Reject plans that reference missing devices, carry malformed times
    /// or out-of-range factors, or schedule contradictory windows: a kill
    /// of a device that is already down (inside an earlier kill's restart
    /// window, or after a permanent kill), or two degradations of the same
    /// edge whose active windows overlap. `devices` is the box size.
    pub fn validate(&self, devices: usize) -> Result<(), FaultError> {
        let check_dev = |device: DeviceId| {
            if device.index() >= devices {
                Err(FaultError::UnknownDevice { device, devices })
            } else {
                Ok(())
            }
        };
        for c in &self.card_failures {
            check_dev(c.device)?;
            if !c.at_ms.is_finite() || c.at_ms < 0.0 {
                return Err(FaultError::BadFailureTime {
                    device: c.device,
                    at_ms: c.at_ms,
                });
            }
            if let Some(d) = c.restart_after_ms {
                if !d.is_finite() || d <= 0.0 {
                    return Err(FaultError::BadRestart {
                        device: c.device,
                        at_ms: c.at_ms,
                        restart_after_ms: d,
                    });
                }
            }
        }
        // Per device, down windows must be disjoint: sort kills by time and
        // require each to start at or after the previous window's end (a
        // permanent kill's window never ends, so nothing may follow it).
        for d in 0..devices {
            let mut kills: Vec<&CardFailure> = self
                .card_failures
                .iter()
                .filter(|c| c.device == DeviceId(d))
                .collect();
            kills.sort_by(|x, y| {
                x.at_ms
                    .partial_cmp(&y.at_ms)
                    .expect("failure times are finite")
            });
            for pair in kills.windows(2) {
                let overlap = match pair[0].restart_after_ms {
                    None => true, // dead forever; a second kill contradicts
                    Some(r) => pair[1].at_ms < pair[0].at_ms + r,
                };
                if overlap {
                    return Err(FaultError::OverlappingFailures {
                        device: DeviceId(d),
                        first_ms: pair[0].at_ms,
                        second_ms: pair[1].at_ms,
                    });
                }
            }
        }
        for l in &self.link_degradations {
            check_dev(l.a)?;
            check_dev(l.b)?;
            if !l.factor.is_finite() || l.factor <= 0.0 || l.factor > 1.0 {
                return Err(FaultError::BadLinkFactor {
                    a: l.a,
                    b: l.b,
                    factor: l.factor,
                });
            }
            if let Some((s, e)) = l.window {
                if !s.is_finite() || !e.is_finite() || s < 0.0 || e <= s {
                    return Err(FaultError::BadLinkWindow {
                        a: l.a,
                        b: l.b,
                        start_ms: s,
                        end_ms: e,
                    });
                }
            }
        }
        // Per undirected edge, at most one degradation may be active at any
        // instant; a permanent entry (no window) is active always.
        let edge = |l: &LinkDegradation| {
            let (x, y) = (l.a.index(), l.b.index());
            (x.min(y), x.max(y))
        };
        for (i, l) in self.link_degradations.iter().enumerate() {
            for m in &self.link_degradations[i + 1..] {
                if edge(l) != edge(m) {
                    continue;
                }
                let overlap = match (l.window, m.window) {
                    (None, _) | (_, None) => true,
                    (Some((s1, e1)), Some((s2, e2))) => s1 < e2 && s2 < e1,
                };
                if overlap {
                    return Err(FaultError::OverlappingLinkDegradations { a: l.a, b: l.b });
                }
            }
        }
        Ok(())
    }
}

/// A correlated-fault burst model that lowers to a validated [`FaultPlan`].
///
/// Real fleet incidents are correlated — a rack PDU trip takes down every
/// card in a box at once, and a flapping link perturbs its neighbors. A
/// `FaultCampaign` captures those burst shapes as plain data;
/// [`FaultCampaign::seeded`] expands one into a concrete [`FaultPlan`]
/// deterministically from a `u64` seed, using the [`Topology`] to resolve
/// box membership and link adjacency.
///
/// Generation partitions the horizon into one slot per event and keeps each
/// event's fault windows inside its slot, so the lowered plan passes
/// [`FaultPlan::validate`] by construction: same-device down windows and
/// same-edge flap windows never overlap across events.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultCampaign {
    /// Rack-level power events: each event picks one box (via
    /// [`Topology::boxes`]) and kills *every* card in it for a shared down
    /// window drawn from `down_ms`, modelling a PDU trip or top-of-rack
    /// power fault.
    RackPower {
        /// How many power events to schedule across the horizon.
        events: usize,
        /// `(min, max)` down-time per event, ms (clamped to half the
        /// per-event slot so restart windows never cross into the next
        /// event's slot).
        down_ms: (f64, f64),
    },
    /// Cascading link flaps: each event flaps the link nearest `origin`,
    /// then spreads to neighboring links with probability
    /// `spread * decay^(depth-1)` up to `max_depth` hops, each child flap
    /// starting slightly after its parent — modelling a RoCE storm
    /// propagating along the ring.
    CascadeFlaps {
        /// The card whose adjacent link seeds each cascade.
        origin: DeviceId,
        /// How many cascade events to schedule across the horizon.
        events: usize,
        /// Probability that a flap spreads to an untouched neighbor link at
        /// depth 1, in `[0, 1]`.
        spread: f64,
        /// Multiplicative decay of the spread probability per extra hop, in
        /// `[0, 1]`.
        decay: f64,
        /// Maximum cascade depth in links from the origin (0 flaps only the
        /// origin link).
        max_depth: usize,
    },
}

impl FaultCampaign {
    /// A rack-power campaign: `events` box-wide kills with per-event
    /// down-time drawn uniformly from `down_ms`.
    pub fn rack_power(events: usize, down_ms: (f64, f64)) -> Self {
        FaultCampaign::RackPower { events, down_ms }
    }

    /// A cascading link-flap campaign seeded at `origin`'s adjacent link.
    pub fn cascade_flaps(
        origin: DeviceId,
        events: usize,
        spread: f64,
        decay: f64,
        max_depth: usize,
    ) -> Self {
        FaultCampaign::CascadeFlaps {
            origin,
            events,
            spread,
            decay,
            max_depth,
        }
    }

    /// Lower the campaign to a concrete, validated [`FaultPlan`] over
    /// `topo` and a `horizon_ms` simulation window, fully determined by
    /// `seed` (SplitMix64; no OS entropy anywhere).
    ///
    /// Rejects out-of-range parameters with
    /// [`FaultError::BadCampaign`] — a non-positive or non-finite horizon
    /// or down window, a cascade origin outside the topology, or
    /// spread/decay outside `[0, 1]` — and re-validates the lowered plan
    /// against `topo.devices` before returning it.
    pub fn seeded(
        &self,
        seed: u64,
        topo: &Topology,
        horizon_ms: f64,
    ) -> Result<FaultPlan, FaultError> {
        let reject = |reason: String| Err(FaultError::BadCampaign { reason });
        if !horizon_ms.is_finite() || horizon_ms <= 0.0 {
            return reject(format!("horizon {horizon_ms} ms must be finite and > 0"));
        }
        if topo.devices == 0 {
            return reject("topology has no devices".to_string());
        }
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::none();
        match *self {
            FaultCampaign::RackPower {
                events,
                down_ms: (lo, hi),
            } => {
                if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || hi < lo {
                    return reject(format!(
                        "down window ({lo}, {hi}) ms must be finite with 0 < min <= max"
                    ));
                }
                if events == 0 {
                    return Ok(plan);
                }
                let slot = horizon_ms / events as f64;
                let boxes = topo.boxes() as u64;
                for e in 0..events {
                    let b = (rng.next_u64() % boxes) as usize;
                    let start = (e as f64 + 0.4 * rng.uniform()) * slot;
                    // Clamp so the restart lands strictly inside this
                    // event's slot: a later event killing the same box can
                    // never overlap this down window.
                    let down = (lo + (hi - lo) * rng.uniform()).min(0.5 * slot);
                    for c in 0..topo.cards_per_box {
                        let d = b * topo.cards_per_box + c;
                        if d < topo.devices {
                            plan = plan.kill_for(DeviceId(d), start, down);
                        }
                    }
                }
            }
            FaultCampaign::CascadeFlaps {
                origin,
                events,
                spread,
                decay,
                max_depth,
            } => {
                if topo.devices < 2 {
                    return reject(format!(
                        "cascade needs >= 2 devices for a link, topology has {}",
                        topo.devices
                    ));
                }
                if origin.index() >= topo.devices {
                    return reject(format!(
                        "cascade seed {origin} is out of range for {} devices",
                        topo.devices
                    ));
                }
                if !spread.is_finite() || !(0.0..=1.0).contains(&spread) {
                    return reject(format!("spread {spread} must be in [0, 1]"));
                }
                if !decay.is_finite() || !(0.0..=1.0).contains(&decay) {
                    return reject(format!("decay {decay} must be in [0, 1]"));
                }
                if events == 0 {
                    return Ok(plan);
                }
                let slot = horizon_ms / events as f64;
                // Ring links: link `l` joins cards `l` and `l+1`.
                let links = topo.devices - 1;
                let origin_link = origin.index().min(links - 1);
                for e in 0..events {
                    let start = (e as f64 + 0.3 * rng.uniform()) * slot;
                    let dur = (0.15 + 0.25 * rng.uniform()) * slot;
                    // BFS over links; each link flaps at most once per
                    // event, and child flaps lag their parent by 2% of the
                    // slot per hop (capped so every window stays inside the
                    // slot — windows are half-open, so touching the slot
                    // boundary still never overlaps the next event).
                    let mut visited = vec![false; links];
                    let mut frontier = vec![(origin_link, 0usize)];
                    visited[origin_link] = true;
                    let mut i = 0;
                    while i < frontier.len() {
                        let (l, depth) = frontier[i];
                        i += 1;
                        let lag = ((depth as f64) * 0.02).min(0.3) * slot;
                        let factor = 0.25 + 0.5 * rng.uniform();
                        plan = plan.flap_link(
                            DeviceId(l),
                            DeviceId(l + 1),
                            factor,
                            start + lag,
                            start + lag + dur,
                        );
                        if depth >= max_depth {
                            continue;
                        }
                        let p = spread * decay.powi(depth as i32);
                        for n in [l.wrapping_sub(1), l + 1] {
                            if n < links && !visited[n] && rng.uniform() < p {
                                visited[n] = true;
                                frontier.push((n, depth + 1));
                            }
                        }
                    }
                }
            }
        }
        plan.validate(topo.devices)?;
        Ok(plan)
    }
}

/// SplitMix64: the standard 64-bit mixing PRNG. Tiny, seedable, and good
/// enough for fault-schedule generation; keeping it local avoids a
/// dependency from `gaudi-hw` on the tensor crate's RNG.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.transitions(DeviceId(0)).is_empty());
        assert!(p.validate(1).is_ok());
    }

    #[test]
    fn builders_compose_and_query() {
        let p = FaultPlan::none()
            .kill_for(DeviceId(2), 30.0, 10.0)
            .kill(DeviceId(2), 50.0)
            .degrade_link(DeviceId(0), DeviceId(1), 0.5);
        assert!(!p.is_empty());
        assert_eq!(p.card_failures.len(), 2);
        assert_eq!(p.link_degradations.len(), 1);
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn transitions_track_restart_windows() {
        let p = FaultPlan::none()
            .kill_for(DeviceId(1), 20.0, 10.0)
            .kill(DeviceId(1), 50.0);
        assert_eq!(
            p.transitions(DeviceId(1)),
            vec![(20.0, false), (30.0, true), (50.0, false)]
        );
        assert_eq!(p.transitions(DeviceId(0)), vec![]);
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn validation_rejects_contradictory_windows() {
        // A second kill inside the first kill's down window.
        let inside = FaultPlan::none()
            .kill_for(DeviceId(1), 10.0, 20.0)
            .kill(DeviceId(1), 15.0);
        assert!(matches!(
            inside.validate(2),
            Err(FaultError::OverlappingFailures {
                device: DeviceId(1),
                ..
            })
        ));
        // Any kill after a permanent kill of the same device.
        let after_permanent =
            FaultPlan::none()
                .kill(DeviceId(1), 10.0)
                .kill_for(DeviceId(1), 50.0, 5.0);
        assert!(matches!(
            after_permanent.validate(2),
            Err(FaultError::OverlappingFailures { .. })
        ));
        // Duplicate kills at the same instant.
        let dup = FaultPlan::none()
            .kill(DeviceId(1), 10.0)
            .kill(DeviceId(1), 10.0);
        assert!(matches!(
            dup.validate(2),
            Err(FaultError::OverlappingFailures { .. })
        ));
        // Back-to-back transient kills with disjoint windows are fine.
        let disjoint =
            FaultPlan::none()
                .kill_for(DeviceId(1), 10.0, 5.0)
                .kill_for(DeviceId(1), 15.0, 5.0);
        assert!(disjoint.validate(2).is_ok());
        // Malformed restart delay.
        let bad_restart = FaultPlan::none().kill_for(DeviceId(1), 10.0, 0.0);
        assert!(matches!(
            bad_restart.validate(2),
            Err(FaultError::BadRestart { .. })
        ));
        // Duplicate degradations of one edge (order-insensitive endpoints).
        let dup_link = FaultPlan::none()
            .degrade_link(DeviceId(0), DeviceId(1), 0.5)
            .flap_link(DeviceId(1), DeviceId(0), 0.75, 5.0, 10.0);
        assert!(matches!(
            dup_link.validate(2),
            Err(FaultError::OverlappingLinkDegradations { .. })
        ));
        // Disjoint flaps of one edge are fine.
        let flaps = FaultPlan::none()
            .flap_link(DeviceId(0), DeviceId(1), 0.5, 0.0, 5.0)
            .flap_link(DeviceId(0), DeviceId(1), 0.75, 5.0, 10.0);
        assert!(flaps.validate(2).is_ok());
        // Malformed flap window.
        let bad_window = FaultPlan::none().flap_link(DeviceId(0), DeviceId(1), 0.5, 8.0, 8.0);
        assert!(matches!(
            bad_window.validate(2),
            Err(FaultError::BadLinkWindow { .. })
        ));
        // Every rejection renders a descriptive message.
        for plan in [inside, after_permanent, dup, dup_link, bad_window] {
            let msg = plan.validate(2).unwrap_err().to_string();
            assert!(!msg.is_empty());
        }
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let unknown = FaultPlan::none().kill(DeviceId(4), 1.0);
        assert!(matches!(
            unknown.validate(4),
            Err(FaultError::UnknownDevice { .. })
        ));
        let bad_time = FaultPlan::none().kill(DeviceId(0), -1.0);
        assert!(matches!(
            bad_time.validate(1),
            Err(FaultError::BadFailureTime { .. })
        ));
        let bad_factor = FaultPlan::none().degrade_link(DeviceId(0), DeviceId(1), 1.5);
        assert!(matches!(
            bad_factor.validate(2),
            Err(FaultError::BadLinkFactor { .. })
        ));
        let zero_factor = FaultPlan::none().degrade_link(DeviceId(0), DeviceId(1), 0.0);
        assert!(matches!(
            zero_factor.validate(2),
            Err(FaultError::BadLinkFactor { .. })
        ));
        // Zero- and negative-duration windows are rejected for every fault
        // kind, each with its own descriptive variant.
        let zero_down = FaultPlan::none().kill_for(DeviceId(0), 10.0, 0.0);
        assert!(matches!(
            zero_down.validate(1),
            Err(FaultError::BadRestart { .. })
        ));
        let neg_down = FaultPlan::none().kill_for(DeviceId(0), 10.0, -5.0);
        assert!(matches!(
            neg_down.validate(1),
            Err(FaultError::BadRestart { .. })
        ));
        let neg_flap = FaultPlan::none().flap_link(DeviceId(0), DeviceId(1), 0.5, 10.0, 5.0);
        assert!(matches!(
            neg_flap.validate(2),
            Err(FaultError::BadLinkWindow { .. })
        ));
        for plan in [zero_down, neg_down, neg_flap] {
            assert!(!plan.validate(2).unwrap_err().to_string().is_empty());
        }
    }

    fn cluster_topo(boxes: usize, cards: usize) -> Topology {
        let cfg = crate::GaudiConfig::hls1();
        Topology::cluster(&cfg, boxes, cards, 1.0)
    }

    #[test]
    fn rack_power_kills_whole_boxes_deterministically() {
        let topo = cluster_topo(4, 2);
        let camp = FaultCampaign::rack_power(3, (10.0, 40.0));
        let a = camp.seeded(7, &topo, 600.0).unwrap();
        let b = camp.seeded(7, &topo, 600.0).unwrap();
        assert_eq!(a, b, "same seed must reproduce the plan");
        a.validate(topo.devices).unwrap();
        // 3 events x 2 cards per box: every kill is transient, and the two
        // kills of one event share a box, a start time, and a down window.
        assert_eq!(a.card_failures.len(), 6);
        for ev in a.card_failures.chunks(2) {
            assert_eq!(topo.box_of(ev[0].device), topo.box_of(ev[1].device));
            assert_eq!(ev[0].at_ms, ev[1].at_ms);
            assert_eq!(ev[0].restart_after_ms, ev[1].restart_after_ms);
            assert!(ev[0].restart_after_ms.unwrap() > 0.0);
        }
        // Different seeds eventually differ.
        assert!((0..20u64).any(|s| {
            camp.seeded(s, &topo, 600.0).unwrap() != camp.seeded(s + 20, &topo, 600.0).unwrap()
        }));
    }

    #[test]
    fn cascade_flaps_stay_within_depth_and_validate() {
        let topo = cluster_topo(1, 8);
        let camp = FaultCampaign::cascade_flaps(DeviceId(3), 4, 0.9, 0.7, 2);
        for seed in 0..30u64 {
            let plan = camp.seeded(seed, &topo, 800.0).unwrap();
            assert_eq!(plan, camp.seeded(seed, &topo, 800.0).unwrap());
            plan.validate(topo.devices).unwrap();
            assert!(plan.card_failures.is_empty());
            assert!(!plan.link_degradations.is_empty(), "origin always flaps");
            for l in &plan.link_degradations {
                let link = l.a.index().min(l.b.index());
                // Origin link is 3 (cards 3-4); depth 2 reaches links 1..=5.
                assert!(
                    (1..=5).contains(&link),
                    "seed {seed}: link {link} beyond max_depth"
                );
                assert!(l.window.is_some(), "cascade flaps are always windowed");
            }
        }
    }

    #[test]
    fn campaigns_reject_out_of_range_parameters() {
        let topo = cluster_topo(2, 2);
        let cases: Vec<(&str, Result<FaultPlan, FaultError>)> = vec![
            (
                "bad horizon",
                FaultCampaign::rack_power(2, (5.0, 10.0)).seeded(1, &topo, 0.0),
            ),
            (
                "zero down window",
                FaultCampaign::rack_power(2, (0.0, 10.0)).seeded(1, &topo, 100.0),
            ),
            (
                "reversed down window",
                FaultCampaign::rack_power(2, (10.0, 5.0)).seeded(1, &topo, 100.0),
            ),
            (
                "out-of-range cascade seed",
                FaultCampaign::cascade_flaps(DeviceId(9), 2, 0.5, 0.5, 1).seeded(1, &topo, 100.0),
            ),
            (
                "spread above 1",
                FaultCampaign::cascade_flaps(DeviceId(0), 2, 1.5, 0.5, 1).seeded(1, &topo, 100.0),
            ),
            (
                "negative decay",
                FaultCampaign::cascade_flaps(DeviceId(0), 2, 0.5, -0.1, 1).seeded(1, &topo, 100.0),
            ),
        ];
        for (what, res) in cases {
            let err = res.unwrap_err();
            assert!(
                matches!(err, FaultError::BadCampaign { .. }),
                "{what}: expected BadCampaign, got {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.starts_with("fault campaign rejected"), "{what}: {msg}");
        }
        // Zero events is a valid no-op, not an error.
        let empty = FaultCampaign::rack_power(0, (5.0, 10.0))
            .seeded(1, &topo, 100.0)
            .unwrap();
        assert!(empty.is_empty());
    }
}
