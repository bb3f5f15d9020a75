//! Route-aware flow-level fabrics: concrete topologies whose collectives
//! are priced by max-min fair sharing over explicit link routes.
//!
//! The analytical [`CollectiveModel`](crate::CollectiveModel) prices a ring
//! collective as `steps × t_step + wire_bytes / B` — exact for dedicated
//! per-hop links, blind to contention. A [`RoutedFabric`] instead *builds*
//! the interconnect as a [`Topology`] graph, computes shortest-path route
//! tables (deterministic BFS), and drives each collective as a batch of
//! timed flows through a [`mcdla_sim::FlowNetwork`]: one flow per logical
//! ring hop, each occupying the channel list of its route, all sharing
//! links max-min fairly. On uncontended topologies the flow price collapses
//! to the analytical formula (same `B`, same wire bytes); on contended ones
//! (host-PCIe escape channels between backplane islands) the shared links
//! throttle the drain and reproduce the paper's §VI scale-out cliff.

use std::collections::VecDeque;
use std::fmt;

use serde::Serialize;

use mcdla_sim::{Bandwidth, Bytes, ChannelId, FlowNetwork, SimDuration};

use crate::collective::{CollectiveKind, CollectiveModel};
use crate::graph::{NodeId, NodeKind, Topology};
use crate::ring::RingShape;

/// The fabric shapes the `topology` scenario knob selects.
///
/// `Ring`, `Line`, and `Mesh` wire device-nodes directly; beyond one
/// backplane island their inter-island hops ride shared host-PCIe escape
/// channels (the §VI cliff). `PooledSwitch` and `FatTree` are switched
/// fabrics whose per-plane bandwidth holds at any scale.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum FabricTopology {
    /// The design's native ring planes realized as a device cycle with
    /// dedicated per-plane links inside each backplane island.
    Ring,
    /// A device chain (no wrap link): the ring's wrap hop routes back
    /// through every reverse link of the line.
    Line,
    /// A `⌈√n⌉`-wide 2-D grid; the collective ring snakes row by row.
    Mesh,
    /// The Fig. 15 NVSwitch-class star: every device hangs its collective
    /// links off one pooled switch plane.
    PooledSwitch,
    /// Two-level tree: one edge switch per backplane pod, fat trunks
    /// (pod-width capacity) to a core switch.
    FatTree,
}

impl FabricTopology {
    /// All five topologies, in documentation order.
    pub const ALL: [FabricTopology; 5] = [
        FabricTopology::Ring,
        FabricTopology::Line,
        FabricTopology::Mesh,
        FabricTopology::PooledSwitch,
        FabricTopology::FatTree,
    ];

    /// The wire (serde) name of this topology — the PascalCase variant
    /// identifier the derived `Serialize` emits.
    pub fn wire_name(self) -> &'static str {
        match self {
            FabricTopology::Ring => "Ring",
            FabricTopology::Line => "Line",
            FabricTopology::Mesh => "Mesh",
            FabricTopology::PooledSwitch => "PooledSwitch",
            FabricTopology::FatTree => "FatTree",
        }
    }

    /// The human label used in scenario labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            FabricTopology::Ring => "ring",
            FabricTopology::Line => "line",
            FabricTopology::Mesh => "mesh",
            FabricTopology::PooledSwitch => "pooled-switch",
            FabricTopology::FatTree => "fat-tree",
        }
    }
}

impl fmt::Display for FabricTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accepts either the serde wire name (`PooledSwitch`) or the label
/// (`pooled-switch`), in any case; an unknown name answers with the full
/// accepted list. This is what CLI flags like `--topologies` parse with.
impl std::str::FromStr for FabricTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        FabricTopology::ALL
            .iter()
            .copied()
            .find(|t| s.eq_ignore_ascii_case(t.wire_name()) || s.eq_ignore_ascii_case(t.name()))
            .ok_or_else(|| {
                let accepted: Vec<String> = FabricTopology::ALL
                    .iter()
                    .map(|t| format!("{} / {}", t.wire_name(), t.name()))
                    .collect();
                format!(
                    "unknown FabricTopology `{s}` (accepted, case-insensitive: {})",
                    accepted.join(", ")
                )
            })
    }
}

// Hand-written (not derived) so wire payloads get the same lenient
// names-plus-labels parsing as the CLI.
impl serde::Deserialize for FabricTopology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "FabricTopology"))?;
        s.parse().map_err(serde::Error::custom)
    }
}

/// Everything a [`RoutedFabric`] needs to know about the system it wires.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// Device-node count.
    pub devices: usize,
    /// The design's logical collective planes (participants + analytical
    /// hop counts); the fabric realizes one ring per plane.
    pub planes: Vec<RingShape>,
    /// Per-plane, per-direction collective bandwidth in GB/s — the `B` the
    /// analytical model would use.
    pub plane_gbs: f64,
    /// Devices per backplane island; direct topologies cross island
    /// boundaries over shared escape channels.
    pub backplane: usize,
    /// Escape-channel bandwidth between adjacent islands in GB/s (the
    /// host-PCIe share), shared by every plane crossing that boundary.
    pub escape_gbs: f64,
}

/// A concrete topology with shortest-path routes and flow-level collective
/// pricing.
#[derive(Debug, Clone)]
pub struct RoutedFabric {
    kind: FabricTopology,
    topology: Topology,
    /// One channel per uni-directional link, in link-id order.
    channels: FlowNetwork,
    rings: Vec<RingShape>,
    /// `[ring][hop] -> channel route` for the flow batch of one collective.
    ring_hop_paths: Vec<Vec<Vec<ChannelId>>>,
}

/// Deterministic BFS shortest path (node list, inclusive); neighbors are
/// explored in link-id order so ties always break the same way.
fn shortest_node_path(t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let n = t.nodes().len();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src.index()] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for l in t.links_from(u) {
            let v = l.dst();
            if !seen[v.index()] {
                seen[v.index()] = true;
                parent[v.index()] = Some(u);
                if v == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while let Some(p) = parent[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(v);
            }
        }
    }
    None
}

fn pipeline_steps(kind: CollectiveKind, participants: usize) -> f64 {
    match kind {
        CollectiveKind::AllGather => (participants - 1) as f64,
        CollectiveKind::AllReduce => 2.0 * (participants - 1) as f64,
        CollectiveKind::Broadcast => participants.saturating_sub(2) as f64,
    }
}

impl RoutedFabric {
    /// Builds the `kind` fabric for `spec`.
    ///
    /// Fabrics with fewer than 2 devices or no planes are empty (no rings);
    /// their collectives price to [`SimDuration::MAX`], matching
    /// [`CollectiveModel::striped_latency`] over an empty ring set.
    ///
    /// # Panics
    ///
    /// Panics if `spec.backplane` is zero or a bandwidth is not positive.
    pub fn build(kind: FabricTopology, spec: &FabricSpec) -> RoutedFabric {
        assert!(spec.backplane >= 1, "backplane island must hold a device");
        let n = spec.devices;
        if n < 2 || spec.planes.is_empty() {
            return RoutedFabric {
                kind,
                topology: Topology::new(),
                channels: FlowNetwork::new(),
                rings: Vec::new(),
                ring_hop_paths: Vec::new(),
            };
        }
        let planes = spec.planes.len();
        let bp = spec.backplane;
        let islands = n.div_ceil(bp);
        let mut t = Topology::new();
        let dev: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        match kind {
            FabricTopology::Ring | FabricTopology::Line => {
                // Dedicated per-plane neighbor links inside an island.
                for _ in 0..planes {
                    for i in 0..n {
                        let j = (i + 1) % n;
                        if kind == FabricTopology::Line && j == 0 {
                            continue; // no wrap link on a line
                        }
                        if n == 2 && i == 1 {
                            continue; // the first duplex pair already covers both directions
                        }
                        if i / bp == j / bp {
                            t.add_duplex_link(dev[i], dev[j], spec.plane_gbs);
                        }
                    }
                }
                // Shared escape channels across island boundaries (one
                // switch per boundary, shared by all planes).
                if islands > 1 {
                    let boundaries = if kind == FabricTopology::Line {
                        islands - 1
                    } else {
                        islands
                    };
                    for b in 0..boundaries {
                        let i = ((b + 1) * bp).min(n) - 1;
                        let j = ((b + 1) % islands) * bp;
                        let x = t.add_node(NodeKind::Switch, format!("X{b}"));
                        t.add_duplex_link(dev[i], x, spec.escape_gbs);
                        t.add_duplex_link(x, dev[j], spec.escape_gbs);
                    }
                }
            }
            FabricTopology::Mesh => {
                let w = (n as f64).sqrt().ceil() as usize;
                for _ in 0..planes {
                    for i in 0..n {
                        if (i + 1) % w != 0 && i + 1 < n {
                            t.add_duplex_link(dev[i], dev[i + 1], spec.plane_gbs);
                        }
                        if i + w < n {
                            t.add_duplex_link(dev[i], dev[i + w], spec.plane_gbs);
                        }
                    }
                }
            }
            FabricTopology::PooledSwitch => {
                let sw = t.add_node(NodeKind::Switch, "SW");
                for _ in 0..planes {
                    for &d in &dev {
                        t.add_duplex_link(d, sw, spec.plane_gbs);
                    }
                }
            }
            FabricTopology::FatTree => {
                let core = t.add_node(NodeKind::Switch, "C");
                let pods = islands;
                let edges: Vec<NodeId> = (0..pods)
                    .map(|p| t.add_node(NodeKind::Switch, format!("E{p}")))
                    .collect();
                for _ in 0..planes {
                    for (i, &d) in dev.iter().enumerate() {
                        t.add_duplex_link(d, edges[i / bp], spec.plane_gbs);
                    }
                }
                // One fat trunk per pod, pod-width capacity, shared by all
                // planes (a full-bisection tree).
                for &e in &edges {
                    t.add_duplex_link(e, core, spec.plane_gbs * bp as f64);
                }
            }
        }
        // The collective ring order over device indices.
        let order: Vec<usize> = match kind {
            FabricTopology::Mesh => {
                let w = (n as f64).sqrt().ceil() as usize;
                let mut o = Vec::with_capacity(n);
                for r in 0..n.div_ceil(w) {
                    let row: Vec<usize> = (r * w..((r + 1) * w).min(n)).collect();
                    if r % 2 == 0 {
                        o.extend(row);
                    } else {
                        o.extend(row.into_iter().rev());
                    }
                }
                o
            }
            _ => (0..n).collect(),
        };
        // One flow-network channel per link, in link-id order.
        let mut channels = FlowNetwork::new();
        let chan: Vec<ChannelId> = t
            .links()
            .iter()
            .map(|l| channels.add_channel(Bandwidth::gb_per_sec(l.bandwidth_gbs())))
            .collect();
        // Route every ring hop; plane k takes parallel link k (mod count)
        // between a node pair, so planes get dedicated lanes where the
        // graph provides them and share where it does not.
        let mut rings = Vec::with_capacity(planes);
        let mut ring_hop_paths = Vec::with_capacity(planes);
        for (k, plane) in spec.planes.iter().enumerate() {
            let mut hops = Vec::with_capacity(n);
            let mut realized = 0usize;
            for i in 0..n {
                let u = dev[order[i]];
                let v = dev[order[(i + 1) % n]];
                let nodes = shortest_node_path(&t, u, v).expect("fabric graph is connected");
                let mut route = Vec::with_capacity(nodes.len() - 1);
                for pair in nodes.windows(2) {
                    let parallel = t.links_between(pair[0], pair[1]);
                    route.push(chan[parallel[k % parallel.len()].index()]);
                }
                realized += route.len();
                hops.push(route);
            }
            let shape = match kind {
                // The ring realizes the design's analytical planes: keep
                // their hop counts (memory-node relays included) so the
                // pipeline-fill term matches the analytical model exactly,
                // plus one extra wire hop per island crossing.
                FabricTopology::Ring => RingShape {
                    participants: plane.participants.min(n).max(2),
                    hops: plane.hops + realized.saturating_sub(n),
                },
                _ => RingShape {
                    participants: n,
                    hops: realized,
                },
            };
            rings.push(shape);
            ring_hop_paths.push(hops);
        }
        RoutedFabric {
            kind,
            topology: t,
            channels,
            rings,
            ring_hop_paths,
        }
    }

    /// Which topology this fabric realizes.
    pub fn kind(&self) -> FabricTopology {
        self.kind
    }

    /// The underlying node/link graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The logical collective planes (participants + hop counts).
    pub fn ring_shapes(&self) -> &[RingShape] {
        &self.rings
    }

    /// Flows one collective opens (one per ring hop across all planes).
    pub fn flows_per_collective(&self) -> usize {
        self.ring_hop_paths.iter().map(Vec::len).sum()
    }

    /// Prices one collective of `size` bytes, striped evenly across the
    /// fabric's planes, as a timed flow batch.
    ///
    /// Per plane the cost is the analytical pipeline-fill term
    /// (`steps × t_step`, using `model`'s message size and hop latency)
    /// plus the *simulated* drain: every ring hop opens one flow of that
    /// ring's [`wire_bytes_per_link`](CollectiveModel::wire_bytes_per_link)
    /// over its route, all planes at once, and the plane's drain is its
    /// slowest flow under max-min fair sharing. The collective completes
    /// when its slowest plane does. On dedicated routes the drain is
    /// exactly `wire_bytes / B`, i.e. the analytical bandwidth term.
    ///
    /// Empty fabrics price to [`SimDuration::MAX`] (nothing can be
    /// exchanged), zero-byte collectives to zero.
    pub fn collective_time(
        &self,
        model: &CollectiveModel,
        kind: CollectiveKind,
        size: Bytes,
    ) -> SimDuration {
        if self.rings.is_empty() {
            return SimDuration::MAX;
        }
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        let share = Bytes::new(size.as_u64().div_ceil(self.rings.len() as u64));
        let mut batch = Vec::new();
        let mut ring_of = Vec::new();
        for (r, hops) in self.ring_hop_paths.iter().enumerate() {
            let shape = self.rings[r];
            if shape.participants < 2 {
                continue;
            }
            let wire = model.wire_bytes_per_link(kind, share, shape);
            if wire.is_zero() {
                continue;
            }
            for route in hops {
                batch.push((route.as_slice(), wire));
                ring_of.push(r);
            }
        }
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let Some(done) = self.channels.drain(&batch) else {
            return SimDuration::MAX; // a starved (zero-capacity) route
        };
        let mut drain = vec![SimDuration::ZERO; self.rings.len()];
        for (t, &r) in done.iter().zip(&ring_of) {
            drain[r] = drain[r].max(SimDuration::from_secs_f64(t.as_secs_f64()));
        }
        let b = model.link_bandwidth_gbs * 1e9;
        let mut total = SimDuration::ZERO;
        for (r, shape) in self.rings.iter().enumerate() {
            if shape.participants < 2 {
                continue;
            }
            let t_step =
                shape.hops_per_step() * (model.hop_latency_secs + model.message_bytes as f64 / b);
            let fill =
                SimDuration::from_secs_f64(pipeline_steps(kind, shape.participants) * t_step);
            total = total.max(fill + drain[r]);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(devices: usize, plane_gbs: f64, escape_gbs: f64) -> FabricSpec {
        FabricSpec {
            devices,
            planes: vec![RingShape::device_ring(devices); 3],
            plane_gbs,
            backplane: 8,
            escape_gbs,
        }
    }

    fn rel_err(a: SimDuration, b: SimDuration) -> f64 {
        (a.as_secs_f64() - b.as_secs_f64()).abs() / b.as_secs_f64().max(1e-30)
    }

    #[test]
    fn ring_matches_analytical_inside_one_backplane() {
        // Dedicated per-plane channels: the flow drain is exactly the
        // analytical bandwidth term, for every collective kind and size.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        for devices in [2usize, 4, 8] {
            let fab = RoutedFabric::build(FabricTopology::Ring, &spec(devices, 50.0, 8.0));
            for kind in CollectiveKind::ALL {
                for size in [Bytes::from_kib(64), Bytes::from_mib(8), Bytes::from_mib(64)] {
                    let flow = fab.collective_time(&model, kind, size);
                    let analytic = model.striped_latency(kind, size, fab.ring_shapes());
                    assert!(
                        rel_err(flow, analytic) < 1e-4,
                        "{kind} at {devices} devices: flow {flow} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_keeps_analytic_plane_hops() {
        // MC-DLA star planes carry memory-node relays (hops > devices);
        // the realized ring must keep those hop counts for the fill term.
        let planes = vec![
            RingShape {
                participants: 8,
                hops: 8,
            },
            RingShape {
                participants: 8,
                hops: 12,
            },
            RingShape {
                participants: 8,
                hops: 20,
            },
        ];
        let fab = RoutedFabric::build(
            FabricTopology::Ring,
            &FabricSpec {
                devices: 8,
                planes: planes.clone(),
                plane_gbs: 50.0,
                backplane: 8,
                escape_gbs: 8.0,
            },
        );
        assert_eq!(fab.ring_shapes(), planes.as_slice());
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let flow = fab.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
        let analytic =
            model.striped_latency(CollectiveKind::AllReduce, Bytes::from_mib(8), &planes);
        assert!(rel_err(flow, analytic) < 1e-6);
    }

    #[test]
    fn escape_channels_throttle_the_ring_at_scale() {
        // 64 devices = 8 islands; every plane's island crossings share one
        // thin escape channel per boundary, so the ring collapses while the
        // pooled switch holds the per-plane rate — the §VI cliff.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let size = Bytes::from_mib(8);
        let ring = RoutedFabric::build(FabricTopology::Ring, &spec(64, 50.0, 4.0));
        let pooled = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(64, 50.0, 4.0));
        let t_ring = ring.collective_time(&model, CollectiveKind::AllReduce, size);
        let t_pooled = pooled.collective_time(&model, CollectiveKind::AllReduce, size);
        assert!(
            t_ring.as_secs_f64() > 3.0 * t_pooled.as_secs_f64(),
            "ring {t_ring} should cliff vs pooled {t_pooled}"
        );
    }

    #[test]
    fn pooled_switch_is_dedicated_at_any_scale() {
        // Star routes give every plane its own up/down lane per device, so
        // the flow price stays at the analytical 2n-hop ring price.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        for devices in [8usize, 64] {
            let fab = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(devices, 50.0, 4.0));
            for s in fab.ring_shapes() {
                assert_eq!(
                    (s.participants, s.hops),
                    (devices, 2 * devices),
                    "star rings traverse up+down per step"
                );
            }
            let flow = fab.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
            let analytic = model.striped_latency(
                CollectiveKind::AllReduce,
                Bytes::from_mib(8),
                fab.ring_shapes(),
            );
            assert!(rel_err(flow, analytic) < 1e-6);
        }
    }

    #[test]
    fn line_pays_for_the_wrap_hop() {
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let ring = RoutedFabric::build(FabricTopology::Ring, &spec(8, 50.0, 8.0));
        let line = RoutedFabric::build(FabricTopology::Line, &spec(8, 50.0, 8.0));
        let t_ring = ring.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
        let t_line = line.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
        assert!(t_line > t_ring, "line {t_line} vs ring {t_ring}");
    }

    #[test]
    fn every_topology_builds_and_prices() {
        let model = CollectiveModel::with_link_bandwidth(50.0);
        for kind in FabricTopology::ALL {
            for devices in [2usize, 5, 8, 16, 64] {
                let fab = RoutedFabric::build(kind, &spec(devices, 50.0, 4.0));
                assert_eq!(fab.ring_shapes().len(), 3, "{kind} at {devices}");
                let t = fab.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(1));
                assert!(
                    t > SimDuration::ZERO && t < SimDuration::MAX,
                    "{kind} at {devices}: {t}"
                );
                assert!(fab.flows_per_collective() >= 3 * devices);
            }
        }
    }

    #[test]
    fn fat_tree_tracks_pooled_switch() {
        // Fat trunks keep cross-pod hops unthrottled; the tree prices within
        // a small factor of the star (extra hops, no contention).
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let pooled = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(64, 50.0, 4.0));
        let tree = RoutedFabric::build(FabricTopology::FatTree, &spec(64, 50.0, 4.0));
        let tp = pooled
            .collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8))
            .as_secs_f64();
        let tt = tree
            .collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8))
            .as_secs_f64();
        assert!(tt < 2.0 * tp, "tree {tt} vs pooled {tp}");
    }

    #[test]
    fn degenerate_fabrics_are_empty() {
        let fab = RoutedFabric::build(FabricTopology::Ring, &spec(1, 50.0, 8.0));
        assert!(fab.ring_shapes().is_empty());
        assert_eq!(
            fab.collective_time(
                &CollectiveModel::paper_fig9(),
                CollectiveKind::AllReduce,
                Bytes::from_mib(1)
            ),
            SimDuration::MAX
        );
        let fab = RoutedFabric::build(FabricTopology::Mesh, &spec(4, 50.0, 8.0));
        assert_eq!(
            fab.collective_time(
                &CollectiveModel::paper_fig9(),
                CollectiveKind::AllReduce,
                Bytes::ZERO
            ),
            SimDuration::ZERO
        );
    }

    #[test]
    fn topology_serde_accepts_wire_names_and_labels() {
        for t in FabricTopology::ALL {
            let v = serde::Value::Str(t.wire_name().to_owned());
            assert_eq!(serde::Deserialize::from_value(&v), Ok(t));
            let v = serde::Value::Str(t.name().to_uppercase());
            assert_eq!(serde::Deserialize::from_value(&v), Ok(t));
        }
        let bad = serde::Value::Str("torus".into());
        let err = <FabricTopology as serde::Deserialize>::from_value(&bad).unwrap_err();
        let msg = err.to_string();
        for t in FabricTopology::ALL {
            assert!(msg.contains(t.wire_name()), "{msg}");
            assert!(msg.contains(t.name()), "{msg}");
        }
    }

    #[test]
    fn routes_are_shortest_and_deterministic() {
        let fab = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(4, 50.0, 4.0));
        let t = fab.topology();
        let devs: Vec<NodeId> = t.nodes_of_kind(NodeKind::Device).map(|n| n.id()).collect();
        let p = shortest_node_path(t, devs[0], devs[3]).unwrap();
        assert_eq!(p.len(), 3, "device-switch-device");
        assert_eq!(p, shortest_node_path(t, devs[0], devs[3]).unwrap());
    }
}
