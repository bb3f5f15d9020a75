//! Ring-algorithm collective communication latency model (Figs. 4 and 9).
//!
//! Following Chan et al. and the NCCL design the paper cites (§II-C), a
//! collective over a ring of `p` participants moves data in `p−1` (all-
//! gather, broadcast) or `2(p−1)` (all-reduce) pipelined steps of `S/p`
//! bytes each, chunked into fixed-size messages:
//!
//! ```text
//! T_allgather  =  (p−1) · t_step  +  S·(p−1)/(p·B)
//! T_allreduce  = 2(p−1) · t_step  + 2S·(p−1)/(p·B)
//! T_broadcast  =  (p−2) · t_step  +  S/B
//! t_step       = hops_per_step · (α + m/B)
//! ```
//!
//! where `B` is the per-link bandwidth, `m` the message (chunk) size, and
//! `α` the per-hop wire latency. The step term is the pipeline-fill cost —
//! the only part that grows when MC-DLA doubles the node count of each ring
//! — and the bandwidth term carries the asymptotic `(p−1)/p` factor.
//! At the paper's Figure 9 operating point (8 MB synchronization size, 4 KB
//! messages, 50 GB/s bi-directional links) this model reproduces the
//! quoted ≈7% all-reduce latency increase from an 8-node to a 16-node ring.

use std::fmt;

use serde::{Deserialize, Serialize};

use mcdla_sim::{Bandwidth, Bytes, SimDuration};

use crate::ring::RingShape;

/// The collective primitives of Figure 4.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Every device ends with the concatenation of all devices' data
    /// (feature maps X in model-parallel training).
    AllGather,
    /// Every device ends with the element-wise reduction of all devices'
    /// data (gradients dX and dW).
    AllReduce,
    /// One device's data is replicated to all (updated weights dW).
    Broadcast,
}

impl CollectiveKind {
    /// All three primitives.
    pub const ALL: [CollectiveKind; 3] = [
        CollectiveKind::AllGather,
        CollectiveKind::AllReduce,
        CollectiveKind::Broadcast,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::AllGather => "all-gather",
            CollectiveKind::AllReduce => "all-reduce",
            CollectiveKind::Broadcast => "broadcast",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ring-collective latency model.
///
/// # Examples
///
/// Reproducing the Figure 9 observation (≈7% all-reduce latency increase
/// when the ring doubles from 8 to 16 nodes at an 8 MB sync size):
///
/// ```
/// use mcdla_interconnect::{CollectiveKind, CollectiveModel, RingShape};
/// use mcdla_sim::Bytes;
///
/// let model = CollectiveModel::paper_fig9();
/// let s = Bytes::from_mib(8);
/// let t8 = model.latency(CollectiveKind::AllReduce, s, RingShape::device_ring(8));
/// let t16 = model.latency(CollectiveKind::AllReduce, s, RingShape::device_ring(16));
/// let overhead = t16.as_secs_f64() / t8.as_secs_f64() - 1.0;
/// assert!(overhead > 0.03 && overhead < 0.12, "overhead {overhead}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveModel {
    /// Message (chunk) size for pipelining; Figure 9 uses 4 KB.
    pub message_bytes: u64,
    /// Per-link bandwidth in GB/s (uni-directional).
    pub link_bandwidth_gbs: f64,
    /// Per-hop wire/protocol latency in seconds.
    pub hop_latency_secs: f64,
}

impl CollectiveModel {
    /// Model with the paper's Figure 9 parameters: 4 KB messages, 50 GB/s
    /// **bi-directional** links (25 GB/s per direction), 100 ns hop latency.
    pub fn paper_fig9() -> Self {
        CollectiveModel {
            message_bytes: 4 * 1024,
            link_bandwidth_gbs: 25.0,
            hop_latency_secs: 100e-9,
        }
    }

    /// Model for a given per-direction link bandwidth, keeping the paper's
    /// 4 KB message size and 100 ns hop latency.
    pub fn with_link_bandwidth(link_bandwidth_gbs: f64) -> Self {
        CollectiveModel {
            link_bandwidth_gbs,
            ..CollectiveModel::paper_fig9()
        }
    }

    fn step_time(&self, shape: RingShape) -> f64 {
        let b = self.link_bandwidth_gbs * 1e9;
        shape.hops_per_step() * (self.hop_latency_secs + self.message_bytes as f64 / b)
    }

    /// Latency of one collective of `size` bytes over a single ring.
    ///
    /// Rings with fewer than 2 participants complete instantly (nothing to
    /// exchange).
    pub fn latency(&self, kind: CollectiveKind, size: Bytes, shape: RingShape) -> SimDuration {
        let p = shape.participants;
        if p < 2 || size.is_zero() {
            return SimDuration::ZERO;
        }
        let s = size.as_f64();
        let b = self.link_bandwidth_gbs * 1e9;
        let pf = p as f64;
        let t_step = self.step_time(shape);
        let secs = match kind {
            CollectiveKind::AllGather => (pf - 1.0) * t_step + s * (pf - 1.0) / (pf * b),
            CollectiveKind::AllReduce => {
                2.0 * (pf - 1.0) * t_step + 2.0 * s * (pf - 1.0) / (pf * b)
            }
            CollectiveKind::Broadcast => (pf - 2.0).max(0.0) * t_step + s / b,
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Latency when `size` is striped evenly across several rings (NCCL's
    /// multi-ring operation). Completion is bounded by the slowest ring —
    /// this is what penalizes the unbalanced 8/12/20-hop rings of
    /// Fig. 7(a)(b).
    pub fn striped_latency(
        &self,
        kind: CollectiveKind,
        size: Bytes,
        rings: &[RingShape],
    ) -> SimDuration {
        if rings.is_empty() {
            return SimDuration::MAX;
        }
        let share = Bytes::new(size.as_u64().div_ceil(rings.len() as u64));
        rings
            .iter()
            .map(|r| self.latency(kind, share, *r))
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Bytes each **link** of a ring carries during one collective of
    /// `size_on_ring` bytes — the size of each per-hop flow a
    /// [`RoutedFabric`](crate::RoutedFabric) drains through its
    /// [`mcdla_sim::FlowNetwork`].
    pub fn wire_bytes_per_link(
        &self,
        kind: CollectiveKind,
        size_on_ring: Bytes,
        shape: RingShape,
    ) -> Bytes {
        let p = shape.participants as f64;
        if shape.participants < 2 {
            return Bytes::ZERO;
        }
        let s = size_on_ring.as_f64();
        let bytes = match kind {
            CollectiveKind::AllGather => s * (p - 1.0) / p,
            CollectiveKind::AllReduce => 2.0 * s * (p - 1.0) / p,
            CollectiveKind::Broadcast => s,
        };
        Bytes::new(bytes.round() as u64)
    }

    /// Effective per-device injection bandwidth for collectives striped over
    /// `rings` (the paper's `(#rings) x B`; 75 GB/s for DC-DLA's three
    /// rings at 25 GB/s).
    pub fn aggregate_ring_bandwidth(&self, rings: &[RingShape]) -> Bandwidth {
        Bandwidth::gb_per_sec(self.link_bandwidth_gbs * rings.len() as f64)
    }
}

impl Default for CollectiveModel {
    fn default() -> Self {
        CollectiveModel::paper_fig9()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CollectiveModel {
        CollectiveModel::paper_fig9()
    }

    #[test]
    fn fig9_allreduce_16_vs_8_is_about_7_percent() {
        let s = Bytes::from_mib(8);
        let t8 = m().latency(CollectiveKind::AllReduce, s, RingShape::device_ring(8));
        let t16 = m().latency(CollectiveKind::AllReduce, s, RingShape::device_ring(16));
        let overhead = t16.as_secs_f64() / t8.as_secs_f64() - 1.0;
        assert!(
            (0.05..=0.10).contains(&overhead),
            "expected ~7% (paper), got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn latency_grows_with_ring_size() {
        let s = Bytes::from_mib(8);
        for kind in CollectiveKind::ALL {
            let mut prev = SimDuration::ZERO;
            for p in 2..=36 {
                let t = m().latency(kind, s, RingShape::device_ring(p));
                assert!(t >= prev, "{kind} shrank at p={p}");
                prev = t;
            }
        }
    }

    #[test]
    fn fig9_normalized_curves_shapes() {
        // Normalized to a 2-node ring, the 36-node values stay within the
        // plot's ~2.5 ceiling, with broadcast flattest (pipeline-fill only).
        let s = Bytes::from_mib(8);
        let norm = |kind| {
            let t2 = m()
                .latency(kind, s, RingShape::device_ring(2))
                .as_secs_f64();
            let t36 = m()
                .latency(kind, s, RingShape::device_ring(36))
                .as_secs_f64();
            t36 / t2
        };
        let bc = norm(CollectiveKind::Broadcast);
        let ag = norm(CollectiveKind::AllGather);
        let ar = norm(CollectiveKind::AllReduce);
        assert!(
            bc < ag && bc < ar,
            "broadcast should be flattest: {bc} {ag} {ar}"
        );
        assert!(
            ar < 2.5 && ag < 2.5,
            "curves exceed Fig. 9's ceiling: {ag} {ar}"
        );
        assert!(ar > 1.8, "all-reduce should approach 2x at 36 nodes: {ar}");
    }

    #[test]
    fn small_messages_are_latency_bound() {
        // Fig. 9's left region: for small sizes MC-DLA's 16-node ring costs
        // noticeably more than the 8-node ring.
        let s = Bytes::from_kib(16);
        let t8 = m().latency(CollectiveKind::AllReduce, s, RingShape::device_ring(8));
        let t16 = m().latency(
            CollectiveKind::AllReduce,
            s,
            RingShape {
                participants: 8,
                hops: 16,
            },
        );
        let ratio = t16.as_secs_f64() / t8.as_secs_f64();
        assert!(
            ratio > 1.5,
            "small-message overhead should be large: {ratio}"
        );
    }

    #[test]
    fn memory_nodes_add_hops_not_steps() {
        // An MC-DLA ring (8 participants, 16 hops) at 8 MB costs only a few
        // percent more than the DC-DLA ring (8, 8): bandwidth term identical,
        // pipeline fill doubled.
        let s = Bytes::from_mib(8);
        let dc = m().latency(CollectiveKind::AllReduce, s, RingShape::device_ring(8));
        let mc = m().latency(
            CollectiveKind::AllReduce,
            s,
            RingShape {
                participants: 8,
                hops: 16,
            },
        );
        let overhead = mc.as_secs_f64() / dc.as_secs_f64() - 1.0;
        assert!(overhead > 0.0 && overhead < 0.05, "overhead {overhead}");
    }

    #[test]
    fn striping_over_more_rings_is_faster() {
        let s = Bytes::from_mib(64);
        let one = m().striped_latency(CollectiveKind::AllReduce, s, &[RingShape::device_ring(8)]);
        let three = m().striped_latency(
            CollectiveKind::AllReduce,
            s,
            &[RingShape::device_ring(8); 3],
        );
        assert!(three.as_secs_f64() < 0.4 * one.as_secs_f64());
    }

    #[test]
    fn unbalanced_rings_bottleneck_on_longest() {
        // Fig. 7(b)'s 8/12/20-hop rings vs Fig. 7(c)'s balanced 16/16/16.
        let s = Bytes::from_mib(8);
        let star = [
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
        let ring = [RingShape {
            participants: 8,
            hops: 16,
        }; 3];
        let t_star = m().striped_latency(CollectiveKind::AllReduce, s, &star);
        let t_ring = m().striped_latency(CollectiveKind::AllReduce, s, &ring);
        assert!(t_star >= t_ring, "{t_star} < {t_ring}");
    }

    #[test]
    fn wire_bytes_match_ring_algorithm() {
        let s = Bytes::from_mib(8);
        let shape = RingShape::device_ring(8);
        let ag = m().wire_bytes_per_link(CollectiveKind::AllGather, s, shape);
        let ar = m().wire_bytes_per_link(CollectiveKind::AllReduce, s, shape);
        let bc = m().wire_bytes_per_link(CollectiveKind::Broadcast, s, shape);
        assert_eq!(ar.as_u64(), 2 * ag.as_u64());
        assert_eq!(bc, s);
        assert!((ag.as_f64() - s.as_f64() * 7.0 / 8.0).abs() < 1.0);
    }

    #[test]
    fn degenerate_cases() {
        let s = Bytes::from_mib(1);
        assert_eq!(
            m().latency(CollectiveKind::AllReduce, s, RingShape::device_ring(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            m().latency(
                CollectiveKind::AllReduce,
                Bytes::ZERO,
                RingShape::device_ring(8)
            ),
            SimDuration::ZERO
        );
        assert_eq!(
            m().striped_latency(CollectiveKind::AllReduce, s, &[]),
            SimDuration::MAX
        );
    }

    #[test]
    fn aggregate_bandwidth_is_rings_times_b() {
        let rings = [RingShape::device_ring(8); 3];
        let bw = m().aggregate_ring_bandwidth(&rings);
        assert!((bw.as_gb_per_sec() - 75.0).abs() < 1e-9);
    }
}
