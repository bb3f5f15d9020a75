//! Fluid-flow bandwidth model with max-min fair sharing.
//!
//! A collective's per-hop transfers traverse *paths* of shared channels —
//! a dedicated ring link, a switch port, a host-PCIe escape channel shared
//! by every plane crossing a backplane boundary. Rather than simulating
//! packets, each transfer is a *flow* whose instantaneous rate is the
//! [max-min fair](https://en.wikipedia.org/wiki/Max-min_fairness) allocation
//! across all channels on its path. One batch of flows starts together at
//! time zero; rates are piecewise constant between completions, so the
//! network advances analytically from one completion to the next with no
//! time-stepping error.
//!
//! This is the standard flow-level network abstraction; it reproduces the
//! bandwidth phenomena the paper cares about (per-device bandwidth shrinking
//! with the number of flows on a shared link, the §VI host-PCIe cliff when
//! rings cross backplane islands) without packet-level cost.

use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, Bytes};

/// Identifies a channel within a [`FlowNetwork`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(usize);

/// A table of capacity-limited channels that prices batches of fluid flows.
///
/// # Examples
///
/// Two DMA transfers sharing one 16 GB/s PCIe uplink each progress at
/// 8 GB/s — the paper's "effective host–device communication bandwidth
/// allocated per device gets proportionally reduced" observation:
///
/// ```
/// use mcdla_sim::{Bandwidth, Bytes, FlowNetwork};
///
/// let mut net = FlowNetwork::new();
/// let pcie = net.add_channel(Bandwidth::gb_per_sec(16.0));
/// let done = net
///     .drain(&[(&[pcie], Bytes::from_gb(8)), (&[pcie], Bytes::from_gb(8))])
///     .unwrap();
/// // 8 GB at 8 GB/s each.
/// assert!(done.iter().all(|t| (t.as_secs_f64() - 1.0).abs() < 1e-6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    /// Capacity of each channel in bytes/sec, indexed by [`ChannelId`].
    capacity: Vec<f64>,
}

impl FlowNetwork {
    /// Creates a network with no channels.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Adds a channel with the given capacity and returns its id.
    pub fn add_channel(&mut self, capacity: Bandwidth) -> ChannelId {
        self.capacity.push(capacity.as_bytes_per_sec());
        ChannelId(self.capacity.len() - 1)
    }

    /// The max-min fair rate of a flow over each of `paths`, all in flight
    /// at once, in input order.
    ///
    /// # Panics
    ///
    /// Panics if a path is empty or names a channel of another network.
    pub fn rates(&self, paths: &[&[ChannelId]]) -> Vec<Bandwidth> {
        self.check(paths.iter().copied());
        self.max_min(paths)
            .into_iter()
            .map(Bandwidth::bytes_per_sec)
            .collect()
    }

    /// Starts every `(path, bytes)` flow at time zero and runs the network
    /// until all complete, returning each flow's completion time in input
    /// order. Returns `None` if a flow is starved at zero rate (the network
    /// cannot drain).
    ///
    /// One completion is retired per re-solve; flows finishing at the same
    /// instant retire lowest input index first.
    ///
    /// # Panics
    ///
    /// Panics if a path is empty or names a channel of another network.
    pub fn drain(&self, flows: &[(&[ChannelId], Bytes)]) -> Option<Vec<SimTime>> {
        self.check(flows.iter().map(|f| f.0));
        let mut done = vec![SimTime::ZERO; flows.len()];
        // The unfinished flows, in input order: input index, path and
        // bytes left, kept in step.
        let mut live: Vec<usize> = (0..flows.len()).collect();
        let mut paths: Vec<&[ChannelId]> = flows.iter().map(|f| f.0).collect();
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.1.as_f64()).collect();
        let mut rates = self.max_min(&paths);
        let mut now = SimTime::ZERO;
        while !live.is_empty() {
            let mut next: Option<(SimTime, usize)> = None;
            for (pos, (&rate, &left)) in rates.iter().zip(&remaining).enumerate() {
                let t = if rate > 0.0 {
                    now + SimDuration::from_secs_f64((left / rate).max(0.0))
                } else if left <= BYTE_EPSILON {
                    now
                } else {
                    continue; // starved: never completes
                };
                if next.is_none_or(|(best, _)| t < best) {
                    next = Some((t, pos));
                }
            }
            let (t, pos) = next?;
            let dt = t.saturating_since(now).as_secs_f64();
            if dt > 0.0 {
                for (left, &rate) in remaining.iter_mut().zip(&rates) {
                    *left = (*left - rate * dt).max(0.0);
                }
            }
            now = now.max(t);
            done[live.remove(pos)] = t;
            paths.remove(pos);
            remaining.remove(pos);
            rates = self.max_min(&paths);
        }
        Some(done)
    }

    fn check<'a>(&self, paths: impl IntoIterator<Item = &'a [ChannelId]>) {
        for path in paths {
            assert!(!path.is_empty(), "flow path must contain a channel");
            assert!(
                path.iter().all(|c| c.0 < self.capacity.len()),
                "flow path names a channel of another network"
            );
        }
    }

    /// Progressive-filling max-min fairness, in bytes/sec per path.
    ///
    /// Repeatedly finds the most-constrained channel (smallest equal share
    /// for its unfrozen flows, scanning channels in index order), freezes
    /// every unfrozen flow crossing a channel at that share, removes the
    /// consumed capacity in flow order, and iterates.
    fn max_min(&self, paths: &[&[ChannelId]]) -> Vec<f64> {
        let mut residual = self.capacity.clone();
        let mut load = vec![0usize; residual.len()];
        for c in paths.iter().flat_map(|p| p.iter()) {
            load[c.0] += 1;
        }
        let mut rates = vec![0.0; paths.len()];
        let mut frozen = vec![false; paths.len()];
        let mut bottleneck = vec![false; residual.len()];
        let mut unfrozen = paths.len();
        while unfrozen > 0 {
            let mut share = f64::INFINITY;
            for (r, &l) in residual.iter().zip(&load) {
                if l > 0 {
                    share = share.min(r.max(0.0) / l as f64);
                }
            }
            for ((b, r), &l) in bottleneck.iter_mut().zip(&residual).zip(&load) {
                *b = l > 0 && (r.max(0.0) / l as f64) <= share * (1.0 + RATE_EPSILON);
            }
            let before = unfrozen;
            for (i, path) in paths.iter().enumerate() {
                if frozen[i] || !path.iter().any(|c| bottleneck[c.0]) {
                    continue;
                }
                rates[i] = share;
                frozen[i] = true;
                unfrozen -= 1;
                for c in path.iter() {
                    residual[c.0] -= share;
                    load[c.0] -= 1;
                }
            }
            if unfrozen == before {
                // No channel constrains the remaining flows (cannot happen
                // for non-empty paths); freeze them at the current share.
                for (rate, f) in rates.iter_mut().zip(&mut frozen) {
                    if !*f {
                        *rate = share;
                        *f = true;
                    }
                }
                break;
            }
        }
        for r in &mut rates {
            *r = r.max(0.0);
        }
        rates
    }
}

const BYTE_EPSILON: f64 = 1e-6;
const RATE_EPSILON: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> Bandwidth {
        Bandwidth::gb_per_sec(x)
    }

    fn gb_rates(net: &FlowNetwork, paths: &[&[ChannelId]]) -> Vec<f64> {
        net.rates(paths).iter().map(|r| r.as_gb_per_sec()).collect()
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(25.0));
        assert!((gb_rates(&net, &[&[c]])[0] - 25.0).abs() < 1e-9);
        let done = net.drain(&[(&[c], Bytes::from_gb(50))]).unwrap();
        assert!((done[0].as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(16.0));
        for r in gb_rates(&net, &[&[c][..]; 4]) {
            assert!((r - 4.0).abs() < 1e-9);
        }
        // All complete at t=1s.
        let done = net.drain(&[(&[c][..], Bytes::from_gb(4)); 4]).unwrap();
        assert_eq!(done.len(), 4);
        for t in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn max_min_with_two_bottlenecks() {
        // Classic max-min example: flow A crosses both channels, flows B and
        // C cross one each. ch1 = 10, ch2 = 4.
        //   step 1: ch2 share = 4/2 = 2  -> A and C frozen at 2
        //   step 2: ch1 residual = 10-2 = 8, only B -> B = 8
        let mut net = FlowNetwork::new();
        let ch1 = net.add_channel(gb(10.0));
        let ch2 = net.add_channel(gb(4.0));
        let rates = gb_rates(&net, &[&[ch1, ch2], &[ch1], &[ch2]]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
        assert!((rates[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn departure_frees_bandwidth_for_survivors() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(10.0));
        // Both run at 5 GB/s. A finishes at t=1; B then runs at 10 GB/s and
        // finishes its remaining 5 GB at t=1.5.
        let done = net
            .drain(&[(&[c], Bytes::from_gb(5)), (&[c], Bytes::from_gb(10))])
            .unwrap();
        assert!((done[0].as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((done[1].as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_channel_starves_flow() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(Bandwidth::ZERO);
        assert_eq!(gb_rates(&net, &[&[c]]), vec![0.0]);
        assert_eq!(net.drain(&[(&[c], Bytes::from_gb(1))]), None);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(1.0));
        assert_eq!(net.drain(&[(&[c], Bytes::ZERO)]), Some(vec![SimTime::ZERO]));
    }

    /// Runs `f` and returns the message it panicked with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("bad input must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|msg| msg.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(1.0));
        let empty = panic_message(|| {
            net.drain(&[(&[c], Bytes::new(1)), (&[], Bytes::new(1))]);
        });
        assert!(empty.contains("must contain a channel"), "{empty}");
        let foreign = panic_message(|| {
            net.rates(&[&[ChannelId(99)]]);
        });
        assert!(foreign.contains("another network"), "{foreign}");
    }
}
