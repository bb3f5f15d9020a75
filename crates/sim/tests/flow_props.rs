//! Property-based tests for the fluid-flow network invariants, driven by
//! seeded random topologies (the vendored `rand` replaces `proptest`,
//! which the offline build environment cannot fetch; every case is
//! deterministic per seed, so failures reproduce exactly).

use mcdla_sim::{Bandwidth, Bytes, ChannelId, FlowNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 128;

/// A small random network topology plus a batch of flows over it:
/// channel capacities in GB/s and `(path as channel indexes, bytes)`.
fn network_and_flows(seed: u64) -> (Vec<f64>, Vec<(Vec<usize>, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_ch = rng.gen_range(1..6usize);
    let caps: Vec<f64> = (0..n_ch).map(|_| rng.gen_range(0.5f64..100.0)).collect();
    let n_flows = rng.gen_range(1..12usize);
    let flows: Vec<(Vec<usize>, u64)> = (0..n_flows)
        .map(|_| {
            let path_len = rng.gen_range(1..=n_ch.min(3));
            let path: Vec<usize> = (0..path_len).map(|_| rng.gen_range(0..n_ch)).collect();
            (path, rng.gen_range(1u64..50_000_000_000))
        })
        .collect();
    (caps, flows)
}

/// Builds `caps` (GB/s) as channels and maps each flow's channel indexes
/// onto them.
fn build(caps: &[f64], flows: &[(Vec<usize>, u64)]) -> (FlowNetwork, Vec<Vec<ChannelId>>) {
    let mut net = FlowNetwork::new();
    let chs: Vec<_> = caps
        .iter()
        .map(|c| net.add_channel(Bandwidth::gb_per_sec(*c)))
        .collect();
    let paths = flows
        .iter()
        .map(|(path, _)| path.iter().map(|i| chs[*i]).collect())
        .collect();
    (net, paths)
}

fn batch<'a>(
    paths: &'a [Vec<ChannelId>],
    flows: &[(Vec<usize>, u64)],
) -> Vec<(&'a [ChannelId], Bytes)> {
    paths
        .iter()
        .zip(flows)
        .map(|(p, (_, bytes))| (p.as_slice(), Bytes::new(*bytes)))
        .collect()
}

#[test]
fn channel_capacity_never_exceeded() {
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let (net, paths) = build(&caps, &flows);
        let refs: Vec<&[ChannelId]> = paths.iter().map(Vec::as_slice).collect();
        // Sum of allocated rates through each channel <= capacity (+eps).
        let mut through = vec![0.0f64; caps.len()];
        for (rate, (path, _)) in net.rates(&refs).iter().zip(&flows) {
            let rate = rate.as_gb_per_sec();
            assert!(rate >= 0.0, "seed {seed}: negative rate");
            for i in path {
                through[*i] += rate;
            }
        }
        for (used, cap) in through.iter().zip(&caps) {
            assert!(
                *used <= cap * (1.0 + 1e-6),
                "seed {seed}: channel over-allocated: {used} > {cap}"
            );
        }
    }
}

#[test]
fn all_flows_drain() {
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let (net, paths) = build(&caps, &flows);
        let done = net
            .drain(&batch(&paths, &flows))
            .expect("positive capacities must drain");
        assert_eq!(done.len(), flows.len(), "seed {seed}");
        // No channel moves its bytes faster than its capacity allows: the
        // last completion is no earlier than any channel's serial time.
        let last = done.iter().map(|t| t.as_secs_f64()).fold(0.0, f64::max);
        for (i, cap) in caps.iter().enumerate() {
            let carried: u64 = flows
                .iter()
                .map(|(path, bytes)| bytes * path.iter().filter(|p| **p == i).count() as u64)
                .sum();
            let serial = carried as f64 / (cap * 1e9);
            assert!(
                last >= serial * (1.0 - 1e-6),
                "seed {seed}: channel {i} carried {carried} bytes in {last}s, \
                 faster than its {serial}s serial time"
            );
        }
    }
}

#[test]
fn single_channel_work_conserving() {
    // n equal-priority flows on one channel finish exactly when the
    // serial transfer of all bytes would.
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap_gb = rng.gen_range(1.0f64..100.0);
        let n = rng.gen_range(1..8usize);
        let sizes: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(1u64..10_000_000_000))
            .collect();
        let mut net = FlowNetwork::new();
        let ch = [net.add_channel(Bandwidth::gb_per_sec(cap_gb))];
        let flows: Vec<(&[ChannelId], Bytes)> =
            sizes.iter().map(|s| (&ch[..], Bytes::new(*s))).collect();
        let done = net.drain(&flows).unwrap();
        let total: u64 = sizes.iter().sum();
        let expect_secs = total as f64 / (cap_gb * 1e9);
        let last = done.iter().map(|t| t.as_secs_f64()).fold(0.0, f64::max);
        // The channel is always fully utilized until the last byte moves.
        assert!(
            (last - expect_secs).abs() <= expect_secs * 1e-6 + 1e-9,
            "seed {seed}: last completion {last}, expected {expect_secs}"
        );
    }
}

#[test]
fn symmetric_flows_share_a_link_equally() {
    // Max-min fairness: n identical flows over one bottleneck each get
    // exactly cap/n, regardless of how many there are.
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap_gb = rng.gen_range(1.0f64..100.0);
        let n = rng.gen_range(2..10usize);
        let bytes = rng.gen_range(1_000_000u64..1_000_000_000);
        let mut net = FlowNetwork::new();
        let ch = net.add_channel(Bandwidth::gb_per_sec(cap_gb));
        let fair = cap_gb / n as f64;
        for rate in net.rates(&vec![&[ch][..]; n]) {
            let rate = rate.as_gb_per_sec();
            assert!(
                (rate - fair).abs() <= fair * 1e-9,
                "seed {seed}: rate {rate} != fair share {fair} of {n} flows"
            );
        }
        // ...and being identical, they all finish at the same instant.
        let done = net.drain(&vec![(&[ch][..], Bytes::new(bytes)); n]).unwrap();
        let secs: Vec<f64> = done.iter().map(|t| t.as_secs_f64()).collect();
        let first = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let last = secs.iter().copied().fold(0.0, f64::max);
        assert!(
            (last - first).abs() <= first * 1e-9 + 1e-12,
            "seed {seed}: symmetric flows finished apart: {first} vs {last}"
        );
    }
}

#[test]
fn open_order_does_not_change_completion_times() {
    // Flows released at the same instant must complete at the same
    // times whatever order they are listed in — the fluid model has no
    // hidden input-order priority.
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let run = |order: &[usize]| -> Vec<f64> {
            let listed: Vec<(Vec<usize>, u64)> =
                order.iter().map(|&fi| flows[fi].clone()).collect();
            let (net, paths) = build(&caps, &listed);
            let mut done: Vec<f64> = net
                .drain(&batch(&paths, &listed))
                .unwrap()
                .into_iter()
                .map(|t| t.as_secs_f64())
                .collect();
            done.sort_by(f64::total_cmp);
            done
        };
        let forward: Vec<usize> = (0..flows.len()).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let mut shuffled = forward.clone();
        // Deterministic Fisher-Yates off the seed.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let base = run(&forward);
        for other in [run(&reversed), run(&shuffled)] {
            for (a, b) in base.iter().zip(&other) {
                assert!(
                    (a - b).abs() <= a.abs() * 1e-9 + 1e-12,
                    "seed {seed}: completion times depend on open order: {a} vs {b}"
                );
            }
        }
    }
}
