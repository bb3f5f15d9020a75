//! End-to-end validation of the paper's quantitative claims (§I, §V).
//!
//! These are the headline numbers a reviewer would check first. Exact
//! values cannot match a simulator calibrated on unpublished data, so each
//! claim is asserted as a band around the paper's figure (documented in
//! EXPERIMENTS.md).

use mcdla::core::{experiment, SystemDesign};
use mcdla::dnn::Benchmark;
use mcdla::parallel::ParallelStrategy;
use mcdla::sim::stats::harmonic_mean;

#[test]
fn headline_speedup_is_about_2_8x() {
    let s = experiment::headline_speedup();
    assert!(
        (2.2..=3.4).contains(&s),
        "headline speedup {s:.2} outside the 2.8x band"
    );
}

#[test]
fn headline_speedup_stays_near_2_8x() {
    // Regression pin for the paper's headline claim (§I: "an average
    // 2.8x training speedup"). The seed calibration lands at ~2.84x;
    // hold future PRs to a tight band around it.
    let headline = experiment::headline_speedup();
    assert!(
        (2.6..=3.1).contains(&headline),
        "headline speedup drifted to {headline:.3}x (expected ~2.8x)"
    );
}

#[test]
fn data_parallel_speedup_is_about_3_5x() {
    let s = experiment::speedup_vs_dc(SystemDesign::McDlaBwAware, ParallelStrategy::DataParallel);
    assert!(
        (2.8..=4.2).contains(&s.harmonic_mean),
        "DP speedup {:.2} outside the 3.5x band",
        s.harmonic_mean
    );
}

#[test]
fn model_parallel_speedup_is_about_2_1x() {
    let s = experiment::speedup_vs_dc(SystemDesign::McDlaBwAware, ParallelStrategy::ModelParallel);
    assert!(
        (1.7..=2.6).contains(&s.harmonic_mean),
        "MP speedup {:.2} outside the 2.1x band",
        s.harmonic_mean
    );
}

#[test]
fn data_parallel_gains_exceed_model_parallel_gains() {
    // §V-B: MC-DLA helps data-parallel training more (3.5x vs 2.1x) because
    // model-parallel time is partly synchronization-bound, which
    // memory-nodes do not accelerate.
    let dp = experiment::speedup_vs_dc(SystemDesign::McDlaBwAware, ParallelStrategy::DataParallel);
    let mp = experiment::speedup_vs_dc(SystemDesign::McDlaBwAware, ParallelStrategy::ModelParallel);
    assert!(dp.harmonic_mean > mp.harmonic_mean);
}

#[test]
fn mc_dla_b_reaches_most_of_the_oracle() {
    // §V-B: 84%-99% of the unbuildable oracle (average 95%). Our harmonic
    // mean lands near 90% with one workload (GoogLeNet DP) below the
    // paper's floor.
    let mut fr = Vec::new();
    for strategy in ParallelStrategy::ALL {
        for bm in Benchmark::ALL {
            let mc = experiment::simulate(SystemDesign::McDlaBwAware, bm, strategy);
            let o = experiment::simulate(SystemDesign::DcDlaOracle, bm, strategy);
            fr.push(o.iteration_time.as_secs_f64() / mc.iteration_time.as_secs_f64());
        }
    }
    let mean = harmonic_mean(&fr).expect("positive fractions");
    assert!(mean > 0.85, "oracle fraction {mean:.2} too low");
    assert!(
        fr.iter().all(|f| *f > 0.6),
        "some workload far from oracle: {fr:?}"
    );
}

#[test]
fn mc_dla_s_loses_about_14_percent_to_b() {
    let mut losses = Vec::new();
    for strategy in ParallelStrategy::ALL {
        for bm in Benchmark::ALL {
            let s = experiment::simulate(SystemDesign::McDlaStar, bm, strategy);
            let b = experiment::simulate(SystemDesign::McDlaBwAware, bm, strategy);
            losses.push(1.0 - b.iteration_time.as_secs_f64() / s.iteration_time.as_secs_f64());
        }
    }
    let avg = losses.iter().sum::<f64>() / losses.len() as f64;
    assert!(
        (0.05..=0.25).contains(&avg),
        "MC(S) avg loss {avg:.2} outside band"
    );
}

#[test]
fn mc_dla_l_achieves_most_of_b() {
    // §V-B: MC-DLA(L) achieves 96% of MC-DLA(B).
    let mut fr = Vec::new();
    for strategy in ParallelStrategy::ALL {
        for bm in Benchmark::ALL {
            let l = experiment::simulate(SystemDesign::McDlaLocal, bm, strategy);
            let b = experiment::simulate(SystemDesign::McDlaBwAware, bm, strategy);
            fr.push(b.iteration_time.as_secs_f64() / l.iteration_time.as_secs_f64());
        }
    }
    let mean = harmonic_mean(&fr).unwrap();
    assert!(mean > 0.85 && mean <= 1.0, "MC(L)/MC(B) {mean:.2}");
}

#[test]
fn fig2_time_reduction_is_20_to_34x() {
    let cells = experiment::fig2();
    for bm in Benchmark::CNNS {
        let series: Vec<_> = cells.iter().filter(|c| c.benchmark == bm.name()).collect();
        let reduction = 1.0 / series.last().unwrap().normalized_time;
        assert!(
            (15.0..=40.0).contains(&reduction),
            "{bm}: Kepler->TPUv2 reduction {reduction:.1} outside the 20-34x band"
        );
        // Overhead grows monotonically across generations.
        let overheads: Vec<f64> = series.iter().map(|c| c.overhead).collect();
        assert!(
            overheads.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "{bm}: overhead not monotone: {overheads:?}"
        );
        assert!(
            overheads.last().unwrap() > &0.5,
            "{bm}: modern overhead too small"
        );
    }
}

#[test]
fn fig12_hc_dla_saturates_host_memory() {
    // §V-A: HC-DLA can consume ~92% of host memory bandwidth for certain
    // workloads; MC-DLA consumes none.
    let rows = experiment::fig12();
    let hc_worst = rows
        .iter()
        .filter(|r| r.design == SystemDesign::HcDla)
        .map(|r| r.avg_data_parallel_gbs.max(r.avg_model_parallel_gbs) / 300.0)
        .fold(0.0f64, f64::max);
    assert!(
        hc_worst > 0.6,
        "HC-DLA worst-case draw {hc_worst:.2} too low"
    );
    assert!(rows
        .iter()
        .filter(|r| r.design == SystemDesign::McDlaBwAware)
        .all(|r| r.max_gbs == 0.0));
}

#[test]
fn scalability_is_regained_by_mc_dla() {
    // §V-D: DC-DLA scales sublinearly with virtualization on; MC-DLA and
    // virtualization-off runs scale near-linearly.
    let rows = experiment::scalability(&[Benchmark::VggE, Benchmark::ResNet]);
    for r in rows.iter().filter(|r| r.devices == 8) {
        assert!(
            r.dc_virt_on < 0.75 * r.dc_virt_off,
            "{}: DC virt-on {:.1}x not clearly sublinear vs off {:.1}x",
            r.benchmark,
            r.dc_virt_on,
            r.dc_virt_off
        );
        assert!(
            r.mc > 6.0,
            "{}: MC scaling {:.1}x below near-linear",
            r.benchmark,
            r.mc
        );
        assert!(r.dc_virt_off > 6.0);
    }
}

#[test]
fn sensitivity_directions_match_paper() {
    let s = experiment::sensitivity();
    // PCIe gen4 narrows the gap but does not close it.
    assert!(s.gen4_gap < s.baseline);
    assert!(s.gen4_gap > 1.2);
    assert!(s.dc_gen4_improvement > 0.1);
    // Faster devices widen the gap.
    assert!(s.faster_device_gap > s.baseline);
    assert!(s.dgx2_gap > s.baseline);
    // Compression narrows the gap on CNNs.
    let cnn_baseline = {
        let mut all = Vec::new();
        for strategy in ParallelStrategy::ALL {
            let x = experiment::speedup_vs_dc_with(
                SystemDesign::McDlaBwAware,
                strategy,
                &Benchmark::CNNS,
                mcdla::core::SystemConfig::new,
            );
            all.extend(x.per_benchmark.iter().map(|(_, v)| *v));
        }
        harmonic_mean(&all).unwrap()
    };
    assert!(s.cdma_cnn_gap < cnn_baseline);
    assert!(s.cdma_cnn_gap > 1.0, "MC-DLA still wins with compression");
}

#[test]
fn perf_per_watt_is_2_1_to_2_6x() {
    let speedup = experiment::headline_speedup();
    let (lo, hi) = mcdla::memnode::paper_perf_per_watt_range(speedup);
    assert!(
        lo > 1.8 && lo < hi && hi < 3.2,
        "perf/W range ({lo:.2}, {hi:.2})"
    );
}
