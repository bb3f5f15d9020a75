//! Timing microbenches of the simulation substrates: the fluid-flow
//! max-min solver, the overlay scheduler, one full iteration simulation
//! per design point, and the scenario runner's cold-cache grid execution.

use std::hint::black_box;

use mcdla_bench::timing::bench;
use mcdla_core::{IterationSim, Runner, ScenarioGrid, SystemConfig, SystemDesign};
use mcdla_dnn::{Benchmark, DataType};
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::{Bandwidth, Bytes, ChannelId, FlowNetwork};
use mcdla_vmem::{VirtPolicy, VirtSchedule};

fn main() {
    bench("substrates/flow_max_min_32_flows", 20, || {
        let mut net = FlowNetwork::new();
        let shared = net.add_channel(Bandwidth::gb_per_sec(80.0));
        let paths: Vec<[ChannelId; 2]> = (0..32)
            .map(|_| [net.add_channel(Bandwidth::gb_per_sec(16.0)), shared])
            .collect();
        let flows: Vec<(&[ChannelId], Bytes)> = paths
            .iter()
            .map(|p| (&p[..], Bytes::from_mb(100)))
            .collect();
        black_box(net.drain(&flows))
    });

    for bm in [Benchmark::GoogLeNet, Benchmark::RnnGru] {
        let net = bm.build();
        bench(&format!("substrates/overlay_schedule/{bm}"), 20, || {
            black_box(VirtSchedule::analyze(
                &net,
                64,
                DataType::F32,
                VirtPolicy::paper_default(),
            ))
        });
    }

    let net = Benchmark::GoogLeNet.build();
    for design in SystemDesign::ALL {
        bench(
            &format!("substrates/iteration/{}", design.name()),
            10,
            || {
                let sim = IterationSim::new(
                    SystemConfig::new(design),
                    &net,
                    ParallelStrategy::DataParallel,
                );
                black_box(sim.run())
            },
        );
    }

    // The scenario runner itself: the full 96-cell §V grid on a cold
    // cache, serial vs parallel.
    let scenarios = ScenarioGrid::paper_default().scenarios();
    for threads in [1usize, 4] {
        bench(
            &format!("substrates/grid_96_cells/threads_{threads}"),
            3,
            || {
                let runner = Runner::with_threads(threads);
                black_box(runner.run_grid(&scenarios))
            },
        );
    }
}
