//! Criterion benches for the flow-level network simulator: max-min fair
//! re-convergence cost vs active flow count (the DESIGN.md ablation) and
//! end-to-end replay throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keddah_des::SimTime;
use keddah_faults::FaultSchedule;
use keddah_netsim::fair::max_min_rates;
use keddah_netsim::{simulate, FlowSpec, HostId, SimOptions, StaticSource, Topology};
use keddah_obs::Obs;
use std::hint::black_box;

/// Progressive-filling cost as the active flow set grows, on a fat-tree
/// with 4-hop paths.
fn bench_max_min(c: &mut Criterion) {
    let topo = Topology::fat_tree(8, 1e9); // 128 hosts
    let mut group = c.benchmark_group("max_min_rates");
    for &n in &[10usize, 100, 1_000] {
        let flow_links: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let src = HostId((i % 128) as u32);
                let dst = HostId(((i * 37 + 5) % 128) as u32);
                topo.route(src, dst, i as u64)
                    .into_iter()
                    .map(|l| l.0)
                    .collect()
            })
            .collect();
        let caps: Vec<f64> = (0..topo.link_count()).map(|_| 1e9).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &flow_links,
            |b, flow_links| b.iter(|| max_min_rates(black_box(flow_links), &caps, 10e9)),
        );
    }
    group.finish();
}

/// End-to-end fluid simulation of a shuffle-like all-to-few pattern.
fn bench_simulate(c: &mut Criterion) {
    let topo = Topology::leaf_spine(4, 8, 4, 1e9, 2.0);
    let (sched, obs) = (FaultSchedule::empty(), Obs::disabled());
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    for &n in &[200usize, 2_000] {
        let flows: Vec<FlowSpec> = (0..n)
            .map(|i| FlowSpec {
                src: HostId((i % 32) as u32),
                dst: HostId(((i / 32) % 8) as u32),
                bytes: 4 << 20,
                start: SimTime::from_millis((i as u64) * 7),
                tag: 0,
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &flows, |b, flows| {
            b.iter(|| {
                let mut source = StaticSource::new(black_box(flows).clone());
                simulate(&topo, &mut source, &sched, SimOptions::default(), &obs).makespan()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_max_min, bench_simulate);
criterion_main!(benches);
