//! Reproducibility guarantees: every stage of the toolchain is a pure
//! function of its inputs and seed. This is load-bearing for the paper's
//! goal ("enabling reproducible Hadoop research").

use keddah::core::pipeline::Keddah;
use keddah::core::replay::{
    jobs_to_flows, replay_source_faulted_observed, replay_source_observed, ReplayReport,
};
use keddah::core::{FaultSpec, KeddahModel, ModelSource, TraceSource};
use keddah::hadoop::{run_job, ClusterSpec, HadoopConfig, JobSpec, Workload};
use keddah::netsim::{SimOptions, StaticSource, Topology};
use keddah::obs::Obs;

/// Closed-loop replay of two jobs drawn from `model` with `seed`, 5 s
/// apart, under `spec` (empty for a clean run).
fn replay_model(
    model: &KeddahModel,
    topo: &Topology,
    seed: u64,
    spec: &FaultSpec,
    opts: SimOptions,
) -> ReplayReport {
    let mut source = ModelSource::new(model, 2, seed, 5.0, topo).expect("model fits the fabric");
    replay_source_faulted_observed(topo, &mut source, spec, opts, &Obs::disabled())
        .expect("replays")
}

#[test]
fn capture_is_deterministic() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::PageRank, 512 << 20);
    let a = run_job(&cluster, &config, &job, 123);
    let b = run_job(&cluster, &config, &job, 123);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn capture_varies_with_seed() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::WordCount, 512 << 20);
    let a = run_job(&cluster, &config, &job, 1);
    let b = run_job(&cluster, &config, &job, 2);
    assert_ne!(a.trace, b.trace);
}

#[test]
fn full_pipeline_is_deterministic() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default();
    let job = JobSpec::new(Workload::TeraSort, 512 << 20);

    let run = |seed: u64| {
        let traces = Keddah::capture(&cluster, &config, &job, 2, seed);
        let model = Keddah::fit(&traces).expect("fits");
        let generated = model.generate_job(7);
        let topo = Topology::star(8, 1e9);
        let flows = jobs_to_flows(std::slice::from_ref(&generated), &topo).expect("fits");
        let mut source = StaticSource::new(flows);
        let replay =
            replay_source_observed(&topo, &mut source, SimOptions::default(), &Obs::disabled());
        (model, generated, replay.sim.fcts())
    };
    let (m1, g1, f1) = run(5);
    let (m2, g2, f2) = run(5);
    assert_eq!(m1, m2, "models identical");
    assert_eq!(g1, g2, "generated jobs identical");
    assert_eq!(f1, f2, "replay FCTs identical");
}

#[test]
fn closed_loop_replay_is_deterministic() {
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default().with_reducers(3);
    let job = JobSpec::new(Workload::TeraSort, 512 << 20);
    let traces = Keddah::capture(&cluster, &config, &job, 2, 17);
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 4.0);
    let opts = SimOptions::default();

    // Trace replay: same capture, byte-identical finishes.
    let nanos = |r: &ReplayReport| -> Vec<u64> {
        r.sim.results.iter().map(|f| f.finish.as_nanos()).collect()
    };
    let replay_trace = || {
        let mut source = TraceSource::new(&traces[0], &topo).expect("trace fits the fabric");
        replay_source_observed(&topo, &mut source, opts, &Obs::disabled())
    };
    let (a, b) = (replay_trace(), replay_trace());
    assert_eq!(nanos(&a), nanos(&b), "closed-loop trace replay identical");

    // Model replay: same seed, byte-identical; different seed, different.
    let model = Keddah::fit(&traces).expect("fits");
    let clean = FaultSpec::empty();
    let m1 = replay_model(&model, &topo, 11, &clean, opts);
    let m2 = replay_model(&model, &topo, 11, &clean, opts);
    assert_eq!(nanos(&m1), nanos(&m2), "closed-loop model replay identical");
    let m3 = replay_model(&model, &topo, 12, &clean, opts);
    assert_ne!(nanos(&m1), nanos(&m3), "seed changes the replay");
}

#[test]
fn closed_loop_replay_is_parallelism_invariant_through_the_runner() {
    use keddah::core::{MatrixCell, Runner};

    // The runner's derived seeds make captures (and hence fitted models)
    // independent of worker count; closed-loop replay on top must stay
    // byte-identical at any parallelism.
    let cells = vec![
        MatrixCell::new(
            Workload::TeraSort,
            512 << 20,
            HadoopConfig::default().with_reducers(4),
            2,
        ),
        MatrixCell::new(
            Workload::WordCount,
            512 << 20,
            HadoopConfig::default().with_reducers(2),
            2,
        ),
    ];
    let replay_at_width = |parallelism: usize| -> Vec<Vec<u64>> {
        // Fresh runner per width: no cross-width cache short-circuit.
        let runner = Runner::new(ClusterSpec::racks(2, 3));
        runner
            .run_matrix(&cells, parallelism)
            .iter()
            .map(|cell| {
                let model = cell.model.as_ref().expect("cell fits a model");
                let topo = Topology::star(8, 1e9);
                let spec = FaultSpec::empty();
                replay_model(model, &topo, 11, &spec, SimOptions::default())
                    .sim
                    .results
                    .iter()
                    .map(|r| r.finish.as_nanos())
                    .collect()
            })
            .collect()
    };
    let serial = replay_at_width(1);
    let wide = replay_at_width(4);
    assert_eq!(serial, wide, "replay identical across --jobs widths");
}

#[test]
fn full_recompute_knob_and_jobs_width_never_change_comparisons() {
    use keddah::core::validate::compare_replays;
    use keddah::core::{MatrixCell, Runner};

    // The incremental allocator (`full_recompute: false`) must be
    // invisible end to end: open-vs-closed replay comparisons of the
    // same fitted model serialize byte-identically whether rates come
    // from incremental component re-solves or from full progressive
    // filling, at any runner width.
    let cells = vec![MatrixCell::new(
        Workload::TeraSort,
        512 << 20,
        HadoopConfig::default().with_reducers(3),
        2,
    )];
    let topo = Topology::star(8, 1e9);
    let comparison_json = |parallelism: usize, full_recompute: bool| -> String {
        let runner = Runner::new(ClusterSpec::racks(2, 3));
        let results = runner.run_matrix(&cells, parallelism);
        let model = results[0].model.as_ref().expect("cell fits a model");
        let opts = SimOptions {
            full_recompute,
            ..SimOptions::default()
        };
        let flows = jobs_to_flows(&model.generate_jobs(2, 11, 5.0), &topo).expect("open flows");
        let open =
            replay_source_observed(&topo, &mut StaticSource::new(flows), opts, &Obs::disabled());
        let closed = replay_model(model, &topo, 11, &FaultSpec::empty(), opts);
        let rows = compare_replays(&open, &closed).expect("comparable components");
        serde_json::to_string(&rows).expect("comparison serializes")
    };
    let base = comparison_json(1, false);
    assert!(base.contains("ks_statistic"), "comparison is non-trivial");
    assert_eq!(base, comparison_json(4, false), "width changes nothing");
    assert_eq!(
        base,
        comparison_json(1, true),
        "full-recompute oracle is byte-identical to the incremental path"
    );
    assert_eq!(base, comparison_json(4, true), "oracle at width 4");
}

#[test]
fn fault_schedules_never_change_comparisons_across_widths_and_oracle() {
    use keddah::core::validate::compare_replays;
    use keddah::core::{MatrixCell, Runner};
    use keddah::faults::{generate, FaultGen};

    // Degraded-mode replay must be as reproducible as the clean path:
    // the baseline-vs-faulted comparison of the same fitted model and
    // the same seed-derived fault schedule serializes byte-identically
    // at any runner width and under the full-recompute oracle
    // (`SimOptions::full_recompute`).
    let cells = vec![MatrixCell::new(
        Workload::TeraSort,
        512 << 20,
        HadoopConfig::default().with_reducers(3),
        2,
    )];
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 2.0);
    let gen = FaultGen {
        hosts: topo.host_count(),
        links: topo.link_count() as u32,
        horizon_nanos: 30_000_000_000,
        node_crashes: 1,
        recover_after_nanos: Some(10_000_000_000),
        link_downs: 1,
        link_degrades: 1,
        partitions: 0,
    };
    let spec = generate(&gen, 41);
    assert_eq!(spec, generate(&gen, 41), "spec derivation is pure");

    let comparison_json = |parallelism: usize, full_recompute: bool| -> String {
        let runner = Runner::new(ClusterSpec::racks(2, 3));
        let results = runner.run_matrix(&cells, parallelism);
        let model = results[0].model.as_ref().expect("cell fits a model");
        let opts = SimOptions {
            full_recompute,
            ..SimOptions::default()
        };
        let baseline = replay_model(model, &topo, 11, &FaultSpec::empty(), opts);
        let faulted = replay_model(model, &topo, 11, &spec, opts);
        assert!(
            faulted.sim.faults.faults_applied > 0,
            "the schedule actually fired"
        );
        let rows = compare_replays(&baseline, &faulted).expect("comparable components");
        serde_json::to_string(&rows).expect("comparison serializes")
    };
    let base = comparison_json(1, false);
    assert!(base.contains("ks_statistic"), "comparison is non-trivial");
    assert_eq!(base, comparison_json(4, false), "width changes nothing");
    assert_eq!(
        base,
        comparison_json(1, true),
        "full-recompute oracle is byte-identical to the incremental path"
    );
    assert_eq!(base, comparison_json(4, true), "oracle at width 4");
}

#[test]
fn aggregation_and_solver_width_knobs_never_change_replays() {
    use keddah::faults::{generate, FaultGen};

    // Flow bundles (`aggregate`) are a pure performance knob: the
    // pre-bundle singleton shape must reproduce finish times, link bytes
    // and fault accounting bit for bit, on both the clean and the
    // faulted path. Fair-share solves are sequential, so the solver
    // width this test is named for no longer exists.
    let cluster = ClusterSpec::racks(2, 3);
    let config = HadoopConfig::default().with_reducers(3);
    let job = JobSpec::new(Workload::TeraSort, 512 << 20);
    let traces = Keddah::capture(&cluster, &config, &job, 2, 17);
    let model = Keddah::fit(&traces).expect("fits");
    let topo = Topology::leaf_spine(3, 3, 2, 1e9, 2.0);
    let gen = FaultGen {
        hosts: topo.host_count(),
        links: topo.link_count() as u32,
        horizon_nanos: 30_000_000_000,
        node_crashes: 1,
        recover_after_nanos: Some(10_000_000_000),
        link_downs: 1,
        link_degrades: 1,
        partitions: 0,
    };
    let spec = generate(&gen, 41);

    let fingerprint = |aggregate: bool| {
        let opts = SimOptions {
            aggregate,
            ..SimOptions::default()
        };
        let clean = replay_model(&model, &topo, 11, &FaultSpec::empty(), opts);
        let faulted = replay_model(&model, &topo, 11, &spec, opts);
        assert!(faulted.sim.faults.faults_applied > 0, "schedule fired");
        let nanos = |r: &ReplayReport| -> Vec<u64> {
            r.sim.results.iter().map(|f| f.finish.as_nanos()).collect()
        };
        (
            nanos(&clean),
            clean.sim.link_bytes.clone(),
            nanos(&faulted),
            faulted.sim.link_bytes.clone(),
            faulted.sim.faults.clone(),
        )
    };
    assert_eq!(
        fingerprint(true),
        fingerprint(false),
        "singleton-bundle oracle is byte-identical to aggregation"
    );
}

#[test]
fn multi_component_solves_give_every_allocator_the_same_finishes() {
    use keddah::des::SimTime;
    use keddah::faults::FaultSchedule;
    use keddah::netsim::{simulate, FlowId, FlowResult, FlowSpec, HostId, TrafficSource};

    // Closed-loop rack-pair chains: each flow runs between neighbouring
    // hosts of one rack and its completion sends the next hop back the
    // other way. Concurrent pairs form many small link-disjoint
    // components, so every full-recompute solve fills dozens of them
    // with hundreds of entries in all, and entries crossing two links
    // freeze at one bottleneck before a looser one fills the rest. Every
    // allocator must give every flow the same max-min rate, so the three
    // shapes must agree on every finish time.
    const RACKS: u32 = 4;
    const PER_RACK: u32 = 8;
    struct Chains {
        heads: Vec<FlowSpec>,
        hops_left: Vec<u32>,
    }
    impl TrafficSource for Chains {
        fn on_start(&mut self) -> Vec<FlowSpec> {
            let heads = std::mem::take(&mut self.heads);
            self.hops_left = vec![2; heads.len()];
            heads
        }
        fn on_flow_complete(&mut self, id: FlowId, result: &FlowResult) -> Vec<FlowSpec> {
            let left = self.hops_left[id.0];
            if left == 0 {
                return Vec::new();
            }
            self.hops_left.push(left - 1);
            vec![FlowSpec {
                src: result.spec.dst,
                dst: result.spec.src,
                start: result.finish,
                ..result.spec
            }]
        }
    }
    let heads: Vec<FlowSpec> = (0..240u32)
        .map(|i| {
            let rack = i % RACKS;
            let slot = (i / RACKS) % PER_RACK;
            FlowSpec {
                src: HostId(rack * PER_RACK + slot),
                dst: HostId(rack * PER_RACK + (slot + 1) % PER_RACK),
                bytes: (1 << 20) + u64::from(i % 7) * 65_536,
                start: SimTime::from_nanos(u64::from(i) * 1_000),
                tag: rack,
            }
        })
        .collect();
    let topo = Topology::leaf_spine(RACKS, PER_RACK, 2, 1e9, 2.0);
    let finishes = |opts: SimOptions| -> Vec<u64> {
        let mut source = Chains {
            heads: heads.clone(),
            hops_left: Vec::new(),
        };
        let report = simulate(
            &topo,
            &mut source,
            &FaultSchedule::empty(),
            opts,
            &Obs::disabled(),
        );
        report.results.iter().map(|r| r.finish.as_nanos()).collect()
    };
    let base = finishes(SimOptions::default());
    assert_eq!(base.len(), 3 * heads.len(), "every chain ran to its end");
    for (aggregate, full_recompute) in [(false, false), (true, true), (false, true)] {
        let got = finishes(SimOptions {
            aggregate,
            full_recompute,
            ..SimOptions::default()
        });
        let diverged = base.iter().zip(&got).position(|(a, b)| a != b);
        assert!(
            got.len() == base.len() && diverged.is_none(),
            "aggregate={aggregate} full_recompute={full_recompute}: flow {diverged:?} \
             finished at a different time"
        );
    }
}

#[test]
fn trace_serialization_is_stable() {
    let cluster = ClusterSpec::racks(1, 4);
    let config = HadoopConfig::default().with_reducers(2);
    let job = JobSpec::new(Workload::Grep, 256 << 20);
    let trace = run_job(&cluster, &config, &job, 9).trace;

    let mut buf1 = Vec::new();
    trace.write_jsonl(&mut buf1).expect("writes");
    let reread = keddah::flowcap::Trace::read_jsonl(&buf1[..]).expect("reads");
    assert_eq!(trace, reread);
    let mut buf2 = Vec::new();
    reread.write_jsonl(&mut buf2).expect("writes again");
    assert_eq!(buf1, buf2, "byte-identical re-serialization");

    // Every committed fixture reads back and re-writes to its own bytes,
    // metadata header (fault counters included) and all.
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut fixtures = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let bytes = std::fs::read(&path).expect("fixture reads");
        let trace = keddah::flowcap::Trace::read_jsonl(&bytes[..]).expect("fixture parses");
        let mut rewritten = Vec::new();
        trace.write_jsonl(&mut rewritten).expect("writes");
        assert!(
            rewritten == bytes,
            "{} does not re-write to its own bytes",
            path.display()
        );
        fixtures += 1;
    }
    assert!(fixtures >= 6, "found only {fixtures} trace fixtures");
}
