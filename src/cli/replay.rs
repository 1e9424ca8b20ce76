//! `keddah replay` — replay traffic on a simulated topology.

use std::fs;

use keddah_core::replay::{jobs_to_flows, replay_source_faulted_observed, trace_to_flows};
use keddah_core::validate::compare_replays;
use keddah_core::{FaultSpec, KeddahModel, ModelSource, TraceSource};
use keddah_flowcap::Trace;
use keddah_netsim::{SimOptions, StaticSource, TrafficSource};
use keddah_obs::Obs;

use super::topo_spec::parse_topology;
use super::{err, obs_out, Args, Result};

const HELP: &str = "\
keddah replay — replay generated or captured traffic on a topology

USAGE:
    keddah replay --model <MODEL.json> --topology <SPEC> [FLAGS]
    keddah replay --trace <TRACE.jsonl> --topology <SPEC> [FLAGS]

FLAGS:
    --model <FILE>      generate jobs from this model and replay them
    --trace <FILE>      replay this capture trace instead
    --topology <SPEC>   star:<hosts>[:<rate>]
                        leaf-spine:<racks>x<hosts>x<spines>[:<rate>[:<oversub>]]
                        fat-tree:<k>[:<rate>]           (required)
    --jobs <N>          jobs to generate (model mode)   [default: 1]
    --seed <N>          generation seed                 [default: 1]
    --stagger-secs <S>  offset between jobs             [default: 10]
    --mouse-bytes <N>   mice fast-path threshold        [default: 10000]
    --closed-loop       release dependent flows when their parents
                        complete in the simulation, instead of at
                        pre-computed start times
    --faults <FILE>     inject this fault schedule (see `keddah faults`)
                        and also run the fault-free baseline, reporting
                        per-component deltas between the two
    --trace-out <FILE>    write ring-buffered trace events as JSONL
    --metrics-out <FILE>  write a metrics snapshot as JSON
                          (render either with `keddah stats`; with
                          --faults, the faulted run is the observed one)";

const FLAGS: &[&str] = &[
    "model",
    "trace",
    "topology",
    "jobs",
    "seed",
    "stagger-secs",
    "mouse-bytes",
    "closed-loop",
    "faults",
    obs_out::TRACE_OUT,
    obs_out::METRICS_OUT,
];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns an error for conflicting inputs, bad topology specs, or
/// traffic that does not fit the topology.
pub fn run(args: &Args) -> Result<()> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    args.check_known(FLAGS)?;
    let topo = parse_topology(args.require("topology")?)?;
    let defaults = SimOptions::default();
    let options = SimOptions {
        mouse_threshold: args.get_num("mouse-bytes", defaults.mouse_threshold)?,
        ..defaults
    };

    let closed_loop = args.get_bool("closed-loop");
    let spec = match args.get("faults") {
        Some(path) => {
            let json =
                fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
            Some(FaultSpec::from_json(&json).map_err(|e| err(e.to_string()))?)
        }
        None => None,
    };

    // The obs handle records the run whose report gets printed: the
    // faulted run when --faults is given, otherwise the baseline. The
    // other run stays unobserved so artefacts describe one run, not a
    // mixture.
    let obs = obs_out::obs_from_args(args);
    let disabled = Obs::disabled();
    let (base_obs, fault_obs) = if spec.is_some() {
        (&disabled, &obs)
    } else {
        (&obs, &disabled)
    };

    // Each run replays its own copy of one source, so the baseline and
    // the faulted run see the same traffic.
    let source: Box<dyn Fn() -> Box<dyn TrafficSource>> =
        match (args.get("model"), args.get("trace")) {
            (Some(_), Some(_)) => {
                return Err(err("give either --model or --trace, not both"));
            }
            (Some(model_path), None) => {
                let json = fs::read_to_string(model_path)
                    .map_err(|e| err(format!("cannot read {model_path}: {e}")))?;
                let model = KeddahModel::from_json(&json).map_err(|e| err(e.to_string()))?;
                let jobs = args.get_num("jobs", 1u32)?.max(1);
                let seed = args.get_num("seed", 1u64)?;
                let stagger = args.get_num("stagger-secs", 10.0f64)?;
                if closed_loop {
                    copies(ModelSource::new(&model, jobs, seed, stagger, &topo))?
                } else {
                    let generated = model.generate_jobs(jobs, seed, stagger);
                    copies(jobs_to_flows(&generated, &topo).map(StaticSource::new))?
                }
            }
            (None, Some(trace_path)) => {
                let file = fs::File::open(trace_path)
                    .map_err(|e| err(format!("cannot open {trace_path}: {e}")))?;
                let trace = Trace::read_jsonl(std::io::BufReader::new(file))
                    .map_err(|e| err(format!("cannot parse {trace_path}: {e}")))?;
                // Capture traces carry the simulator's ground-truth job
                // counters in their metadata; surface them under the
                // "hadoop" subsystem so replay artefacts can be checked
                // against the capture they replay.
                if let Some(counters) = &trace.meta().counters {
                    for (name, value) in counters {
                        obs.add("hadoop", name, *value);
                    }
                }
                if closed_loop {
                    copies(TraceSource::new(&trace, &topo))?
                } else {
                    copies(trace_to_flows(&trace, &topo).map(StaticSource::new))?
                }
            }
            (None, None) => {
                return Err(err("need --model or --trace; run `keddah replay --help`"));
            }
        };

    // With --faults, the baseline (fault-free) replay runs alongside the
    // faulted one so per-component deltas can be reported.
    let replay = |spec: &FaultSpec, obs: &Obs| {
        replay_source_faulted_observed(&topo, &mut *source(), spec, options, obs)
            .map_err(|e| err(e.to_string()))
    };
    let baseline = replay(&FaultSpec::empty(), base_obs)?;
    let faulted = spec.as_ref().map(|s| replay(s, fault_obs)).transpose()?;

    let report = faulted.as_ref().unwrap_or(&baseline);

    println!(
        "replayed {} flows on {} ({} loop, makespan {:.1} s, peak link {:.1}%)",
        report.sim.results.len(),
        topo.name(),
        if closed_loop { "closed" } else { "open" },
        report.makespan_secs(),
        report.sim.peak_link_utilisation(&topo) * 100.0
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "component", "flows", "p50 (s)", "p95 (s)", "p99 (s)"
    );
    for (component, fcts) in &report.fct_by_component {
        let mut sorted = fcts.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        println!(
            "{:<12} {:>8} {:>10.4} {:>10.4} {:>10.4}",
            component.name(),
            sorted.len(),
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }

    if let Some(faulted) = &faulted {
        let stats = &faulted.sim.faults;
        println!(
            "faults: {} applied, {} flow(s) aborted, {} flow(s) rerouted, \
             {:.2} MB lost, {:.2} MB delivered",
            stats.faults_applied,
            stats.aborted.len(),
            stats.rerouted_flows,
            stats.lost_bytes as f64 / 1e6,
            stats.delivered_bytes as f64 / 1e6
        );
        println!(
            "{:<12} {:>12} {:>12} {:>8} {:>8}",
            "component", "base (s)", "faulted (s)", "delta", "KS"
        );
        match compare_replays(&baseline, faulted) {
            Ok(rows) => {
                for row in rows {
                    let delta = if row.mean_fct_a > 0.0 {
                        (row.mean_fct_b - row.mean_fct_a) / row.mean_fct_a * 100.0
                    } else {
                        0.0
                    };
                    println!(
                        "{:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>8.3}",
                        row.component.name(),
                        row.mean_fct_a,
                        row.mean_fct_b,
                        delta,
                        row.ks_statistic
                    );
                }
            }
            Err(e) => println!("  (no comparable components: {e})"),
        }
    }
    obs_out::write_artifacts(&obs, args)
}

/// A built source, or its construction error, as a factory of fresh
/// copies: an unstarted source's clone replays exactly like the original.
fn copies<S: TrafficSource + Clone + 'static>(
    source: keddah_core::Result<S>,
) -> Result<Box<dyn Fn() -> Box<dyn TrafficSource>>> {
    let source = source.map_err(|e| err(e.to_string()))?;
    Ok(Box::new(move || Box::new(source.clone())))
}
