//! The benchmark's workloads and their untimed set-up.

use keddah_des::Duration;
use keddah_faults::{FaultGen, FaultSpec};
use keddah_flowcap::Trace;
use keddah_hadoop::{
    run_job, run_job_faulted, ClusterSpec, HadoopConfig, JobCounters, JobRun, JobSpec, Workload,
};
use keddah_netsim::{SimOptions, Topology};
use keddah_obs::{MetricsSnapshot, Obs};

const GIB: u64 = 1 << 30;

/// Jobs of one configuration, captured under consecutive seeds and
/// pooled into one fitted model.
#[derive(Debug, Clone)]
pub struct CaptureGroup {
    pub job: JobSpec,
    pub repeats: u32,
}

/// What the replay stages of a pass replay.
#[derive(Debug, Clone)]
pub enum ReplayPlan {
    /// These captures `(group, repeat)`, as read back from JSONL: open
    /// loop via `StaticSource`, closed loop via `TraceSource`, and the
    /// same job captured under a crash replayed closed-loop under it.
    Traces(Vec<(usize, usize)>),
    /// `jobs` overlapping jobs (`stagger_secs` apart) drawn from the
    /// group's fitted model, once per replay seed: open loop via
    /// generated jobs, closed loop via `ModelSource`.
    Model {
        group: usize,
        jobs: u32,
        stagger_secs: f64,
        seeds: u32,
    },
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub groups: Vec<CaptureGroup>,
    pub replay: ReplayPlan,
}

pub const WORKLOADS: &[&str] = &["terasort_replay", "overlap_closed", "model_zoo"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    let group = |w: Workload, gib: u64, repeats: u32| CaptureGroup {
        job: JobSpec::new(w, gib * GIB),
        repeats,
    };
    let (groups, replay) = match name {
        // Four TeraSort all-to-all shuffles, each replayed three ways.
        "terasort_replay" => (
            vec![group(Workload::TeraSort, 16, 4)],
            ReplayPlan::Traces((0..4).map(|r| (0, r)).collect()),
        ),
        // Four jobs overlapping on the fabric, sampled from a model.
        "overlap_closed" => (
            vec![group(Workload::TeraSort, 8, 3)],
            ReplayPlan::Model {
                group: 0,
                jobs: 4,
                stagger_secs: 10.0,
                seeds: 2,
            },
        ),
        // The paper's seven workloads; replay is a small share.
        "model_zoo" => (
            Workload::PAPER.iter().map(|&w| group(w, 4, 3)).collect(),
            ReplayPlan::Traces((0..Workload::PAPER.len()).map(|g| (g, 0)).collect()),
        ),
        _ => return None,
    };
    let name = WORKLOADS.iter().find(|&&w| w == name)?;
    Some(WorkloadSpec {
        name,
        groups,
        replay,
    })
}

/// Replay options spelled out field by field with the CLI's defaults.
/// `SimOptions::default()` would read the `KEDDAH_*` oracle switches
/// from the environment.
pub fn sim_options(solver_jobs: usize) -> SimOptions {
    SimOptions {
        propagation: Duration::from_micros(100),
        mouse_threshold: 10_000,
        local_bps: 10e9,
        tcp_slow_start: false,
        full_recompute: false,
        aggregate: true,
        solver_jobs,
    }
}

/// What one replay unit replays.
#[derive(Debug, Clone, Copy)]
pub enum UnitInput {
    Trace {
        group: usize,
        repeat: usize,
    },
    Model {
        group: usize,
        jobs: u32,
        stagger_secs: f64,
        seed: u64,
    },
}

/// One replayed scenario: open, closed and crashed replays of the same
/// traffic, and the diagnosis of the crash.
pub struct ReplayUnit {
    pub input: UnitInput,
    /// One seeded node crash in the first half of the replayed job (for
    /// model input: of the group's first capture, i.e. the first job).
    pub crash: FaultSpec,
    /// Trace input: the replayed job captured again under the crash,
    /// which the crashed replay replays.
    pub degraded: Option<Trace>,
    /// Hadoop counters of the clean and the crashed capture. The crash
    /// strikes the cluster too, and its recovery counters are what let
    /// `diagnose` tell a crash from a partition.
    pub baseline_metrics: MetricsSnapshot,
    pub degraded_metrics: MetricsSnapshot,
}

/// Everything a pass needs that is not itself measured.
pub struct Setup {
    pub topo: Topology,
    pub cluster: ClusterSpec,
    pub config: HadoopConfig,
    pub options: SimOptions,
    /// Capture seed of each group's repeats.
    pub seeds: Vec<Vec<u64>>,
    /// Reference captures the pass's captures must reproduce.
    pub reference: Vec<Vec<Trace>>,
    pub units: Vec<ReplayUnit>,
}

fn capture_metrics(counters: &JobCounters) -> MetricsSnapshot {
    let obs = Obs::enabled();
    counters.record_obs(&obs);
    obs.metrics()
}

/// Builds the fabric and cluster, captures the reference runs, and
/// derives each replay unit's crash and crashed capture. Deterministic
/// in `seed`.
pub fn setup(w: &WorkloadSpec, seed: u64, solver_jobs: usize) -> Setup {
    // The ROADMAP baseline fabric: leaf-spine 9x16x4 at 1 Gb/s, 2:1.
    let topo = Topology::leaf_spine(9, 16, 4, 1e9, 2.0);
    let cluster = ClusterSpec::racks(8, 16);
    let config = HadoopConfig::default();
    let base = seed.wrapping_mul(1_000_003);
    let seeds: Vec<Vec<u64>> = w
        .groups
        .iter()
        .enumerate()
        .map(|(g, grp)| {
            (0..grp.repeats)
                .map(|r| base.wrapping_add(100 * g as u64 + u64::from(r)))
                .collect()
        })
        .collect();
    let reference: Vec<Vec<JobRun>> = w
        .groups
        .iter()
        .zip(&seeds)
        .map(|(grp, s)| {
            s.iter()
                .map(|&sd| run_job(&cluster, &config, &grp.job, sd))
                .collect()
        })
        .collect();

    let inputs: Vec<UnitInput> = match &w.replay {
        ReplayPlan::Traces(list) => list
            .iter()
            .map(|&(group, repeat)| UnitInput::Trace { group, repeat })
            .collect(),
        &ReplayPlan::Model {
            group,
            jobs,
            stagger_secs,
            seeds: n,
        } => (0..u64::from(n))
            .map(|k| UnitInput::Model {
                group,
                jobs,
                stagger_secs,
                seed: base.wrapping_add(10_000 + k),
            })
            .collect(),
    };
    let units = inputs
        .into_iter()
        .enumerate()
        .map(|(k, input)| {
            let (group, repeat) = match input {
                UnitInput::Trace { group, repeat } => (group, repeat),
                UnitInput::Model { group, .. } => (group, 0),
            };
            let clean = &reference[group][repeat];
            let crash = keddah_faults::generate(
                &FaultGen {
                    hosts: cluster.node_count(),
                    horizon_nanos: clean.trace.makespan().as_nanos() / 2,
                    node_crashes: 1,
                    ..FaultGen::default()
                },
                seed.wrapping_mul(31).wrapping_add(k as u64) ^ 0x5eed_fa17,
            );
            let job = &w.groups[group].job;
            let degraded = run_job_faulted(&cluster, &config, job, seeds[group][repeat], &crash);
            ReplayUnit {
                input,
                baseline_metrics: capture_metrics(&clean.counters),
                degraded_metrics: capture_metrics(&degraded.counters),
                degraded: matches!(input, UnitInput::Trace { .. }).then_some(degraded.trace),
                crash,
            }
        })
        .collect();

    Setup {
        topo,
        cluster,
        config,
        options: sim_options(solver_jobs),
        seeds,
        reference: reference
            .into_iter()
            .map(|runs| runs.into_iter().map(|r| r.trace).collect())
            .collect(),
        units,
    }
}
