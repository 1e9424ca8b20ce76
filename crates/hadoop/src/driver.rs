//! Top-level driver: run jobs and produce capture traces.
//!
//! This is the crate's main entry point: it wires the job simulator to
//! the capture pipeline (packet tap → flow assembly → classification) and
//! returns a [`JobRun`] holding the labelled [`Trace`] — the artefact the
//! Keddah modelling step consumes.

use keddah_des::{Duration, SimTime};
use keddah_faults::FaultSpec;
use keddah_flowcap::{FlowAssembler, PacketRecord, Trace, TraceMeta};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::ClusterSpec;
use crate::config::HadoopConfig;
use crate::dag::JobDag;
use crate::net::NetModel;
pub use crate::sim::StageStats;
use crate::sim::{node_faults, simulate_dag_at_faulted, JobCounters};
use crate::workload::JobSpec;

/// The result of one simulated job execution.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The classified flow trace captured during the run.
    pub trace: Trace,
    /// Job makespan (submission to last reducer).
    pub duration: Duration,
    /// Simulator-side execution counters (ground truth for tests).
    pub counters: JobCounters,
}

/// Runs one job on the cluster and captures its traffic.
///
/// Deterministic: the same `(cluster, config, job, seed)` always produces
/// an identical run and trace.
///
/// # Panics
///
/// Panics if `cluster` or `config` fail validation — catching
/// mis-configured sweeps early is preferable to silently strange traffic.
///
/// # Examples
///
/// ```
/// use keddah_hadoop::driver::run_job;
/// use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
///
/// let run = run_job(
///     &ClusterSpec::racks(2, 4),
///     &HadoopConfig::default(),
///     &JobSpec::new(Workload::WordCount, 512 << 20),
///     42,
/// );
/// assert!(!run.trace.is_empty());
/// ```
#[must_use]
pub fn run_job(cluster: &ClusterSpec, config: &HadoopConfig, job: &JobSpec, seed: u64) -> JobRun {
    run_job_with_packets(cluster, config, job, seed).0
}

/// Like [`run_job`], but also returns the raw packet capture (time
/// ordered) alongside the assembled trace — for exporting tcpdump-style
/// text or driving custom assemblers.
///
/// # Panics
///
/// As [`run_job`].
#[must_use]
pub fn run_job_with_packets(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    job: &JobSpec,
    seed: u64,
) -> (JobRun, Vec<PacketRecord>) {
    run_job_with_packets_faulted(cluster, config, job, seed, &FaultSpec::empty())
}

/// [`run_job`] under a fault schedule: worker crashes and recoveries in
/// `faults` degrade the job (killed attempts, shuffle re-fetch, reducer
/// restarts) and trigger HDFS re-replication traffic. With an empty
/// spec this is exactly [`run_job`] — the clean path draws the same RNG
/// sequence and captures an identical trace.
///
/// Link-level faults in the spec are ignored here: the capture side has
/// no network topology. They apply when the trace is replayed through
/// `keddah-netsim`.
///
/// # Panics
///
/// As [`run_job`].
#[must_use]
pub fn run_job_faulted(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    job: &JobSpec,
    seed: u64,
    faults: &FaultSpec,
) -> JobRun {
    run_job_with_packets_faulted(cluster, config, job, seed, faults).0
}

/// [`run_job_faulted`] also returning the raw packet capture — the
/// faulted sibling of [`run_job_with_packets`].
///
/// # Panics
///
/// As [`run_job`].
#[must_use]
pub fn run_job_with_packets_faulted(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    job: &JobSpec,
    seed: u64,
    faults: &FaultSpec,
) -> (JobRun, Vec<PacketRecord>) {
    let jobs = [(job.workload.dag(), job.input_bytes)];
    let (session, _, packets) = capture(cluster, config, &jobs, seed, faults);
    let run = JobRun {
        trace: session.trace,
        duration: session.job_ends[0],
        counters: session.counters[0],
    };
    (run, packets)
}

/// The result of one simulated DAG execution.
#[derive(Debug, Clone)]
pub struct DagRun {
    /// The classified flow trace captured during the run.
    pub trace: Trace,
    /// Job makespan (submission to last stage's completion).
    pub duration: Duration,
    /// Simulator-side execution counters (whole job).
    pub counters: JobCounters,
    /// Per-stage execution summaries, in stage order.
    pub stages: Vec<StageStats>,
}

/// Runs an arbitrary [`JobDag`] on the cluster and captures its
/// traffic.
///
/// A [`crate::Workload`]'s own DAG (`workload.dag()`) captures the
/// *same trace* as [`run_job`] for that workload — the legacy engine's
/// byte-identity guarantee, pinned by `tests/dag_model.rs`.
///
/// # Panics
///
/// Panics if the cluster, config, or DAG fail validation.
#[must_use]
pub fn run_dag(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    dag: &JobDag,
    input_bytes: u64,
    seed: u64,
) -> DagRun {
    let (jobs, empty) = ([(dag.clone(), input_bytes)], FaultSpec::empty());
    let (session, stages, _) = capture(cluster, config, &jobs, seed, &empty);
    DagRun {
        trace: session.trace,
        duration: session.job_ends[0],
        counters: session.counters[0],
        stages,
    }
}

/// The result of a chained benchmark session.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// One classified trace covering the whole session.
    pub trace: Trace,
    /// Per-job completion times (from session start).
    pub job_ends: Vec<Duration>,
    /// Per-job execution counters.
    pub counters: Vec<JobCounters>,
}

/// Runs a *session*: jobs executed back to back on the same cluster,
/// each consuming the previous job's HDFS output when it produced one —
/// the classic `teragen → terasort` benchmark flow. The first job (and
/// any job following one with no output) gets freshly placed input of
/// its own `input_bytes`.
///
/// The whole session is captured as one trace: heartbeats and control
/// traffic span it contiguously.
///
/// # Panics
///
/// Panics if `jobs` is empty or the cluster/config are invalid.
///
/// # Examples
///
/// ```
/// use keddah_hadoop::driver::run_session;
/// use keddah_hadoop::{ClusterSpec, HadoopConfig, JobSpec, Workload};
///
/// let session = run_session(
///     &ClusterSpec::racks(2, 3),
///     &HadoopConfig::default().with_reducers(4),
///     &[
///         JobSpec::new(Workload::TeraGen, 512 << 20),
///         JobSpec::new(Workload::TeraSort, 512 << 20), // reads teragen's output
///     ],
///     11,
/// );
/// assert_eq!(session.job_ends.len(), 2);
/// ```
#[must_use]
pub fn run_session(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    jobs: &[JobSpec],
    seed: u64,
) -> SessionRun {
    assert!(!jobs.is_empty(), "session needs at least one job");
    let chain: Vec<_> = jobs
        .iter()
        .map(|j| (j.workload.dag(), j.input_bytes))
        .collect();
    capture(cluster, config, &chain, seed, &FaultSpec::empty()).0
}

/// The one capture routine behind every `run_*` entry point: validates
/// the inputs, runs the `(dag, input_bytes)` jobs back to back on one
/// cluster under `faults`, and assembles and classifies the packet tap
/// into one trace. Each job after the first starts 2 s after its
/// predecessor ends and consumes the predecessor's HDFS output when it
/// produced one. Returns the session, every job's stage summaries (in
/// order) and the time-ordered packets.
///
/// Faulted captures (always single jobs: sessions run fault-free) embed
/// their ground-truth counters in the trace metadata; clean captures keep
/// the historical (counter-free) byte layout.
fn capture(
    cluster: &ClusterSpec,
    config: &HadoopConfig,
    jobs: &[(JobDag, u64)],
    seed: u64,
    faults: &FaultSpec,
) -> (SessionRun, Vec<StageStats>, Vec<PacketRecord>) {
    cluster.validate().expect("invalid cluster spec");
    config.validate().expect("invalid hadoop config");
    for (dag, _) in jobs {
        dag.validate().expect("invalid job dag");
    }
    let timeline = node_faults(faults, cluster.worker_count());
    let mut net = NetModel::new(cluster.nic_bps);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut job_ends = Vec::with_capacity(jobs.len());
    let mut all_counters = Vec::with_capacity(jobs.len());
    let mut stages = Vec::new();
    let mut start = SimTime::ZERO;
    let mut chained: Option<Vec<crate::hdfs::Block>> = None;
    for (dag, input_bytes) in jobs {
        let mut counters = JobCounters::default();
        let outcome = simulate_dag_at_faulted(
            cluster,
            config,
            dag,
            *input_bytes,
            &mut net,
            &mut rng,
            &mut counters,
            start,
            chained.take(),
            &timeline,
        );
        job_ends.push(outcome.end.saturating_since(SimTime::ZERO));
        all_counters.push(counters);
        stages.extend(outcome.stages);
        chained = (!outcome.last_output.is_empty()).then_some(outcome.last_output);
        start = outcome.end + Duration::from_secs(2);
    }
    let packets = net.take_packets();

    let mut assembler = FlowAssembler::new();
    assembler.extend(packets.iter().copied());
    let flows = assembler.finish();
    let meta = TraceMeta {
        workload: jobs
            .iter()
            .map(|(dag, _)| dag.name.as_str())
            .collect::<Vec<_>>()
            .join("+"),
        input_bytes: jobs[0].1,
        reducers: config.reducers,
        replication: config.replication,
        block_bytes: config.block_bytes,
        nodes: cluster.worker_count(),
        seed,
        counters: (!faults.is_empty()).then(|| all_counters[0].to_map()),
    };
    let mut trace = Trace::new(meta, flows);
    trace.classify();
    let session = SessionRun {
        trace,
        job_ends,
        counters: all_counters,
    };
    (session, stages, packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use keddah_flowcap::Component;

    #[test]
    fn trace_contains_all_components() {
        let run = run_job(
            &ClusterSpec::racks(2, 4),
            &HadoopConfig::default(),
            &JobSpec::new(Workload::TeraSort, 4 << 30),
            1,
        );
        for &c in &[
            Component::HdfsRead,
            Component::HdfsWrite,
            Component::Shuffle,
            Component::Control,
        ] {
            assert!(
                run.trace.component_flows(c).count() > 0,
                "missing {c} flows"
            );
        }
        // Nothing should classify as Other: the simulator only speaks
        // Hadoop protocols.
        assert_eq!(run.trace.component_flows(Component::Other).count(), 0);
    }

    #[test]
    fn capture_agrees_with_simulator_counters() {
        let run = run_job(
            &ClusterSpec::racks(2, 4),
            &HadoopConfig::default(),
            &JobSpec::new(Workload::TeraSort, 1 << 30),
            2,
        );
        let shuffle_captured: u64 = run
            .trace
            .component_flows(Component::Shuffle)
            .map(|f| f.rev_bytes)
            .sum();
        assert_eq!(shuffle_captured, run.counters.shuffle_bytes);
        let read_captured: u64 = run
            .trace
            .component_flows(Component::HdfsRead)
            .map(|f| f.rev_bytes)
            .sum();
        assert_eq!(read_captured, run.counters.hdfs_read_bytes);
    }

    #[test]
    fn packets_match_assembled_trace() {
        let (run, packets) = run_job_with_packets(
            &ClusterSpec::racks(2, 2),
            &HadoopConfig::default().with_reducers(2),
            &JobSpec::new(Workload::Grep, 256 << 20),
            8,
        );
        assert!(!packets.is_empty());
        // Reassembling the returned packets reproduces the trace's flows.
        let mut asm = keddah_flowcap::FlowAssembler::new();
        asm.extend(packets.iter().copied());
        let mut flows = asm.finish();
        keddah_flowcap::classify::classify_all(&mut flows);
        assert_eq!(flows, run.trace.flows());
        // Packets are time ordered (tcpdump export depends on this).
        for w in packets.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn session_chains_teragen_into_terasort() {
        let session = run_session(
            &ClusterSpec::racks(2, 4),
            &HadoopConfig::default().with_reducers(4),
            &[
                JobSpec::new(Workload::TeraGen, 1 << 30),
                JobSpec::new(Workload::TeraSort, 1 << 30),
            ],
            4,
        );
        assert_eq!(session.job_ends.len(), 2);
        assert!(session.job_ends[1] > session.job_ends[0]);
        // TeraGen writes, TeraSort shuffles the generated data.
        assert_eq!(session.counters[0].shuffle_bytes, 0);
        assert!(session.counters[1].shuffle_bytes > 1 << 29);
        // The sort consumed the generated blocks: ~8 full blocks
        // (1 GiB / 128 MiB) plus a small spill block per map whose noisy
        // output slightly exceeded the block size.
        assert!(
            (8..=16).contains(&session.counters[1].maps),
            "maps = {}",
            session.counters[1].maps
        );
        // One contiguous trace covers both jobs.
        assert_eq!(session.trace.meta().workload, "teragen+terasort");
        assert!(session.trace.makespan().as_secs_f64() >= session.job_ends[1].as_secs_f64() * 0.9);
        // Heartbeats span the whole session (control flows near the end).
        let last_control = session
            .trace
            .component_flows(Component::Control)
            .map(|f| f.start)
            .max()
            .expect("has control traffic");
        assert!(
            last_control.as_secs_f64() > session.job_ends[1].as_secs_f64() * 0.8,
            "control stops early: {last_control}"
        );
    }

    #[test]
    fn session_is_deterministic() {
        let jobs = [
            JobSpec::new(Workload::TeraGen, 512 << 20),
            JobSpec::new(Workload::WordCount, 512 << 20),
        ];
        let cluster = ClusterSpec::racks(2, 2);
        let config = HadoopConfig::default().with_reducers(2);
        let a = run_session(&cluster, &config, &jobs, 6);
        let b = run_session(&cluster, &config, &jobs, 6);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.job_ends, b.job_ends);
    }

    #[test]
    fn meta_reflects_configuration() {
        let config = HadoopConfig::default()
            .with_reducers(16)
            .with_replication(2)
            .with_block_bytes(64 << 20);
        let run = run_job(
            &ClusterSpec::racks(3, 2),
            &config,
            &JobSpec::new(Workload::Bayes, 512 << 20),
            3,
        );
        let meta = run.trace.meta();
        assert_eq!(meta.workload, "bayes");
        assert_eq!(meta.reducers, 16);
        assert_eq!(meta.replication, 2);
        assert_eq!(meta.block_bytes, 64 << 20);
        assert_eq!(meta.nodes, 6);
        assert_eq!(meta.seed, 3);
    }
}
