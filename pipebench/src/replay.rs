//! The replay stages of a pass: every replay unit replayed open loop,
//! closed loop and under its crash, then the crash diagnosed.

use std::collections::BTreeMap;

use keddah_core::replay::{
    jobs_to_flows, replay_source_faulted_observed, replay_source_observed, trace_to_flows,
    ReplayReport,
};
use keddah_core::{KeddahModel, ModelSource, TraceSource};
use keddah_diagnose::{diagnose, Evidence};
use keddah_faults::{FaultClass, FaultSpec};
use keddah_netsim::{StaticSource, TrafficSource};
use keddah_obs::{MetricsSnapshot, Obs};

use crate::arith::{digest_extend, median, ratio, SolverShape, FNV_OFFSET};
use crate::pipeline::{Artefacts, Checks, PassOut};
use crate::trace::{Spans, TimedSource};
use crate::workload::{ReplayUnit, Setup, UnitInput, WorkloadSpec};

/// The replay disciplines, in pass order.
pub const DISCIPLINES: [&str; 3] = ["open", "closed", "faulted"];

/// One replay's outcome.
struct Replay {
    report: ReplayReport,
    /// Populated in traced passes only.
    metrics: Option<MetricsSnapshot>,
}

/// Layer counters and times of one discipline, summed over the units
/// (peaks are maxima).
#[derive(Debug, Default)]
struct Tally {
    solves: u64,
    dense_solves: u64,
    solved_entries: u64,
    events: u64,
    dispatched: u64,
    peak_active: u64,
    peak_bundles: u64,
    sum_peak_active: u64,
    sum_peak_bundles: u64,
    mice: u64,
    started: u64,
    sim_s: f64,
    build_s: f64,
    callback_s: f64,
    callbacks: u64,
    aborted: u64,
    rerouted: u64,
    lost_bytes: u64,
}

impl Tally {
    fn add(&mut self, m: &MetricsSnapshot, sim_s: f64, build_s: f64, t: &TimedSource<'_>) {
        self.solves += m.gauge("netsim", "fair_solves");
        self.dense_solves += m.gauge("netsim", "fair_dense_solves");
        self.solved_entries += m.gauge("netsim", "fair_solved_flows");
        self.events += m.counter("netsim", "events");
        self.dispatched += m.counter("des", "events_dispatched");
        let (active, bundles) = (
            m.gauge("netsim", "peak_active"),
            m.gauge("netsim", "peak_bundles"),
        );
        self.peak_active = self.peak_active.max(active);
        self.peak_bundles = self.peak_bundles.max(bundles);
        self.sum_peak_active += active;
        self.sum_peak_bundles += bundles;
        self.mice += m.counter("netsim", "mice_fastpath");
        self.started += m.counter("netsim", "flows_started");
        self.sim_s += sim_s;
        self.build_s += build_s;
        self.callback_s += t.busy.as_secs_f64();
        self.callbacks += t.calls;
        self.aborted += m.counter("faults", "flows_aborted");
        self.rerouted += m.counter("faults", "rerouted_flows");
        self.lost_bytes += m.counter("faults", "lost_bytes");
    }

    /// Writes the discipline's per-layer metrics into `layer`.
    fn report(&self, disc: &str, layer: &mut BTreeMap<String, f64>) {
        let shape = SolverShape::from_counters(self.solves, self.dense_solves, self.solved_entries);
        // The simulator's own time: replay wall minus source callbacks.
        let self_s = (self.sim_s - self.callback_s).max(0.0);
        let mut put = |k: &str, v: f64| layer.insert(format!("{k}.{disc}"), v);
        put("netsim.fair_solves", shape.solves as f64);
        put("netsim.fair_dense_ratio", shape.dense_ratio);
        put("netsim.fair_entries_per_solve", shape.entries_per_solve);
        put(
            "netsim.ns_per_solved_entry",
            ratio(self_s * 1e9, self.solved_entries as f64),
        );
        put("netsim.self_s", self_s);
        put(
            "netsim.ns_per_event",
            ratio(self_s * 1e9, self.events as f64),
        );
        put("netsim.events", self.events as f64);
        put("des.events_dispatched", self.dispatched as f64);
        put("netsim.peak_active", self.peak_active as f64);
        put("netsim.peak_bundles", self.peak_bundles as f64);
        put(
            "netsim.flows_per_bundle",
            ratio(self.sum_peak_active as f64, self.sum_peak_bundles as f64),
        );
        put(
            "netsim.mice_ratio",
            ratio(self.mice as f64, self.started as f64),
        );
        if disc != "open" {
            put("core.source.build_s", self.build_s);
            put("core.source.callbacks", self.callbacks as f64);
            put("core.source.callback_s", self.callback_s);
            put(
                "core.source.share",
                ratio(self.callback_s, self.build_s + self.sim_s),
            );
        }
        if disc == "faulted" {
            layer.insert("faults.flows_aborted".into(), self.aborted as f64);
            layer.insert("faults.rerouted_flows".into(), self.rerouted as f64);
            layer.insert("faults.lost_bytes".into(), self.lost_bytes as f64);
        }
    }
}

/// Open, closed and faulted replays of every unit, then the diagnosis
/// of each unit's crash.
pub fn replay_path(
    w: &WorkloadSpec,
    s: &Setup,
    art: &Artefacts,
    traced: bool,
    spans: &mut Spans,
    checks: &mut Checks,
    out: &mut PassOut,
) -> Option<()> {
    // Closed and faulted reports per unit, kept for the diagnosis.
    let mut kept: [Vec<Replay>; 2] = [Vec::new(), Vec::new()];
    for (i, disc) in DISCIPLINES.into_iter().enumerate() {
        let stage = spans.begin(&format!("stage.replay_{disc}"));
        let mut tally = Tally::default();
        let mut digest = FNV_OFFSET;
        let mut failed = false;
        for unit in &s.units {
            let Some(replay) = replay_one(s, art, unit, disc, traced, spans, &mut tally) else {
                failed = true;
                break;
            };
            out.events[i] += replay.report.sim.events;
            digest = digest_extend(digest, &replay.report.sim.results);
            if i > 0 {
                kept[i - 1].push(replay);
            }
        }
        out.end_stage(
            spans,
            stage,
            ["replay_open", "replay_closed", "replay_faulted"][i],
        );
        if failed {
            checks.check(false, || format!("{disc} replay failed to start"));
            return None;
        }
        out.digests[i] = digest;
        if traced {
            tally.report(disc, &mut out.layer);
        }
    }

    let stage = spans.begin("stage.diagnose");
    let (mut evidence_s, mut verdict_s) = (0.0, 0.0);
    for ((unit, closed), faulted) in s.units.iter().zip(&kept[0]).zip(&kept[1]) {
        let sim = &faulted.report.sim;
        let offered: u64 = sim.results.iter().map(|r| r.spec.bytes).sum();
        checks.check(
            sim.faults.delivered_bytes + sim.faults.lost_bytes == offered,
            || {
                format!(
                    "crashed replay: delivered {} + lost {} != offered {offered}",
                    sim.faults.delivered_bytes, sim.faults.lost_bytes
                )
            },
        );
        // Capture-side counters, plus the replay's own in traced passes.
        let snapshot = |capture: &MetricsSnapshot, r: &Replay| {
            let mut m = capture.clone();
            if let Some(replay) = &r.metrics {
                m.merge(replay);
            }
            m
        };
        let (evidence, t) = spans.time("diagnose.evidence", || {
            Evidence::from_replays(
                w.name,
                &faulted.report,
                snapshot(&unit.degraded_metrics, faulted),
                &closed.report,
                snapshot(&unit.baseline_metrics, closed),
            )
        });
        evidence_s += t;
        let (diagnosis, t) = spans.time("diagnose.verdict", || diagnose(&evidence));
        verdict_s += t;
        if !sim.faults.aborted.is_empty() {
            checks.check(diagnosis.top().class == FaultClass::NodeCrash, || {
                format!(
                    "crash aborted {} flow(s) but diagnose ranked {} first",
                    sim.faults.aborted.len(),
                    diagnosis.top().class
                )
            });
        }
    }
    out.end_stage(spans, stage, "diagnose");
    if traced {
        out.layer.insert("diagnose.evidence_s".into(), evidence_s);
        out.layer.insert("diagnose.verdict_s".into(), verdict_s);
    }
    Some(())
}

/// Builds the source a discipline replays for `unit`.
fn build_source(
    s: &Setup,
    art: &Artefacts,
    unit: &ReplayUnit,
    disc: &str,
) -> Option<Box<dyn TrafficSource>> {
    Some(match (unit.input, disc) {
        (UnitInput::Trace { group, repeat }, "open") => Box::new(StaticSource::new(
            trace_to_flows(&art.traces[group][repeat], &s.topo).ok()?,
        )),
        (UnitInput::Trace { group, repeat }, "closed") => {
            Box::new(TraceSource::new(&art.traces[group][repeat], &s.topo).ok()?)
        }
        (UnitInput::Trace { .. }, _) => {
            Box::new(TraceSource::new(unit.degraded.as_ref()?, &s.topo).ok()?)
        }
        (
            UnitInput::Model {
                group,
                jobs,
                stagger_secs,
                seed,
            },
            "open",
        ) => {
            let generated = art.models[group].generate_jobs(jobs, seed, stagger_secs);
            Box::new(StaticSource::new(jobs_to_flows(&generated, &s.topo).ok()?))
        }
        (
            UnitInput::Model {
                group,
                jobs,
                stagger_secs,
                seed,
            },
            _,
        ) => {
            Box::new(ModelSource::new(&art.models[group], jobs, seed, stagger_secs, &s.topo).ok()?)
        }
    })
}

/// One replay. Untraced: the source goes straight to the simulator with
/// a disabled `Obs`. Traced: through a [`TimedSource`] with a recording
/// `Obs`, and the layer counters land in `tally`.
fn replay_one(
    s: &Setup,
    art: &Artefacts,
    unit: &ReplayUnit,
    disc: &str,
    traced: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Option<Replay> {
    let (source, build_s) = spans.time("core.source.build", || build_source(s, art, unit, disc));
    let mut source = source?;
    let spec = if disc == "faulted" {
        unit.crash.clone()
    } else {
        FaultSpec::empty()
    };
    let obs = if traced {
        Obs::with_trace_capacity(1024)
    } else {
        Obs::disabled()
    };
    let run = |src: &mut dyn TrafficSource| {
        if spec.is_empty() {
            Some(replay_source_observed(&s.topo, src, s.options, &obs))
        } else {
            replay_source_faulted_observed(&s.topo, src, &spec, s.options, &obs).ok()
        }
    };
    if !traced {
        let (report, _) = spans.time("netsim.replay", || run(source.as_mut()));
        return Some(Replay {
            report: report?,
            metrics: None,
        });
    }
    let mut timed = TimedSource::new(source.as_mut());
    let (report, sim_s) = spans.time("netsim.replay", || run(&mut timed));
    let metrics = obs.metrics();
    tally.add(&metrics, sim_s, build_s, &timed);
    Some(Replay {
        report: report?,
        metrics: Some(metrics),
    })
}

/// Closed-loop `ModelSource` replays of 4 overlapping jobs (10 s
/// stagger) and of 1 job from `model`, alternated three times:
/// (median 4-job ÷ median 1-job wall time, 4-job ÷ 1-job flow count).
pub fn overlap_probe(s: &Setup, model: &KeddahModel, seed: u64) -> Option<(f64, f64)> {
    let run = |jobs: u32| -> Option<(f64, usize)> {
        let t = std::time::Instant::now();
        let mut source = ModelSource::new(model, jobs, seed, 10.0, &s.topo).ok()?;
        let report = replay_source_observed(&s.topo, &mut source, s.options, &Obs::disabled());
        Some((t.elapsed().as_secs_f64(), report.sim.results.len()))
    };
    let (mut t1, mut t4) = (Vec::new(), Vec::new());
    let (mut n1, mut n4) = (0, 0);
    for _ in 0..3 {
        let (t, n) = run(1)?;
        t1.push(t);
        n1 = n;
        let (t, n) = run(4)?;
        t4.push(t);
        n4 = n;
    }
    Some((ratio(median(&t4), median(&t1)), ratio(n4 as f64, n1 as f64)))
}
