//! One pass of the Keddah pipeline: capture → tcpdump text → ingest →
//! trace JSONL → fit, then the replay stages of [`crate::replay`].

use std::collections::BTreeMap;

use keddah_core::fitting::{fit_model, MIN_FLOWS};
use keddah_core::{Dataset, KeddahModel};
use keddah_flowcap::classify::classify_all;
use keddah_flowcap::{tcpdump, Component, FlowAssembler, FlowRecord, Trace};
use keddah_hadoop::run_job_with_packets;
use keddah_stat::distributions::Distribution;
use keddah_stat::fit::Candidate;
use keddah_stat::ks::ks_one_sample;

use crate::arith::ratio;
use crate::clock;
use crate::trace::Spans;
use crate::workload::{Setup, WorkloadSpec};

/// Output checks: how many were made, and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one pass measured and produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Stage name → wall seconds (`capture`, `ingest`, `trace_io`, `fit`,
    /// `replay_open`, `replay_closed`, `replay_faulted`, `diagnose`).
    pub stage_s: BTreeMap<&'static str, f64>,
    /// Yardstick readings at the pass start and after every stage.
    pub yardstick_s: Vec<f64>,
    /// Netsim events per discipline, in [`crate::replay::DISCIPLINES`]
    /// order, summed over the replay units.
    pub events: [u64; 3],
    /// Finish-time digest per discipline, over the units in order.
    pub digests: [u64; 3],
    /// Fitted model JSON per group.
    pub models: Vec<String>,
    /// Per-layer metrics (traced passes only).
    pub layer: BTreeMap<String, f64>,
}

impl PassOut {
    /// Wall seconds of `stages` summed, rescaled to nominal host speed by
    /// this pass's yardstick readings.
    pub fn scaled_s(&self, stages: &[&str]) -> f64 {
        let wall: f64 = stages.iter().map(|k| self.stage_s[k]).sum();
        wall * clock::factor(&self.yardstick_s)
    }

    /// Closes stage span `id`, records its wall seconds under `key`, and
    /// reads the yardstick.
    pub fn end_stage(&mut self, spans: &mut Spans, id: usize, key: &'static str) {
        self.stage_s.insert(key, spans.end(id));
        let (y, _) = spans.time("bench.yardstick", clock::yardstick_s);
        self.yardstick_s.push(y);
    }
}

/// Captured and fitted artefacts a pass hands to its replay stages.
pub struct Artefacts {
    /// Every capture as read back from JSONL, per group.
    pub traces: Vec<Vec<Trace>>,
    /// The fitted model of each group.
    pub models: Vec<KeddahModel>,
}

/// Runs one pass. A traced pass additionally wraps every traffic source
/// in a [`crate::trace::TimedSource`], records `keddah-obs` counters through the
/// `*_observed` entry points and times MLE and KS calls separately;
/// replay outputs must not change.
pub fn run_pass(
    w: &WorkloadSpec,
    s: &Setup,
    traced: bool,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Option<PassOut> {
    let pass = spans.begin("pass");
    let (y, _) = spans.time("bench.yardstick", clock::yardstick_s);
    let mut out = PassOut {
        yardstick_s: vec![y],
        ..PassOut::default()
    };
    let art = model_path(w, s, traced, spans, checks, &mut out)?;
    crate::replay::replay_path(w, s, &art, traced, spans, checks, &mut out)?;
    spans.end(pass);
    Some(out)
}

/// Capture, ingest, trace I/O and fit.
fn model_path(
    w: &WorkloadSpec,
    s: &Setup,
    traced: bool,
    spans: &mut Spans,
    checks: &mut Checks,
    out: &mut PassOut,
) -> Option<Artefacts> {
    let mut layer = LayerTimes::default();

    // Capture: simulate every run with its packets, write tcpdump text.
    let stage = spans.begin("stage.capture");
    let mut captured: Vec<Vec<(Trace, Vec<u8>)>> = Vec::new();
    let mut packets = 0u64;
    let mut flows = 0u64;
    for ((grp, seeds), refs) in w.groups.iter().zip(&s.seeds).zip(&s.reference) {
        let mut group = Vec::new();
        for (&seed, reference) in seeds.iter().zip(refs) {
            let ((run, pkts), t) = spans.time("hadoop.run_job_with_packets", || {
                run_job_with_packets(&s.cluster, &s.config, &grp.job, seed)
            });
            layer.add("hadoop.capture_s", t);
            checks.check(run.trace == *reference, || {
                format!("capture of {} seed {seed} differs from set-up", grp.job)
            });
            packets += pkts.len() as u64;
            flows += run.trace.len() as u64;
            let mut text = Vec::new();
            let (res, t) = spans.time("flowcap.tcpdump_write", || {
                tcpdump::write_text(&pkts, &mut text)
            });
            layer.add("flowcap.tcpdump_write_s", t);
            checks.check(res.is_ok(), || format!("tcpdump write failed: {res:?}"));
            group.push((run.trace, text));
        }
        captured.push(group);
    }
    out.end_stage(spans, stage, "capture");

    // Ingest: parse the text back, reassemble flows, classify them.
    let stage = spans.begin("stage.ingest");
    let mut parse_errors = 0u64;
    for (trace, text) in captured.iter().flatten() {
        let (parsed, t) = spans.time("flowcap.tcpdump_read", || {
            tcpdump::read_text_lenient(&text[..])
        });
        layer.add("flowcap.tcpdump_read_s", t);
        let Ok(parsed) = parsed else {
            checks.check(false, || "tcpdump read failed".to_string());
            return None;
        };
        parse_errors += parsed.parse_errors();
        let (mut ingested, t) = spans.time("flowcap.assemble", || {
            let mut assembler = FlowAssembler::new();
            assembler.extend(parsed.packets);
            assembler.finish()
        });
        layer.add("flowcap.assemble_s", t);
        let ((), t) = spans.time("flowcap.classify", || classify_all(&mut ingested));
        layer.add("flowcap.classify_s", t);
        let by_component = |flows: &mut dyn Iterator<Item = &FlowRecord>| {
            let mut m: BTreeMap<Option<Component>, (u64, u64)> = BTreeMap::new();
            for f in flows {
                let slot = m.entry(f.component).or_default();
                slot.0 += 1;
                slot.1 += f.total_bytes();
            }
            m
        };
        let got = by_component(&mut ingested.iter());
        let want = by_component(&mut trace.flows().iter());
        checks.check(got == want, || {
            format!(
                "ingest of {} differs per component from its capture",
                trace.meta().workload
            )
        });
    }
    checks.check(parse_errors == 0, || {
        format!("{parse_errors} tcpdump line(s) failed to parse")
    });
    out.end_stage(spans, stage, "ingest");

    // Trace I/O: what `capture` writes and `fit` reads back.
    let stage = spans.begin("stage.trace_io");
    let mut traces: Vec<Vec<Trace>> = Vec::new();
    let mut jsonl_bytes = 0u64;
    for group in &captured {
        let mut back_group = Vec::new();
        for (trace, _) in group {
            let mut buf = Vec::new();
            let (res, t) = spans.time("flowcap.trace_write", || trace.write_jsonl(&mut buf));
            layer.add("flowcap.trace_write_s", t);
            checks.check(res.is_ok(), || format!("trace write failed: {res:?}"));
            jsonl_bytes += buf.len() as u64;
            let (back, t) = spans.time("flowcap.trace_read", || Trace::read_jsonl(&buf[..]));
            layer.add("flowcap.trace_read_s", t);
            let Ok(back) = back else {
                checks.check(false, || "trace read failed".to_string());
                return None;
            };
            checks.check(back == *trace, || {
                format!("JSONL round trip changed a {} trace", trace.meta().workload)
            });
            back_group.push(back);
        }
        traces.push(back_group);
    }
    out.end_stage(spans, stage, "trace_io");

    // Fit: one model per group.
    let stage = spans.begin("stage.fit");
    let mut models = Vec::new();
    let mut datasets = Vec::new();
    for group in &traces {
        let (dataset, t) = spans.time("core.dataset", || Dataset::from_traces(group));
        layer.add("core.dataset_s", t);
        let (model, t) = spans.time("core.fitting", || fit_model(&dataset));
        layer.add("core.fitting_s", t);
        let Ok(model) = model else {
            checks.check(false, || format!("fit failed: {model:?}"));
            return None;
        };
        out.models.push(model.to_json());
        models.push(model);
        datasets.push(dataset);
    }
    out.end_stage(spans, stage, "fit");

    if traced {
        stat_probe(&datasets, spans, &mut layer);
        let (mut fitted, mut parametric) = (0u32, 0u32);
        for cm in models.iter().flat_map(|m| m.components.values()) {
            for d in [&cm.size_dist, &cm.start_dist] {
                fitted += 1;
                parametric += u32::from(d.candidate().is_some());
            }
        }
        let capture_s = layer.get("hadoop.capture_s");
        let ingest_s = layer.get("flowcap.tcpdump_read_s")
            + layer.get("flowcap.assemble_s")
            + layer.get("flowcap.classify_s");
        out.layer.extend(layer.0);
        let l = &mut out.layer;
        l.insert("hadoop.flows_per_s".into(), ratio(flows as f64, capture_s));
        l.insert(
            "flowcap.packets_per_s".into(),
            ratio(packets as f64, ingest_s),
        );
        l.insert("flowcap.parse_errors".into(), parse_errors as f64);
        let read_s = l["flowcap.trace_read_s"];
        l.insert(
            "flowcap.trace_read_mb_per_s".into(),
            ratio(jsonl_bytes as f64 / 1e6, read_s),
        );
        l.insert(
            "stat.parametric_ratio".into(),
            ratio(f64::from(parametric), f64::from(fitted)),
        );
    }
    Some(Artefacts { traces, models })
}

/// Times `Candidate::fit` and `ks_one_sample` on the samples `fit_model`
/// sweeps: sizes against the positive families, start times against all.
fn stat_probe(datasets: &[Dataset], spans: &mut Spans, layer: &mut LayerTimes) {
    let probe = spans.begin("stat.probe");
    let mut fitted = 0u32;
    for sample in datasets.iter().flat_map(|d| d.components.values()) {
        if sample.sizes.len() < MIN_FLOWS {
            continue;
        }
        let starts: Vec<f64> = sample.starts.iter().map(|&x| x + 1e-9).collect();
        for (samples, candidates) in [
            (&sample.sizes, Candidate::POSITIVE),
            (&starts, Candidate::ALL),
        ] {
            for &cand in candidates {
                let (dist, t) = spans.time("stat.mle", || cand.fit(samples));
                layer.add("stat.mle_s", t);
                let Ok(dist) = dist else { continue };
                fitted += 1;
                let (_ks, t) = spans.time("stat.ks", || ks_one_sample(samples, |x| dist.cdf(x)));
                layer.add("stat.ks_s", t);
            }
        }
    }
    layer
        .0
        .insert("stat.candidates_fitted".into(), f64::from(fitted));
    spans.end(probe);
}

/// Per-layer seconds summed over a pass's calls.
#[derive(Default)]
struct LayerTimes(BTreeMap<String, f64>);

impl LayerTimes {
    fn add(&mut self, key: &str, secs: f64) {
        *self.0.entry(key.to_string()).or_default() += secs;
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}
