//! Pipeline benchmark of the Keddah toolchain on its own traffic.
//!
//! ```text
//! pipebench --workload <terasort_replay|overlap_closed|model_zoo>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the whole pipeline in each pass — capture,
//! tcpdump text, ingest, trace JSONL, fit, then open, closed and crashed
//! replays and the crash's diagnosis — on traffic chosen to load a
//! different layer. Inputs derive from `--seed`. Passes repeat until
//! `--seconds` have elapsed; every timing is the median over the run's
//! passes, rescaled to nominal host speed (see [`clock`]). Every pass
//! checks its outputs: captures against the set-up's, ingest against
//! capture, the JSONL round trip, byte conservation and the diagnosis of
//! each crash, and replay digests and fitted models against the first
//! pass.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` follows every
//! untraced pass with a traced one that must reproduce it exactly, and
//! reports the per-layer metrics; the traced spans are written to
//! `.pipebench_out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A failed check
//! makes the exit code 1; bad arguments or a `KEDDAH_*` variable in the
//! environment make it 2.

mod arith;
mod clock;
mod pipeline;
mod replay;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use arith::{median, ratio};
use keddah_core::KeddahModel;
use pipeline::{Checks, PassOut};
use replay::DISCIPLINES;
use trace::Spans;
use workload::{ReplayPlan, Setup, WorkloadSpec, WORKLOADS};

/// Set-ups made per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Width of netsim's fair-share solver. Shuffle traffic forms one
/// component that spans the fabric, so a wider solver has nothing to
/// split here, and on a shared 2-core host a second solver thread only
/// adds the other core's noise to every replay.
const SOLVER_JOBS: usize = 1;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("model_path_s", "s"),
    ("replay_path_s", "s"),
    ("replay_events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
];

/// The stages of a pass, in order.
const STAGES: &[&str] = &[
    "capture",
    "ingest",
    "trace_io",
    "fit",
    "replay_open",
    "replay_closed",
    "replay_faulted",
    "diagnose",
];

/// The modelling path: capture, tcpdump text, ingest, JSONL, fit.
const MODEL_PATH: &[&str] = &["capture", "ingest", "trace_io", "fit"];

/// The replay path: three replays of every unit, then the diagnosis.
const REPLAY_PATH: &[&str] = &["replay_open", "replay_closed", "replay_faulted", "diagnose"];

/// The replays alone, the denominator of `replay_events_per_s`.
const REPLAYS: &[&str] = &["replay_open", "replay_closed", "replay_faulted"];

/// Per-layer metrics, reported with `--trace 1`.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for disc in DISCIPLINES {
        for (name, unit) in [
            ("netsim.fair_solves", "count"),
            ("netsim.fair_dense_ratio", "ratio"),
            ("netsim.fair_entries_per_solve", "count"),
            ("netsim.ns_per_solved_entry", "ns"),
            ("netsim.self_s", "s"),
            ("netsim.ns_per_event", "ns"),
            ("netsim.events", "count"),
            ("des.events_dispatched", "count"),
            ("netsim.peak_active", "count"),
            ("netsim.peak_bundles", "count"),
            ("netsim.flows_per_bundle", "ratio"),
            ("netsim.mice_ratio", "ratio"),
        ] {
            m.push((format!("{name}.{disc}"), unit));
        }
    }
    for disc in ["closed", "faulted"] {
        for (name, unit) in [
            ("core.source.build_s", "s"),
            ("core.source.callbacks", "count"),
            ("core.source.callback_s", "s"),
            ("core.source.share", "ratio"),
        ] {
            m.push((format!("{name}.{disc}"), unit));
        }
    }
    for (name, unit) in [
        ("netsim.overlap_cost_ratio", "ratio"),
        ("netsim.overlap_flow_ratio", "ratio"),
        ("faults.flows_aborted", "count"),
        ("faults.rerouted_flows", "count"),
        ("faults.lost_bytes", "bytes"),
        ("diagnose.evidence_s", "s"),
        ("diagnose.verdict_s", "s"),
        ("hadoop.capture_s", "s"),
        ("hadoop.flows_per_s", "1/s"),
        ("flowcap.tcpdump_write_s", "s"),
        ("flowcap.tcpdump_read_s", "s"),
        ("flowcap.assemble_s", "s"),
        ("flowcap.classify_s", "s"),
        ("flowcap.packets_per_s", "1/s"),
        ("flowcap.parse_errors", "count"),
        ("flowcap.trace_write_s", "s"),
        ("flowcap.trace_read_s", "s"),
        ("flowcap.trace_read_mb_per_s", "MB/s"),
        ("core.dataset_s", "s"),
        ("core.fitting_s", "s"),
        ("stat.mle_s", "s"),
        ("stat.ks_s", "s"),
        ("stat.candidates_fitted", "count"),
        ("stat.parametric_ratio", "ratio"),
        ("obs.overhead_ratio", "ratio"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

struct Args {
    workload: WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = workload::workload(name)
        .ok_or_else(|| format!("unknown workload `{name}` (one of {WORKLOADS:?})"))?;
    let num = |key: &str, default: &str| -> Result<f64, String> {
        let v = flags.get(key).copied().unwrap_or(default);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--{key} `{v}` is not a non-negative number"))
    };
    let seed = flags.get("seed").copied().unwrap_or("1");
    let trace = flags.get("trace").copied().unwrap_or("0");
    Ok(Args {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed `{seed}` is not an unsigned integer"))?,
        seconds: num("seconds", "10")?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got `{trace}`")),
        },
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs passes until `seconds` have elapsed (at least one). Untraced
/// mode: each pass is checked against the first. Traced mode: each
/// untraced pass is followed by a traced one that must reproduce its
/// replays and models exactly.
fn measure(
    args: &Args,
    s: &Setup,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Option<(Vec<PassOut>, Vec<PassOut>)> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let out = pipeline::run_pass(&args.workload, s, false, spans, checks)?;
        if let Some(first) = plain.first() {
            same_outputs(checks, "pass", first, &out);
        }
        if args.trace {
            let t = pipeline::run_pass(&args.workload, s, true, spans, checks)?;
            same_outputs(checks, "traced pass", &out, &t);
            traced.push(t);
        }
        plain.push(out);
    }
    Some((plain, traced))
}

/// Checks that `b` replayed every flow to the same nanosecond as `a` and
/// fitted byte-identical models.
fn same_outputs(checks: &mut Checks, what: &str, a: &PassOut, b: &PassOut) {
    for (i, disc) in DISCIPLINES.iter().enumerate() {
        checks.check(a.digests[i] == b.digests[i], || {
            format!("{what}: {disc} replay digest differs from the reference")
        });
    }
    checks.check(a.models == b.models, || {
        format!("{what}: fitted model JSON differs from the reference")
    });
}

/// Median over `passes` of the rescaled seconds of `stages`.
fn scaled_median(passes: &[PassOut], stages: &[&str]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.scaled_s(stages))
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics.
fn end_to_end(passes: &[PassOut], setup_s: f64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s".to_string(), setup_s);
    m.insert("pass_s".to_string(), scaled_median(passes, STAGES));
    m.insert(
        "model_path_s".to_string(),
        scaled_median(passes, MODEL_PATH),
    );
    m.insert(
        "replay_path_s".to_string(),
        scaled_median(passes, REPLAY_PATH),
    );
    let eps: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.events.iter().sum::<u64>() as f64, p.scaled_s(REPLAYS)))
        .collect();
    m.insert("replay_events_per_s".to_string(), median(&eps));
    m.insert("peak_rss_mb".to_string(), peak_rss_mb().unwrap_or(f64::NAN));
    m
}

/// The per-layer metrics: medians over the traced passes (raw wall
/// times), the tracing overhead, and the overlap probe.
fn layered(
    args: &Args,
    s: &Setup,
    plain: &[PassOut],
    traced: &[PassOut],
    checks: &mut Checks,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for key in traced[0].layer.keys() {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layer.get(key))
            .copied()
            .collect();
        m.insert(key.clone(), median(&values));
    }
    m.insert(
        "obs.overhead_ratio".to_string(),
        ratio(scaled_median(traced, STAGES), scaled_median(plain, STAGES)),
    );
    let group = match &args.workload.replay {
        ReplayPlan::Traces(list) => list[0].0,
        ReplayPlan::Model { group, .. } => *group,
    };
    let probe = KeddahModel::from_json(&plain[0].models[group])
        .ok()
        .and_then(|model| replay::overlap_probe(s, &model, args.seed));
    match probe {
        Some((cost, flows)) => {
            m.insert("netsim.overlap_cost_ratio".to_string(), cost);
            m.insert("netsim.overlap_flow_ratio".to_string(), flows);
        }
        None => checks.check(false, || "overlap probe failed to start".to_string()),
    }
    m
}

/// Writes the run's spans under `.pipebench_out/`.
fn write_spans(args: &Args, spans: &Spans) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".pipebench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name, args.seed
    ));
    std::fs::write(&path, spans.to_jsonl())?;
    Ok(path)
}

/// Prints the pass count, every stage's median rescaled and wall
/// seconds with the rescaled quartiles, and the replay work.
fn print_summary(plain: &[PassOut]) {
    println!(
        "untraced passes={}; timings are medians over passes, rescaled to nominal host speed \
         by the yardstick (nominal {} s)",
        plain.len(),
        clock::NOMINAL_YARDSTICK_S
    );
    for &stage in STAGES {
        let scaled: Vec<f64> = plain.iter().map(|p| p.scaled_s(&[stage])).collect();
        let wall: Vec<f64> = plain.iter().map(|p| p.stage_s[stage]).collect();
        let (q1, q3) = arith::quartiles(&scaled).unwrap_or((scaled[0], scaled[0]));
        println!(
            "  {:<40} {:>16.6} s (q1 {q1:.6}, q3 {q3:.6}; wall {:.6} s)",
            format!("{stage}_s"),
            median(&scaled),
            median(&wall)
        );
    }
    println!(
        "netsim events per pass (open, closed, faulted): {:?}",
        plain[0].events
    );
}

fn run() -> Result<ExitCode, String> {
    if let Some(key) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("KEDDAH_"))
    {
        return Err(format!(
            "refusing to run with {key} set: KEDDAH_* variables switch the library to its oracles"
        ));
    }
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let solver_jobs = nproc.min(SOLVER_JOBS);
    println!(
        "pipebench workload={} seed={} seconds={} trace={} solver_jobs={solver_jobs} nproc={nproc}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut readings = vec![clock::yardstick_s()];
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = workload::setup(&args.workload, args.seed, solver_jobs);
        setup_times.push(t.elapsed().as_secs_f64());
        readings.push(clock::yardstick_s());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = median(&setup_times) * clock::factor(&readings);
    for unit in &setup.units {
        println!("crash: {}", unit.crash.faults[0].describe());
    }

    let mut spans = Spans::new();
    let mut checks = Checks::default();
    let measured = measure(&args, &setup, &mut spans, &mut checks);
    if let Some((plain, _)) = &measured {
        print_summary(plain);
    }

    let (metrics, units): (BTreeMap<String, f64>, Vec<(String, &str)>) = match &measured {
        Some((plain, traced)) if args.trace => (
            layered(&args, &setup, plain, traced, &mut checks),
            per_layer(),
        ),
        Some((plain, _)) => (
            end_to_end(plain, setup_s),
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        ),
        None => (BTreeMap::new(), Vec::new()),
    };
    if args.trace {
        match write_spans(&args, &spans) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => checks.check(false, || format!("cannot write spans: {e}")),
        }
    }

    let mut body = Vec::new();
    for (name, unit) in &units {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        checks.check(value.is_finite(), || {
            format!("metric {name} was not measured")
        });
        println!("  {name:<40} {value:>16.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        ));
    }
    for failure in &checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let failed = checks.failures.len();
    println!(
        "  {:<40} {:>16.6} ratio ({failed} of {} output checks failed)",
        "error_rate",
        ratio(failed as f64, checks.attempted as f64),
        checks.attempted
    );
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0,
        checks.attempted.max(1),
        body.join(", ")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pipebench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first string value after `key` in `text`.
    fn string_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        let rest = &text[text.find(key)? + key.len()..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(&rest[..rest.find('"')?])
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        // Every `"name"` entry that carries a `"unit"` before the next
        // name is a metric; workload entries carry a `"why"` instead.
        let listed: Vec<(String, String)> = text
            .split("\"name\"")
            .skip(1)
            .filter_map(|chunk| {
                let name = string_after(chunk, ":")?;
                let unit = string_after(chunk, "\"unit\"")?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let reported: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
            .collect();
        assert_eq!(listed, reported);
    }

    #[test]
    fn every_workload_parses() {
        for name in WORKLOADS {
            assert_eq!(workload::workload(name).expect("known").name, *name);
        }
        assert!(workload::workload("nope").is_none());
    }
}
