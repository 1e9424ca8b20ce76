//! The trace JSONL flow-line codec against its serde oracle.
//!
//! `Trace::write_jsonl` encodes flow lines directly and the readers scan
//! the canonical layout directly, deferring every other line to serde.
//! These properties pin both halves to what the serde path does: the
//! writer's bytes equal `serde_json::to_string`, and on any input —
//! canonical, damaged or foreign — the readers return exactly what a
//! `BufRead::lines` + `serde_json::from_str` reader returns: the same
//! flows, the same `(line, message)` rejects, the same error.

use std::collections::BTreeMap;
use std::io::{self, BufRead};

use keddah_des::SimTime;
use keddah_flowcap::{Component, FiveTuple, FlowRecord, NodeId, Trace, TraceError, TraceMeta};
use proptest::prelude::*;
use proptest::{Rng, StdRng};
use serde::Serialize;

/// Draws flows whose numbers favour the edges (0 and the type's
/// maximum) and whose labels cover every [`Component`] and `None`.
struct ArbFlow;

/// 0, `max`, a small number or any number up to `max`, evenly.
fn edgy(rng: &mut StdRng, max: u64) -> u64 {
    match rng.random_range(0..4u32) {
        0 => 0,
        1 => max,
        2 => rng.random_range(0..1000u64).min(max),
        _ => rng.random_range(0..=max),
    }
}

impl Strategy for ArbFlow {
    type Value = FlowRecord;

    fn generate(&self, rng: &mut StdRng) -> FlowRecord {
        let u16_max = u64::from(u16::MAX);
        let u32_max = u64::from(u32::MAX);
        let label = rng.random_range(0..=Component::ALL.len());
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(edgy(rng, u32_max) as u32),
                src_port: edgy(rng, u16_max) as u16,
                dst: NodeId(edgy(rng, u32_max) as u32),
                dst_port: edgy(rng, u16_max) as u16,
            },
            start: SimTime::from_nanos(edgy(rng, u64::MAX)),
            end: SimTime::from_nanos(edgy(rng, u64::MAX)),
            fwd_bytes: edgy(rng, u64::MAX),
            rev_bytes: edgy(rng, u64::MAX),
            packets: edgy(rng, u64::MAX),
            component: Component::ALL.get(label).copied(),
        }
    }
}

fn meta() -> TraceMeta {
    TraceMeta {
        workload: "terasort".into(),
        input_bytes: 1 << 30,
        reducers: 3,
        replication: 3,
        block_bytes: 128 << 20,
        nodes: 6,
        seed: 7,
        counters: Some(BTreeMap::from([("node_crashes".to_string(), 1)])),
    }
}

fn header() -> String {
    serde_json::to_string(&meta()).unwrap()
}

/// A reader's result, reduced to comparable parts.
#[derive(Debug, PartialEq)]
enum Outcome {
    Read(Trace, Vec<(usize, String)>),
    Parse(usize, String),
    MissingHeader,
    Io(io::ErrorKind, String),
}

fn io_outcome(e: &io::Error) -> Outcome {
    Outcome::Io(e.kind(), e.to_string())
}

/// The serde reader: `BufRead::lines`, then `serde_json::from_str` on
/// the header and on every non-blank flow line.
fn oracle(bytes: &[u8], lenient: bool) -> Outcome {
    let mut lines = bytes.lines();
    let header = match lines.next() {
        None => return Outcome::MissingHeader,
        Some(Err(e)) => return io_outcome(&e),
        Some(Ok(h)) => h,
    };
    let meta: TraceMeta = match serde_json::from_str(&header) {
        Ok(m) => m,
        Err(e) => return Outcome::Parse(1, e.to_string()),
    };
    let (mut flows, mut rejects) = (Vec::new(), Vec::new());
    for (i, line) in lines.enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => return io_outcome(&e),
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<FlowRecord>(&line) {
            Ok(flow) => flows.push(flow),
            Err(e) if lenient => rejects.push((i + 2, e.to_string())),
            Err(e) => return Outcome::Parse(i + 2, e.to_string()),
        }
    }
    Outcome::Read(Trace::new(meta, flows), rejects)
}

/// `Trace::read_jsonl` / `read_jsonl_lenient` on the same bytes.
fn direct(bytes: &[u8], lenient: bool) -> Outcome {
    let read = if lenient {
        Trace::read_jsonl_lenient(bytes)
    } else {
        Trace::read_jsonl(bytes).map(|t| (t, Vec::new()))
    };
    match read {
        Ok((trace, rejects)) => Outcome::Read(trace, rejects),
        Err(TraceError::Parse { line, message }) => Outcome::Parse(line, message),
        Err(TraceError::MissingHeader) => Outcome::MissingHeader,
        Err(TraceError::Io(e)) => io_outcome(&e),
    }
}

fn assert_reads_like_serde(bytes: &[u8]) {
    for lenient in [false, true] {
        assert_eq!(
            direct(bytes, lenient),
            oracle(bytes, lenient),
            "lenient={lenient} input={:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

/// Where the number after `"key":` sits in `line`.
fn number_span(line: &str, key: &str) -> std::ops::Range<usize> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag).expect("key present") + tag.len();
    at..at + line[at..].bytes().take_while(u8::is_ascii_digit).count()
}

/// `value` with every object's keys in reverse order.
fn reversed(value: serde::Value) -> serde::Value {
    match value {
        serde::Value::Object(entries) => serde::Value::Object(
            entries
                .into_iter()
                .rev()
                .map(|(k, v)| (k, reversed(v)))
                .collect(),
        ),
        other => other,
    }
}

/// Damaged and foreign variants of one canonical flow line, as raw
/// bytes (some are not UTF-8).
fn hostile_lines(flow: &FlowRecord, mask: u8) -> Vec<Vec<u8>> {
    let line = serde_json::to_string(flow).unwrap();
    let mut out: Vec<Vec<u8>> = Vec::new();
    for cut in 0..line.len() {
        out.push(line.as_bytes()[..cut].to_vec());
    }
    for at in 0..line.len() {
        let mut flipped = line.clone().into_bytes();
        flipped[at] ^= mask;
        out.push(flipped);
        let mut spaced = line.clone();
        spaced.insert(at, ' ');
        out.push(spaced.into_bytes());
    }
    out.push(serde::json::write_compact(&reversed(flow.to_value())).into_bytes());
    out.push(format!(" {line}\t").into_bytes());
    out.push(line.replace(':', ": ").replace(',', ", ").into_bytes());
    let numbers = [
        ("src", u64::from(u32::MAX)),
        ("src_port", u64::from(u16::MAX)),
        ("dst", u64::from(u32::MAX)),
        ("dst_port", u64::from(u16::MAX)),
        ("start", u64::MAX),
        ("end", u64::MAX),
        ("fwd_bytes", u64::MAX),
        ("rev_bytes", u64::MAX),
        ("packets", u64::MAX),
    ];
    for (key, max) in numbers {
        let span = number_span(&line, key);
        let value = &line[span.clone()];
        for text in [
            format!("0{value}"),
            "00".to_string(),
            format!("{value}.0"),
            format!("{value}e0"),
            format!("-{value}"),
            "-0".to_string(),
            max.to_string(),
            (u128::from(max) + 1).to_string(),
            format!("{}0", u64::MAX),
            String::new(),
        ] {
            let mut changed = line.clone();
            changed.replace_range(span.clone(), &text);
            out.push(changed.into_bytes());
        }
    }
    out.push(format!("{line}\r").into_bytes());
    out.push(format!("{line}\r\r").into_bytes());
    out.push(line.replacen(',', ",\r", 1).into_bytes());
    out.push(line.replace("null", "\"other\"").into_bytes());
    out.push(line.replace("null", "\"\\u006fther\"").into_bytes());
    out.push(line.replace("}", "},\"extra\":1}").into_bytes());
    let mut invalid = line.clone().into_bytes();
    invalid.push(0xff);
    out.push(invalid);
    let mut invalid = line.into_bytes();
    invalid.insert(1, 0xc3);
    out.push(invalid);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The writer's bytes are serde's, and both readers give back what
    /// serde reads from them.
    #[test]
    fn writer_matches_serde_and_reads_back(flows in prop::collection::vec(ArbFlow, 0..24)) {
        let trace = Trace::new(meta(), flows.clone());
        let mut direct_bytes = Vec::new();
        trace.write_jsonl(&mut direct_bytes).unwrap();
        let mut serde_bytes = format!("{}\n", header());
        for flow in &flows {
            serde_bytes.push_str(&serde_json::to_string(flow).unwrap());
            serde_bytes.push('\n');
        }
        prop_assert_eq!(String::from_utf8(direct_bytes.clone()).unwrap(), serde_bytes);
        prop_assert_eq!(Trace::read_jsonl(&direct_bytes[..]).unwrap(), trace.clone());
        assert_reads_like_serde(&direct_bytes);
    }

    /// Damaged and foreign flow lines read exactly as serde reads them,
    /// alone, and all together in one stream (line numbers included).
    #[test]
    fn hostile_lines_read_like_serde(flow in ArbFlow, mask in 1u16..256) {
        let lines = hostile_lines(&flow, mask as u8);
        let mut together = format!("{}\n", header()).into_bytes();
        for line in &lines {
            let mut alone = format!("{}\n", header()).into_bytes();
            alone.extend_from_slice(line);
            assert_reads_like_serde(&alone);
            alone.push(b'\n');
            assert_reads_like_serde(&alone);
            if std::str::from_utf8(line).is_ok() {
                together.extend_from_slice(line);
                together.extend_from_slice(b"\n");
            }
        }
        assert_reads_like_serde(&together);
    }

    /// A stream cut at any byte — mid-header, mid-line, after a `\r` —
    /// reads exactly as serde reads it.
    #[test]
    fn truncated_streams_read_like_serde(flows in prop::collection::vec(ArbFlow, 1..4)) {
        let mut bytes = Vec::new();
        Trace::new(meta(), flows).write_jsonl(&mut bytes).unwrap();
        let crlf: Vec<u8> = String::from_utf8(bytes.clone())
            .unwrap()
            .replace('\n', "\r\n")
            .into_bytes();
        for stream in [&bytes, &crlf] {
            for cut in 0..=stream.len() {
                assert_reads_like_serde(&stream[..cut]);
            }
        }
    }
}
