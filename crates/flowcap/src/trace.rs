//! Labelled flow traces with JSONL persistence.

use std::fmt;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use crate::classify::{self, Component};
use crate::flow::{FiveTuple, FlowRecord};
use crate::lines::Lines;
use crate::packet::NodeId;
use crate::stats::{component_stats, ComponentStats, Timeline};
use keddah_des::{Duration, SimTime};

/// Metadata describing how a trace was captured: the covariates Keddah's
/// models condition on.
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct TraceMeta {
    /// Workload name (e.g. `"terasort"`).
    pub workload: String,
    /// Job input size in bytes.
    pub input_bytes: u64,
    /// Number of reduce tasks configured.
    pub reducers: u32,
    /// HDFS replication factor.
    pub replication: u16,
    /// HDFS block size in bytes.
    pub block_bytes: u64,
    /// Number of worker nodes in the capturing cluster.
    pub nodes: u32,
    /// Seed the capture run used (for reproducibility bookkeeping).
    pub seed: u64,
    /// Simulator ground-truth counters for the run (name → value), when
    /// the capturing driver recorded them — faulted captures carry their
    /// failure/re-replication counters here. Absent in older traces and
    /// fault-free captures; the field serializes only when present, so
    /// clean traces keep their historical byte layout.
    pub counters: Option<std::collections::BTreeMap<String, u64>>,
}

// Manual impl rather than derive: `counters` must vanish from the JSON
// when `None` (the vendored serde derive has no `skip_serializing_if`),
// keeping fault-free captures byte-identical to pre-fault-subsystem
// traces.
impl Serialize for TraceMeta {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("workload".to_string(), self.workload.to_value()),
            ("input_bytes".to_string(), self.input_bytes.to_value()),
            ("reducers".to_string(), self.reducers.to_value()),
            ("replication".to_string(), self.replication.to_value()),
            ("block_bytes".to_string(), self.block_bytes.to_value()),
            ("nodes".to_string(), self.nodes.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        if let Some(counters) = &self.counters {
            entries.push(("counters".to_string(), counters.to_value()));
        }
        serde::Value::Object(entries)
    }
}

/// A capture artefact: labelled flows plus capture metadata.
///
/// Persisted as JSONL — the first line is the [`TraceMeta`], each further
/// line one [`FlowRecord`] — so traces stream, diff, and `grep` well.
///
/// # Examples
///
/// ```
/// use keddah_flowcap::{Trace, TraceMeta};
///
/// let trace = Trace::new(TraceMeta { workload: "wordcount".into(), ..Default::default() }, vec![]);
/// let mut buf = Vec::new();
/// trace.write_jsonl(&mut buf).unwrap();
/// let back = Trace::read_jsonl(&buf[..]).unwrap();
/// assert_eq!(back.meta().workload, "wordcount");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    meta: TraceMeta,
    flows: Vec<FlowRecord>,
}

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The parser's message.
        message: String,
    },
    /// The stream had no metadata header line.
    MissingHeader,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::MissingHeader => write!(f, "trace has no metadata header line"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Trace {
    /// Creates a trace from metadata and flows.
    #[must_use]
    pub fn new(meta: TraceMeta, flows: Vec<FlowRecord>) -> Self {
        Trace { meta, flows }
    }

    /// The capture metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The flows, in start-time order as produced by the assembler.
    #[must_use]
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Consumes the trace, returning its flows.
    #[must_use]
    pub fn into_flows(self) -> Vec<FlowRecord> {
        self.flows
    }

    /// Number of flows in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if the trace has no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Runs the port classifier over every flow, labelling in place.
    pub fn classify(&mut self) {
        classify::classify_all(&mut self.flows);
    }

    /// Flows belonging to `component` (unlabelled flows match `Other`).
    pub fn component_flows(&self, component: Component) -> impl Iterator<Item = &FlowRecord> {
        self.flows
            .iter()
            .filter(move |f| f.component.unwrap_or(Component::Other) == component)
    }

    /// Flow sizes (total bytes, as f64) for one component — the sample the
    /// model-fitting step consumes.
    #[must_use]
    pub fn component_sizes(&self, component: Component) -> Vec<f64> {
        self.component_flows(component)
            .map(|f| f.total_bytes() as f64)
            .collect()
    }

    /// Flow start times (seconds from trace start) for one component.
    #[must_use]
    pub fn component_starts(&self, component: Component) -> Vec<f64> {
        let t0 = self
            .flows
            .iter()
            .map(|f| f.start)
            .min()
            .unwrap_or(SimTime::ZERO);
        self.component_flows(component)
            .map(|f| f.start.saturating_since(t0).as_secs_f64())
            .collect()
    }

    /// Per-component aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> Vec<ComponentStats> {
        component_stats(&self.flows)
    }

    /// Binned traffic timeline.
    #[must_use]
    pub fn timeline(&self, bin_width: Duration) -> Timeline {
        Timeline::build(&self.flows, bin_width)
    }

    /// Total bytes across all flows.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.total_bytes()).sum()
    }

    /// Job makespan: the span from first flow start to last flow end.
    #[must_use]
    pub fn makespan(&self) -> Duration {
        let start = self.flows.iter().map(|f| f.start).min();
        let end = self.flows.iter().map(|f| f.end).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => Duration::ZERO,
        }
    }

    /// Merges several traces (e.g. repeated runs of the same job) into one
    /// pooled trace carrying the first trace's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn pooled(traces: &[Trace]) -> Trace {
        assert!(!traces.is_empty(), "cannot pool zero traces");
        let mut flows = Vec::with_capacity(traces.iter().map(Trace::len).sum());
        for t in traces {
            flows.extend_from_slice(&t.flows);
        }
        Trace {
            meta: traces[0].meta.clone(),
            flows,
        }
    }

    /// Writes the trace as JSONL: one metadata header line, then one line
    /// per flow. Flow lines are exactly what `serde_json::to_string`
    /// writes for a [`FlowRecord`]; they are encoded directly, without
    /// the intermediate `Value` tree.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error, including one from the final
    /// flush: a buffered writer's `Drop` would swallow that one and leave
    /// a truncated file behind an `Ok`.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<(), TraceError> {
        let mut buf = serde_json::to_string(&self.meta)
            .expect("meta serializes")
            .into_bytes();
        buf.push(b'\n');
        for flow in &self.flows {
            if buf.len() >= WRITE_CHUNK {
                writer.write_all(&buf)?;
                buf.clear();
            }
            encode_flow(flow, &mut buf);
        }
        writer.write_all(&buf)?;
        writer.flush()?;
        Ok(())
    }

    /// Reads a trace written by [`write_jsonl`](Self::write_jsonl).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::MissingHeader`] on an empty stream and
    /// [`TraceError::Parse`] on malformed lines.
    pub fn read_jsonl<R: Read>(reader: R) -> Result<Trace, TraceError> {
        read_flow_lines(reader, |line, message| {
            Err(TraceError::Parse { line, message })
        })
    }

    /// Reads a JSONL trace, tolerating malformed flow lines: good lines
    /// are kept, bad ones are returned as `(line, message)` rejects
    /// alongside the trace. This is the reader for live-rotated capture
    /// files, where the tail of the file may be a half-written record —
    /// the daemon must ingest the intact prefix and count the damage,
    /// not die.
    ///
    /// # Errors
    ///
    /// Returns an error only when the stream is unreadable or the
    /// *header* is missing or malformed: without valid metadata none of
    /// the flows can be attributed, so there is nothing to salvage.
    pub fn read_jsonl_lenient<R: Read>(
        reader: R,
    ) -> Result<(Trace, Vec<(usize, String)>), TraceError> {
        let mut rejects = Vec::new();
        let trace = read_flow_lines(reader, |line, message| {
            rejects.push((line, message));
            Ok(())
        })?;
        Ok((trace, rejects))
    }
}

/// Bytes [`Trace::write_jsonl`] gathers before handing them to the writer.
const WRITE_CHUNK: usize = 64 * 1024;

/// The JSONL reader: the serde-parsed header line, then one flow per
/// non-blank line, each bad flow line handed to `reject` with its
/// 1-based number and serde's message.
fn read_flow_lines<R: Read>(
    reader: R,
    mut reject: impl FnMut(usize, String) -> Result<(), TraceError>,
) -> Result<Trace, TraceError> {
    let mut lines = Lines::new(reader);
    let (_, header) = lines.next_line()?.ok_or(TraceError::MissingHeader)?;
    let meta: TraceMeta = serde_json::from_str(header).map_err(|e| TraceError::Parse {
        line: 1,
        message: e.to_string(),
    })?;
    let mut flows = Vec::new();
    lines.for_each_nonblank(|line, text| {
        match decode_flow(text.as_bytes()) {
            Some(flow) => flows.push(flow),
            None => match serde_json::from_str::<FlowRecord>(text) {
                Ok(flow) => flows.push(flow),
                Err(e) => reject(line, e.to_string())?,
            },
        }
        Ok(())
    })?;
    Ok(Trace { meta, flows })
}

/// Appends one flow line, `\n` included, in serde's field order and
/// compact layout.
fn encode_flow(f: &FlowRecord, out: &mut Vec<u8>) {
    let t = &f.tuple;
    out.extend_from_slice(b"{\"tuple\":{\"src\":");
    push_u64(out, u64::from(t.src.0));
    out.extend_from_slice(b",\"src_port\":");
    push_u64(out, u64::from(t.src_port));
    out.extend_from_slice(b",\"dst\":");
    push_u64(out, u64::from(t.dst.0));
    out.extend_from_slice(b",\"dst_port\":");
    push_u64(out, u64::from(t.dst_port));
    out.extend_from_slice(b"},\"start\":");
    push_u64(out, f.start.as_nanos());
    out.extend_from_slice(b",\"end\":");
    push_u64(out, f.end.as_nanos());
    out.extend_from_slice(b",\"fwd_bytes\":");
    push_u64(out, f.fwd_bytes);
    out.extend_from_slice(b",\"rev_bytes\":");
    push_u64(out, f.rev_bytes);
    out.extend_from_slice(b",\"packets\":");
    push_u64(out, f.packets);
    out.extend_from_slice(b",\"component\":");
    match f.component {
        Some(c) => {
            out.push(b'"');
            out.extend_from_slice(c.name().as_bytes());
            out.extend_from_slice(b"\"}\n");
        }
        None => out.extend_from_slice(b"null}\n"),
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Decodes a flow line laid out exactly as [`encode_flow`] writes it
/// (without the `\n`). Any other text — another key order, whitespace,
/// a leading zero, an out-of-range or overflowing number, an unknown
/// component — returns `None`, and the caller asks serde, which stays
/// the authority on what else is accepted and on every error message.
/// So a `Some` here is always the record serde would have returned.
fn decode_flow(line: &[u8]) -> Option<FlowRecord> {
    let mut s = Scan(line);
    s.lit(b"{\"tuple\":{\"src\":")?;
    let src = u32::try_from(s.uint()?).ok()?;
    s.lit(b",\"src_port\":")?;
    let src_port = u16::try_from(s.uint()?).ok()?;
    s.lit(b",\"dst\":")?;
    let dst = u32::try_from(s.uint()?).ok()?;
    s.lit(b",\"dst_port\":")?;
    let dst_port = u16::try_from(s.uint()?).ok()?;
    s.lit(b"},\"start\":")?;
    let start = s.uint()?;
    s.lit(b",\"end\":")?;
    let end = s.uint()?;
    s.lit(b",\"fwd_bytes\":")?;
    let fwd_bytes = s.uint()?;
    s.lit(b",\"rev_bytes\":")?;
    let rev_bytes = s.uint()?;
    s.lit(b",\"packets\":")?;
    let packets = s.uint()?;
    s.lit(b",\"component\":")?;
    let component = match s.0 {
        b"null}" => None,
        rest => {
            let name = rest.strip_prefix(b"\"")?.strip_suffix(b"\"}")?;
            let known = Component::ALL
                .iter()
                .find(|c| c.name().as_bytes() == name)?;
            Some(*known)
        }
    };
    Some(FlowRecord {
        tuple: FiveTuple {
            src: NodeId(src),
            src_port,
            dst: NodeId(dst),
            dst_port,
        },
        start: SimTime::from_nanos(start),
        end: SimTime::from_nanos(end),
        fwd_bytes,
        rev_bytes,
        packets,
        component,
    })
}

/// The unread rest of a line under [`decode_flow`].
struct Scan<'a>(&'a [u8]);

impl Scan<'_> {
    /// Consumes `expected` if the rest starts with it.
    fn lit(&mut self, expected: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(expected)?;
        Some(())
    }

    /// Consumes a canonical unsigned integer: `0`, or a non-zero digit
    /// then digits, without overflowing `u64`.
    fn uint(&mut self) -> Option<u64> {
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if len == 0 || (digits[0] == b'0' && len > 1) {
            return None;
        }
        let mut n = 0u64;
        for &d in digits {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.0 = rest;
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports;

    fn flow(start_s: u64, dst_port: u16, fwd: u64, rev: u64) -> FlowRecord {
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(0),
                src_port: 40_000,
                dst: NodeId(1),
                dst_port,
            },
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s + 1),
            fwd_bytes: fwd,
            rev_bytes: rev,
            packets: 2,
            component: None,
        }
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new(
            TraceMeta {
                workload: "terasort".into(),
                input_bytes: 1 << 30,
                reducers: 8,
                replication: 3,
                block_bytes: 128 << 20,
                nodes: 16,
                seed: 1,
                counters: None,
            },
            vec![
                flow(0, ports::DATANODE_XFER, 100, 1 << 20), // read
                flow(1, ports::DATANODE_XFER, 1 << 20, 100), // write
                flow(2, ports::SHUFFLE, 50, 1 << 19),
                flow(3, ports::NAMENODE_RPC, 10, 10),
            ],
        );
        t.classify();
        t
    }

    #[test]
    fn classify_then_filter() {
        let t = sample_trace();
        assert_eq!(t.component_flows(Component::HdfsRead).count(), 1);
        assert_eq!(t.component_flows(Component::HdfsWrite).count(), 1);
        assert_eq!(t.component_flows(Component::Shuffle).count(), 1);
        assert_eq!(t.component_flows(Component::Control).count(), 1);
        assert_eq!(t.component_flows(Component::Other).count(), 0);
    }

    #[test]
    fn component_sizes_extract_bytes() {
        let t = sample_trace();
        let sizes = t.component_sizes(Component::Shuffle);
        assert_eq!(sizes, vec![(50u64 + (1 << 19)) as f64]);
    }

    #[test]
    fn component_starts_relative_to_trace_start() {
        let t = sample_trace();
        assert_eq!(t.component_starts(Component::HdfsWrite), vec![1.0]);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn read_rejects_empty_and_garbage() {
        assert!(matches!(
            Trace::read_jsonl(&b""[..]),
            Err(TraceError::MissingHeader)
        ));
        let bad = b"{\"workload\":\"x\",\"input_bytes\":0,\"reducers\":0,\"replication\":0,\"block_bytes\":0,\"nodes\":0,\"seed\":0}\nnot json\n";
        match Trace::read_jsonl(&bad[..]) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// Half-written rotations: a truncated trailing record must not cost
    /// the intact prefix.
    #[test]
    fn lenient_read_salvages_good_prefix() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        // Simulate a writer caught mid-record: chop the last line.
        let cut = buf.len() - 20;
        let (back, rejects) = Trace::read_jsonl_lenient(&buf[..cut]).unwrap();
        assert_eq!(back.len(), t.len() - 1, "intact flows survive");
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].0, 5, "the chopped line is reported");
        // A clean trace round-trips with no rejects.
        let (clean, none) = Trace::read_jsonl_lenient(&buf[..]).unwrap();
        assert_eq!(clean, t);
        assert!(none.is_empty());
    }

    /// Without a parseable header nothing can be attributed; lenient
    /// reading still refuses.
    #[test]
    fn lenient_read_requires_a_header() {
        assert!(matches!(
            Trace::read_jsonl_lenient(&b""[..]),
            Err(TraceError::MissingHeader)
        ));
        assert!(matches!(
            Trace::read_jsonl_lenient(&b"not json\n"[..]),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    /// Every flow line the writer emits takes the direct read path;
    /// the same flow in another layout is left to serde.
    #[test]
    fn written_lines_decode_directly() {
        let mut t = sample_trace();
        t.flows[3].component = None;
        t.flows[0].fwd_bytes = u64::MAX;
        t.flows[0].tuple.src_port = u16::MAX;
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), t.len());
        for (line, flow) in lines.iter().zip(t.flows()) {
            assert_eq!(decode_flow(line.as_bytes()), Some(*flow), "{line}");
            assert_eq!(serde_json::to_string(flow).unwrap(), *line);
            let spaced = line.replace(',', ", ");
            assert_eq!(decode_flow(spaced.as_bytes()), None);
            assert_eq!(serde_json::from_str::<FlowRecord>(&spaced).unwrap(), *flow);
        }
    }

    /// Takes every byte but cannot flush them, like a full disk under
    /// a `BufWriter`.
    struct FlushFails;

    impl Write for FlushFails {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("no space left on device"))
        }
    }

    /// Both writers report a failed final flush instead of leaving it
    /// to the `BufWriter`'s `Drop`, which ignores it.
    #[test]
    fn failed_final_flush_is_an_error() {
        let t = sample_trace();
        assert!(matches!(
            t.write_jsonl(std::io::BufWriter::new(FlushFails)),
            Err(TraceError::Io(_))
        ));
        let packets = [crate::PacketRecord::syn(
            SimTime::ZERO,
            NodeId(1),
            1,
            NodeId(2),
            2,
            64,
        )];
        assert!(matches!(
            crate::tcpdump::write_text(&packets, std::io::BufWriter::new(FlushFails)),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn pooled_concatenates() {
        let t = sample_trace();
        let pooled = Trace::pooled(&[t.clone(), t.clone()]);
        assert_eq!(pooled.len(), 8);
        assert_eq!(pooled.meta().workload, "terasort");
        assert_eq!(pooled.total_bytes(), 2 * t.total_bytes());
    }

    #[test]
    fn makespan_spans_flows() {
        let t = sample_trace();
        assert_eq!(t.makespan(), Duration::from_secs(4));
        let empty = Trace::new(TraceMeta::default(), vec![]);
        assert_eq!(empty.makespan(), Duration::ZERO);
        assert!(empty.is_empty());
    }
}
