//! NDJSON congestion tracing: sink, parser, and tree summary.
//!
//! The simulator's metrics answer "how many rounds did this run take";
//! traces answer "*which step* burned them and *which link* ran hot". A
//! [`TraceSink`] receives one event per span open/close and one per
//! communication call (`exchange`/`route`/`broadcast`/`gossip`), written as
//! newline-delimited JSON so external tools can stream it. The sink is a
//! cheap shared handle: an algorithm that builds several [`crate::Clique`]s
//! in sequence (e.g. one per distance product) attaches the same sink to
//! each, and driver code can open its own grouping spans around them
//! ([`TraceSink::open_span`]) so the final tree reads
//! `apsp/product-3/step3/...` end to end.
//!
//! Three event kinds appear in a trace file:
//!
//! * `{"ev":"open","id":3,"parent":1,"label":"product-0","factor":9}` —
//!   a span opened (`parent` omitted for roots, `factor` omitted when 1;
//!   a factor scales the whole subtree when rolled into parents, used for
//!   the paper's virtual-node simulation constants).
//! * `{"ev":"close","id":3,"rounds":12,...}` — a span closed; spans closed
//!   by [`crate::Metrics`] carry their recorded statistics (`rounds`,
//!   `messages`, `bits`, `max_link_bits`, `max_node_out_bits`,
//!   `max_node_in_bits`, `calls`, `hist`), driver spans close bare.
//! * `{"ev":"comm","kind":"route","span":3,"rounds":2,...}` — one
//!   communication call, attributed to the innermost open span (`span`
//!   omitted if none was open).
//! * `{"ev":"fault","kind":"drop","span":3}` — one injected network fault
//!   (`drop`, `corrupt`, `duplicate`, or `crash`; see [`crate::FaultPlan`]),
//!   attributed like a `comm` event. Fault events carry no round charges —
//!   the wire cost of a faulted message is already in its `comm` event.
//!
//! Spans are strictly nested (the file is a preorder walk of the tree) and
//! ids are unique and increasing. [`parse_trace`] reads a file back,
//! [`TraceSummary`] rebuilds the tree, checks it against the per-span
//! closing statistics, and renders the rounds/bits/max-link breakdown shown
//! by `qcc trace-summary`.

use crate::json::{self, Value};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Totals accumulated from `comm` events attributed to one span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommTotals {
    /// Rounds charged (unscaled; ancestors' factors are applied on rollup).
    pub rounds: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Bits transmitted.
    pub bits: u64,
    /// Largest per-link bit volume of any single call.
    pub max_link_bits: u64,
    /// Largest per-node outgoing bit volume of any single call.
    pub max_node_out_bits: u64,
    /// Largest per-node incoming bit volume of any single call.
    pub max_node_in_bits: u64,
    /// Number of communication calls.
    pub calls: u64,
}

impl CommTotals {
    /// Folds one communication call into the totals.
    pub(crate) fn record_call(
        &mut self,
        rounds: u64,
        messages: u64,
        bits: u64,
        max_link_bits: u64,
        max_node_out_bits: u64,
        max_node_in_bits: u64,
    ) {
        self.rounds += rounds;
        self.messages += messages;
        self.bits += bits;
        self.max_link_bits = self.max_link_bits.max(max_link_bits);
        self.max_node_out_bits = self.max_node_out_bits.max(max_node_out_bits);
        self.max_node_in_bits = self.max_node_in_bits.max(max_node_in_bits);
        self.calls += 1;
    }

    fn absorb(&mut self, e: &CommEvent) {
        self.record_call(
            e.rounds,
            e.messages,
            e.bits,
            e.max_link_bits,
            e.max_node_out_bits,
            e.max_node_in_bits,
        );
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

struct SinkInner {
    out: Box<dyn Write + Send>,
    /// Stack of open span ids — the sink-global nesting, shared by every
    /// `Metrics` attached to this sink plus any driver-opened spans.
    stack: Vec<u64>,
    next_id: u64,
    events: u64,
    /// First write error, kept sticky so `flush` can report it.
    error: Option<String>,
}

impl SinkInner {
    fn emit(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e.to_string());
            return;
        }
        self.events += 1;
    }
}

/// A shared NDJSON trace writer (see the module docs for the schema).
///
/// Cloning is cheap and clones share the underlying stream and span-id
/// space. All methods take `&self`; the sink is internally synchronized.
///
/// # Examples
///
/// ```
/// use qcc_congest::{parse_trace, Clique, Envelope, NodeId, TraceSink};
///
/// let (sink, buffer) = TraceSink::in_memory();
/// let mut net = Clique::new(4)?;
/// net.set_trace_sink(sink.clone());
/// net.begin_phase("setup");
/// net.exchange(vec![Envelope::new(NodeId::new(0), NodeId::new(1), 7u64)])?;
/// net.close_all_spans();
/// let events = parse_trace(&buffer.contents()).unwrap();
/// assert_eq!(events.len(), 3); // open + comm + close
/// # Ok::<(), qcc_congest::CongestError>(())
/// ```
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<Mutex<SinkInner>>,
    /// Events dropped because the mutex was poisoned (see
    /// [`TraceSink::dropped_events`]).
    dropped: Arc<AtomicU64>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock_read();
        f.debug_struct("TraceSink")
            .field("events", &inner.events)
            .field("open_spans", &inner.stack.len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

/// In-memory capture buffer returned by [`TraceSink::in_memory`].
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// The NDJSON text written so far.
    #[must_use]
    pub fn contents(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl TraceSink {
    /// Creates a sink writing to an arbitrary stream.
    #[must_use]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            inner: Arc::new(Mutex::new(SinkInner {
                out,
                stack: Vec::new(),
                next_id: 1,
                events: 0,
                error: None,
            })),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a sink writing NDJSON to a (buffered) file.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_file<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Creates a sink capturing into memory, for tests and tooling.
    #[must_use]
    pub fn in_memory() -> (Self, TraceBuffer) {
        let buffer = TraceBuffer::default();
        (Self::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Write-path lock. A poisoned mutex (a clique thread panicked while
    /// holding the sink) degrades to dropping the event and bumping the
    /// dropped-event counter, instead of propagating the poison panic into
    /// unrelated cliques sharing the sink.
    fn lock_mut(&self) -> Option<MutexGuard<'_, SinkInner>> {
        match self.inner.lock() {
            Ok(guard) => Some(guard),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Read-path lock: observing state left by a panicked writer is
    /// harmless (every write either completed a whole line or set the
    /// sticky error first).
    fn lock_read(&self) -> MutexGuard<'_, SinkInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span as a child of the innermost open span; returns its id.
    pub fn open_span(&self, label: &str) -> u64 {
        self.open_span_scaled(label, 1)
    }

    /// Opens a span whose subtree counts `factor`-fold toward its parent —
    /// the paper's virtual-network simulation constants (a `Clique(3n)`
    /// product run on `n` physical nodes costs 9 physical rounds per
    /// virtual round).
    pub fn open_span_scaled(&self, label: &str, factor: u64) -> u64 {
        let Some(mut inner) = self.lock_mut() else {
            return 0;
        };
        let id = inner.next_id;
        inner.next_id += 1;
        let mut line = format!("{{\"ev\":\"open\",\"id\":{id}");
        if let Some(&parent) = inner.stack.last() {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        line.push_str(",\"label\":\"");
        json::escape_into(&mut line, label);
        line.push('"');
        if factor != 1 {
            line.push_str(&format!(",\"factor\":{factor}"));
        }
        line.push('}');
        inner.emit(&line);
        inner.stack.push(id);
        id
    }

    /// Closes the innermost open span without statistics (driver spans).
    pub fn close_span(&self) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        if let Some(id) = inner.stack.pop() {
            inner.emit(&format!("{{\"ev\":\"close\",\"id\":{id}}}"));
        }
    }

    /// Closes the innermost open span, recording its final statistics.
    /// Called by [`crate::Metrics`]; the fields mirror [`CommTotals`] plus
    /// a compact `floor:count` histogram of per-call round charges.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close_span_with_stats(&self, totals: &CommTotals, hist: &str) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        if let Some(id) = inner.stack.pop() {
            let mut line = format!(
                "{{\"ev\":\"close\",\"id\":{id},\"rounds\":{},\"messages\":{},\"bits\":{},\
                 \"max_link_bits\":{},\"max_node_out_bits\":{},\"max_node_in_bits\":{},\
                 \"calls\":{}",
                totals.rounds,
                totals.messages,
                totals.bits,
                totals.max_link_bits,
                totals.max_node_out_bits,
                totals.max_node_in_bits,
                totals.calls,
            );
            line.push_str(",\"hist\":\"");
            json::escape_into(&mut line, hist);
            line.push_str("\"}");
            inner.emit(&line);
        }
    }

    /// Records one communication call against the innermost open span.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_comm(
        &self,
        kind: &str,
        rounds: u64,
        messages: u64,
        bits: u64,
        max_link_bits: u64,
        max_node_out_bits: u64,
        max_node_in_bits: u64,
    ) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        let mut line = String::from("{\"ev\":\"comm\",\"kind\":\"");
        json::escape_into(&mut line, kind);
        line.push('"');
        if let Some(&span) = inner.stack.last() {
            line.push_str(&format!(",\"span\":{span}"));
        }
        line.push_str(&format!(
            ",\"rounds\":{rounds},\"messages\":{messages},\"bits\":{bits},\
             \"max_link_bits\":{max_link_bits},\"max_node_out_bits\":{max_node_out_bits},\
             \"max_node_in_bits\":{max_node_in_bits}}}"
        ));
        inner.emit(&line);
    }

    /// Records one injected network fault against the innermost open span.
    pub(crate) fn emit_fault(&self, kind: &str) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        let mut line = String::from("{\"ev\":\"fault\",\"kind\":\"");
        json::escape_into(&mut line, kind);
        line.push('"');
        if let Some(&span) = inner.stack.last() {
            line.push_str(&format!(",\"span\":{span}"));
        }
        line.push('}');
        inner.emit(&line);
    }

    /// Number of events successfully written.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.lock_read().events
    }

    /// Events silently dropped because the sink's mutex was poisoned by a
    /// panicking writer thread.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flushes the underlying stream.
    ///
    /// # Errors
    ///
    /// Reports the first write error encountered (writes are otherwise
    /// fire-and-forget so tracing never aborts a simulation mid-run), or an
    /// error describing how many events were dropped on a poisoned sink.
    pub fn flush(&self) -> Result<(), std::io::Error> {
        let mut inner = self.lock_read();
        if let Some(e) = inner.error.take() {
            return Err(std::io::Error::other(e));
        }
        inner.out.flush()?;
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            return Err(std::io::Error::other(format!(
                "{dropped} trace events dropped: sink mutex was poisoned by a panicking writer"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed `comm` event (one `exchange`/`route`/`broadcast`/`gossip` call).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommEvent {
    /// Which primitive ran (`"exchange"`, `"route"`, `"broadcast"`,
    /// `"gossip"`, `"charge"`).
    pub kind: String,
    /// Innermost open span when the call ran, if any.
    pub span: Option<u64>,
    /// Rounds charged by the call.
    pub rounds: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Bits transmitted.
    pub bits: u64,
    /// Busiest-link bits of the call.
    pub max_link_bits: u64,
    /// Busiest outgoing node bits of the call.
    pub max_node_out_bits: u64,
    /// Busiest incoming node bits of the call.
    pub max_node_in_bits: u64,
}

/// One parsed trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened.
    Open {
        /// Unique increasing span id.
        id: u64,
        /// Enclosing span, if any.
        parent: Option<u64>,
        /// Step label (e.g. `"step3/alpha0/eval-queries"`).
        label: String,
        /// Subtree multiplier toward the parent (1 = none).
        factor: u64,
    },
    /// A span closed; `rounds` is present when the span was closed by a
    /// [`crate::Metrics`] with its recorded statistics.
    Close {
        /// Id of the span being closed.
        id: u64,
        /// Recorded subtree rounds, for cross-checking.
        rounds: Option<u64>,
    },
    /// One communication call.
    Comm(CommEvent),
    /// One injected network fault (carries no round charges).
    Fault {
        /// Fault kind (`"drop"`, `"corrupt"`, `"duplicate"`, `"crash"`).
        kind: String,
        /// Innermost open span when the fault was injected, if any.
        span: Option<u64>,
    },
}

/// A trace parsing or consistency error, with the 1-based line number when
/// it arose from a specific line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based NDJSON line (0 when the error is about the whole trace).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace error: {}", self.message)
        } else {
            write!(f, "trace error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

/// One trace line as a flat object whose values are strings or unsigned
/// integers. Anything else is rejected — a malformed trace should fail
/// loudly, not best-effort.
fn flat_event(line: &str, line_no: usize) -> Result<Value, TraceError> {
    let event = json::parse(line).map_err(|e| err(line_no, e))?;
    let Value::Obj(fields) = &event else {
        return Err(err(line_no, "a trace event must be a JSON object"));
    };
    for (key, value) in fields {
        match value {
            Value::Str(_) => {}
            Value::Num(literal) => {
                json::int::<u64>(literal).map_err(|e| err(line_no, format!("field {key}: {e}")))?;
            }
            _ => {
                return Err(err(
                    line_no,
                    format!("field {key} must be an unsigned integer or a string"),
                ))
            }
        }
    }
    Ok(event)
}

fn take_num(event: &Value, key: &str, line_no: usize) -> Result<u64, TraceError> {
    opt_num(event, key, line_no)?.ok_or_else(|| err(line_no, format!("missing field {key}")))
}

fn opt_num(event: &Value, key: &str, line_no: usize) -> Result<Option<u64>, TraceError> {
    match event.get(key) {
        None => Ok(None),
        Some(Value::Num(literal)) => json::int(literal)
            .map(Some)
            .map_err(|e| err(line_no, format!("field {key}: {e}"))),
        Some(_) => Err(err(line_no, format!("field {key} must be a number"))),
    }
}

fn take_str(event: &Value, key: &str, line_no: usize) -> Result<String, TraceError> {
    match event.get(key) {
        Some(Value::Str(v)) => Ok(v.clone()),
        Some(_) => Err(err(line_no, format!("field {key} must be a string"))),
        None => Err(err(line_no, format!("missing field {key}"))),
    }
}

/// Parses one NDJSON line into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`TraceError`] describing the first malformation.
pub fn parse_trace_line(line: &str, line_no: usize) -> Result<TraceEvent, TraceError> {
    let event = flat_event(line, line_no)?;
    match take_str(&event, "ev", line_no)?.as_str() {
        "open" => Ok(TraceEvent::Open {
            id: take_num(&event, "id", line_no)?,
            parent: opt_num(&event, "parent", line_no)?,
            label: take_str(&event, "label", line_no)?,
            factor: opt_num(&event, "factor", line_no)?.unwrap_or(1),
        }),
        "close" => Ok(TraceEvent::Close {
            id: take_num(&event, "id", line_no)?,
            rounds: opt_num(&event, "rounds", line_no)?,
        }),
        "comm" => Ok(TraceEvent::Comm(CommEvent {
            kind: take_str(&event, "kind", line_no)?,
            span: opt_num(&event, "span", line_no)?,
            rounds: take_num(&event, "rounds", line_no)?,
            messages: take_num(&event, "messages", line_no)?,
            bits: take_num(&event, "bits", line_no)?,
            max_link_bits: take_num(&event, "max_link_bits", line_no)?,
            max_node_out_bits: take_num(&event, "max_node_out_bits", line_no)?,
            max_node_in_bits: take_num(&event, "max_node_in_bits", line_no)?,
        })),
        "fault" => Ok(TraceEvent::Fault {
            kind: take_str(&event, "kind", line_no)?,
            span: opt_num(&event, "span", line_no)?,
        }),
        other => Err(err(line_no, format!("unknown event kind: {other}"))),
    }
}

/// Parses a whole NDJSON trace, skipping blank lines.
///
/// # Errors
///
/// Returns the first [`TraceError`] with its line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_trace_line(line, i + 1)?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// One reconstructed span of a [`TraceSummary`].
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// Span id from the trace.
    pub id: u64,
    /// Step label.
    pub label: String,
    /// Subtree multiplier toward the parent.
    pub factor: u64,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Comm totals attributed directly to this span (children excluded).
    pub own: CommTotals,
    /// Fault events attributed directly to this span (children excluded).
    pub faults: u64,
    /// Whether a close event was seen.
    pub closed: bool,
    /// Rounds recorded by the closing `Metrics`, for cross-checking.
    pub closed_rounds: Option<u64>,
    children: Vec<usize>,
}

/// The reconstructed span tree of one trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    spans: Vec<SpanSummary>,
    roots: Vec<usize>,
    /// Comm events that ran with no span open.
    pub unspanned: CommTotals,
    /// Fault events injected with no span open.
    pub unspanned_faults: u64,
}

impl TraceSummary {
    /// Rebuilds the span tree from parsed events.
    ///
    /// # Errors
    ///
    /// Rejects duplicate ids, unknown parents or spans, and comm events
    /// attributed to spans that were never opened.
    pub fn from_events(events: &[TraceEvent]) -> Result<Self, TraceError> {
        let mut summary = TraceSummary::default();
        let mut index_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for event in events {
            match event {
                TraceEvent::Open {
                    id,
                    parent,
                    label,
                    factor,
                } => {
                    if index_of.contains_key(id) {
                        return Err(err(0, format!("duplicate span id {id}")));
                    }
                    let (depth, parent_idx) = match parent {
                        None => (0, None),
                        Some(p) => {
                            let &idx = index_of.get(p).ok_or_else(|| {
                                err(0, format!("span {id} has unknown parent {p}"))
                            })?;
                            (summary.spans[idx].depth + 1, Some(idx))
                        }
                    };
                    let idx = summary.spans.len();
                    summary.spans.push(SpanSummary {
                        id: *id,
                        label: label.clone(),
                        factor: *factor,
                        depth,
                        own: CommTotals::default(),
                        faults: 0,
                        closed: false,
                        closed_rounds: None,
                        children: Vec::new(),
                    });
                    match parent_idx {
                        Some(p) => summary.spans[p].children.push(idx),
                        None => summary.roots.push(idx),
                    }
                    index_of.insert(*id, idx);
                }
                TraceEvent::Close { id, rounds } => {
                    let &idx = index_of
                        .get(id)
                        .ok_or_else(|| err(0, format!("close of unknown span {id}")))?;
                    let span = &mut summary.spans[idx];
                    if span.closed {
                        return Err(err(0, format!("span {id} closed twice")));
                    }
                    span.closed = true;
                    span.closed_rounds = *rounds;
                }
                TraceEvent::Comm(comm) => match comm.span {
                    None => summary.unspanned.absorb(comm),
                    Some(id) => {
                        let &idx = index_of
                            .get(&id)
                            .ok_or_else(|| err(0, format!("comm in unknown span {id}")))?;
                        summary.spans[idx].own.absorb(comm);
                    }
                },
                TraceEvent::Fault { span, .. } => match span {
                    None => summary.unspanned_faults += 1,
                    Some(id) => {
                        let &idx = index_of
                            .get(id)
                            .ok_or_else(|| err(0, format!("fault in unknown span {id}")))?;
                        summary.spans[idx].faults += 1;
                    }
                },
            }
        }
        Ok(summary)
    }

    /// The spans, in open (preorder) order.
    #[must_use]
    pub fn spans(&self) -> &[SpanSummary] {
        &self.spans
    }

    /// Indices of the root spans, in open order.
    #[must_use]
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Subtree rounds of span `idx`, *unscaled* at its own level: own
    /// rounds plus each child's subtree scaled by the child's factor.
    #[must_use]
    pub fn subtree_rounds(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        span.own.rounds
            + span
                .children
                .iter()
                .map(|&c| self.spans[c].factor * self.subtree_rounds(c))
                .sum::<u64>()
    }

    fn subtree_rounds_unscaled(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        span.own.rounds
            + span
                .children
                .iter()
                .map(|&c| self.subtree_rounds_unscaled(c))
                .sum::<u64>()
    }

    /// Total fault events in the subtree of span `idx`.
    #[must_use]
    pub fn subtree_faults(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        span.faults
            + span
                .children
                .iter()
                .map(|&c| self.subtree_faults(c))
                .sum::<u64>()
    }

    /// Total fault events in the whole trace.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.unspanned_faults
            + self
                .roots
                .iter()
                .map(|&r| self.subtree_faults(r))
                .sum::<u64>()
    }

    /// Subtree max-link high-water mark of span `idx`.
    #[must_use]
    pub fn subtree_max_link_bits(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        span.children
            .iter()
            .map(|&c| self.subtree_max_link_bits(c))
            .fold(span.own.max_link_bits, u64::max)
    }

    fn subtree_bits(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        span.own.bits
            + span
                .children
                .iter()
                .map(|&c| self.subtree_bits(c))
                .sum::<u64>()
    }

    /// Total rounds of the whole trace, with every span's factor applied:
    /// for a traced APSP run this equals the *physical* round count the
    /// algorithm reports.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.unspanned.rounds
            + self
                .roots
                .iter()
                .map(|&r| self.spans[r].factor * self.subtree_rounds(r))
                .sum::<u64>()
    }

    /// Checks internal consistency: every span closed, and every span whose
    /// close event carried recorded rounds agrees with the sum of the comm
    /// events in its subtree.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first offending span.
    pub fn verify(&self) -> Result<(), TraceError> {
        for (idx, span) in self.spans.iter().enumerate() {
            if !span.closed {
                return Err(err(
                    0,
                    format!("span {} (\"{}\") was never closed", span.id, span.label),
                ));
            }
            if let Some(recorded) = span.closed_rounds {
                let summed = self.subtree_rounds_unscaled(idx);
                if summed != recorded {
                    return Err(err(
                        0,
                        format!(
                            "span {} (\"{}\"): close event records {recorded} rounds but its \
                             comm events sum to {summed}",
                            span.id, span.label
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Renders the tree (rounds, calls, bits, max-link per span) down to
    /// `max_depth` levels, ending with the scaled grand total.
    #[must_use]
    pub fn render(&self, max_depth: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>12} {:>8} {:>14} {:>12}  {}\n",
            "rounds", "calls", "bits", "max-link", "span"
        ));
        for &root in &self.roots {
            self.render_span(root, max_depth, &mut out);
        }
        if self.unspanned.calls > 0 {
            out.push_str(&format!(
                "{:>12} {:>8} {:>14} {:>12}  {}\n",
                self.unspanned.rounds,
                self.unspanned.calls,
                self.unspanned.bits,
                self.unspanned.max_link_bits,
                "(no span)"
            ));
        }
        out.push_str(&format!("total rounds (scaled): {}\n", self.total_rounds()));
        out
    }

    fn render_span(&self, idx: usize, max_depth: usize, out: &mut String) {
        let span = &self.spans[idx];
        if span.depth >= max_depth {
            return;
        }
        let rounds = self.subtree_rounds(idx);
        let rounds_cell = if span.factor == 1 {
            rounds.to_string()
        } else {
            format!("{rounds}x{}", span.factor)
        };
        let calls: u64 = self.subtree_calls(idx);
        let faults = self.subtree_faults(idx);
        let fault_cell = if faults == 0 {
            String::new()
        } else {
            format!(" [{faults} faults]")
        };
        out.push_str(&format!(
            "{:>12} {:>8} {:>14} {:>12}  {}{}{}\n",
            rounds_cell,
            calls,
            self.subtree_bits(idx),
            self.subtree_max_link_bits(idx),
            "  ".repeat(span.depth),
            span.label,
            fault_cell
        ));
        for &child in &span.children {
            self.render_span(child, max_depth, out);
        }
    }

    fn subtree_calls(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        span.own.calls
            + span
                .children
                .iter()
                .map(|&c| self.subtree_calls(c))
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_parser() {
        let (sink, buffer) = TraceSink::in_memory();
        let outer = sink.open_span_scaled("apsp", 1);
        let inner = sink.open_span_scaled("product-0", 9);
        sink.emit_comm("route", 2, 16, 256, 32, 128, 128);
        sink.close_span();
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Open {
                id: outer,
                parent: None,
                label: "apsp".into(),
                factor: 1
            }
        );
        assert_eq!(
            events[1],
            TraceEvent::Open {
                id: inner,
                parent: Some(outer),
                label: "product-0".into(),
                factor: 9
            }
        );
        assert!(matches!(&events[2], TraceEvent::Comm(c) if c.span == Some(inner)));
        assert_eq!(
            events[3],
            TraceEvent::Close {
                id: inner,
                rounds: None
            }
        );
    }

    #[test]
    fn labels_with_quotes_and_backslashes_survive() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("a\"b\\c\nd");
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Open {
                id: 1,
                parent: None,
                label: "a\"b\\c\nd".into(),
                factor: 1
            }
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for bad in [
            "not json",
            "{\"ev\":\"open\"}",
            "{\"ev\":\"warp\",\"id\":1}",
            "{\"ev\":\"comm\",\"kind\":\"route\",\"rounds\":1}",
            "{\"ev\":\"open\",\"id\":1,\"label\":\"x\"} extra",
        ] {
            let text = format!("{{\"ev\":\"close\",\"id\":9}}\n{bad}\n");
            let e = parse_trace(&text).unwrap_err();
            assert_eq!(e.line, 2, "case {bad:?}: {e}");
        }
    }

    #[test]
    fn summary_scales_factors_into_the_total() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("apsp");
        sink.open_span_scaled("product-0", 9);
        sink.emit_comm("route", 3, 1, 16, 16, 16, 16);
        sink.close_span();
        sink.open_span_scaled("product-1", 9);
        sink.emit_comm("route", 4, 1, 16, 16, 16, 16);
        sink.close_span();
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        summary.verify().unwrap();
        assert_eq!(summary.total_rounds(), 9 * 3 + 9 * 4);
        assert_eq!(summary.roots().len(), 1);
        assert_eq!(summary.subtree_rounds(0), 9 * 3 + 9 * 4);
    }

    #[test]
    fn verify_rejects_unclosed_and_inconsistent_spans() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("dangling");
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        assert!(summary.verify().is_err());

        let text = "{\"ev\":\"open\",\"id\":1,\"label\":\"x\"}\n\
                    {\"ev\":\"comm\",\"kind\":\"route\",\"span\":1,\"rounds\":2,\"messages\":1,\
                     \"bits\":8,\"max_link_bits\":8,\"max_node_out_bits\":8,\"max_node_in_bits\":8}\n\
                    {\"ev\":\"close\",\"id\":1,\"rounds\":99}\n";
        let summary = TraceSummary::from_events(&parse_trace(text).unwrap()).unwrap();
        let e = summary.verify().unwrap_err();
        assert!(e.message.contains("99"), "{e}");
    }

    #[test]
    fn comm_without_span_lands_in_unspanned() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.emit_comm("exchange", 5, 1, 64, 64, 64, 64);
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        assert_eq!(summary.unspanned.rounds, 5);
        assert_eq!(summary.total_rounds(), 5);
        assert!(summary.render(4).contains("(no span)"));
    }

    #[test]
    fn fault_events_round_trip_and_attribute_to_spans() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.emit_fault("drop");
        let apsp = sink.open_span("apsp");
        sink.emit_fault("corrupt");
        sink.emit_fault("crash");
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Fault {
                kind: "drop".into(),
                span: None
            }
        );
        assert_eq!(
            events[2],
            TraceEvent::Fault {
                kind: "corrupt".into(),
                span: Some(apsp)
            }
        );
        let summary = TraceSummary::from_events(&events).unwrap();
        assert_eq!(summary.unspanned_faults, 1);
        assert_eq!(summary.spans()[0].faults, 2);
        assert_eq!(summary.total_faults(), 3);
        assert!(summary.render(4).contains("[2 faults]"));
    }

    #[test]
    fn poisoned_sink_degrades_to_dropped_events() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("before");
        sink.close_span();
        let clone = sink.clone();
        std::thread::spawn(move || {
            let _guard = clone.inner.lock().unwrap();
            panic!("poison the sink on purpose");
        })
        .join()
        .unwrap_err();
        // Writes now degrade to counted drops instead of propagating the
        // poison panic.
        assert_eq!(sink.open_span("after"), 0);
        sink.emit_comm("exchange", 1, 1, 8, 8, 8, 8);
        sink.emit_fault("drop");
        sink.close_span();
        assert!(sink.dropped_events() >= 3);
        let err = sink.flush().unwrap_err();
        assert!(err.to_string().contains("dropped"), "{err}");
        // Events written before the poison are still parseable.
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn render_respects_max_depth() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("top");
        sink.open_span("middle");
        sink.open_span("leaf");
        sink.close_span();
        sink.close_span();
        sink.close_span();
        let summary = TraceSummary::from_events(&parse_trace(&buffer.contents()).unwrap()).unwrap();
        let shallow = summary.render(2);
        assert!(shallow.contains("middle") && !shallow.contains("leaf"));
        let deep = summary.render(10);
        assert!(deep.contains("leaf"));
    }
}
