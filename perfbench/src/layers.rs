//! Outside-in layer timing from the program's own NDJSON trace.
//!
//! The program already emits one `open`/`close` event per span and one
//! `comm`/`fault` event per network call through `TraceSink`. The
//! benchmark hands `TraceSink::to_writer` a [`StampedWriter`], which only
//! timestamps each complete line as it arrives; [`LayerProfile::fold`]
//! replays the stamped lines afterwards, so parsing never runs inside a
//! timed span.
//!
//! Attribution caveat: the program's host work between two events is
//! charged to whichever span is innermost at that moment, so a label's
//! self time means "wall while this span was innermost".

use qcc_congest::{parse_trace_line, TraceEvent};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `Write` sink that records the arrival time of every complete line.
/// Clones share one buffer: hand one clone to the trace sink and drain
/// the other with [`StampedWriter::take_lines`].
#[derive(Clone, Default)]
pub struct StampedWriter(Arc<Mutex<Stamped>>);

#[derive(Default)]
struct Stamped {
    text: Vec<u8>,
    /// End offset (exclusive, newline dropped) and arrival time per line.
    ends: Vec<(usize, Instant)>,
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut s = self
            .0
            .lock()
            .map_err(|_| io::Error::other("stamped writer poisoned"))?;
        for &b in buf {
            if b == b'\n' {
                let end = s.text.len();
                s.ends.push((end, now));
            } else {
                s.text.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StampedWriter {
    /// Removes and returns every complete line with its arrival time; a
    /// line still missing its newline stays buffered.
    pub fn take_lines(&self) -> Vec<(Instant, String)> {
        let mut s = self.0.lock().expect("stamped writer poisoned");
        let Stamped { text, ends } = &mut *s;
        let mut start = 0;
        let lines = ends
            .drain(..)
            .map(|(end, t)| {
                let line = String::from_utf8_lossy(&text[start..end]).into_owned();
                start = end;
                (t, line)
            })
            .collect();
        text.drain(..start);
        lines
    }
}

/// Replaces every run of ASCII digits with `N` (`product-3` → `product-N`).
pub fn normalise_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut in_digits = false;
    for c in label.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

/// Totals of every span sharing one normalised label.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LabelTotals {
    /// Spans closed.
    pub count: u64,
    /// Wall from open to close.
    pub inclusive: Duration,
    /// Inclusive wall minus the inclusive wall of direct children.
    pub self_time: Duration,
}

/// Per-label wall times and the network totals of one or more traces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerProfile {
    /// Keyed by [`normalise_label`].
    pub labels: BTreeMap<String, LabelTotals>,
    /// Every event line seen.
    pub events: u64,
    /// `fault` events.
    pub faults: u64,
    /// Comm rounds, each scaled by the product of the `factor`s of its
    /// enclosing spans (the physical rounds the run charged).
    pub rounds: u64,
    /// Comm messages (unscaled).
    pub messages: u64,
    /// Comm bits (unscaled).
    pub bits: u64,
    /// Busiest single link over all comm events.
    pub max_link_bits: u64,
}

struct OpenSpan {
    id: u64,
    label: String,
    start: Instant,
    children: Duration,
    scale: u64,
}

impl LayerProfile {
    /// Replays one complete trace (every span it opens is closed).
    ///
    /// # Errors
    ///
    /// A message for an unparsable line, a close that does not match the
    /// innermost open span, or a span left open at the end.
    pub fn fold(&mut self, lines: &[(Instant, String)]) -> Result<(), String> {
        let mut stack: Vec<OpenSpan> = Vec::new();
        for (k, (t, line)) in lines.iter().enumerate() {
            let event = parse_trace_line(line, k + 1).map_err(|e| e.to_string())?;
            self.events += 1;
            match event {
                TraceEvent::Open {
                    id, label, factor, ..
                } => {
                    let scale = stack.last().map_or(1, |s| s.scale) * factor;
                    stack.push(OpenSpan {
                        id,
                        label: normalise_label(&label),
                        start: *t,
                        children: Duration::ZERO,
                        scale,
                    });
                }
                TraceEvent::Close { id, .. } => {
                    let span = stack.pop().filter(|s| s.id == id).ok_or_else(|| {
                        format!("line {}: close of span {id} out of order", k + 1)
                    })?;
                    let inclusive = t.saturating_duration_since(span.start);
                    if let Some(parent) = stack.last_mut() {
                        parent.children += inclusive;
                    }
                    let totals = self.labels.entry(span.label).or_default();
                    totals.count += 1;
                    totals.inclusive += inclusive;
                    totals.self_time += inclusive.saturating_sub(span.children);
                }
                TraceEvent::Comm(c) => {
                    self.rounds += c.rounds * stack.last().map_or(1, |s| s.scale);
                    self.messages += c.messages;
                    self.bits += c.bits;
                    self.max_link_bits = self.max_link_bits.max(c.max_link_bits);
                }
                TraceEvent::Fault { .. } => self.faults += 1,
            }
        }
        match stack.last() {
            Some(open) => Err(format!(
                "span {} (\"{}\") never closed",
                open.id, open.label
            )),
            None => Ok(()),
        }
    }

    /// Totals of one normalised label (zero when it never appeared).
    pub fn label(&self, label: &str) -> LabelTotals {
        self.labels.get(label).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_congest::TraceSink;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn labels_are_digit_normalised() {
        assert_eq!(normalise_label("product-3"), "product-N");
        assert_eq!(
            normalise_label("step3/alpha12/eval-queries"),
            "stepN/alphaN/eval-queries"
        );
        assert_eq!(normalise_label("driver"), "driver");
    }

    #[test]
    fn self_time_is_inclusive_minus_children() {
        let base = Instant::now();
        let ev = |ms: u64, s: &str| (at(base, ms), s.to_string());
        let lines = vec![
            ev(0, r#"{"ev":"open","id":1,"label":"apsp"}"#),
            ev(
                10,
                r#"{"ev":"open","id":2,"parent":1,"label":"product-0","factor":9}"#,
            ),
            ev(
                15,
                r#"{"ev":"open","id":3,"parent":2,"label":"step3/alpha0/eval-queries"}"#,
            ),
            ev(
                16,
                r#"{"ev":"comm","kind":"exchange","span":3,"rounds":2,"messages":5,"bits":40,"max_link_bits":8,"max_node_out_bits":8,"max_node_in_bits":8}"#,
            ),
            ev(20, r#"{"ev":"close","id":3,"rounds":2}"#),
            ev(22, r#"{"ev":"fault","kind":"drop","span":2}"#),
            ev(30, r#"{"ev":"close","id":2}"#),
            ev(
                31,
                r#"{"ev":"open","id":4,"parent":1,"label":"product-1","factor":9}"#,
            ),
            ev(
                33,
                r#"{"ev":"open","id":5,"parent":4,"label":"step3/alpha1/eval-queries"}"#,
            ),
            ev(
                34,
                r#"{"ev":"comm","kind":"route","span":5,"rounds":1,"messages":3,"bits":60,"max_link_bits":20,"max_node_out_bits":20,"max_node_in_bits":20}"#,
            ),
            ev(37, r#"{"ev":"close","id":5,"rounds":1}"#),
            ev(41, r#"{"ev":"close","id":4}"#),
            ev(
                50,
                r#"{"ev":"comm","kind":"broadcast","span":1,"rounds":1,"messages":1,"bits":1,"max_link_bits":1,"max_node_out_bits":1,"max_node_in_bits":1}"#,
            ),
            ev(50, r#"{"ev":"close","id":1}"#),
        ];
        let mut p = LayerProfile::default();
        p.fold(&lines).unwrap();
        let ms = Duration::from_millis;

        let root = p.label("apsp");
        assert_eq!((root.count, root.inclusive), (1, ms(50)));
        // 50 minus the two products' 20 + 10.
        assert_eq!(root.self_time, ms(20));

        let product = p.label("product-N");
        assert_eq!((product.count, product.inclusive), (2, ms(30)));
        // (20 − 5) + (10 − 4).
        assert_eq!(product.self_time, ms(21));

        let leaf = p.label("stepN/alphaN/eval-queries");
        assert_eq!(
            (leaf.count, leaf.inclusive, leaf.self_time),
            (2, ms(9), ms(9))
        );

        assert_eq!(p.events, 14);
        assert_eq!(p.faults, 1);
        assert_eq!(p.rounds, 2 * 9 + 9 + 1);
        assert_eq!((p.messages, p.bits, p.max_link_bits), (9, 101, 20));
        assert_eq!(p.label("absent"), LabelTotals::default());
    }

    #[test]
    fn mismatched_or_unclosed_spans_are_rejected() {
        let t = Instant::now();
        let open = (t, r#"{"ev":"open","id":1,"label":"a"}"#.to_string());
        let bad_close = (t, r#"{"ev":"close","id":7}"#.to_string());
        assert!(LayerProfile::default()
            .fold(&[open.clone(), bad_close])
            .is_err());
        assert!(LayerProfile::default().fold(&[open]).is_err());
        assert!(LayerProfile::default()
            .fold(&[(t, "garbage".into())])
            .is_err());
    }

    #[test]
    fn writer_reassembles_lines_split_across_writes() {
        let mut w = StampedWriter::default();
        w.write_all(br#"{"ev":"open","id":1,"#).unwrap();
        assert!(w.take_lines().is_empty(), "no newline yet");
        w.write_all(b"\"label\":\"a\"}\n{\"ev\":\"clo").unwrap();
        w.write_all(b"se\",\"id\":1}").unwrap();
        w.write_all(b"\n").unwrap();
        let lines = w.take_lines();
        let texts: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(
            texts,
            [
                r#"{"ev":"open","id":1,"label":"a"}"#,
                r#"{"ev":"close","id":1}"#
            ]
        );
        assert!(lines[0].0 <= lines[1].0);
        assert!(w.take_lines().is_empty());
    }

    #[test]
    fn profiles_a_real_trace_sink() {
        let writer = StampedWriter::default();
        let sink = TraceSink::to_writer(Box::new(writer.clone()));
        sink.open_span("driver");
        sink.open_span("attempt-0");
        std::thread::sleep(Duration::from_millis(2));
        sink.close_span();
        sink.close_span();
        sink.flush().unwrap();
        let mut p = LayerProfile::default();
        p.fold(&writer.take_lines()).unwrap();
        assert_eq!(p.events, 4);
        let attempt = p.label("attempt-N");
        assert_eq!(attempt.count, 1);
        assert!(attempt.inclusive >= Duration::from_millis(2));
        assert!(p.label("driver").inclusive >= attempt.inclusive);
    }
}
