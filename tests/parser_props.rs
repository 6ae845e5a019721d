//! Arbitrary-input properties of every parser of untrusted text: CLI
//! flags, fault specs, the shared JSON reader, and the serve NDJSON
//! requests and trace NDJSON lines built on it. Each must answer garbage
//! with a typed error and never panic. Inputs come
//! from raw bytes (lossily decoded) or from alphabets of the grammar's own
//! tokens, which reach far deeper than random bytes do. Emitted trace
//! events must also parse back to what was written.

use proptest::collection::vec;
use proptest::prelude::*;
use qcc::algo::parse_request;
use qcc::cli::parse;
use qcc::congest::json::{self, Value};
use qcc::congest::{
    parse_trace, parse_trace_line, Clique, Envelope, FaultPlan, NodeId, TraceEvent, TraceSink,
    TraceSummary,
};

/// Joins tokens drawn (by index) from `alphabet`.
fn from_alphabet(alphabet: &'static [&'static str], len: usize) -> impl Strategy<Value = String> {
    vec(0..alphabet.len(), 0..len)
        .prop_map(move |picks| picks.iter().map(|&i| alphabet[i]).collect())
}

/// Bytes of any value, decoded lossily.
fn garbage(len: usize) -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..len).prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

#[rustfmt::skip]
const CLI_TOKENS: &[&str] = &[
    "apsp", "diameter", "radius", "ecc", "serve", "find-edges", "paths", "gamma", "trace-summary",
    "help", "--n", "--seed", "--algorithm", "--wmax", "--trace", "--faults", "--verify",
    "--max-retries", "--transport", "--topology", "--backend", "--density", "--row-cache",
    "--bits", "--expect-rounds", "--max-depth", "0", "1", "4", "-1", "1e9", "18446744073709551616",
    "quantum", "naive", "semiring", "scan", "gossip", "mesh:0", "mesh:", "torus", "crash=9@0",
    "crash=1@0", "link=7>1:0.5", "drop=2", "drop=0.1,seed=3", "", "=", "\u{0}", "é",
];

#[rustfmt::skip]
const FAULT_TOKENS: &[&str] = &[
    "drop", "corrupt", "dup", "seed", "crash", "link", "=", ",", "@", ">", ":", "0", "1", "9",
    "0.5", "1.5", "-0.1", "NaN", "inf", "1e308", "18446744073709551616", " ", "é",
];

#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "00", "\"op\"", "\"dist\"",
    "\"path\"", "\"update\"", "\"stats\"", "\"shutdown\"", "\"u\"", "\"v\"", "\"changes\"",
    "\"weight\"", "\"ev\"", "\"open\"", "\"close\"", "\"comm\"", "\"fault\"", "\"id\"",
    "\"parent\"", "\"label\"", "\"factor\"", "\"rounds\"", "\"kind\"", "\"span\"", "0", "1", "-1",
    "1e400", "18446744073709551616", "9223372036854775808", "true", "null", " ", "é",
];

/// Pieces of strings that need escaping, or that a byte-wise reader could
/// split wrongly: quotes, backslashes, control and non-ASCII characters.
#[rustfmt::skip]
const STRING_TOKENS: &[&str] = &[
    "\"", "\\", "\\u0041", "/", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "\u{2028}",
    "\u{1f600}", "\u{fffd}", "a", " ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escaped_strings_read_back_unchanged(
        head in from_alphabet(STRING_TOKENS, 12),
        tail in vec(0u32..0x11_0000, 0..8),
    ) {
        let text: String = head
            .chars()
            .chain(tail.iter().map(|&c| char::from_u32(c).unwrap_or('\u{fffd}')))
            .collect();
        let mut quoted = String::from("\"");
        json::escape_into(&mut quoted, &text);
        quoted.push('"');
        prop_assert_eq!(json::parse(&quoted), Ok(Value::Str(text)));
    }

    #[test]
    fn json_reader_survives_raw_bytes(line in garbage(64)) {
        let _ = json::parse(&line);
    }

    #[test]
    fn json_reader_survives_token_soup(line in from_alphabet(JSON_TOKENS, 24)) {
        let _ = json::parse(&line);
    }

    #[test]
    fn cli_parse_never_panics(tokens in vec(from_alphabet(CLI_TOKENS, 3), 0..8)) {
        let _ = parse(&tokens);
    }

    #[test]
    fn cli_parse_survives_raw_bytes(args in vec(garbage(16), 0..6)) {
        let _ = parse(&args);
    }

    #[test]
    fn fault_specs_parse_or_fail_typed(spec in from_alphabet(FAULT_TOKENS, 24)) {
        if let Ok(plan) = FaultPlan::parse(&spec) {
            // Whatever parses prints back to a spec with the same meaning.
            prop_assert_eq!(FaultPlan::parse(&plan.to_spec()), Ok(plan));
        }
    }

    #[test]
    fn fault_specs_survive_raw_bytes(spec in garbage(48)) {
        let _ = FaultPlan::parse(&spec);
    }

    #[test]
    fn serve_requests_parse_or_fail_typed(line in from_alphabet(JSON_TOKENS, 24)) {
        let _ = parse_request(&line);
        let _ = parse_request(&format!("{{\"op\":\"update\",\"changes\":[{line}]}}"));
    }

    #[test]
    fn serve_requests_survive_raw_bytes(line in garbage(64)) {
        let _ = parse_request(&line);
    }

    #[test]
    fn trace_lines_parse_or_fail_typed(line in from_alphabet(JSON_TOKENS, 24)) {
        let _ = parse_trace_line(&line, 1);
        let _ = parse_trace_line(&format!("{{\"ev\":\"open\",{line}}}"), 1);
    }

    #[test]
    fn trace_lines_survive_raw_bytes(line in garbage(64)) {
        let _ = parse_trace_line(&line, 1);
        let _ = parse_trace(&line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn emitted_trace_events_parse_back(
        labels in vec(garbage(12), 1..5),
        factors in vec(1u64..20, 5),
        sends in vec((0usize..4, 0usize..4, any::<u32>()), 0..12),
    ) {
        let (sink, buffer) = TraceSink::in_memory();
        for (label, &factor) in labels.iter().zip(&factors) {
            sink.open_span_scaled(label, factor);
        }
        // A real network call in a phase under those spans emits comm
        // events and a leaf span closed with statistics.
        let mut net = Clique::new(4).unwrap();
        net.set_trace_sink(sink.clone());
        net.begin_phase("exchange");
        let envelopes = sends
            .iter()
            .filter(|(src, dst, _)| src != dst)
            .map(|&(src, dst, w)| Envelope::new(NodeId::new(src), NodeId::new(dst), u64::from(w)))
            .collect();
        net.exchange(envelopes).unwrap();
        net.close_all_spans();
        for _ in &labels {
            sink.close_span();
        }
        sink.flush().unwrap();

        let text = buffer.contents();
        let events = parse_trace(&text).unwrap();
        let opened: Vec<(String, u64)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Open { label, factor, .. } => Some((label.clone(), *factor)),
                _ => None,
            })
            .collect();
        let mut expected: Vec<(String, u64)> =
            labels.iter().cloned().zip(factors.iter().copied()).collect();
        expected.push(("exchange".into(), 1));
        prop_assert_eq!(opened, expected);
        let summary = TraceSummary::from_events(&events).unwrap();
        summary.verify().unwrap();
        prop_assert_eq!(summary.total_rounds(), net.rounds() * factors[..labels.len()].iter().product::<u64>());
    }
}

#[test]
fn trace_fields_take_the_full_u64_range_and_nothing_else() {
    let line = |id: &str| format!("{{\"ev\":\"close\",\"id\":{id}}}");
    assert_eq!(
        parse_trace_line(&line("18446744073709551615"), 1),
        Ok(TraceEvent::Close {
            id: u64::MAX,
            rounds: None
        })
    );
    for bad in [
        "18446744073709551616",
        "-1",
        "1.5",
        "1e3",
        "[1]",
        "{\"a\":1}",
        "true",
        "null",
    ] {
        assert!(parse_trace_line(&line(bad), 1).is_err(), "id {bad} parsed");
    }
    // Fields the event does not read must still be flat.
    assert!(parse_trace_line("{\"ev\":\"close\",\"id\":1,\"extra\":[1]}", 1).is_err());
}

#[test]
fn every_checked_in_bench_report_reads_back() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut seen = 0;
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let value = json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            value.get("schema").is_some() || value.get("n").is_some(),
            "{name} has neither a schema nor an n"
        );
        seen += 1;
    }
    assert!(seen >= 6, "only {seen} BENCH_*.json files found");
}
