//! Chrome `trace_event` export: renders a journal as the JSON object
//! format understood by chrome://tracing and Perfetto.
//!
//! Mapping:
//! * chunks become complete slices (`ph:"X"`) on one thread row each;
//! * causal spans (`span_begin`/`span_end`) become complete slices on
//!   per-kind thread rows (overlapping same-kind spans spill into
//!   adjacent lanes), with id/parent/detail under `args`;
//! * channel failures, retries, decisions, probe windows, commits,
//!   breaker transitions and fault-episode edges become instant events
//!   (`ph:"i"`) with their payload under `args`;
//! * periodic `sample` records become counter tracks (`ph:"C"`) for
//!   throughput, power, concurrency and backoff occupancy.
//!
//! Timestamps are simulated microseconds, which is exactly the unit
//! `trace_event` expects in `ts`/`dur`.

use crate::event::{line_writer, Event, Journal};
use std::fmt::Write as _;

/// Thread row that carries instant (non-chunk) events.
const CONTROL_TID: u32 = 1000;

/// First thread row assigned to causal spans; each span kind gets a
/// stride of [`SPAN_LANE_STRIDE`] lanes for overlapping spans.
const SPAN_TID_BASE: u32 = 2000;
const SPAN_LANE_STRIDE: u32 = 100;

/// One open causal span while scanning the journal.
struct OpenSpan {
    id: u64,
    parent: u64,
    kind_row: u32,
    lane: u32,
    detail: String,
    start: u64,
}

/// Emits one completed span slice.
fn push_span(s: &mut String, kind: &str, span: &OpenSpan, end_us: u64) {
    push_common(
        s,
        kind,
        'X',
        span.start,
        SPAN_TID_BASE + span.kind_row * SPAN_LANE_STRIDE + span.lane,
    );
    let _ = write!(
        s,
        ",\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"detail\":",
        end_us.saturating_sub(span.start),
        span.id,
        span.parent
    );
    line_writer(s).str(&span.detail);
    s.push_str("}}");
}

fn push_common(s: &mut String, name: &str, ph: char, ts: u64, tid: u32) {
    s.push_str("{\"name\":");
    line_writer(s).str(name);
    let _ = write!(s, ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}");
}

/// Renders the journal as a `trace_event` JSON object
/// (`{"traceEvents":[...]}`). Output is byte-deterministic for identical
/// journals.
pub fn to_chrome_trace(journal: &Journal) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |s: &mut String| {
        if !std::mem::take(&mut first) {
            s.push(',');
        }
    };

    // Open chunk slices are tracked so ChunkDrain can close them; chunks
    // never draining are closed at the journal end.
    let end_us = journal.records().last().map(|r| r.t_us).unwrap_or(0);
    let mut open: Vec<(u32, String, u64)> = Vec::new();

    // Span kinds in first-appearance order (one row group each) and the
    // currently open spans; unmatched spans flush at the journal end.
    let mut span_kinds: Vec<String> = Vec::new();
    let mut open_spans: Vec<OpenSpan> = Vec::new();

    for r in journal.records() {
        let ts = r.t_us;
        match &r.event {
            Event::SpanBegin {
                id,
                parent,
                kind,
                detail,
            } => {
                let kind_row = match span_kinds.iter().position(|k| k == kind) {
                    Some(i) => i as u32,
                    None => {
                        span_kinds.push(kind.clone());
                        (span_kinds.len() - 1) as u32
                    }
                };
                // Lowest lane free among open spans of the same kind.
                let mut lane = 0;
                while open_spans
                    .iter()
                    .any(|o| o.kind_row == kind_row && o.lane == lane)
                {
                    lane += 1;
                }
                open_spans.push(OpenSpan {
                    id: *id,
                    parent: *parent,
                    kind_row,
                    lane,
                    detail: detail.clone(),
                    start: ts,
                });
            }
            Event::SpanEnd { id, kind, .. } => {
                let pos = if *id != 0 {
                    open_spans.iter().rposition(|o| o.id == *id)
                } else {
                    open_spans
                        .iter()
                        .rposition(|o| span_kinds[o.kind_row as usize] == *kind)
                };
                if let Some(i) = pos {
                    let span = open_spans.remove(i);
                    sep(&mut s);
                    push_span(&mut s, &span_kinds[span.kind_row as usize], &span, ts);
                }
            }
            Event::ChunkStart { chunk, label, .. } => {
                open.push((*chunk, label.clone(), ts));
            }
            Event::ChunkDrain { chunk, .. } => {
                if let Some(i) = open.iter().position(|(c, _, _)| c == chunk) {
                    let (c, label, start) = open.swap_remove(i);
                    sep(&mut s);
                    push_common(&mut s, &label, 'X', start, c);
                    let _ = write!(s, ",\"dur\":{}}}", ts - start);
                }
            }
            Event::ChannelFail {
                chunk,
                channel,
                cause,
                ..
            } => {
                sep(&mut s);
                push_common(&mut s, "channel_fail", 'i', ts, *chunk);
                s.push_str(",\"s\":\"t\",\"args\":{\"channel\":");
                let _ = write!(s, "{channel},\"cause\":");
                line_writer(&mut s).str(cause);
                s.push_str("}}");
            }
            Event::ChannelRetry {
                chunk,
                channel,
                delay_us,
                exhausted,
                ..
            } => {
                sep(&mut s);
                push_common(&mut s, "channel_retry", 'i', ts, *chunk);
                let _ = write!(
                    s,
                    ",\"s\":\"t\",\"args\":{{\"channel\":{channel},\"delay_us\":{delay_us},\
                     \"exhausted\":{exhausted}}}}}"
                );
            }
            Event::Decision { reason, .. } => {
                sep(&mut s);
                push_common(&mut s, "decision", 'i', ts, CONTROL_TID);
                s.push_str(",\"s\":\"p\",\"args\":{\"reason\":");
                line_writer(&mut s).str(reason);
                s.push_str("}}");
            }
            Event::ProbeWindow {
                level, mbps, ratio, ..
            } => {
                sep(&mut s);
                push_common(&mut s, "probe_window", 'i', ts, CONTROL_TID);
                let _ = write!(s, ",\"s\":\"p\",\"args\":{{\"level\":{level},\"mbps\":");
                line_writer(&mut s).f64(*mbps);
                s.push_str(",\"ratio\":");
                line_writer(&mut s).f64(*ratio);
                s.push_str("}}");
            }
            Event::Commit { level, reason } => {
                sep(&mut s);
                push_common(&mut s, "commit", 'i', ts, CONTROL_TID);
                let _ = write!(s, ",\"s\":\"p\",\"args\":{{\"level\":{level},\"reason\":");
                line_writer(&mut s).str(reason);
                s.push_str("}}");
            }
            Event::Breaker {
                side,
                server,
                state,
            } => {
                sep(&mut s);
                push_common(&mut s, "breaker", 'i', ts, CONTROL_TID);
                let _ = write!(
                    s,
                    ",\"s\":\"p\",\"args\":{{\"server\":\"{}[{server}]\",\"state\":\"{}\"}}}}",
                    side.as_str(),
                    state.as_str()
                );
            }
            Event::FaultEpisode { kind, active, .. } => {
                sep(&mut s);
                push_common(&mut s, "fault_episode", 'i', ts, CONTROL_TID);
                let _ = write!(
                    s,
                    ",\"s\":\"p\",\"args\":{{\"kind\":\"{}\",\"active\":{active}}}}}",
                    kind.as_str()
                );
            }
            Event::Sample {
                throughput_mbps,
                power_w,
                concurrency,
                in_backoff,
                ..
            } => {
                sep(&mut s);
                push_common(&mut s, "throughput_mbps", 'C', ts, 0);
                s.push_str(",\"args\":{\"value\":");
                line_writer(&mut s).f64(*throughput_mbps);
                s.push_str("}}");
                sep(&mut s);
                push_common(&mut s, "power_w", 'C', ts, 0);
                s.push_str(",\"args\":{\"value\":");
                line_writer(&mut s).f64(*power_w);
                s.push_str("}}");
                sep(&mut s);
                push_common(&mut s, "channels", 'C', ts, 0);
                let _ = write!(
                    s,
                    ",\"args\":{{\"active\":{concurrency},\"in_backoff\":{in_backoff}}}}}"
                );
            }
            _ => {}
        }
    }

    // Close any chunk that never drained (incomplete run).
    open.sort_by_key(|&(c, _, _)| c);
    for (c, label, start) in open {
        sep(&mut s);
        push_common(&mut s, &label, 'X', start, c);
        let _ = write!(s, ",\"dur\":{}}}", end_us.saturating_sub(start));
    }

    // Flush spans that never ended (halted run): close them at journal
    // end, innermost-open last so nesting still renders.
    for span in &open_spans {
        sep(&mut s);
        push_span(&mut s, &span_kinds[span.kind_row as usize], span, end_us);
    }

    s.push_str("],\"displayTimeUnit\":\"ms\"}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slices_and_counters() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            Event::ChunkStart {
                chunk: 0,
                label: "Huge".into(),
                bytes: 1,
                files: 1,
            },
        );
        j.record(
            t(1.0),
            Event::Sample {
                throughput_mbps: 100.0,
                power_w: 200.0,
                concurrency: 2,
                in_backoff: 0,
                queue_depth: 3,
            },
        );
        j.record(
            t(2.0),
            Event::ChunkDrain {
                chunk: 0,
                label: "Huge".into(),
            },
        );
        let text = to_chrome_trace(&j);
        let v = serde::value::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4, "{text}");
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("complete slice present");
        assert_eq!(slice.get("dur").unwrap().as_u64(), Some(2_000_000));
        assert!(text.contains("\"throughput_mbps\""), "{text}");
    }

    #[test]
    fn spans_render_as_nested_slices_with_lanes() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            Event::SpanBegin {
                id: 1,
                parent: 0,
                kind: "probe".into(),
                detail: "level 1".into(),
            },
        );
        j.record(
            t(0.5),
            Event::SpanBegin {
                id: 2,
                parent: 1,
                kind: "retry".into(),
                detail: "src[0]".into(),
            },
        );
        // A second retry overlapping the first gets its own lane.
        j.record(
            t(0.6),
            Event::SpanBegin {
                id: 3,
                parent: 1,
                kind: "retry".into(),
                detail: "dst[1]".into(),
            },
        );
        j.record(
            t(1.0),
            Event::SpanEnd {
                id: 2,
                kind: "retry".into(),
                detail: "src[0]".into(),
            },
        );
        j.record(
            t(2.0),
            Event::SpanEnd {
                id: 1,
                kind: "probe".into(),
                detail: String::new(),
            },
        );
        // Span 3 never ends: flushed at journal end.
        let text = to_chrome_trace(&j);
        let v = serde::value::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 3, "{text}");
        let tid_of = |id: u64| {
            slices
                .iter()
                .find(|e| {
                    e.get("args")
                        .and_then(|a| a.get("id"))
                        .and_then(|v| v.as_u64())
                        == Some(id)
                })
                .and_then(|e| e.get("tid"))
                .and_then(|v| v.as_u64())
                .unwrap()
        };
        // probe is row 0; the two retries share row 1 but distinct lanes.
        assert_eq!(tid_of(1), 2000);
        assert_eq!(tid_of(2), 2100);
        assert_eq!(tid_of(3), 2101);
        // Parent links survive into args.
        assert!(text.contains("\"parent\":1"), "{text}");
        // The unmatched retry closes at journal end (t=2s, began 0.6s).
        assert!(text.contains("\"dur\":1400000"), "{text}");
    }

    #[test]
    fn unclosed_chunks_are_flushed_at_journal_end() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            Event::ChunkStart {
                chunk: 3,
                label: "Open".into(),
                bytes: 1,
                files: 1,
            },
        );
        j.record(t(5.0), Event::StageStart { stage: 1 });
        let text = to_chrome_trace(&j);
        assert!(text.contains("\"dur\":5000000"), "{text}");
    }
}
