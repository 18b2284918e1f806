//! Structured telemetry for EADT transfers.
//!
//! Three pieces, all driven by simulated time and fully deterministic:
//!
//! * [`Journal`] — a typed, timestamped event log ([`Event`]) serialized
//!   as JSON Lines with a stable schema ([`event::SCHEMA_VERSION`]).
//!   Identical seeds produce byte-identical journals.
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms;
//!   gauges are sampled on a sim-time cadence into `TimeSeries`.
//! * Trace tooling — [`timeline`] renders per-chunk ASCII timelines and
//!   controller-decision logs; [`chrome`] exports Chrome `trace_event`
//!   JSON for chrome://tracing / Perfetto.
//!
//! The [`Telemetry`] façade is what instrumented code holds. A disabled
//! façade ([`Telemetry::disabled`]) is a pair of `None`s: every hook
//! reduces to one branch and the event closure is never run, so the
//! engine's hot loop pays nothing (`perf_gate`'s zero-allocation
//! assertion guards this).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chrome;
pub mod event;
pub mod ledger;
pub mod metrics;
pub mod timeline;

pub use event::{
    BreakerState, EpisodeKind, Event, Journal, JournalRecovery, Record, Side, SCHEMA_VERSION,
};
pub use ledger::{EnergyLedger, EnergyPhase, SideLedger};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, MetricsRegistry};

use eadt_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One still-open causal span: enough state to close it later (or after
/// a checkpoint/resume — the engine checkpoints the façade's open-span
/// stack so span ids keep matching across a restore).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanCursor {
    /// Deterministic span id (`1 + seq` of the begin record).
    pub id: u64,
    /// Span kind, e.g. `"probe"`, `"horizon"`, `"retry"`.
    pub kind: String,
    /// Free-form detail carried from the begin event.
    #[serde(default)]
    pub detail: String,
}

/// Default gauge-sampling cadence: once per simulated second.
pub const DEFAULT_CADENCE: SimDuration = SimDuration::from_secs(1);

/// The telemetry façade instrumented code records into.
///
/// Both members are optional; [`Telemetry::disabled`] costs one `None`
/// check per hook and never evaluates event-constructing closures.
#[derive(Default)]
pub struct Telemetry {
    journal: Option<Journal>,
    metrics: Option<MetricsRegistry>,
    /// Innermost-last stack of open causal spans. Only maintained while
    /// journaling; it is what makes span ids and parent links
    /// deterministic (ids derive from journal seq numbers).
    open_spans: Vec<SpanCursor>,
}

impl Telemetry {
    /// A no-op sink: nothing is recorded, hooks cost one branch.
    pub fn disabled() -> Self {
        Telemetry {
            journal: None,
            metrics: None,
            open_spans: Vec::new(),
        }
    }

    /// Full telemetry: event journal plus metrics sampled every
    /// `cadence`.
    pub fn enabled(cadence: SimDuration) -> Self {
        Telemetry {
            journal: Some(Journal::new()),
            metrics: Some(MetricsRegistry::new(cadence)),
            open_spans: Vec::new(),
        }
    }

    /// Journal only (no metrics sampling).
    pub fn with_journal() -> Self {
        Telemetry {
            journal: Some(Journal::new()),
            metrics: None,
            open_spans: Vec::new(),
        }
    }

    /// Reassembles a façade from restored sinks (checkpoint resume): a
    /// journal continuing at a given sequence cursor and/or a metrics
    /// registry rebuilt from its snapshot. Restore the open-span stack
    /// separately with [`Telemetry::set_open_spans`].
    pub fn from_parts(journal: Option<Journal>, metrics: Option<MetricsRegistry>) -> Self {
        Telemetry {
            journal,
            metrics,
            open_spans: Vec::new(),
        }
    }

    /// True when events are being journaled.
    #[inline]
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Records an already-built event (use [`Telemetry::record_with`]
    /// when building the event allocates). Span events pass through the
    /// id-assignment interceptor: a [`Event::SpanBegin`] with `id == 0`
    /// is given the deterministic id `1 + seq` of its own record and its
    /// `parent` is filled with the innermost open span; a
    /// [`Event::SpanEnd`] with `id == 0` closes the innermost open span
    /// of the same kind (and detail, when the end names one).
    #[inline]
    pub fn record(&mut self, t: SimTime, event: Event) {
        if self.journal.is_some() {
            self.record_span_aware(t, event);
        }
    }

    /// Records the event produced by `make` — which is never called when
    /// journaling is off, so allocation-heavy events (labels, reasons)
    /// are free in the disabled configuration.
    #[inline]
    pub fn record_with(&mut self, t: SimTime, make: impl FnOnce() -> Event) {
        if self.journal.is_some() {
            let event = make();
            self.record_span_aware(t, event);
        }
    }

    /// The journaling path: intercepts span begin/end events to assign
    /// deterministic ids and maintain the open-span stack, then appends
    /// the (possibly rewritten) event to the journal.
    fn record_span_aware(&mut self, t: SimTime, mut event: Event) {
        let Some(j) = &mut self.journal else { return };
        match &mut event {
            Event::SpanBegin {
                id,
                parent,
                kind,
                detail,
            } => {
                if *id == 0 {
                    *id = j.next_seq() + 1;
                }
                if *parent == 0 {
                    *parent = self.open_spans.last().map_or(0, |s| s.id);
                }
                self.open_spans.push(SpanCursor {
                    id: *id,
                    kind: kind.clone(),
                    detail: detail.clone(),
                });
            }
            Event::SpanEnd { id, kind, detail } => {
                if *id == 0 {
                    let found = self.open_spans.iter().rposition(|s| {
                        s.kind == *kind && (detail.is_empty() || s.detail == *detail)
                    });
                    if let Some(pos) = found {
                        let cursor = self.open_spans.remove(pos);
                        *id = cursor.id;
                        if detail.is_empty() {
                            *detail = cursor.detail;
                        }
                    }
                } else if let Some(pos) = self.open_spans.iter().rposition(|s| s.id == *id) {
                    self.open_spans.remove(pos);
                }
            }
            _ => {}
        }
        j.record(t, event);
    }

    /// The open-span stack, innermost last (checkpointing support).
    pub fn open_spans(&self) -> &[SpanCursor] {
        &self.open_spans
    }

    /// Restores the open-span stack (checkpoint resume).
    pub fn set_open_spans(&mut self, spans: Vec<SpanCursor>) {
        self.open_spans = spans;
    }

    /// The metrics registry, when sampling is on.
    #[inline]
    pub fn metrics(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_mut()
    }

    /// Read-only view of the metrics registry.
    pub fn metrics_ref(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Read-only view of the journal.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Consumes the façade, yielding the journal.
    pub fn into_journal(self) -> Option<Journal> {
        self.journal
    }

    /// Consumes the façade, yielding both sinks.
    pub fn into_parts(self) -> (Option<Journal>, Option<MetricsRegistry>) {
        (self.journal, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_never_builds_events() {
        let mut tel = Telemetry::disabled();
        tel.record_with(SimTime::ZERO, || {
            panic!("event closure must not run when disabled")
        });
        assert!(tel.journal().is_none());
        assert!(tel.metrics().is_none());
    }

    #[test]
    fn enabled_telemetry_journals_and_samples() {
        let mut tel = Telemetry::enabled(DEFAULT_CADENCE);
        tel.record(SimTime::ZERO, Event::StageStart { stage: 0 });
        let m = tel.metrics().unwrap();
        let g = m.gauge("thr");
        m.set(g, 1.5);
        assert!(m.tick(SimTime::ZERO));
        let (journal, metrics) = tel.into_parts();
        assert_eq!(journal.unwrap().len(), 1);
        let metrics = metrics.unwrap();
        let (name, series) = metrics.gauges().next().unwrap();
        assert_eq!((name, series.len()), ("thr", 1));
    }

    fn begin(kind: &str, detail: &str) -> Event {
        Event::SpanBegin {
            id: 0,
            parent: 0,
            kind: kind.into(),
            detail: detail.into(),
        }
    }

    fn end(kind: &str, detail: &str) -> Event {
        Event::SpanEnd {
            id: 0,
            kind: kind.into(),
            detail: detail.into(),
        }
    }

    #[test]
    fn span_ids_derive_from_seq_and_nest() {
        let mut tel = Telemetry::with_journal();
        tel.record(SimTime::ZERO, Event::StageStart { stage: 0 }); // seq 0
        tel.record(SimTime::ZERO, begin("probe", "level 1")); // seq 1 → id 2
        tel.record(SimTime::ZERO, begin("retry", "src[0]")); // seq 2 → id 3
        assert_eq!(
            tel.open_spans()
                .iter()
                .map(|s| (s.id, s.kind.as_str()))
                .collect::<Vec<_>>(),
            vec![(2, "probe"), (3, "retry")]
        );
        tel.record(SimTime::ZERO, end("retry", "src[0]"));
        tel.record(SimTime::ZERO, end("probe", "")); // empty detail: innermost probe
        assert!(tel.open_spans().is_empty());
        let journal = tel.into_journal().unwrap();
        let ids: Vec<(u64, u64)> = journal
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                Event::SpanBegin { id, parent, .. } => Some((*id, *parent)),
                _ => None,
            })
            .collect();
        // probe is a root span; retry nests under it.
        assert_eq!(ids, vec![(2, 0), (3, 2)]);
        let ends: Vec<(u64, String)> = journal
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                Event::SpanEnd { id, detail, .. } => Some((*id, detail.clone())),
                _ => None,
            })
            .collect();
        // The empty-detail end inherited the begin's detail.
        assert_eq!(ends, vec![(3, "src[0]".into()), (2, "level 1".into())]);
    }

    #[test]
    fn span_end_matches_by_detail_among_same_kind() {
        let mut tel = Telemetry::with_journal();
        tel.record(SimTime::ZERO, begin("retry", "src[0]")); // id 1
        tel.record(SimTime::ZERO, begin("retry", "dst[2]")); // id 2
        tel.record(SimTime::ZERO, end("retry", "src[0]")); // closes id 1, not innermost
        assert_eq!(tel.open_spans().len(), 1);
        assert_eq!(tel.open_spans()[0].detail, "dst[2]");
        // Unmatched end records with id 0 and leaves the stack alone.
        tel.record(SimTime::ZERO, end("horizon", ""));
        assert_eq!(tel.open_spans().len(), 1);
        let journal = tel.into_journal().unwrap();
        let last = journal.records().last().unwrap();
        assert!(matches!(last.event, Event::SpanEnd { id: 0, .. }));
    }

    #[test]
    fn open_spans_round_trip_through_parts() {
        let mut tel = Telemetry::with_journal();
        tel.record(SimTime::ZERO, begin("horizon", "controller+40"));
        let saved: Vec<SpanCursor> = tel.open_spans().to_vec();
        let (journal, metrics) = tel.into_parts();
        let mut resumed = Telemetry::from_parts(journal, metrics);
        assert!(resumed.open_spans().is_empty());
        resumed.set_open_spans(saved);
        resumed.record(SimTime::ZERO, end("horizon", ""));
        assert!(resumed.open_spans().is_empty());
        let journal = resumed.into_journal().unwrap();
        let last = journal.records().last().unwrap();
        assert!(
            matches!(&last.event, Event::SpanEnd { id: 1, detail, .. } if detail == "controller+40")
        );
    }
}
