//! Run observability: a bounded ring sink for step events and a
//! Chrome-trace (Perfetto) JSON exporter.
//!
//! The engine's full [`Trace`](crate::trace::Trace) keeps every charged
//! operation, which is the right tool for linearizability checks but
//! grows linearly with the run. For observability — "what were the
//! processes doing near the end?", "export this run for a trace
//! viewer" — a bounded [`RingSink`] keeps the last `capacity` events
//! and counts what it dropped, so enabling it on a million-slot run
//! costs a fixed allocation.
//!
//! [`perfetto_trace_json`] renders step events in the Chrome trace
//! event format (the JSON flavour Perfetto and `chrome://tracing`
//! load): one `ph:"X"` complete event per operation on the issuing
//! process's track, `ph:"M"` metadata naming the tracks, and an
//! optional `ph:"C"` counter track for per-round persona survival.
//! Slots map to microsecond timestamps — the unit-cost measure of the
//! paper, not wall-clock time.

use crate::op::OpKind;
use crate::trace::TraceEvent;

/// Stable lower-case name for an [`OpKind`] (used for trace-event
/// names and histogram keys).
pub fn op_kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::RegisterRead => "register_read",
        OpKind::RegisterWrite => "register_write",
        OpKind::SnapshotUpdate => "snapshot_update",
        OpKind::SnapshotScan => "snapshot_scan",
        OpKind::MaxRead => "max_read",
        OpKind::MaxWrite => "max_write",
    }
}

/// A bounded sink of the most recent step events.
///
/// Pushes beyond the capacity overwrite the oldest event;
/// [`dropped`](RingSink::dropped) reports how many were lost. The
/// engine records into one when
/// [`enable_trace_ring`](crate::engine::Engine::enable_trace_ring) is
/// on.
///
/// # Examples
///
/// ```
/// use sift_sim::obs::RingSink;
/// use sift_sim::trace::TraceEvent;
/// use sift_sim::{OpKind, ProcessId};
///
/// let mut ring = RingSink::new(2);
/// for slot in 0..5 {
///     ring.push(TraceEvent { slot, pid: ProcessId(0), kind: OpKind::RegisterRead });
/// }
/// assert_eq!(ring.dropped(), 3);
/// let kept: Vec<u64> = ring.events().map(|e| e.slot).collect();
/// assert_eq!(kept, vec![3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    pushed: u64,
}

impl RingSink {
    /// Creates a sink keeping the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Records one event, evicting the oldest if full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }
}

/// One point of a per-round persona-survival counter track: `(round,
/// surviving personae)`. Protocol harnesses know rounds; the engine
/// does not, so survival is supplied alongside the events.
pub type SurvivalPoint = (u64, u64);

/// Renders step events as a Chrome trace event file (the JSON format
/// Perfetto and `chrome://tracing` open directly).
///
/// Each event becomes a `ph:"X"` complete event of duration one slot
/// on the track of its process (`tid` = process id); `process_count`
/// tracks are named up front with `ph:"M"` metadata records; each
/// entry of `survival` becomes a `ph:"C"` counter sample at the start
/// of its round. The output is deterministic: byte-identical for equal
/// inputs, with a trailing newline.
///
/// # Examples
///
/// ```
/// use sift_sim::obs::perfetto_trace_json;
/// use sift_sim::trace::TraceEvent;
/// use sift_sim::{OpKind, ProcessId};
///
/// let events = [TraceEvent { slot: 0, pid: ProcessId(0), kind: OpKind::MaxWrite }];
/// let json = perfetto_trace_json(events.iter(), 1, &[(0, 4)]);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("max_write"));
/// ```
pub fn perfetto_trace_json<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    process_count: usize,
    survival: &[SurvivalPoint],
) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |out: &mut String, record: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&record);
    };

    emit(
        &mut out,
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"sift-sim\"}}"
            .to_string(),
    );
    for pid in 0..process_count {
        emit(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{pid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"p{pid}\"}}}}"
            ),
        );
    }
    for event in events {
        emit(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":1,\
                 \"cat\":\"op\",\"name\":\"{name}\"}}",
                tid = event.pid.index(),
                ts = event.slot,
                name = op_kind_name(event.kind),
            ),
        );
    }
    for &(round, survivors) in survival {
        emit(
            &mut out,
            format!(
                "{{\"ph\":\"C\",\"pid\":0,\"ts\":{round},\"name\":\"survivors\",\
                 \"args\":{{\"count\":{survivors}}}}}"
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Convenience: exports a [`RingSink`]'s retained events (oldest
/// first). `process_count` should cover every pid that appears; use
/// the run's process count.
pub fn perfetto_from_ring(
    ring: &RingSink,
    process_count: usize,
    survival: &[SurvivalPoint],
) -> String {
    perfetto_trace_json(ring.events(), process_count, survival)
}

/// Checks the structural invariants of a Chrome trace file produced by
/// [`perfetto_trace_json`]: one top-level `traceEvents` array whose
/// records each carry a `ph` and a `pid`, with balanced braces and no
/// trailing comma. Returns the number of records, or an error
/// describing the first violation. (A schema check, not a JSON parser:
/// the renderer controls the grammar, so line-shape validation is
/// exact.)
pub fn check_trace_shape(json: &str) -> Result<usize, String> {
    let body = json
        .strip_prefix("{\"traceEvents\":[\n")
        .ok_or("missing traceEvents header")?
        .strip_suffix("\n]}\n")
        .ok_or("missing closing ]} with trailing newline")?;
    if body.is_empty() {
        return Ok(0);
    }
    let mut count = 0;
    for line in body.split(",\n") {
        let record = line
            .strip_prefix("  ")
            .ok_or_else(|| format!("record not indented: {line:?}"))?;
        if !record.starts_with('{') || !record.ends_with('}') {
            return Err(format!("record is not an object: {record:?}"));
        }
        if record.matches('{').count() != record.matches('}').count() {
            return Err(format!("unbalanced braces: {record:?}"));
        }
        for key in ["\"ph\":", "\"pid\":"] {
            if !record.contains(key) {
                return Err(format!("record missing {key} {record:?}"));
            }
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    fn ev(slot: u64, pid: usize, kind: OpKind) -> TraceEvent {
        TraceEvent {
            slot,
            pid: ProcessId(pid),
            kind,
        }
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut ring = RingSink::new(3);
        assert!(ring.is_empty());
        for slot in 0..7 {
            ring.push(ev(slot, slot as usize % 2, OpKind::RegisterRead));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 4);
        let slots: Vec<u64> = ring.events().map(|e| e.slot).collect();
        assert_eq!(slots, vec![4, 5, 6]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = RingSink::new(10);
        ring.push(ev(0, 0, OpKind::MaxRead));
        ring.push(ev(1, 1, OpKind::MaxWrite));
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.events().count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_ring_is_rejected() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn exporter_emits_one_record_per_event_plus_metadata() {
        let events = [
            ev(0, 0, OpKind::RegisterWrite),
            ev(1, 1, OpKind::SnapshotScan),
        ];
        let json = perfetto_trace_json(events.iter(), 2, &[(0, 2), (1, 1)]);
        // 1 process_name + 2 thread_name + 2 ops + 2 counter samples.
        assert_eq!(check_trace_shape(&json), Ok(7));
        assert!(json.contains("\"name\":\"register_write\""));
        assert!(json.contains("\"name\":\"snapshot_scan\""));
        assert!(json.contains("\"name\":\"survivors\""));
        assert!(json.contains("\"count\":2"));
    }

    #[test]
    fn exporter_is_deterministic() {
        let events = [ev(3, 1, OpKind::MaxWrite)];
        let a = perfetto_trace_json(events.iter(), 2, &[]);
        let b = perfetto_trace_json(events.iter(), 2, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn shape_check_rejects_malformed_traces() {
        assert!(check_trace_shape("[]").is_err());
        assert!(check_trace_shape("{\"traceEvents\":[\n]}\n").is_err());
        let missing_pid = "{\"traceEvents\":[\n  {\"ph\":\"X\"}\n]}\n";
        assert!(check_trace_shape(missing_pid).unwrap_err().contains("pid"));
        let empty = perfetto_trace_json([].iter(), 0, &[]);
        // Even an empty export carries the process_name metadata record.
        assert_eq!(check_trace_shape(&empty), Ok(1));
    }

    #[test]
    fn ring_round_trips_through_exporter() {
        let mut ring = RingSink::new(2);
        for slot in 0..4 {
            ring.push(ev(slot, 0, OpKind::MaxRead));
        }
        let json = perfetto_from_ring(&ring, 1, &[]);
        // Only the two retained events appear.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":2") && json.contains("\"ts\":3"));
        assert!(!json.contains("\"ts\":0,"));
    }

    #[test]
    fn every_op_kind_has_a_distinct_name() {
        use std::collections::HashSet;
        let kinds = [
            OpKind::RegisterRead,
            OpKind::RegisterWrite,
            OpKind::SnapshotUpdate,
            OpKind::SnapshotScan,
            OpKind::MaxRead,
            OpKind::MaxWrite,
        ];
        let names: HashSet<&str> = kinds.iter().map(|&k| op_kind_name(k)).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
