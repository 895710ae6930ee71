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

use sift_obs::json::{self, Json};

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
    let name = |name: String| Json::obj([("name", name.into())]);
    let mut records = vec![Json::obj([
        ("ph", "M".into()),
        ("pid", 0u64.into()),
        ("name", "process_name".into()),
        ("args", name("sift-sim".into())),
    ])];
    records.extend((0..process_count).map(|pid| {
        Json::obj([
            ("ph", "M".into()),
            ("pid", 0u64.into()),
            ("tid", pid.into()),
            ("name", "thread_name".into()),
            ("args", name(format!("p{pid}"))),
        ])
    }));
    records.extend(events.into_iter().map(|event| {
        Json::obj([
            ("ph", "X".into()),
            ("pid", 0u64.into()),
            ("tid", event.pid.index().into()),
            ("ts", event.slot.into()),
            ("dur", 1u64.into()),
            ("cat", "op".into()),
            ("name", op_kind_name(event.kind).into()),
        ])
    }));
    records.extend(survival.iter().map(|&(round, survivors)| {
        Json::obj([
            ("ph", "C".into()),
            ("pid", 0u64.into()),
            ("ts", round.into()),
            ("name", "survivors".into()),
            ("args", Json::obj([("count", survivors.into())])),
        ])
    }));
    json::write(&Json::obj([("traceEvents", Json::Arr(records))]))
}

/// Checks a Chrome trace file: it parses ([`sift_obs::json::parse`]),
/// and every record of its `traceEvents` array has a string `ph` and an
/// integer `pid`; layout is not checked. Returns the number of records,
/// or an error describing the first violation.
pub fn check_trace_shape(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let records = doc
        .get("traceEvents")
        .and_then(Json::items)
        .ok_or("missing traceEvents array")?;
    for (i, record) in records.iter().enumerate() {
        if record.get("ph").and_then(Json::as_str).is_none() {
            return Err(format!("record {i} has no string ph"));
        }
        if record.get("pid").and_then(Json::as_u64).is_none() {
            return Err(format!("record {i} has no integer pid"));
        }
    }
    Ok(records.len())
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

    /// `key` of every `traceEvents` record of an export.
    fn column(text: &str, key: &str) -> Vec<Json> {
        let doc = json::parse(text).expect("an export is JSON");
        let records = doc.get("traceEvents").and_then(Json::items).unwrap();
        records
            .iter()
            .map(|r| r.get(key).cloned().unwrap_or(Json::Null))
            .collect()
    }

    #[test]
    fn exporter_emits_one_record_per_event_plus_metadata() {
        let events = [
            ev(0, 0, OpKind::RegisterWrite),
            ev(1, 1, OpKind::SnapshotScan),
        ];
        let text = perfetto_trace_json(events.iter(), 2, &[(0, 2), (1, 1)]);
        // 1 process_name + 2 thread_name + 2 ops + 2 counter samples.
        assert_eq!(check_trace_shape(&text), Ok(7));
        assert_eq!(
            column(&text, "ph"),
            ["M", "M", "M", "X", "X", "C", "C"].map(Json::from)
        );
        assert_eq!(
            column(&text, "name")[3..5],
            ["register_write", "snapshot_scan"].map(Json::from)
        );
        let args = column(&text, "args");
        let count = |i: usize| args[i].get("count").and_then(Json::as_u64);
        assert_eq!((count(5), count(6)), (Some(2), Some(1)));
    }

    #[test]
    fn exporter_is_deterministic() {
        let events = [ev(3, 1, OpKind::MaxWrite)];
        let a = perfetto_trace_json(events.iter(), 2, &[]);
        assert_eq!(a, perfetto_trace_json(events.iter(), 2, &[]));
    }

    #[test]
    fn shape_check_rejects_malformed_traces() {
        // Not JSON, or JSON of the wrong shape — each for its own reason.
        for (bad, reason) in [
            (r#"{"traceEvents": ["#, "expected a value"),
            (r#"{"traceEvents": {}}"#, "traceEvents"),
            (r#"{"traceEvents": [{"ph": "X"}]}"#, "pid"),
            (r#"{"traceEvents": [{"ph": 1, "pid": 0}]}"#, "ph"),
        ] {
            let err = check_trace_shape(bad).unwrap_err();
            assert!(err.contains(reason), "{bad}: {err}");
        }
        // Layout is not the check: a compact trace of the right shape passes.
        let compact = r#"{"traceEvents":[{"ph":"M","pid":0},{"ph":"X","pid":0}]}"#;
        assert_eq!(check_trace_shape(compact), Ok(2));
        // Even an empty export carries the process_name metadata record.
        let empty = perfetto_trace_json([].iter(), 0, &[]);
        assert_eq!(check_trace_shape(&empty), Ok(1));
    }

    #[test]
    fn ring_round_trips_through_exporter() {
        let mut ring = RingSink::new(2);
        for slot in 0..4 {
            ring.push(ev(slot, 0, OpKind::MaxRead));
        }
        // Only the two retained events appear.
        let ts = column(&perfetto_trace_json(ring.events(), 1, &[]), "ts");
        assert_eq!(ts[2..], [2u64, 3].map(Json::from));
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
