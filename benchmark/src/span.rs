//! In-memory spans for the traced run.
//!
//! Every span is recorded from the benchmark's own code, around a call
//! into one layer's public functions; nothing inside the program is
//! instrumented. A span names its layer, the repetition and window it
//! belongs to, its start and end on the process clock, and the span
//! *name* that caused it — the causing span is the one of that name, in
//! the same repetition, that encloses it in time.
//!
//! Per-name totals cover every span recorded; the span list itself is
//! capped (the first [`Tracer::KEEP`] spans of each name are kept) so a
//! traced run's memory and trace file stay bounded whatever the
//! workload size, and every kind of span still appears in the file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `shard.tick`.
    pub name: &'static str,
    /// Repetition index within the run.
    pub rep: u32,
    /// Window (tick, block or decision) index within the repetition.
    pub window: u32,
    /// Start, in nanoseconds on the process clock.
    pub start_ns: u64,
    /// End, in nanoseconds on the process clock.
    pub end_ns: u64,
    /// Name of the enclosing span that caused this one.
    pub parent: Option<&'static str>,
}

/// Sum over every span of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// The name's parent (the same for every span of the name).
    pub parent: Option<&'static str>,
}

/// Collects spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// Spans of one name kept verbatim for the trace file; later ones
    /// still count toward the totals.
    pub const KEEP: u64 = 2_048;

    /// An empty tracer for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Records one finished span.
    ///
    /// # Panics
    ///
    /// Panics if the span ends before it starts or if `name` was
    /// recorded before under another parent — both are bugs in the
    /// benchmark, not measurements.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        rep: u32,
        window: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        let total = self.totals.entry(name).or_insert(Total {
            parent,
            ..Total::default()
        });
        assert_eq!(total.parent, parent, "span {name} changed parent");
        total.count += 1;
        total.total_ns += end_ns - start_ns;
        if total.count <= Self::KEEP {
            self.spans.push(Span {
                name,
                rep,
                window,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    /// Totals of `name` (zero if never recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// A layer's self time: its spans' total duration minus the part of
    /// it their child spans cover. Negative only if children overlap or
    /// escape their parent, which the recording sites never do.
    pub fn self_ns(&self, name: &str) -> i64 {
        let own = self.total(name).total_ns as i64;
        let children: i64 = self
            .totals
            .values()
            .filter(|t| t.parent == Some(name))
            .map(|t| t.total_ns as i64)
            .sum();
        own - children
    }

    /// The kept spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the trace as one JSON document: per-name totals with self
    /// times, then the kept spans.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let recorded: u64 = self.totals.values().map(|t| t.count).sum();
        writeln!(
            out,
            "{{\"workload\": \"{}\", \"spans_recorded\": {recorded}, \"spans_kept\": {},",
            self.workload,
            self.spans.len()
        )?;
        writeln!(out, " \"totals\": {{")?;
        for (i, (name, total)) in self.totals.iter().enumerate() {
            let comma = if i + 1 < self.totals.len() { "," } else { "" };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"parent\": {}}}{comma}",
                total.count,
                total.total_ns,
                self.self_ns(name),
                quoted(total.parent),
            )?;
        }
        writeln!(out, " }},")?;
        writeln!(out, " \"spans\": [")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"workload\": \"{}\", \"rep\": {}, \"window\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}{comma}",
                span.name,
                self.workload,
                span.rep,
                span.window,
                span.start_ns,
                span.end_ns,
                quoted(span.parent),
            )?;
        }
        writeln!(out, " ]}}")?;
        // A dropped BufWriter swallows write errors; surface them.
        out.flush()
    }
}

fn quoted(name: Option<&str>) -> String {
    name.map_or_else(|| "null".to_string(), |n| format!("\"{n}\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> Tracer {
        let mut tracer = Tracer::new("unit");
        // rep [0, 1000) > tick [100, 700) > {alloc [100, 250), run [250, 600)}
        tracer.record("rep", None, 0, 0, 0, 1_000);
        tracer.record("tick", Some("rep"), 0, 0, 100, 700);
        tracer.record("alloc", Some("tick"), 0, 0, 100, 250);
        tracer.record("run", Some("tick"), 0, 0, 250, 600);
        // A second tick with one child only.
        tracer.record("tick", Some("rep"), 0, 1, 700, 900);
        tracer.record("run", Some("tick"), 0, 1, 700, 850);
        tracer
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let tracer = sample();
        assert_eq!(tracer.total("tick").count, 2);
        assert_eq!(tracer.total("tick").total_ns, 800);
        assert_eq!(tracer.self_ns("tick"), 800 - 150 - (350 + 150));
        assert_eq!(tracer.self_ns("rep"), 1_000 - 800);
        assert_eq!(tracer.self_ns("run"), 500, "leaves keep all their time");
        assert_eq!(tracer.self_ns("never"), 0);
        // The account closes: self times along the tree sum to the root.
        let sum: i64 = ["rep", "tick", "alloc", "run"]
            .iter()
            .map(|n| tracer.self_ns(n))
            .sum();
        assert_eq!(sum, 1_000);
    }

    #[test]
    fn totals_outlive_the_kept_span_cap() {
        let mut tracer = Tracer::new("unit");
        for i in 0..(Tracer::KEEP + 10) {
            tracer.record("op", None, 0, i as u32, i, i + 2);
        }
        tracer.record("other", None, 0, 0, 0, 1);
        assert_eq!(
            tracer.spans().len() as u64,
            Tracer::KEEP + 1,
            "the cap is per name"
        );
        assert_eq!(tracer.total("op").count, Tracer::KEEP + 10);
        assert_eq!(tracer.total("op").total_ns, 2 * (Tracer::KEEP + 10));
    }

    #[test]
    fn trace_file_is_valid_json_with_the_span_schema() {
        let tracer = sample();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("span-test-{}.trace.json", std::process::id()));
        tracer.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("spans_recorded").and_then(Json::as_f64), Some(6.0));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 6);
        let keys: Vec<&str> = spans[1]
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["name", "workload", "rep", "window", "start_ns", "end_ns", "parent"]
        );
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        let tick = doc.get("totals").and_then(|t| t.get("tick")).unwrap();
        assert_eq!(tick.get("self_ns").and_then(Json::as_f64), Some(150.0));
    }

    #[test]
    #[should_panic(expected = "changed parent")]
    fn a_name_has_one_parent() {
        let mut tracer = sample();
        tracer.record("run", Some("rep"), 0, 2, 900, 950);
    }
}
