//! Trace export and validation for the simulator's observability layer.
//!
//! The substrate — span recording, the metrics registry, the guard types
//! — lives in [`daosim_kernel::Obs`] so every layer of the stack can
//! instrument itself. This module is the user-facing half: it turns the
//! recorded [`SpanEvent`] stream into artifacts (Chrome trace-event JSON
//! for Perfetto / `chrome://tracing`, flat CSV for scripting), and it
//! checks the structural invariants a well-formed trace must satisfy
//! (every end matches a begin, parents close after their children).
//!
//! Everything here is deterministic: the event stream is keyed on sim
//! time and span ids are handed out in begin order, so two runs with the
//! same seed export byte-identical JSON and CSV.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

pub use daosim_kernel::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Obs, SpanEvent,
    SpanGuard, SpanId,
};

/// One reassembled span: a matched `Begin`/`End` pair (or an unclosed
/// `Begin`, with `end_ns` = `None`).
#[derive(Clone, Debug)]
struct SpanRec {
    id: SpanId,
    parent: Option<SpanId>,
    task: Option<u64>,
    category: &'static str,
    name: String,
    detached: bool,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// A point event: `(t_ns, task, category, name)`.
type InstantRec = (u64, Option<u64>, &'static str, String);

fn assemble(events: &[SpanEvent]) -> (Vec<SpanRec>, Vec<InstantRec>) {
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut index: HashMap<SpanId, usize> = HashMap::new();
    let mut instants = Vec::new();
    for ev in events {
        match ev {
            SpanEvent::Begin {
                id,
                parent,
                task,
                t_ns,
                category,
                name,
                detached,
            } => {
                index.insert(*id, spans.len());
                spans.push(SpanRec {
                    id: *id,
                    parent: *parent,
                    task: *task,
                    category,
                    name: name.clone(),
                    detached: *detached,
                    start_ns: *t_ns,
                    end_ns: None,
                });
            }
            SpanEvent::End { id, t_ns } => {
                if let Some(&i) = index.get(id) {
                    spans[i].end_ns = Some(*t_ns);
                }
            }
            SpanEvent::Instant {
                t_ns,
                task,
                category,
                name,
            } => instants.push((*t_ns, *task, *category, name.clone())),
        }
    }
    (spans, instants)
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → the trace-event `ts` field (microseconds, fractional
/// part kept so distinct sim times never collapse into one tick).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Lane (`tid`) assignment: the setup/event-handler context gets lane 0,
/// executor tasks get lanes in order of first appearance — stable across
/// reruns because the event stream itself is deterministic.
fn lane_map(spans: &[SpanRec], instants: &[InstantRec]) -> Vec<u64> {
    let mut lanes: Vec<u64> = Vec::new();
    let seen = |lanes: &mut Vec<u64>, task: Option<u64>| {
        if let Some(t) = task {
            if !lanes.contains(&t) {
                lanes.push(t);
            }
        }
    };
    for s in spans {
        seen(&mut lanes, s.task);
    }
    for (_, task, _, _) in instants {
        seen(&mut lanes, *task);
    }
    lanes
}

fn tid_of(lanes: &[u64], task: Option<u64>) -> u64 {
    match task {
        None => 0,
        Some(t) => 1 + lanes.iter().position(|&x| x == t).expect("lane") as u64,
    }
}

/// Renders an event stream as Chrome trace-event JSON (the format
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load).
///
/// * stacked spans become complete (`"ph":"X"`) events on their task's
///   lane — the viewer nests them by duration;
/// * detached (leaf) spans with non-zero duration become async
///   `"b"`/`"e"` pairs, which may overlap freely;
/// * zero-duration detached spans (executor polls) and instants become
///   zero-width events so they remain visible without faking extent;
/// * unclosed spans are clamped to the last timestamp in the stream.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let (spans, instants) = assemble(events);
    let max_ns = events
        .iter()
        .map(|e| match e {
            SpanEvent::Begin { t_ns, .. }
            | SpanEvent::End { t_ns, .. }
            | SpanEvent::Instant { t_ns, .. } => *t_ns,
        })
        .max()
        .unwrap_or(0);
    let lanes = lane_map(&spans, &instants);
    let mut rows: Vec<String> = Vec::new();
    rows.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"daosim\"}}"
            .to_string(),
    );
    rows.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"events\"}}"
            .to_string(),
    );
    for (i, t) in lanes.iter().enumerate() {
        rows.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"task {t}\"}}}}",
            i + 1
        ));
    }
    for s in &spans {
        let tid = tid_of(&lanes, s.task);
        let name = json_escape(&s.name);
        let end = s.end_ns.unwrap_or(max_ns);
        let dur = end.saturating_sub(s.start_ns);
        if s.detached && dur > 0 {
            rows.push(format!(
                "{{\"ph\":\"b\",\"pid\":1,\"tid\":{tid},\"cat\":\"{}\",\
                 \"id\":\"{}\",\"name\":\"{name}\",\"ts\":{}}}",
                s.category,
                s.id,
                ts_us(s.start_ns)
            ));
            rows.push(format!(
                "{{\"ph\":\"e\",\"pid\":1,\"tid\":{tid},\"cat\":\"{}\",\
                 \"id\":\"{}\",\"name\":\"{name}\",\"ts\":{}}}",
                s.category,
                s.id,
                ts_us(end)
            ));
        } else {
            rows.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":\"{}\",\
                 \"name\":\"{name}\",\"ts\":{},\"dur\":{}}}",
                s.category,
                ts_us(s.start_ns),
                ts_us(dur)
            ));
        }
    }
    for (t_ns, task, category, name) in &instants {
        rows.push(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"cat\":\"{category}\",\
             \"name\":\"{}\",\"ts\":{},\"s\":\"t\"}}",
            tid_of(&lanes, *task),
            json_escape(name),
            ts_us(*t_ns)
        ));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Renders an event stream as flat CSV, one row per span or instant, in
/// emission order: `kind,id,parent,task,category,name,start_ns,end_ns,dur_ns`.
/// Unclosed spans leave `end_ns`/`dur_ns` empty.
pub fn spans_to_csv(events: &[SpanEvent]) -> String {
    let (spans, _) = assemble(events);
    let by_id: HashMap<SpanId, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let mut s = String::from("kind,id,parent,task,category,name,start_ns,end_ns,dur_ns\n");
    let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
    for ev in events {
        match ev {
            SpanEvent::Begin { id, .. } => {
                let r = by_id[id];
                let (end, dur) = match r.end_ns {
                    Some(e) => (e.to_string(), e.saturating_sub(r.start_ns).to_string()),
                    None => (String::new(), String::new()),
                };
                let _ = writeln!(
                    s,
                    "span,{},{},{},{},{},{},{},{}",
                    r.id,
                    opt(r.parent),
                    opt(r.task),
                    r.category,
                    r.name,
                    r.start_ns,
                    end,
                    dur
                );
            }
            SpanEvent::End { .. } => {}
            SpanEvent::Instant {
                t_ns,
                task,
                category,
                name,
            } => {
                let _ = writeln!(
                    s,
                    "instant,,,{},{},{},{},{},0",
                    opt(*task),
                    category,
                    name,
                    t_ns,
                    t_ns
                );
            }
        }
    }
    s
}

/// Structural summary of a validated trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Matched (closed) spans.
    pub spans: usize,
    /// Spans begun but never ended (e.g. stranded by a killed run).
    pub unclosed: usize,
    pub instants: usize,
    /// Distinct span/instant categories, sorted.
    pub categories: Vec<String>,
}

/// Checks the invariants of a span stream and summarises it:
///
/// * timestamps are non-decreasing in emission order;
/// * every `End` matches exactly one earlier `Begin` (no stray or double
///   ends);
/// * a span's parent must still be open when the span begins, and a span
///   may not end while it has open children (parents close after
///   children).
///
/// Unclosed spans at the end of the stream are counted, not rejected —
/// callers that require a fully balanced trace assert `unclosed == 0`.
pub fn validate_spans(events: &[SpanEvent]) -> Result<TraceSummary, String> {
    // id -> (parent, open child count)
    let mut open: HashMap<SpanId, (Option<SpanId>, usize)> = HashMap::new();
    let mut closed: std::collections::HashSet<SpanId> = std::collections::HashSet::new();
    let mut categories: BTreeSet<String> = BTreeSet::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut last_t = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let t = match ev {
            SpanEvent::Begin { t_ns, .. }
            | SpanEvent::End { t_ns, .. }
            | SpanEvent::Instant { t_ns, .. } => *t_ns,
        };
        if t < last_t {
            return Err(format!(
                "event {i}: timestamp {t} before predecessor {last_t}"
            ));
        }
        last_t = t;
        match ev {
            SpanEvent::Begin {
                id,
                parent,
                category,
                ..
            } => {
                categories.insert(category.to_string());
                if let Some(p) = parent {
                    match open.get_mut(p) {
                        Some(slot) => slot.1 += 1,
                        None => {
                            return Err(format!(
                                "event {i}: span {id} begins under parent {p} which is not open"
                            ))
                        }
                    }
                }
                open.insert(*id, (*parent, 0));
            }
            SpanEvent::End { id, .. } => match open.remove(id) {
                Some((parent, open_children)) => {
                    if open_children > 0 {
                        return Err(format!(
                            "event {i}: span {id} ends with {open_children} open child(ren)"
                        ));
                    }
                    if let Some(p) = parent {
                        if let Some(slot) = open.get_mut(&p) {
                            slot.1 -= 1;
                        }
                    }
                    closed.insert(*id);
                    spans += 1;
                }
                None => {
                    return Err(if closed.contains(id) {
                        format!("event {i}: span {id} ended twice")
                    } else {
                        format!("event {i}: end of span {id} which never began")
                    });
                }
            },
            SpanEvent::Instant { category, .. } => {
                categories.insert(category.to_string());
                instants += 1;
            }
        }
    }
    Ok(TraceSummary {
        spans,
        unclosed: open.len(),
        instants,
        categories: categories.into_iter().collect(),
    })
}

/// Writes a recorded span stream to `path` as Chrome trace-event JSON,
/// the one export path behind `xp --trace-out` and `daosctl trace`. The
/// stream must validate and close every span, and the rendered JSON
/// must be well-formed; otherwise nothing is written and the error is
/// `InvalidData`. Returns the stream's summary.
pub fn write_chrome_trace(
    events: &[SpanEvent],
    path: &std::path::Path,
) -> std::io::Result<TraceSummary> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let summary =
        validate_spans(events).map_err(|e| bad(format!("recorded trace is malformed: {e}")))?;
    if summary.unclosed > 0 {
        return Err(bad(format!(
            "recorded trace left {} span(s) unclosed",
            summary.unclosed
        )));
    }
    let json = chrome_trace_json(events);
    if !json_is_wellformed(&json) {
        return Err(bad("exported trace JSON is malformed".into()));
    }
    std::fs::write(path, json)?;
    Ok(summary)
}

/// Minimal recursive-descent JSON well-formedness check, used by the
/// trace smoke tests so export validation does not depend on an external
/// JSON crate.
pub fn json_is_wellformed(text: &str) -> bool {
    let b = text.as_bytes();
    let mut pos = 0usize;
    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }
    fn value(b: &[u8], pos: &mut usize, depth: usize) -> bool {
        if depth > 256 {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return true;
                }
                loop {
                    skip_ws(b, pos);
                    if !string(b, pos) {
                        return false;
                    }
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return false;
                    }
                    *pos += 1;
                    if !value(b, pos, depth + 1) {
                        return false;
                    }
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return true;
                }
                loop {
                    if !value(b, pos, depth + 1) {
                        return false;
                    }
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, b"true"),
            Some(b'f') => literal(b, pos, b"false"),
            Some(b'n') => literal(b, pos, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            _ => false,
        }
    }
    fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
        if b[*pos..].starts_with(lit) {
            *pos += lit.len();
            true
        } else {
            false
        }
    }
    fn string(b: &[u8], pos: &mut usize) -> bool {
        if b.get(*pos) != Some(&b'"') {
            return false;
        }
        *pos += 1;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return true;
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            if b.len() < *pos + 5
                                || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return false;
                            }
                            *pos += 5;
                        }
                        _ => return false,
                    }
                }
                0x00..=0x1f => return false,
                _ => *pos += 1,
            }
        }
        false
    }
    fn number(b: &[u8], pos: &mut usize) -> bool {
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits_from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == digits_from {
            return false;
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
                return false;
            }
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
                return false;
            }
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        }
        true
    }
    if !value(b, &mut pos, 0) {
        return false;
    }
    skip_ws(b, &mut pos);
    pos == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(id: u64, parent: Option<u64>, t: u64, detached: bool) -> SpanEvent {
        SpanEvent::Begin {
            id,
            parent,
            task: Some(1),
            t_ns: t,
            category: "test",
            name: format!("s{id}"),
            detached,
        }
    }

    fn end(id: u64, t: u64) -> SpanEvent {
        SpanEvent::End { id, t_ns: t }
    }

    #[test]
    fn validate_accepts_nested_spans() {
        let ev = vec![
            begin(0, None, 0, false),
            begin(1, Some(0), 5, false),
            end(1, 9),
            end(0, 10),
        ];
        let s = validate_spans(&ev).unwrap();
        assert_eq!((s.spans, s.unclosed, s.instants), (2, 0, 0));
        assert_eq!(s.categories, ["test"]);
    }

    #[test]
    fn validate_rejects_parent_closing_before_child() {
        let ev = vec![
            begin(0, None, 0, false),
            begin(1, Some(0), 5, false),
            end(0, 9),
            end(1, 10),
        ];
        let err = validate_spans(&ev).unwrap_err();
        assert!(err.contains("open child"), "{err}");
    }

    #[test]
    fn validate_rejects_stray_and_double_ends() {
        let err = validate_spans(&[end(7, 1)]).unwrap_err();
        assert!(err.contains("never began"), "{err}");
        let ev = vec![begin(0, None, 0, false), end(0, 1), end(0, 2)];
        let err = validate_spans(&ev).unwrap_err();
        assert!(err.contains("ended twice"), "{err}");
    }

    #[test]
    fn validate_rejects_time_travel() {
        let ev = vec![begin(0, None, 10, false), end(0, 5)];
        let err = validate_spans(&ev).unwrap_err();
        assert!(err.contains("before predecessor"), "{err}");
    }

    #[test]
    fn validate_counts_unclosed_spans() {
        let ev = vec![begin(0, None, 0, false), begin(1, Some(0), 1, true)];
        let s = validate_spans(&ev).unwrap();
        assert_eq!((s.spans, s.unclosed), (0, 2));
    }

    #[test]
    fn written_trace_must_close_every_span() {
        let path = std::env::temp_dir().join(format!("obs-trace-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let open = vec![begin(0, None, 0, false)];
        let err = write_chrome_trace(&open, &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!path.exists(), "a rejected trace must not be written");
        let closed = vec![begin(0, None, 0, false), end(0, 1)];
        let summary = write_chrome_trace(&closed, &path).unwrap();
        assert_eq!(summary.spans, 1);
        assert!(json_is_wellformed(&std::fs::read_to_string(&path).unwrap()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chrome_export_is_wellformed_and_balanced() {
        let ev = vec![
            begin(0, None, 0, false),
            begin(1, Some(0), 1_500, true),
            SpanEvent::Instant {
                t_ns: 2_000,
                task: None,
                category: "fault",
                name: "kill \"e0\"".into(),
            },
            end(1, 3_000),
            end(0, 4_000),
        ];
        let json = chrome_trace_json(&ev);
        assert!(json_is_wellformed(&json), "not well-formed:\n{json}");
        // The detached span with duration renders as an async pair.
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // 1500 ns = 1.500 µs.
        assert!(json.contains("\"ts\":1.500"));
        // The quote in the instant name is escaped.
        assert!(json.contains("kill \\\"e0\\\""));
    }

    #[test]
    fn zero_duration_detached_span_renders_as_complete_event() {
        let ev = vec![begin(0, None, 10, true), end(0, 10)];
        let json = chrome_trace_json(&ev);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(!json.contains("\"ph\":\"b\""));
    }

    #[test]
    fn csv_dump_rows_in_emission_order() {
        let ev = vec![
            begin(0, None, 0, false),
            begin(1, Some(0), 5, false),
            end(1, 9),
            SpanEvent::Instant {
                t_ns: 9,
                task: None,
                category: "fault",
                name: "kill e0".into(),
            },
            end(0, 10),
        ];
        let csv = spans_to_csv(&ev);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "kind,id,parent,task,category,name,start_ns,end_ns,dur_ns"
        );
        assert_eq!(lines[1], "span,0,,1,test,s0,0,10,10");
        assert_eq!(lines[2], "span,1,0,1,test,s1,5,9,4");
        assert_eq!(lines[3], "instant,,,,fault,kill e0,9,9,0");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert!(json_is_wellformed("{}"));
        assert!(json_is_wellformed(r#"{"a":[1,2.5,-3e2,"x\n",true,null]}"#));
        assert!(json_is_wellformed("[[],{},\"\"]"));
        assert!(!json_is_wellformed("{"));
        assert!(!json_is_wellformed("{\"a\":}"));
        assert!(!json_is_wellformed("[1,]"));
        assert!(!json_is_wellformed("\"unterminated"));
        assert!(!json_is_wellformed("{} extra"));
        assert!(!json_is_wellformed("01abc"));
    }
}
