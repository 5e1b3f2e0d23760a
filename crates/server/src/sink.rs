//! The JSON-lines access log and the shared trace → JSON encoding the
//! log and `GET /v1/debug/traces` both use, so one trace renders
//! identically wherever it surfaces.

use dod_core::trace::Trace;
use dod_wire::JsonValue;
use std::io::Write;
use std::sync::Mutex;

/// One completed trace as its wire object:
///
/// ```json
/// {"request_id": "…", "route": "/v1/engines/{name}/query", "status": 200,
///  "duration_ns": 1234567,
///  "spans": [{"name": "filter", "start_ns": 120, "duration_ns": 900,
///             "fields": {"candidates": 12}}, …]}
/// ```
///
/// A span without fields has no `fields` key.
pub(crate) fn trace_json(t: &Trace) -> JsonValue {
    let spans: Vec<JsonValue> = t
        .spans
        .iter()
        .map(|s| {
            let mut fields: Vec<(String, JsonValue)> = vec![
                ("name".to_string(), JsonValue::from(s.name)),
                ("start_ns".to_string(), JsonValue::from(s.start_nanos)),
                ("duration_ns".to_string(), JsonValue::from(s.duration_nanos)),
            ];
            if !s.fields.is_empty() {
                let kv: Vec<(String, JsonValue)> = s
                    .fields
                    .iter()
                    .map(|&(k, v)| (k.to_string(), JsonValue::from(v)))
                    .collect();
                fields.push(("fields".to_string(), JsonValue::Obj(kv)));
            }
            JsonValue::Obj(fields)
        })
        .collect();
    JsonValue::obj([
        ("request_id", JsonValue::from(t.request_id.as_str())),
        ("route", JsonValue::from(t.route)),
        ("status", JsonValue::from(u64::from(t.status))),
        ("duration_ns", JsonValue::from(t.duration_nanos)),
        ("spans", JsonValue::Arr(spans)),
    ])
}

/// The JSON-lines access log: one [`trace_json`] line per completed
/// request, flushed per line so a tail reader (or a crashed process's
/// last log) sees whole lines. The writer sits behind a mutex — requests
/// contend only at line granularity, and the serialization itself
/// happens before the lock.
pub(crate) struct AccessLog {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl AccessLog {
    pub(crate) fn new(writer: Box<dyn Write + Send>) -> Self {
        AccessLog {
            writer: Mutex::new(writer),
        }
    }

    /// Writes `trace` as one line.
    pub(crate) fn record(&self, trace: &Trace) {
        let line = trace_json(trace).render();
        let mut guard = match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // A full disk (or closed pipe) must not take the serving path
        // down: logging failures are dropped, not propagated.
        let _ = writeln!(guard, "{line}");
        let _ = guard.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::trace::TraceContext;
    use std::sync::Arc;

    #[test]
    fn trace_json_round_trips_through_the_wire_parser() {
        let mut ctx = TraceContext::new("req-1");
        let span = ctx.child("engine").with_field("queries", 2);
        span.finish(&mut ctx);
        ctx.record(
            "filter",
            std::time::Duration::from_micros(5),
            vec![("candidates", 7), ("dist_evals", 4_689)],
        );
        let trace = ctx.finish("/v1/engines/{name}/query", 200);
        let rendered = trace_json(&trace).render();
        let doc = dod_wire::parse_json(&rendered).expect("valid json");
        assert_eq!(
            doc.get("request_id").and_then(JsonValue::as_str),
            Some("req-1")
        );
        assert_eq!(
            doc.get("route").and_then(JsonValue::as_str),
            Some("/v1/engines/{name}/query")
        );
        assert_eq!(doc.get("status").and_then(JsonValue::as_usize), Some(200));
        let spans = doc.get("spans").and_then(JsonValue::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        let filter = &spans[1];
        assert_eq!(
            filter.get("name").and_then(JsonValue::as_str),
            Some("filter")
        );
        assert_eq!(
            filter.get("duration_ns").and_then(JsonValue::as_usize),
            Some(5_000)
        );
        let fields = filter.get("fields").expect("fields");
        assert_eq!(
            fields.get("candidates").and_then(JsonValue::as_usize),
            Some(7)
        );
        assert_eq!(
            fields.get("dist_evals").and_then(JsonValue::as_usize),
            Some(4_689)
        );
    }

    #[test]
    fn access_log_writes_one_parsable_line_per_trace() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log = AccessLog::new(Box::new(Shared(Arc::clone(&buf))));
        for i in 0..3u16 {
            let ctx = TraceContext::new(format!("r{i}"));
            log.record(&ctx.finish("/healthz", 200 + i));
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let doc = dod_wire::parse_json(line).expect("each line parses");
            assert_eq!(
                doc.get("request_id").and_then(JsonValue::as_str),
                Some(format!("r{i}").as_str())
            );
        }
    }
}
