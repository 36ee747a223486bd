//! The benchmark's own spans: one around each call it makes into a layer
//! during the traced pass, on the same clock as the engine's `TraceSink`
//! so both land on one timeline in `trace_<workload>.json`.
//!
//! Spans are recorded only in the traced pass; the timed passes never
//! touch this module.

use crate::stats::json_string;
use ocelot_engine::TraceSink;
use std::cell::RefCell;
use std::sync::Arc;

/// One recorded span. `parent` is the span that caused it (its index), and
/// `request` groups the spans of one benchmark operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder (single-threaded: the benchmark driver is one
/// thread), written out when the run ends.
pub struct Spans {
    sink: Arc<TraceSink>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: RefCell<u64>,
}

impl Spans {
    pub fn new(sink: Arc<TraceSink>) -> Spans {
        Spans {
            sink,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: RefCell::new(0),
        }
    }

    /// The engine-side sink sharing this recorder's clock.
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Runs `f` inside a span of `layer`. A span opened while no other is
    /// open starts a new request.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        if parent.is_none() {
            *self.request.borrow_mut() += 1;
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name: name.to_string(),
                start_ns: self.sink.now_ns(),
                end_ns: 0,
                parent,
                request: *self.request.borrow(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let value = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.sink.now_ns();
        value
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per layer: `(layer, spans, total ns, self ns)` where self time is a
    /// span's duration minus the part its direct children cover.
    pub fn by_layer(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (index, span) in spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let own = total.saturating_sub(child_ns[index]);
            match layers.iter_mut().find(|l| l.0 == span.layer) {
                Some(layer) => {
                    layer.1 += 1;
                    layer.2 += total;
                    layer.3 += own;
                }
                None => layers.push((span.layer, 1, total, own)),
            }
        }
        layers
    }

    /// Chrome trace-event JSON: the benchmark's spans (process row 1000,
    /// so they sit apart from tenant rows) followed by the sink's events.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (index, span) in self.spans.borrow().iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1000,\"tid\":0,\
                 \"args\":{{\"span\":{index},\"parent\":{},\"request\":{}}}}}",
                json_string(&span.name),
                json_string(span.layer),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.request,
            ));
        }
        let engine = self.sink.to_chrome_trace();
        let engine = engine.trim_start_matches('[').trim_end_matches(']');
        if !engine.is_empty() {
            if self.len() > 0 {
                out.push(',');
            }
            out.push_str(engine);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Json;

    #[test]
    fn nested_spans_carry_parent_request_and_self_time() {
        let spans = Spans::new(Arc::new(TraceSink::new()));
        spans.span("outer", "a \"quoted\" op", || {
            spans
                .span("inner", "child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        spans.span("outer", "b", || ());
        let recorded = spans.spans.borrow().clone();
        assert_eq!(recorded.len(), 3);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[0].request, recorded[1].request);
        assert_ne!(recorded[0].request, recorded[2].request);
        assert!(recorded[1].end_ns - recorded[1].start_ns >= 2_000_000);

        let layers = spans.by_layer();
        let outer = layers.iter().find(|l| l.0 == "outer").unwrap();
        let inner = layers.iter().find(|l| l.0 == "inner").unwrap();
        assert_eq!((outer.1, inner.1), (2, 1));
        // The outer span's self time excludes its child.
        assert!(outer.3 <= outer.2 - inner.2);

        let json = Json::parse(&spans.to_chrome_trace()).expect("trace file is valid JSON");
        assert_eq!(json.as_array().len(), 3);
    }
}
