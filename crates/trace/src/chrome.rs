//! Chrome `trace_event` JSON exporter (loadable in `chrome://tracing` and
//! Perfetto).

use crate::event::{EventKind, TraceEvent};
use crate::json::push_json_string;
use crate::metrics::TimeSeries;

fn push_common(out: &mut String, name: &str, cat: &str, ph: char, cycle: u64, track: u32) {
    out.push_str("{\"name\":");
    push_json_string(out, name);
    out.push_str(",\"cat\":");
    push_json_string(out, cat);
    out.push_str(",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&cycle.to_string());
    out.push_str(",\"pid\":0,\"tid\":");
    out.push_str(&track.to_string());
}

/// Renders `events` (and, when given, counter samples from `series`) as a
/// Chrome `trace_event` JSON document:
///
/// * spans become `ph:"X"` complete events (`ts` + `dur`) — self-contained,
///   no begin/end pairing to get out of order;
/// * instants become `ph:"i"` with global scope;
/// * every key of every series sample becomes a `ph:"C"` counter event, so
///   Perfetto draws one counter track per metric key.
///
/// All timestamps are simulated core cycles (the `ts` unit Chrome assumes
/// is microseconds — irrelevant here, relative placement is what matters).
/// Output is byte-deterministic: event order is emission order, counter
/// keys are in lexicographic order, and every value is an integer.
pub fn chrome_trace_json(events: &[TraceEvent], series: Option<&TimeSeries>) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for ev in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        match ev.kind {
            EventKind::Span => {
                push_common(&mut out, ev.name, ev.cat, 'X', ev.cycle, ev.track);
                out.push_str(",\"dur\":");
                out.push_str(&ev.dur.to_string());
            }
            EventKind::Instant => {
                push_common(&mut out, ev.name, ev.cat, 'i', ev.cycle, ev.track);
                out.push_str(",\"s\":\"g\"");
            }
            EventKind::Counter => {
                push_common(&mut out, ev.name, ev.cat, 'C', ev.cycle, ev.track);
            }
        }
        let args: Vec<(&str, u64)> = ev.args.iter().filter_map(|a| *a).collect();
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, k);
                out.push(':');
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        out.push('}');
    }
    if let Some(series) = series {
        for s in series.samples() {
            for (k, v) in &s.values {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                push_common(&mut out, k, "metrics", 'C', s.cycle, 0);
                out.push_str(",\"args\":{\"value\":");
                out.push_str(&v.to_string());
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, Sampler};

    #[test]
    fn renders_span_instant_and_counter() {
        let events = [
            TraceEvent::span("ckpt", "ckpt", 1000, 50, 10).with_arg("epoch", 3),
            TraceEvent::instant("fault.inject", "fault", 2, 55),
        ];
        let mut reg = MetricsRegistry::new();
        reg.set("mem.l1d.hits", 9);
        let mut sampler = Sampler::new(10);
        sampler.record(60, &reg);
        let json = chrome_trace_json(&events, Some(sampler.series()));
        assert!(json.contains("\"name\":\"ckpt\",\"cat\":\"ckpt\",\"ph\":\"X\",\"ts\":50"));
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains("\"args\":{\"epoch\":3}"));
        assert!(json.contains("\"ph\":\"i\",\"ts\":55"));
        assert!(json.contains("\"name\":\"mem.l1d.hits\",\"cat\":\"metrics\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":9}"));
    }

    #[test]
    fn renders_counter_events_with_multiple_series() {
        let events = [TraceEvent::counter("ledger.reasons", "profile", 1002, 90)
            .with_arg("omitted_slice", 5)
            .with_arg("logged_no_slice", 2)];
        let json = chrome_trace_json(&events, None);
        assert!(
            json.contains("\"name\":\"ledger.reasons\",\"cat\":\"profile\",\"ph\":\"C\",\"ts\":90")
        );
        assert!(json.contains("\"args\":{\"omitted_slice\":5,\"logged_no_slice\":2}"));
    }

    #[test]
    fn empty_trace_is_valid_shell() {
        let json = chrome_trace_json(&[], None);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let events = [TraceEvent::span("a", "t", 0, 1, 2)];
            let mut reg = MetricsRegistry::new();
            reg.set("z", 1);
            reg.set("a", 2);
            let mut s = Sampler::new(1);
            s.record(1, &reg);
            chrome_trace_json(&events, Some(s.series()))
        };
        assert_eq!(mk(), mk());
    }
}
