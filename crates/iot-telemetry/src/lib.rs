//! # iot-telemetry — zero-dependency observability for CausalIoT
//!
//! The fit/monitor pipeline is instrumented through a single cheap,
//! cloneable [`TelemetryHandle`]:
//!
//! * **Metrics** — a [`MetricsRegistry`] of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s. Hot-path updates are
//!   lock-free; a disabled handle reduces every update to one branch.
//! * **Spans** — scoped wall-clock timers ([`TelemetryHandle::span`])
//!   feeding a pluggable [`Sink`]: no-op, in-memory summary, or JSONL.
//! * **Reports** — serialisable [`FitReport`] / [`MonitorReport`] structs
//!   with a hand-rolled JSON writer ([`json::JsonValue`]); no serde.
//!
//! ## Selecting a sink
//!
//! [`TelemetryHandle::from_env`] reads `CAUSALIOT_TELEMETRY`:
//!
//! | value            | behaviour                                        |
//! |------------------|--------------------------------------------------|
//! | unset / `off`    | disabled handle — near-zero overhead             |
//! | `metrics`        | live metrics, spans discarded ([`NoopSink`])     |
//! | `summary`        | live metrics + in-memory span aggregation        |
//! | `jsonl[:path]`   | live metrics + JSONL span/event log (default path `telemetry.jsonl`) |
//! | `chrome[:path]`  | live metrics + Chrome `trace_event` JSON for `chrome://tracing` / Perfetto (default path `trace.json`) |
//!
//! Live introspection rides on the same handle: [`render_prometheus`]
//! turns a [`TelemetryHandle::metrics_snapshot`] into the Prometheus text
//! format, [`MetricsServer`] serves it over HTTP for scrapers, and
//! [`FlightRecorder`] is the bounded evidence ring the serving hub keeps
//! per home.
//!
//! ```
//! use iot_telemetry::{Buckets, TelemetryHandle};
//!
//! let telemetry = TelemetryHandle::with_summary_sink();
//! let events = telemetry.counter("monitor.events");
//! let latency = telemetry.histogram("monitor.observe_latency_us",
//!     Buckets::exponential(1.0, 2.0, 20));
//! {
//!     let _span = telemetry.span("mining.total");
//!     events.inc();
//!     latency.observe(42.0);
//! }
//! assert_eq!(events.get(), 1);
//! assert!(telemetry.sink_summary().unwrap().contains("mining.total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exporter;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sink;

pub use exporter::{render_prometheus, MetricsServer};
pub use metrics::{
    Buckets, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry,
};
pub use recorder::FlightRecorder;
pub use report::{
    DistributionSummary, FitReport, MiningStats, MonitorReport, PreprocessStats, StageTimings,
};
pub use sink::{ChromeTraceSink, JsonlSink, MemorySink, NoopSink, Sink};

use std::sync::Arc;
use std::time::Instant;

/// The environment variable selecting the telemetry sink.
pub const TELEMETRY_ENV: &str = "CAUSALIOT_TELEMETRY";

#[derive(Debug)]
struct Inner {
    registry: MetricsRegistry,
    sink: Box<dyn Sink>,
}

/// A cheap, cloneable handle to a metrics registry and a span sink.
///
/// A *disabled* handle (the default) carries no allocation at all; every
/// metric it hands out is a no-op and spans cost one `Option` check — so
/// the pipeline can be instrumented unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Inner>>,
}

impl TelemetryHandle {
    /// The no-op handle.
    pub fn disabled() -> Self {
        TelemetryHandle { inner: None }
    }

    /// A live handle with the given sink.
    pub fn new(sink: Box<dyn Sink>) -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                sink,
            })),
        }
    }

    /// A live handle that discards spans (metrics only).
    pub fn with_noop_sink() -> Self {
        Self::new(Box::new(NoopSink))
    }

    /// A live handle aggregating spans in memory (see
    /// [`TelemetryHandle::sink_summary`]).
    pub fn with_summary_sink() -> Self {
        Self::new(Box::new(MemorySink::new()))
    }

    /// A live handle writing spans/events as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn with_jsonl_sink(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(JsonlSink::create(path)?)))
    }

    /// A live handle writing spans/events as Chrome `trace_event` JSON to
    /// `path` (open it in `chrome://tracing` or Perfetto).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn with_chrome_sink(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(ChromeTraceSink::create(path)?)))
    }

    /// Builds a handle from `CAUSALIOT_TELEMETRY` (see the crate docs for
    /// the accepted values). Unknown values fall back to `summary` so a
    /// typo degrades to *more* observability, never silently less.
    pub fn from_env() -> Self {
        match std::env::var(TELEMETRY_ENV) {
            Err(_) => Self::disabled(),
            Ok(value) => {
                let value = value.trim();
                if value.is_empty() || value.eq_ignore_ascii_case("off") {
                    Self::disabled()
                } else if value.eq_ignore_ascii_case("metrics") {
                    Self::with_noop_sink()
                } else if let Some(path) = value.strip_prefix("jsonl:") {
                    Self::with_jsonl_sink(path).unwrap_or_else(|_| Self::with_summary_sink())
                } else if value.eq_ignore_ascii_case("jsonl") {
                    Self::with_jsonl_sink("telemetry.jsonl")
                        .unwrap_or_else(|_| Self::with_summary_sink())
                } else if let Some(path) = value.strip_prefix("chrome:") {
                    Self::with_chrome_sink(path).unwrap_or_else(|_| Self::with_summary_sink())
                } else if value.eq_ignore_ascii_case("chrome") {
                    Self::with_chrome_sink("trace.json")
                        .unwrap_or_else(|_| Self::with_summary_sink())
                } else {
                    Self::with_summary_sink()
                }
            }
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether both handles report to the same registry and sink: any two
    /// disabled handles do, and a live handle only with its own clones.
    pub fn same_sink(&self, other: &TelemetryHandle) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The counter `name` (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::disabled(),
        }
    }

    /// The gauge `name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::disabled(),
        }
    }

    /// The histogram `name` (no-op when disabled).
    pub fn histogram(&self, name: &str, buckets: Buckets) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, buckets),
            None => Histogram::disabled(),
        }
    }

    /// Opens a scoped wall-clock timer; the span is reported to the sink
    /// when the guard drops (or on [`Span::finish`]).
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            inner: self.inner.as_ref().map(|inner| SpanInner {
                handle: Arc::clone(inner),
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Reports a discrete event with numeric fields to the sink.
    pub fn event(&self, name: &str, fields: &[(&str, f64)]) {
        if let Some(inner) = &self.inner {
            inner.sink.record_event(name, fields);
        }
    }

    /// Snapshots every registered metric (empty when disabled).
    pub fn metrics_snapshot(&self) -> std::collections::BTreeMap<String, MetricValue> {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Default::default(),
        }
    }

    /// The sink's end-of-run summary, if it keeps one.
    pub fn sink_summary(&self) -> Option<String> {
        self.inner.as_ref().and_then(|inner| inner.sink.summary())
    }

    /// Flushes the sink's buffered output.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

struct SpanInner {
    handle: Arc<Inner>,
    name: &'static str,
    start: Instant,
}

/// A scoped wall-clock timer; reports its duration on drop.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Opens a span on `handle` — sugar for [`TelemetryHandle::span`]
    /// matching the `Span::enter("mining.pc.level", ..)` idiom.
    pub fn enter(name: &'static str, handle: &TelemetryHandle) -> Span {
        handle.span(name)
    }

    /// Ends the span now, returning the elapsed time in seconds.
    pub fn finish(mut self) -> f64 {
        match self.inner.take() {
            None => 0.0,
            Some(inner) => {
                let elapsed = inner.start.elapsed();
                inner
                    .handle
                    .sink
                    .record_span_interval(inner.name, inner.start, elapsed);
                elapsed.as_secs_f64()
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner
                .handle
                .sink
                .record_span_interval(inner.name, inner.start, inner.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TelemetryHandle::disabled();
        assert!(!t.enabled());
        let c = t.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let _span = t.span("nothing");
        assert!(t.sink_summary().is_none());
        assert!(t.metrics_snapshot().is_empty());
    }

    #[test]
    fn live_handle_shares_one_registry() {
        let t = TelemetryHandle::with_noop_sink();
        let a = t.counter("shared");
        let b = t.clone().counter("shared");
        a.inc();
        b.inc();
        assert_eq!(t.counter("shared").get(), 2);
        assert!(matches!(
            t.metrics_snapshot().get("shared"),
            Some(MetricValue::Counter(2))
        ));
    }

    #[test]
    fn spans_reach_the_memory_sink() {
        let t = TelemetryHandle::with_summary_sink();
        {
            let _span = Span::enter("stage.one", &t);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let elapsed = t.span("stage.two").finish();
        assert!(elapsed >= 0.0);
        let summary = t.sink_summary().unwrap();
        assert!(summary.contains("stage.one"), "{summary}");
        assert!(summary.contains("stage.two"), "{summary}");
    }

    #[test]
    fn from_env_without_variable_is_disabled() {
        // The test harness never sets the variable for this process.
        if std::env::var(TELEMETRY_ENV).is_err() {
            assert!(!TelemetryHandle::from_env().enabled());
        }
    }
}
