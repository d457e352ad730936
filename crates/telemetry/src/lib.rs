//! Zero-dependency observability for ZugChain.
//!
//! Two halves, both hand-rolled because the build environment is offline
//! (no `prometheus`, no `tracing` — the `shims/` discipline):
//!
//! * a **metrics registry** ([`Registry`]) of atomic counters, gauges and
//!   log2-bucket histograms, namespaced per node, with a consistent
//!   [`Registry::snapshot`] API and Prometheus-text-format exposition
//!   ([`Registry::render_prometheus`]) plus a round-trip parser
//!   ([`parse_prometheus`]) so tests can verify every emitted line;
//! * one **event model**: every handle owns a fixed-capacity ring of
//!   structured [`Event`]s — messages, effects, timers, protocol
//!   milestones and causal [`Span`]s alike — timestamped from a
//!   runtime-driven clock (virtual time under the simulator, wall-clock
//!   milliseconds on the threaded/TCP runtimes), dumpable to JSONL on
//!   demand and parseable back ([`parse_jsonl`]) for post-mortems. A
//!   [`TraceStore`] joins spans across nodes by scanning those rings.
//!
//! The per-node entry point is [`Telemetry`]: a cheap, cloneable handle
//! that is either *enabled* (backed by a shared registry and a private
//! ring) or *disabled* (a `None` — every operation is a single branch,
//! so instrumented hot paths stay free when observability is off).
//! Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) follow the
//! same scheme and are meant to be resolved once and cached in the
//! instrumented struct, not looked up per event. Every JSON line the
//! workspace writes goes through the one codec in [`json`].
//!
//! Naming convention: `zugchain_<crate>_<name>` with a `node="<id>"`
//! label added by [`Telemetry`] (DESIGN.md §12 has the full vocabulary).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod metrics;
mod recorder;
mod span;

pub use json::{parse_flat_object, JsonObject, JsonValue};
pub use metrics::{
    bucket_index, bucket_upper_bound, parse_prometheus, Counter, Gauge, Histogram,
    HistogramSnapshot, ParsedSample, Registry, Sample, SampleValue, HISTOGRAM_BUCKETS,
};
pub use recorder::{parse_jsonl, Event, ParsedRecord};
pub use span::{check_chain, ChainCheck, Span, Stage, TraceStore, STAGES};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use recorder::Ring;

/// Default ring capacity (events retained per handle).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// A per-node observability handle: clock, event ring, and a view onto
/// the shared metrics registry with the node label pre-applied.
///
/// Cloning is cheap (an `Arc` bump); a [`Telemetry::disabled`] handle
/// (also the `Default`) makes every operation a no-op behind one branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

struct TelemetryInner {
    node: u64,
    node_label: String,
    /// Fleet dimension: when set, every metric resolved through this
    /// handle carries `train="<id>"` next to `node="<id>"`.
    train_label: Option<String>,
    /// Numeric form of `train_label` (0 for the default train) — the
    /// value trace-id derivation hashes, so every layer agrees.
    train_id: u64,
    trace_capacity: usize,
    /// Milliseconds on the runtime's clock: virtual time in the
    /// simulator and chaos executor, elapsed wall-clock on the threaded
    /// and TCP runtimes. Advanced monotonically via `fetch_max`. Shared
    /// (`Arc`) with handles derived via [`Telemetry::for_train`], so the
    /// runtime only has to drive the parent handle's clock.
    now_ms: Arc<AtomicU64>,
    /// The handle's one event ring, behind its one lock; shared with
    /// the trace store (when wired), which reads it.
    ring: Arc<Mutex<Ring>>,
    /// The cluster-wide view this handle's ring is attached to; handles
    /// derived with [`Telemetry::for_train`] attach theirs to it too.
    trace_store: Option<Arc<TraceStore>>,
    /// `zugchain_stage_latency_ms{stage=...}` handles, indexed by
    /// [`Stage::order`] and resolved with the handle, so no span, the
    /// first included, takes the registry lock.
    stage_latency: Vec<Histogram>,
    registry: Arc<Registry>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => write!(f, "Telemetry(node={})", inner.node),
        }
    }
}

impl Telemetry {
    /// A handle that ignores everything. Instrumented code can hold one
    /// unconditionally; the cost of an event is a single `None` check.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle for `node`, publishing metrics into `registry`
    /// and recording into a private ring of `trace_capacity` events.
    pub fn new(node: u64, registry: Arc<Registry>, trace_capacity: usize) -> Self {
        Self::new_with_store(node, registry, trace_capacity, None)
    }

    /// Like [`Telemetry::new`], with the handle's ring attached to a
    /// cluster-wide [`TraceStore`], which joins its spans with those of
    /// every other handle attached to it.
    pub fn new_with_store(
        node: u64,
        registry: Arc<Registry>,
        trace_capacity: usize,
        store: Option<Arc<TraceStore>>,
    ) -> Self {
        let inner = TelemetryInner::new(
            node,
            None,
            trace_capacity,
            Arc::new(AtomicU64::new(0)),
            store,
            registry,
        );
        Self {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Derives a handle namespaced under a train of the fleet: metrics
    /// it resolves carry a `train="<id>"` label in addition to the
    /// `node="<id>"` label. The derived handle shares the registry and
    /// trace store **and the runtime clock** but owns a fresh ring,
    /// attached to the same store. Deriving from a disabled handle
    /// stays disabled.
    pub fn for_train(&self, train: u64) -> Telemetry {
        match &self.inner {
            None => Telemetry::disabled(),
            Some(inner) => Telemetry {
                inner: Some(Arc::new(TelemetryInner::new(
                    inner.node,
                    Some(train),
                    inner.trace_capacity,
                    Arc::clone(&inner.now_ms),
                    inner.trace_store.clone(),
                    Arc::clone(&inner.registry),
                ))),
            },
        }
    }

    /// The train id this handle is namespaced under, if any.
    pub fn train(&self) -> Option<&str> {
        self.inner.as_ref()?.train_label.as_deref()
    }

    /// Numeric train id (0 when disabled or on the default train) —
    /// what trace-id derivation hashes.
    pub fn train_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.train_id)
    }

    /// Whether this handle actually records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The node id this handle is namespaced under, if enabled.
    pub fn node(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.node)
    }

    /// Advances the trace clock to `t` milliseconds (monotonic: earlier
    /// values are ignored, so out-of-order threads cannot rewind time).
    pub fn set_time_ms(&self, t: u64) {
        if let Some(inner) = &self.inner {
            inner.now_ms.fetch_max(t, Ordering::Relaxed);
        }
    }

    /// Current trace-clock reading in milliseconds.
    pub fn now_ms(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.now_ms.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records one event (a [`Span`] converts into [`Event::Span`]) into
    /// this handle's ring, timestamped from the trace clock. A span also
    /// lands in the `zugchain_stage_latency_ms{stage=...}` histogram
    /// family. The closure only runs when enabled, so a disabled handle
    /// pays one branch and never constructs the event.
    pub fn record<E: Into<Event>>(&self, event: impl FnOnce() -> E) {
        let Some(inner) = &self.inner else { return };
        let event = event().into();
        if let Event::Span(span) = &event {
            inner.stage_latency[span.stage.order()].observe(span.latency_ms());
        }
        let t = inner.now_ms.load(Ordering::Relaxed);
        inner.ring.lock().expect("ring poisoned").push(t, event);
    }

    /// Resolves (registering on first use) a counter named `name` with
    /// this node's label. Cache the returned handle.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Like [`Telemetry::counter`] with extra labels (e.g.
    /// `type="preprepare"`).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name, &inner.with_node_label(labels)),
            None => Counter::disabled(),
        }
    }

    /// Resolves (registering on first use) a gauge named `name` with
    /// this node's label.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name, &inner.with_node_label(&[])),
            None => Gauge::disabled(),
        }
    }

    /// Resolves (registering on first use) a log2-bucket histogram named
    /// `name` with this node's label.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, &inner.with_node_label(&[])),
            None => Histogram::disabled(),
        }
    }

    /// The shared registry behind this handle, if enabled.
    pub fn registry(&self) -> Option<Arc<Registry>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.registry))
    }

    /// Dumps the ring as JSONL, oldest event first. Empty string when
    /// disabled.
    pub fn dump_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => inner.ring.lock().expect("ring poisoned").dump_jsonl(),
            None => String::new(),
        }
    }

    /// Registers this handle with a process-wide panic hook that dumps
    /// every registered (and still live) ring to stderr as JSONL before
    /// the previous hook runs — so a crashing node thread leaves its
    /// last events behind instead of taking them down with the process.
    /// Registration holds only a weak reference; dropped handles are
    /// pruned and never dumped. No-op when disabled.
    pub fn dump_on_panic(&self) {
        let Some(inner) = &self.inner else { return };
        let traces = panic_traces();
        let mut traces = traces.lock().expect("panic-dump registry poisoned");
        traces.retain(|weak| weak.strong_count() > 0);
        traces.push(Arc::downgrade(inner));
    }
}

static PANIC_TRACES: OnceLock<Mutex<Vec<Weak<TelemetryInner>>>> = OnceLock::new();

fn panic_traces() -> &'static Mutex<Vec<Weak<TelemetryInner>>> {
    PANIC_TRACES.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            eprint!("{}", panic_dump());
            previous(info);
        }));
        Mutex::new(Vec::new())
    })
}

/// Renders every panic-registered, still-live ring as a stderr-ready
/// block (what the panic hook prints). `try_lock` is used throughout:
/// if the panicking thread holds a ring or registry lock, its dump is
/// skipped rather than deadlocking the hook.
fn panic_dump() -> String {
    let mut out = String::new();
    let Some(traces) = PANIC_TRACES.get() else {
        return out;
    };
    let Ok(traces) = traces.try_lock() else {
        return out;
    };
    for inner in traces.iter().filter_map(Weak::upgrade) {
        if let Ok(ring) = inner.ring.try_lock() {
            out.push_str(&format!("--- event ring: node {} ---\n", inner.node));
            out.push_str(&ring.dump_jsonl());
        }
    }
    out
}

impl TelemetryInner {
    fn new(
        node: u64,
        train: Option<u64>,
        trace_capacity: usize,
        now_ms: Arc<AtomicU64>,
        trace_store: Option<Arc<TraceStore>>,
        registry: Arc<Registry>,
    ) -> Self {
        let ring = Arc::new(Mutex::new(Ring::new(node, trace_capacity)));
        if let Some(store) = &trace_store {
            store.attach(Arc::clone(&ring));
        }
        let mut inner = Self {
            node,
            node_label: node.to_string(),
            train_label: train.map(|t| t.to_string()),
            train_id: train.unwrap_or(0),
            trace_capacity,
            now_ms,
            ring,
            trace_store,
            stage_latency: Vec::new(),
            registry,
        };
        inner.stage_latency = STAGES
            .iter()
            .map(|stage| {
                let labels = inner.with_node_label(&[("stage", stage.as_str())]);
                inner
                    .registry
                    .histogram("zugchain_stage_latency_ms", &labels)
            })
            .collect();
        inner
    }

    fn with_node_label(&self, labels: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut all = Vec::with_capacity(labels.len() + 2);
        all.push(("node".to_string(), self.node_label.clone()));
        if let Some(train) = &self.train_label {
            all.push(("train".to_string(), train.clone()));
        }
        for (k, v) in labels {
            all.push((k.to_string(), v.to_string()));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(t: &Telemetry) -> Vec<ParsedRecord> {
        parse_jsonl(&t.dump_jsonl()).expect("ring dump parses")
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.set_time_ms(55);
        assert_eq!(t.now_ms(), 0);
        t.record(|| -> Event { unreachable!("closure must not run when disabled") });
        t.counter("zugchain_test_total").inc();
        t.gauge("zugchain_test_gauge").set(7);
        t.histogram("zugchain_test_hist").observe(9);
        assert_eq!(t.dump_jsonl(), "");
    }

    #[test]
    fn enabled_handle_publishes_with_node_label() {
        let registry = Arc::new(Registry::new());
        let t = Telemetry::new(3, Arc::clone(&registry), 16);
        t.counter("zugchain_test_total").add(2);
        assert_eq!(
            registry.counter_value("zugchain_test_total", &[("node", "3")]),
            Some(2)
        );
    }

    #[test]
    fn for_train_adds_the_train_label() {
        let registry = Arc::new(Registry::new());
        let t = Telemetry::new(3, Arc::clone(&registry), 16);
        let t12 = t.for_train(12);
        assert_eq!(t12.node(), Some(3));
        assert_eq!(t12.train(), Some("12"));
        assert_eq!(t.train(), None);
        t12.counter("zugchain_test_total").add(5);
        assert_eq!(
            registry.counter_value("zugchain_test_total", &[("node", "3"), ("train", "12")]),
            Some(5)
        );
        // The plain handle's series stays distinct.
        assert_eq!(
            registry.counter_value("zugchain_test_total", &[("node", "3")]),
            None
        );
        assert!(!Telemetry::disabled().for_train(12).is_enabled());
        // The runtime drives the parent handle's clock; derived handles
        // share it (spans recorded through them must not freeze in time).
        t.set_time_ms(40);
        assert_eq!(t12.now_ms(), 40);
        t12.set_time_ms(90);
        assert_eq!(t.now_ms(), 90);
    }

    #[test]
    fn clock_is_monotonic_and_stamps_events() {
        let registry = Arc::new(Registry::new());
        let t = Telemetry::new(0, registry, 4);
        t.set_time_ms(10);
        t.set_time_ms(5); // ignored: the clock never rewinds
        t.record(|| Event::Checkpoint { sn: 1 });
        let records = records(&t);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].time_ms, 10);
        assert_eq!(records[0].node, 0);
    }

    #[test]
    fn panic_dump_covers_live_handles_and_prunes_dropped_ones() {
        let registry = Arc::new(Registry::new());
        let live = Telemetry::new(7, Arc::clone(&registry), 8);
        live.dump_on_panic();
        live.record(|| Event::Decide { sn: 9, origin: 7 });
        let dropped = Telemetry::new(8, registry, 8);
        dropped.dump_on_panic();
        drop(dropped);
        let dump = panic_dump();
        assert!(dump.contains("node 7"), "live handle missing: {dump}");
        assert!(dump.contains("\"sn\":9"), "recorded event missing: {dump}");
        assert!(
            !dump.contains("node 8"),
            "dropped handle must not dump: {dump}"
        );
    }

    #[test]
    fn spans_land_in_ring_store_and_stage_histogram() {
        let registry = Arc::new(Registry::new());
        let store = Arc::new(TraceStore::new());
        let t = Telemetry::new_with_store(2, Arc::clone(&registry), 8, Some(Arc::clone(&store)))
            .for_train(9);
        assert_eq!(t.train_id(), 9);
        t.record(|| Span {
            trace_id: 77,
            span_id: 5,
            parent_span: 0,
            stage: Stage::Decide,
            node: 2,
            train: 9,
            sn: 3,
            start_ms: 10,
            end_ms: 14,
        });
        // The derived handle's ring has the span ...
        let records = records(&t);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, "span");
        assert_eq!(records[0].field("trace_id"), Some(&JsonValue::U64(77)));
        // ... and the store reads it from there.
        assert_eq!(store.assemble(77).len(), 1);
        assert_eq!(store.traces_for_sn(3), vec![77]);
        // Stage histogram observed the 4 ms latency.
        let snap = registry
            .histogram_snapshot(
                "zugchain_stage_latency_ms",
                &[("node", "2"), ("stage", "decide"), ("train", "9")],
            )
            .expect("stage series registered");
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 4);
        // Disabled handles never construct the span.
        Telemetry::disabled().record(|| -> Span { unreachable!("disabled") });
    }

    #[test]
    fn ring_buffer_keeps_only_the_tail() {
        let registry = Arc::new(Registry::new());
        let t = Telemetry::new(1, registry, 2);
        for sn in 0..5u64 {
            t.record(|| Event::Checkpoint { sn });
        }
        let seqs: Vec<u64> = records(&t).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }
}
