//! Causal spans: the distributed-tracing view of the event model
//! (DESIGN.md §16).
//!
//! A [`Span`] is one pipeline stage of one request's lifecycle on one
//! node, timestamped from the same runtime-driven clock as every other
//! event — virtual milliseconds under the simulator, so a seeded run
//! serves byte-identical traces. Spans are recorded as
//! [`Event::Span`](crate::Event::Span) into the recording handle's ring;
//! a [`TraceStore`] joins them across nodes by trace id by scanning the
//! rings of the handles created with it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use crate::json::JsonObject;
use crate::recorder::Ring;

/// The pipeline stages of a request's life, in causal order. The
/// vocabulary is closed: stage names appear in metric labels, JSONL
/// dumps, and the trace API, and the declaration order below is the
/// canonical chain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// MVB bus read: the payload came into existence on the origin node.
    Record,
    /// The origin submitted the request into ordering (propose or
    /// broadcast/forward toward the primary).
    Submit,
    /// The primary flushed the batch containing the request into a
    /// preprepare.
    BatchFlush,
    /// A replica accepted the preprepare carrying the request.
    PrePrepare,
    /// A replica completed the prepare phase for the request's slot.
    Prepare,
    /// A replica completed the commit phase for the request's slot.
    Commit,
    /// The request entered the totally ordered log.
    Decide,
    /// An export round moved the request's block to a data center.
    Export,
    /// A juridical archive ingested the certified segment holding it.
    Ingest,
    /// The request became servable through the archive's query surface.
    Servable,
}

/// Every stage, in canonical chain order.
pub const STAGES: [Stage; 10] = [
    Stage::Record,
    Stage::Submit,
    Stage::BatchFlush,
    Stage::PrePrepare,
    Stage::Prepare,
    Stage::Commit,
    Stage::Decide,
    Stage::Export,
    Stage::Ingest,
    Stage::Servable,
];

impl Stage {
    /// The stable string form used in labels, dumps, and span-id
    /// derivation.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Record => "record",
            Stage::Submit => "submit",
            Stage::BatchFlush => "batch_flush",
            Stage::PrePrepare => "preprepare",
            Stage::Prepare => "prepare",
            Stage::Commit => "commit",
            Stage::Decide => "decide",
            Stage::Export => "export",
            Stage::Ingest => "ingest",
            Stage::Servable => "servable",
        }
    }

    /// Position in the canonical chain order.
    pub fn order(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stage of one request's lifecycle on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to
    /// ([`zugchain_wire::derive_trace_id`]-compatible; never 0 for a
    /// real span).
    pub trace_id: u64,
    /// This span's id ([`zugchain_wire::derive_span_id`]-compatible).
    pub span_id: u64,
    /// The causal parent's span id (0 for the root `record` span).
    pub parent_span: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Recording node.
    pub node: u64,
    /// Train the trace belongs to (0 for the default train).
    pub train: u64,
    /// Consensus sequence number, once assigned (0 before ordering).
    pub sn: u64,
    /// Stage start on the trace clock.
    pub start_ms: u64,
    /// Stage end on the trace clock (`>= start_ms`).
    pub end_ms: u64,
}

impl Span {
    /// Stage duration in milliseconds.
    pub fn latency_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }

    /// Appends the span's fields to `obj` in served order; `node` is
    /// left out where the enclosing record already names it.
    pub(crate) fn write_fields(&self, obj: JsonObject, with_node: bool) -> JsonObject {
        let obj = obj
            .field_u64("trace_id", self.trace_id)
            .field_u64("span_id", self.span_id)
            .field_u64("parent_span", self.parent_span)
            .field_str("stage", self.stage.as_str());
        let obj = if with_node {
            obj.field_u64("node", self.node)
        } else {
            obj
        };
        obj.field_u64("train", self.train)
            .field_u64("sn", self.sn)
            .field_u64("start_ms", self.start_ms)
            .field_u64("end_ms", self.end_ms)
    }

    /// Renders this span as one flat JSON object (no trailing newline)
    /// — the element type of a served lifecycle.
    pub fn to_json(&self) -> String {
        self.write_fields(JsonObject::new(), true).finish()
    }

    /// Canonical order within one trace: stage, node, start, end, then
    /// every remaining field, so the order is total and never depends on
    /// which ring a span was read from.
    fn canonical_key(&self) -> (Stage, u64, u64, u64, u64, u64, u64, u64) {
        (
            self.stage,
            self.node,
            self.start_ms,
            self.end_ms,
            self.span_id,
            self.parent_span,
            self.train,
            self.sn,
        )
    }
}

/// The cluster-wide read view over the rings of every handle created
/// with it ([`Telemetry::new_with_store`](crate::Telemetry::new_with_store)
/// and the [`for_train`](crate::Telemetry::for_train) derivatives of
/// those handles). It stores no spans itself: every read scans the
/// rings, so recording never takes a cluster-wide lock and memory stays
/// bounded by the rings' capacity. A span evicted from its ring is gone
/// from every read.
#[derive(Debug, Default)]
pub struct TraceStore {
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one handle's ring to the view.
    pub(crate) fn attach(&self, ring: Arc<Mutex<Ring>>) {
        self.rings.lock().expect("trace store poisoned").push(ring);
    }

    /// Calls `visit` with every span the attached rings still hold.
    fn for_each_span(&self, mut visit: impl FnMut(&Span)) {
        for ring in self.rings.lock().expect("trace store poisoned").iter() {
            ring.lock()
                .expect("ring poisoned")
                .spans()
                .for_each(&mut visit);
        }
    }

    /// Number of distinct traces with a retained span.
    pub fn trace_count(&self) -> usize {
        self.trace_ids().len()
    }

    /// Every trace id with a retained span, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids = BTreeSet::new();
        self.for_each_span(|span| {
            ids.insert(span.trace_id);
        });
        ids.into_iter().collect()
    }

    /// Trace ids that have a span carrying consensus sequence number
    /// `sn` (never 0, which means "not yet ordered"), ascending. More
    /// than one id at one sn is itself evidence: honest replicas decide
    /// exactly one request per sn.
    pub fn traces_for_sn(&self, sn: u64) -> Vec<u64> {
        let mut ids = BTreeSet::new();
        self.for_each_span(|span| {
            if sn != 0 && span.sn == sn {
                ids.insert(span.trace_id);
            }
        });
        ids.into_iter().collect()
    }

    /// Assembles one trace: every retained span for `trace_id`, in
    /// canonical order (stage order, then node, then start time, then
    /// the remaining fields), duplicates removed.
    pub fn assemble(&self, trace_id: u64) -> Vec<Span> {
        let mut spans = Vec::new();
        self.for_each_span(|span| {
            if span.trace_id == trace_id {
                spans.push(*span);
            }
        });
        spans.sort_by_key(Span::canonical_key);
        spans.dedup();
        spans
    }

    /// Renders one trace as an indented span tree (one line per span,
    /// children under their parent), preceded by a header line. The
    /// chaos harness writes this next to the ring dumps on an invariant
    /// violation.
    pub fn render_tree(&self, trace_id: u64) -> String {
        let spans = self.assemble(trace_id);
        let mut out = format!("trace {trace_id}: {} spans\n", spans.len());
        // Roots first (parent absent from the trace), then descendants
        // depth-first; an orphan subtree still prints under its missing
        // parent's id so nothing is silently dropped.
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        let mut roots: Vec<&Span> = Vec::new();
        for span in &spans {
            if span.parent_span != 0 && ids.contains(&span.parent_span) {
                children.entry(span.parent_span).or_default().push(span);
            } else {
                roots.push(span);
            }
        }
        fn walk(out: &mut String, span: &Span, depth: usize, children: &BTreeMap<u64, Vec<&Span>>) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} node={} sn={} [{}..{}ms] span={} parent={}\n",
                span.stage,
                span.node,
                span.sn,
                span.start_ms,
                span.end_ms,
                span.span_id,
                span.parent_span
            ));
            for child in children.get(&span.span_id).into_iter().flatten() {
                walk(out, child, depth + 1, children);
            }
        }
        for root in roots {
            walk(&mut out, root, 0, &children);
        }
        out
    }
}

/// The result of validating one assembled trace as a lifecycle chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainCheck {
    /// The chain covers every required stage with monotone timestamps.
    Complete,
    /// A required stage is missing.
    MissingStage(Stage),
    /// Two consecutive spans (canonical order) go backwards in time.
    NonMonotone {
        /// The earlier stage (whose end is after the later start).
        from: Stage,
        /// The later stage.
        to: Stage,
    },
    /// A span names a parent that is neither 0 nor a span in the trace.
    OrphanSpan(Stage),
}

/// Validates an assembled span chain: every stage in `required` must be
/// present, timestamps must be monotone along the canonical stage
/// order, and no span may dangle off a parent outside the trace.
pub fn check_chain(spans: &[Span], required: &[Stage]) -> ChainCheck {
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for span in spans {
        if span.parent_span != 0 && !ids.contains(&span.parent_span) {
            return ChainCheck::OrphanSpan(span.stage);
        }
    }
    for stage in required {
        if !spans.iter().any(|s| s.stage == *stage) {
            return ChainCheck::MissingStage(*stage);
        }
    }
    // Monotonicity across stages: the earliest start of each present
    // stage must not precede the earliest start of any earlier stage.
    let mut last: Option<(Stage, u64)> = None;
    for stage in STAGES {
        let Some(start) = spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.start_ms)
            .min()
        else {
            continue;
        };
        if let Some((prev, prev_start)) = last {
            if start < prev_start {
                return ChainCheck::NonMonotone {
                    from: prev,
                    to: stage,
                };
            }
        }
        last = Some((stage, start));
    }
    for span in spans {
        if span.end_ms < span.start_ms {
            return ChainCheck::NonMonotone {
                from: span.stage,
                to: span.stage,
            };
        }
    }
    ChainCheck::Complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_flat_object, JsonValue, Registry, Telemetry};

    fn span(stage: Stage, node: u64, start: u64, end: u64) -> Span {
        Span {
            trace_id: 7,
            span_id: zugchain_span_id(7, stage, node),
            parent_span: 0,
            stage,
            node,
            train: 1,
            sn: 4,
            start_ms: start,
            end_ms: end,
        }
    }

    // Local stand-in for the wire crate's derivation (telemetry must
    // not depend on wire); only uniqueness matters here.
    fn zugchain_span_id(trace: u64, stage: Stage, node: u64) -> u64 {
        trace
            .wrapping_mul(1000)
            .wrapping_add(stage.order() as u64 * 10)
            .wrapping_add(node)
    }

    /// A store joined over `nodes` handles of ring capacity `capacity`.
    fn joined(nodes: u64, capacity: usize) -> (Arc<TraceStore>, Vec<Telemetry>) {
        let registry = Arc::new(Registry::new());
        let store = Arc::new(TraceStore::new());
        let handles = (0..nodes)
            .map(|node| {
                Telemetry::new_with_store(
                    node,
                    Arc::clone(&registry),
                    capacity,
                    Some(Arc::clone(&store)),
                )
            })
            .collect();
        (store, handles)
    }

    #[test]
    fn stage_vocabulary_round_trips() {
        let names: std::collections::BTreeSet<&str> = STAGES.iter().map(|s| s.as_str()).collect();
        assert_eq!(names.len(), STAGES.len(), "stage names are distinct");
        for stage in STAGES {
            assert_eq!(STAGES[stage.order()], stage);
            assert_eq!(stage.to_string(), stage.as_str());
        }
        assert_eq!(Stage::Record.order(), 0);
        assert_eq!(Stage::Servable.order(), STAGES.len() - 1);
    }

    #[test]
    fn span_json_round_trips() {
        let s = span(Stage::Decide, 2, 10, 12);
        let fields = parse_flat_object(&s.to_json()).unwrap();
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(get("trace_id"), Some(&JsonValue::U64(s.trace_id)));
        assert_eq!(get("stage"), Some(&JsonValue::Str("decide".into())));
        assert_eq!(get("node"), Some(&JsonValue::U64(2)));
        assert_eq!(get("end_ms"), Some(&JsonValue::U64(12)));
        assert_eq!(fields.len(), 9);
    }

    #[test]
    fn buffer_keeps_the_newest_spans() {
        // One ring of capacity 2: the store sees only the newest two.
        let (store, handles) = joined(1, 2);
        for start in 0..5u64 {
            let mut s = span(Stage::Record, 0, start, start);
            s.trace_id = start + 1;
            handles[0].record(|| s);
        }
        assert_eq!(store.trace_ids(), vec![4, 5]);
    }

    #[test]
    fn store_joins_across_nodes_and_sorts_canonically() {
        let (store, handles) = joined(2, 8);
        // Recorded out of order, across nodes.
        handles[1].record(|| span(Stage::Commit, 1, 20, 21));
        handles[0].record(|| span(Stage::Record, 0, 1, 2));
        handles[0].record(|| span(Stage::Commit, 0, 19, 22));
        let spans = store.assemble(7);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].stage, Stage::Record);
        assert_eq!(spans[1].node, 0);
        assert_eq!(spans[2].node, 1);
        assert_eq!(store.traces_for_sn(4), vec![7]);
        assert!(store.traces_for_sn(5).is_empty());
        assert!(store.traces_for_sn(0).is_empty());
        // Ties on (stage, node, start, end) fall back to the other
        // fields, so ring scan order (node 0's ring first) never
        // reaches the result.
        let mut a = span(Stage::Prepare, 0, 5, 6);
        let mut b = a;
        a.parent_span = 1;
        b.parent_span = 2;
        handles[1].record(|| a);
        handles[0].record(|| b);
        let prepares: Vec<u64> = store
            .assemble(7)
            .iter()
            .filter(|s| s.stage == Stage::Prepare)
            .map(|s| s.parent_span)
            .collect();
        assert_eq!(prepares, vec![1, 2]);
    }

    #[test]
    fn chain_check_flags_gaps_and_time_travel() {
        let required = [Stage::Record, Stage::Decide];
        let mut spans = vec![span(Stage::Record, 0, 1, 2)];
        assert_eq!(
            check_chain(&spans, &required),
            ChainCheck::MissingStage(Stage::Decide)
        );
        spans.push(span(Stage::Decide, 0, 10, 11));
        assert_eq!(check_chain(&spans, &required), ChainCheck::Complete);
        // A decide that starts before the record is time travel.
        spans[1].start_ms = 0;
        assert!(matches!(
            check_chain(&spans, &required),
            ChainCheck::NonMonotone { .. }
        ));
        spans[1].start_ms = 10;
        spans[1].parent_span = 999;
        assert_eq!(
            check_chain(&spans, &required),
            ChainCheck::OrphanSpan(Stage::Decide)
        );
    }

    #[test]
    fn tree_renders_roots_and_children() {
        let (store, handles) = joined(1, 8);
        let record = span(Stage::Record, 0, 1, 2);
        let mut decide = span(Stage::Decide, 0, 5, 6);
        decide.parent_span = record.span_id;
        handles[0].record(|| record);
        handles[0].record(|| decide);
        let tree = store.render_tree(7);
        assert!(tree.starts_with("trace 7: 2 spans\n"), "{tree}");
        assert!(tree.contains("record node=0"), "{tree}");
        assert!(tree.contains("\n  decide node=0"), "{tree}");
    }
}
