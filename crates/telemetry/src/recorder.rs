//! The one observability event model: every instrumented layer records
//! [`Event`]s into its handle's bounded ring, dumped as one flat JSON
//! object per line (JSONL). Timestamps come from the runtime-driven
//! [`crate::Telemetry`] clock, so a simulated run dumps byte-identical
//! rings for the same seed.

use std::collections::VecDeque;

use crate::json::{parse_flat_object, JsonObject, JsonValue};
use crate::span::Span;

/// One structured event in a node's ring. The vocabulary covers the
/// observable life of a replica: bus/peer inputs, driver effects, timers
/// (with the [`zugchain-machine`] generation discipline), the protocol
/// milestones every runtime shares, and the causal [`Span`]s of each
/// request's pipeline stages.
///
/// Every variant but [`Event::Mark`] carries only `&'static str` labels
/// and integers, so recording never allocates on the hot path.
///
/// [`zugchain-machine`]: https://docs.rs/zugchain-machine
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A peer or bus message was delivered to the node.
    MessageDelivered {
        /// Short message-kind label (e.g. `preprepare`).
        kind: &'static str,
    },
    /// The state machine emitted an effect.
    EffectEmitted {
        /// The effect discriminant (`send`, `broadcast`, `set-timer`,
        /// `cancel-timer`, `output`).
        kind: &'static str,
    },
    /// A timer was armed.
    TimerSet {
        /// Timer kind (e.g. `view-change`).
        timer: &'static str,
        /// The timer's argument (target view, slot, digest prefix; 0
        /// when the kind has none).
        arg: u64,
        /// Arming generation from the driver's timer table.
        generation: u64,
        /// Requested duration.
        duration_ms: u64,
    },
    /// A timer was cancelled.
    TimerCancelled {
        /// Timer kind.
        timer: &'static str,
        /// The timer's argument.
        arg: u64,
    },
    /// A timer expiry was delivered to the driver.
    TimerFired {
        /// Timer kind.
        timer: &'static str,
        /// The timer's argument.
        arg: u64,
        /// Expiry generation.
        generation: u64,
        /// Whether the expiry was stale (superseded by a re-arm or
        /// cancel) and therefore dropped.
        stale: bool,
    },
    /// A request was decided (entered the totally ordered log).
    Decide {
        /// Assigned sequence number.
        sn: u64,
        /// Node that received the request from the bus.
        origin: u64,
    },
    /// A view change completed.
    ViewChange {
        /// The new view.
        view: u64,
        /// Primary of the new view.
        primary: u64,
    },
    /// A checkpoint became stable.
    Checkpoint {
        /// Sequence number covered by the checkpoint certificate.
        sn: u64,
    },
    /// The node fell behind and requested a state transfer.
    StateTransfer {
        /// The stable sequence number to catch up to.
        target_sn: u64,
    },
    /// An export round completed at a data center.
    ExportRound {
        /// Blocks moved in the round.
        blocks: u64,
    },
    /// A certified segment was ingested by a juridical archive.
    ArchiveIngest {
        /// Segment sequence number.
        seq: u64,
        /// Blocks in the segment.
        blocks: u64,
    },
    /// One pipeline stage of one request, with its start and end.
    Span(Span),
    /// A free-form annotation (e.g. an invariant-violation note). The
    /// only variant that owns text; it is recorded off the hot path.
    Mark {
        /// The annotation text.
        label: String,
    },
}

impl From<Span> for Event {
    fn from(span: Span) -> Self {
        Event::Span(span)
    }
}

impl Event {
    /// The stable `kind` discriminant written to JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::MessageDelivered { .. } => "message",
            Event::EffectEmitted { .. } => "effect",
            Event::TimerSet { .. } => "timer-set",
            Event::TimerCancelled { .. } => "timer-cancel",
            Event::TimerFired { .. } => "timer-fire",
            Event::Decide { .. } => "decide",
            Event::ViewChange { .. } => "view-change",
            Event::Checkpoint { .. } => "checkpoint",
            Event::StateTransfer { .. } => "state-transfer",
            Event::ExportRound { .. } => "export-round",
            Event::ArchiveIngest { .. } => "archive-ingest",
            Event::Span(_) => "span",
            Event::Mark { .. } => "mark",
        }
    }

    /// Appends the event's own fields to `obj`.
    fn write_fields(&self, obj: JsonObject) -> JsonObject {
        match self {
            Event::MessageDelivered { kind } => obj.field_str("msg", kind),
            Event::EffectEmitted { kind } => obj.field_str("effect", kind),
            Event::TimerSet {
                timer,
                arg,
                generation,
                duration_ms,
            } => obj
                .field_str("timer", timer)
                .field_u64("arg", *arg)
                .field_u64("gen", *generation)
                .field_u64("duration_ms", *duration_ms),
            Event::TimerCancelled { timer, arg } => {
                obj.field_str("timer", timer).field_u64("arg", *arg)
            }
            Event::TimerFired {
                timer,
                arg,
                generation,
                stale,
            } => obj
                .field_str("timer", timer)
                .field_u64("arg", *arg)
                .field_u64("gen", *generation)
                .field_bool("stale", *stale),
            Event::Decide { sn, origin } => obj.field_u64("sn", *sn).field_u64("origin", *origin),
            Event::ViewChange { view, primary } => {
                obj.field_u64("view", *view).field_u64("primary", *primary)
            }
            Event::Checkpoint { sn } => obj.field_u64("sn", *sn),
            Event::StateTransfer { target_sn } => obj.field_u64("target_sn", *target_sn),
            Event::ExportRound { blocks } => obj.field_u64("blocks", *blocks),
            Event::ArchiveIngest { seq, blocks } => {
                obj.field_u64("seq", *seq).field_u64("blocks", *blocks)
            }
            // The record header already names the node.
            Event::Span(span) => span.write_fields(obj, false),
            Event::Mark { label } => obj.field_str("label", label),
        }
    }
}

/// One timestamped entry in a ring.
#[derive(Debug)]
struct Record {
    /// Trace-clock milliseconds at record time.
    time_ms: u64,
    /// Monotone per-ring sequence number (survives eviction, so gaps
    /// reveal how much history was dropped).
    seq: u64,
    event: Event,
}

/// A fixed-capacity ring of one handle's events: constant memory,
/// newest events win.
#[derive(Debug)]
pub(crate) struct Ring {
    node: u64,
    capacity: usize,
    next_seq: u64,
    records: VecDeque<Record>,
}

impl Ring {
    /// An empty ring for `node` retaining at most `capacity` events
    /// (minimum 1).
    pub(crate) fn new(node: u64, capacity: usize) -> Self {
        Self {
            node,
            capacity: capacity.max(1),
            next_seq: 0,
            records: VecDeque::new(),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub(crate) fn push(&mut self, time_ms: u64, event: Event) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(Record {
            time_ms,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// The retained spans, oldest first.
    pub(crate) fn spans(&self) -> impl Iterator<Item = &Span> {
        self.records
            .iter()
            .filter_map(|record| match &record.event {
                Event::Span(span) => Some(span),
                _ => None,
            })
    }

    /// Dumps the retained events as JSONL, oldest first (one JSON object
    /// per line, trailing newline after each).
    pub(crate) fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            let header = JsonObject::new()
                .field_u64("t_ms", record.time_ms)
                .field_u64("node", self.node)
                .field_u64("seq", record.seq)
                .field_str("kind", record.event.kind());
            out.push_str(&record.event.write_fields(header).finish());
            out.push('\n');
        }
        out
    }
}

/// One record parsed back out of a JSONL dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// Trace-clock milliseconds.
    pub time_ms: u64,
    /// Recording node.
    pub node: u64,
    /// Ring sequence number.
    pub seq: u64,
    /// The event-kind discriminant (see [`Event::kind`]).
    pub kind: String,
    /// The event's remaining fields, in written order.
    pub fields: Vec<(String, JsonValue)>,
}

impl ParsedRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// Parses a ring's JSONL dump back into records. Every line must be a
/// flat JSON object with the `t_ms`/`node`/`seq`/`kind` header fields.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedRecord>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_flat_object(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let mut time_ms = None;
        let mut node = None;
        let mut seq = None;
        let mut kind = None;
        let mut rest = Vec::new();
        for (key, value) in fields {
            match key.as_str() {
                "t_ms" => time_ms = value.as_u64(),
                "node" => node = value.as_u64(),
                "seq" => seq = value.as_u64(),
                "kind" => kind = value.as_str().map(str::to_string),
                _ => rest.push((key, value)),
            }
        }
        records.push(ParsedRecord {
            time_ms: time_ms.ok_or_else(|| format!("line {}: missing t_ms", idx + 1))?,
            node: node.ok_or_else(|| format!("line {}: missing node", idx + 1))?,
            seq: seq.ok_or_else(|| format!("line {}: missing seq", idx + 1))?,
            kind: kind.ok_or_else(|| format!("line {}: missing kind", idx + 1))?,
            fields: rest,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;

    #[test]
    fn dump_round_trips_through_the_parser() {
        let mut ring = Ring::new(0, 8);
        ring.push(1, Event::MessageDelivered { kind: "preprepare" });
        ring.push(2, Event::Decide { sn: 1, origin: 3 });
        ring.push(
            3,
            Event::TimerFired {
                timer: "view-change",
                arg: 1,
                generation: 2,
                stale: true,
            },
        );
        ring.push(
            4,
            Event::Span(Span {
                trace_id: 9,
                span_id: 10,
                parent_span: 0,
                stage: Stage::Record,
                node: 0,
                train: 0,
                sn: 0,
                start_ms: 4,
                end_ms: 4,
            }),
        );
        let parsed = parse_jsonl(&ring.dump_jsonl()).expect("dump parses");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].kind, "message");
        assert_eq!(parsed[1].kind, "decide");
        assert_eq!(parsed[1].field("sn"), Some(&JsonValue::U64(1)));
        assert_eq!(parsed[2].field("stale"), Some(&JsonValue::Bool(true)));
        assert_eq!(parsed[2].field("arg"), Some(&JsonValue::U64(1)));
        assert_eq!(parsed[2].seq, 2);
        assert_eq!(parsed[3].kind, "span");
        assert_eq!(
            parsed[3].field("stage"),
            Some(&JsonValue::Str("record".into()))
        );
        assert_eq!(parsed[3].field("node"), None, "the header names the node");
    }

    #[test]
    fn eviction_preserves_sequence_numbers() {
        let mut ring = Ring::new(1, 2);
        for sn in 0..4 {
            ring.push(sn, Event::Checkpoint { sn });
        }
        let parsed = parse_jsonl(&ring.dump_jsonl()).unwrap();
        let seqs: Vec<u64> = parsed.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert!(parsed.iter().all(|r| r.node == 1));
    }
}
