//! In-memory query indexes over archived blocks.
//!
//! The archive keeps three indexes, all rebuilt deterministically from
//! the verified segments (they are *derived* state — on index corruption
//! the segments win and the indexes are rebuilt):
//!
//! * **by sequence number** — `sn → height`, point lookups for "which
//!   block holds request N";
//! * **by time** — `(time_ms, sn) → height`, range scans for "what
//!   happened between t₀ and t₁";
//! * **by event kind** — `kind → (time_ms, sn) → height`, so a court
//!   request like "all brake events that day" touches only the blocks
//!   that actually contain brake signals.
//!
//! Request payloads are decoded as [`zugchain_signals::Request`] values
//! where possible; payloads that do not decode (foreign formats, chaos
//! junk) are indexed under [`EventKind::Other`] at the block timestamp,
//! so they remain reachable by time without poisoning the kind indexes.
//! Each payload is decoded once per ingest, into an [`IndexEntry`] that
//! feeds both these indexes and the fleet's cross index.

use std::collections::BTreeMap;

use zugchain_blockchain::Block;
use zugchain_signals::Request;

/// Coarse classification of decoded signal events for indexed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Speed readings (`v_actual`).
    Speed,
    /// Brake activity (`brake_applied`, `emergency_brake`).
    Brake,
    /// Door state (`doors_released`).
    Door,
    /// Automatic train protection interventions (`atp_intervention`).
    Atp,
    /// Everything else, including undecodable payloads.
    Other,
}

impl EventKind {
    /// Classifies a signal by its NSDB name.
    pub fn of_signal(name: &str) -> EventKind {
        match name {
            "v_actual" => EventKind::Speed,
            "brake_applied" | "emergency_brake" => EventKind::Brake,
            "doors_released" => EventKind::Door,
            "atp_intervention" => EventKind::Atp,
            _ => EventKind::Other,
        }
    }

    /// All kinds, for exhaustive queries.
    pub const ALL: [EventKind; 5] = [
        EventKind::Speed,
        EventKind::Brake,
        EventKind::Door,
        EventKind::Atp,
        EventKind::Other,
    ];
}

/// Where an indexed request lives: block height plus position metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLocation {
    /// Height of the containing block.
    pub height: u64,
    /// The request's BFT sequence number.
    pub sn: u64,
    /// Timestamp used for ordering (decoded request time, or the block
    /// time for undecodable payloads).
    pub time_ms: u64,
}

/// What the indexes keep of one archived request, derived from its
/// payload once: where it lives, the time it is filed under and the
/// event kinds it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    pub(crate) height: u64,
    pub(crate) sn: u64,
    /// The decoded request's time, or the block time for a payload that
    /// does not decode.
    pub(crate) time_ms: u64,
    /// One bit per [`EventKind`], `1 << kind as u8`.
    kind_bits: u8,
}

impl IndexEntry {
    /// The entries of `block`'s requests, in block order.
    pub(crate) fn of_block(block: &Block) -> impl Iterator<Item = IndexEntry> + '_ {
        let height = block.height();
        block.requests.iter().map(move |request| {
            let (time_ms, kind_bits) = match zugchain_wire::from_bytes::<Request>(&request.payload)
            {
                Ok(decoded) => (
                    decoded.time_ms,
                    decoded.events.iter().fold(0, |bits, event| {
                        bits | 1 << EventKind::of_signal(&event.name) as u8
                    }),
                ),
                Err(_) => (block.header.time_ms, 1 << EventKind::Other as u8),
            };
            IndexEntry {
                height,
                sn: request.sn,
                time_ms,
                kind_bits,
            }
        })
    }

    /// The kinds the request carries, each once, in [`EventKind`] order.
    fn kinds(&self) -> impl Iterator<Item = EventKind> + '_ {
        EventKind::ALL
            .into_iter()
            .filter(move |&kind| self.kind_bits & 1 << kind as u8 != 0)
    }
}

/// The archive's derived query indexes.
#[derive(Debug, Clone, Default)]
pub struct ArchiveIndex {
    by_sn: BTreeMap<u64, u64>,
    by_time: BTreeMap<(u64, u64), u64>,
    by_kind: BTreeMap<EventKind, BTreeMap<(u64, u64), u64>>,
}

impl ArchiveIndex {
    /// Creates empty indexes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes every request of `block`. Idempotent for re-ingestion of
    /// the same block (keys are overwritten with identical values).
    pub fn index_block(&mut self, block: &Block) {
        for entry in IndexEntry::of_block(block) {
            self.insert(&entry);
        }
    }

    /// Indexes one request.
    pub(crate) fn insert(&mut self, entry: &IndexEntry) {
        let key = (entry.time_ms, entry.sn);
        self.by_sn.insert(entry.sn, entry.height);
        self.by_time.insert(key, entry.height);
        for kind in entry.kinds() {
            self.by_kind
                .entry(kind)
                .or_default()
                .insert(key, entry.height);
        }
    }

    /// Height of the block containing sequence number `sn`, if archived.
    pub fn height_of_sn(&self, sn: u64) -> Option<u64> {
        self.by_sn.get(&sn).copied()
    }

    /// Locations of all requests with `from_ms <= time_ms <= to_ms`, in
    /// (time, sn) order.
    pub fn in_time_range(&self, from_ms: u64, to_ms: u64) -> Vec<RequestLocation> {
        self.by_time
            .range((from_ms, 0)..=(to_ms, u64::MAX))
            .map(|(&(time_ms, sn), &height)| RequestLocation {
                height,
                sn,
                time_ms,
            })
            .collect()
    }

    /// Like [`in_time_range`](Self::in_time_range) but restricted to
    /// requests containing at least one event of one of `kinds`.
    /// Results are deduplicated and in (time, sn) order.
    pub fn in_time_range_of_kinds(
        &self,
        from_ms: u64,
        to_ms: u64,
        kinds: &[EventKind],
    ) -> Vec<RequestLocation> {
        let mut merged: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for kind in kinds {
            if let Some(index) = self.by_kind.get(kind) {
                for (&key, &height) in index.range((from_ms, 0)..=(to_ms, u64::MAX)) {
                    merged.insert(key, height);
                }
            }
        }
        merged
            .into_iter()
            .map(|((time_ms, sn), height)| RequestLocation {
                height,
                sn,
                time_ms,
            })
            .collect()
    }

    /// Number of indexed requests.
    pub fn len(&self) -> usize {
        self.by_sn.len()
    }

    /// Whether nothing has been indexed yet.
    pub fn is_empty(&self) -> bool {
        self.by_sn.is_empty()
    }
}
