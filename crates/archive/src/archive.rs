//! The juridical archive proper: verified ingestion, durable segment
//! storage with crash recovery, and the indexed query surface.
//!
//! # Storage layout
//!
//! An on-disk archive directory holds one file, the segment log
//! `segments.zal`. It is a run of records, one per segment in seq order:
//! a little-endian `u32` length, then the segment's frame, magic `ZGS1` ‖
//! SHA-256 of the body ‖ the canonical [`Segment`] encoding. An ingest
//! writes its record at the end of the last good record and calls
//! `sync_data` once, so it creates no file and costs one write and one
//! journal commit whatever the archive's size.
//!
//! # Recovery
//!
//! [`Archive::open`] reads the log front to back and keeps the longest
//! prefix of records that frame, decode, carry the expected seq and train,
//! extend the chain and pass full [`Segment::verify`]. It cuts the file
//! back to that prefix and syncs it, so the log is append-consistent
//! again. A directory that still holds the `seg-<seq>.zas` files of the
//! older one-file-per-segment layout is refused, never read or deleted.
//! The in-memory indexes are always rebuilt from the surviving segments.

use std::fs;
use std::io::{self, Read as _, Seek as _, Write as _};
use std::path::Path;
use std::sync::{Arc, RwLock};

use zugchain_blockchain::Block;
use zugchain_crypto::{Digest, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_signals::analysis::Timeline;
use zugchain_signals::Request;
use zugchain_wire::TrainId;

use crate::bundle::AuditBundle;
use crate::index::{ArchiveIndex, EventKind, IndexEntry, RequestLocation};
use crate::merkle::MerklePath;
use crate::segment::{block_leaves, Segment, SegmentViolation};

/// Magic prefix of a segment frame, the body of each segment-log record.
pub const SEGMENT_MAGIC: &[u8; 4] = b"ZGS1";

/// Why a certified segment was refused at ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IngestError {
    /// The segment does not extend the archive head.
    NotContiguous {
        /// Height the archive expected the segment to build on.
        expected_height: u64,
        /// Hash the archive expected the segment to build on.
        expected_hash: Digest,
        /// Base height the segment declared.
        got_height: u64,
        /// Base hash the segment declared.
        got_hash: Digest,
    },
    /// The segment failed verification.
    Invalid(SegmentViolation),
    /// The segment belongs to another train: this archive (shard) only
    /// accepts its own train's chain.
    TrainMismatch {
        /// Train this archive shard stores.
        expected: TrainId,
        /// Origin train the segment declared.
        got: TrainId,
    },
    /// The segment's train has no registered replica keyset (fleet
    /// ingest only; a single-train [`Archive`] reports
    /// [`TrainMismatch`](Self::TrainMismatch) instead).
    UnknownTrain {
        /// The unregistered train.
        train: TrainId,
    },
    /// Persisting the verified segment failed; the in-memory state was
    /// left unchanged.
    Io(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NotContiguous {
                expected_height,
                expected_hash,
                got_height,
                got_hash,
            } => write!(
                f,
                "segment base (height {got_height}, {}) does not extend archive head \
                 (height {expected_height}, {})",
                got_hash.short(),
                expected_hash.short()
            ),
            IngestError::Invalid(v) => write!(f, "segment rejected: {v}"),
            IngestError::TrainMismatch { expected, got } => write!(
                f,
                "segment from train {got} refused by train {expected}'s shard"
            ),
            IngestError::UnknownTrain { train } => {
                write!(f, "no replica keyset registered for train {train}")
            }
            IngestError::Io(e) => write!(f, "segment could not be persisted: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<SegmentViolation> for IngestError {
    fn from(v: SegmentViolation) -> Self {
        IngestError::Invalid(v)
    }
}

/// What [`Archive::open`] found and fixed while recovering a directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segments that survived recovery.
    pub segments_recovered: usize,
    /// Log positions (the seq each record should have carried) of the
    /// records cut away: the first record that was torn, damaged, out of
    /// sequence, discontinuous or unverifiable, and every record after it
    /// that could still be told apart.
    pub segments_discarded: Vec<u64>,
}

/// Frames `body` as `magic ‖ SHA-256(body) ‖ body`, the byte shape of
/// every archive record (segments in the log, `.zab` bundles). The
/// digest catches torn or damaged bytes; it proves nothing about who
/// wrote them.
pub(crate) fn frame(magic: &[u8; 4], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 32 + body.len());
    frame_into(&mut out, magic, body);
    out
}

/// Appends [`frame`]`(magic, body)` to `out`.
fn frame_into(out: &mut Vec<u8>, magic: &[u8; 4], body: &[u8]) {
    out.extend_from_slice(magic);
    out.extend_from_slice(Digest::of(body).as_bytes());
    out.extend_from_slice(body);
}

/// The body of bytes [`frame`]d under `magic`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if the bytes are truncated, carry
/// another magic, or fail the digest.
pub(crate) fn unframe<'a>(raw: &'a [u8], magic: &[u8; 4]) -> io::Result<&'a [u8]> {
    if raw.len() < magic.len() + 32 {
        return Err(invalid_data("truncated"));
    }
    let (found, rest) = raw.split_at(magic.len());
    if found != magic {
        let expected = String::from_utf8_lossy(magic);
        return Err(invalid_data(format!("bad magic (expected {expected})")));
    }
    let (digest, body) = rest.split_at(32);
    if Digest::of(body).as_bytes() != digest {
        return Err(invalid_data("digest mismatch (torn or corrupted write)"));
    }
    Ok(body)
}

pub(crate) fn invalid_data(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Durably writes `body`, [`frame`]d under `magic`, to `path`: write
/// `path` with its extension replaced by `tmp` and fsync it, so the
/// bytes are on disk before any name points at them; rename it over
/// `path`, so a reader sees the old file or the new one, never a torn
/// mix; fsync the directory, so the rename itself survives a power cut.
/// Only then does it return `Ok`. Audit bundles, each a standalone file,
/// are written this way; segments go to the [`SegmentLog`].
pub(crate) fn write_record(path: &Path, magic: &[u8; 4], body: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&frame(magic, body))?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(parent_dir(path))
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Creates `dir` and any missing ancestors, fsyncing the parent of each
/// directory it creates so the new entry survives a power cut.
pub(crate) fn create_dir_durably(dir: &Path) -> io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    let parent = parent_dir(dir);
    if parent != dir {
        create_dir_durably(parent)?;
    }
    fs::create_dir_all(dir)?;
    sync_dir(parent)
}

/// Name of the segment log inside an archive directory.
const SEGMENT_LOG: &str = "segments.zal";

/// Bytes of a log record's length prefix.
const LENGTH_PREFIX: u64 = 4;

/// One archive directory's segment log (see the module docs for the
/// record layout).
#[derive(Debug)]
struct SegmentLog {
    file: fs::File,
    /// End of the last whole, synced record: where the next append
    /// writes, whatever a failed append left behind it.
    len: u64,
}

impl SegmentLog {
    /// Opens the log of `dir` for recovery, creating the directory and
    /// an empty log if missing, each with its parent directory fsynced.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] if `dir` holds segment files of
    /// the one-file-per-segment layout, or any I/O error.
    fn open(dir: &Path) -> io::Result<Self> {
        create_dir_durably(dir)?;
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("seg-") && name.ends_with(".zas") {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!(
                        "{} holds seg-*.zas files of the one-file-per-segment archive layout; \
                         this build reads only its segment log {SEGMENT_LOG}",
                        dir.display()
                    ),
                ));
            }
        }
        let path = dir.join(SEGMENT_LOG);
        let mut options = fs::OpenOptions::new();
        options.read(true).write(true);
        let file = match options.clone().create_new(true).open(&path) {
            Ok(file) => {
                file.sync_all()?;
                sync_dir(dir)?;
                file
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => options.open(&path)?,
            Err(e) => return Err(e),
        };
        Ok(SegmentLog { file, len: 0 })
    }

    /// Reads the log front to back and keeps the longest prefix of
    /// records that `keep` accepts, handing each its segment; then cuts
    /// the file back to that prefix and syncs it. Returns the log
    /// positions of the records cut away: reading continues past the
    /// first rejected record while length prefixes still fit the file,
    /// and stops at one that is torn, zero or runs past the end.
    fn recover(&mut self, mut keep: impl FnMut(Segment) -> bool) -> io::Result<Vec<u64>> {
        let file_len = self.file.metadata()?.len();
        let mut reader = io::BufReader::new(&self.file);
        let mut discarded = Vec::new();
        let (mut pos, mut kept) = (0, 0);
        let mut damaged = false;
        for position in 0.. {
            if pos == file_len {
                break;
            }
            let mut prefix = [0; LENGTH_PREFIX as usize];
            let len = if file_len - pos < LENGTH_PREFIX {
                0
            } else {
                reader.read_exact(&mut prefix)?;
                u64::from(u32::from_le_bytes(prefix))
            };
            if len == 0 || len > file_len - pos - LENGTH_PREFIX {
                discarded.push(position);
                break;
            }
            let mut record = vec![0; len as usize];
            reader.read_exact(&mut record)?;
            pos += LENGTH_PREFIX + len;
            damaged = damaged || !decode_segment(&record).is_ok_and(&mut keep);
            if damaged {
                discarded.push(position);
            } else {
                kept = pos;
            }
        }
        if kept < file_len {
            self.file.set_len(kept)?;
            self.file.sync_all()?;
        }
        self.len = kept;
        Ok(discarded)
    }

    /// Appends `segment`'s record at the end of the last good record and
    /// syncs its data, so it survives a power cut once this returns
    /// `Ok`. A failed append cuts the file back to the last good record
    /// if it can; either way the next append writes from there, so no
    /// record ever lands behind a torn one.
    fn append(&mut self, segment: &Segment) -> io::Result<()> {
        let record = log_record(segment)?;
        let written = (&self.file)
            .seek(io::SeekFrom::Start(self.len))
            .and_then(|_| (&self.file).write_all(&record))
            .and_then(|()| self.file.sync_data());
        match written {
            Ok(()) => {
                self.len += record.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.len);
                Err(e)
            }
        }
    }
}

/// `segment`'s log record: the length of its frame, then the frame.
fn log_record(segment: &Segment) -> io::Result<Vec<u8>> {
    let body = zugchain_wire::to_bytes(segment);
    let frame_len = u32::try_from(SEGMENT_MAGIC.len() + 32 + body.len())
        .map_err(|_| invalid_data("segment too large for one log record"))?;
    let mut record = Vec::with_capacity(LENGTH_PREFIX as usize + frame_len as usize);
    record.extend_from_slice(&frame_len.to_le_bytes());
    frame_into(&mut record, SEGMENT_MAGIC, &body);
    Ok(record)
}

/// The segment in one log record's bytes, after its length prefix.
fn decode_segment(record: &[u8]) -> io::Result<Segment> {
    zugchain_wire::from_bytes(unframe(record, SEGMENT_MAGIC)?)
        .map_err(|e| invalid_data(format!("undecodable segment: {e}")))
}

/// The juridical archive: verified, indexed, durable block storage on the
/// data-center side of the export protocol.
#[derive(Debug)]
pub struct Archive {
    /// The train whose chain this archive (shard) stores. Segments from
    /// any other train are refused, and recovery cuts records whose
    /// header names another train.
    train: TrainId,
    keystore: Keystore,
    quorum: usize,
    log: Option<SegmentLog>,
    segments: Vec<Segment>,
    index: ArchiveIndex,
    metrics: ArchiveMetrics,
    telemetry: zugchain_telemetry::Telemetry,
}

/// Cached metric handles for an archive (see DESIGN.md §12). All handles
/// are inert until [`Archive::set_telemetry`] resolves them.
#[derive(Debug, Default)]
struct ArchiveMetrics {
    /// `zugchain_archive_ingests_total`: segments successfully ingested.
    ingests: zugchain_telemetry::Counter,
    /// `zugchain_archive_ingest_errors_total`: rejected segments
    /// (discontinuity, bad certificate, train mismatch, build or I/O
    /// failure).
    ingest_errors: zugchain_telemetry::Counter,
    /// `zugchain_archive_segments_total`: segments archived since this
    /// process started (monotonic; the `zugchain_archive_segments` gauge
    /// reports the absolute count including recovered segments).
    segments_total: zugchain_telemetry::Counter,
    /// `zugchain_archive_ingest_latency_us`: wall-clock microseconds per
    /// successful ingest (verify + persist + index).
    ingest_latency_us: zugchain_telemetry::Histogram,
    /// `zugchain_archive_bundle_builds_total`: court-ready audit bundles
    /// assembled.
    bundle_builds: zugchain_telemetry::Counter,
    /// `zugchain_archive_segments`: archived segment count.
    segments: zugchain_telemetry::Gauge,
    /// `zugchain_archive_requests`: indexed request count.
    requests: zugchain_telemetry::Gauge,
    /// `zugchain_record_to_servable_ms`: end-to-end latency from the MVB
    /// record's agreed bus time to the moment the request became
    /// servable from this archive shard — one observation per archived
    /// request, so its count equals the shard's indexed requests.
    record_to_servable: zugchain_telemetry::Histogram,
}

impl ArchiveMetrics {
    fn resolve(telemetry: &zugchain_telemetry::Telemetry) -> Self {
        ArchiveMetrics {
            ingests: telemetry.counter("zugchain_archive_ingests_total"),
            ingest_errors: telemetry.counter("zugchain_archive_ingest_errors_total"),
            segments_total: telemetry.counter("zugchain_archive_segments_total"),
            ingest_latency_us: telemetry.histogram("zugchain_archive_ingest_latency_us"),
            bundle_builds: telemetry.counter("zugchain_archive_bundle_builds_total"),
            segments: telemetry.gauge("zugchain_archive_segments"),
            requests: telemetry.gauge("zugchain_archive_requests"),
            record_to_servable: telemetry.histogram("zugchain_record_to_servable_ms"),
        }
    }
}

impl Archive {
    /// Hard engine-side cap on one [`page_by_sn`](Archive::page_by_sn)
    /// page. Serving layers must configure their own page limits at or
    /// below this, so the engine and HTTP bounds can never disagree.
    pub const MAX_PAGE_LIMIT: usize = 1024;

    /// Creates an ephemeral archive with no backing directory — used by
    /// the chaos harness and tests. Verification is identical to the
    /// durable form.
    pub fn in_memory(keystore: Keystore, quorum: usize) -> Self {
        Self::in_memory_for_train(TrainId::DEFAULT, keystore, quorum)
    }

    /// Like [`in_memory`](Self::in_memory), but as the shard of one
    /// specific train: only segments tagged `train` are accepted, and
    /// they must verify against that train's replica `keystore`.
    pub fn in_memory_for_train(train: TrainId, keystore: Keystore, quorum: usize) -> Self {
        Archive {
            train,
            keystore,
            quorum,
            log: None,
            segments: Vec::new(),
            index: ArchiveIndex::new(),
            metrics: ArchiveMetrics::default(),
            telemetry: zugchain_telemetry::Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: resolves the archive's metric
    /// handles (`zugchain_archive_*`), publishes the current segment and
    /// request gauges, and enables ingest trace events.
    pub fn set_telemetry(&mut self, telemetry: &zugchain_telemetry::Telemetry) {
        self.metrics = ArchiveMetrics::resolve(telemetry);
        self.metrics.segments.set(self.segments.len() as i64);
        self.metrics.requests.set(self.index.len() as i64);
        self.telemetry = telemetry.clone();
    }

    /// Opens (creating if necessary, with its parent fsynced) a durable
    /// archive at `dir`, recovering the longest verified segment prefix
    /// from its segment log. Afterwards the log holds exactly the
    /// recovered segments.
    ///
    /// # Errors
    ///
    /// Environment I/O errors, and [`io::ErrorKind::Unsupported`] for a
    /// directory of the older one-file-per-segment layout. Damaged or
    /// unverifiable data is never an error — it is truncated away and
    /// reported in the [`RecoveryReport`].
    pub fn open(
        dir: impl AsRef<Path>,
        keystore: Keystore,
        quorum: usize,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::open_for_train(dir, TrainId::DEFAULT, keystore, quorum)
    }

    /// Like [`open`](Self::open), but as the durable shard of one
    /// specific train. Recovery additionally cuts any record whose
    /// header names a different train — a misplaced or relabeled record
    /// can never leak another vehicle's records into this shard.
    pub fn open_for_train(
        dir: impl AsRef<Path>,
        train: TrainId,
        keystore: Keystore,
        quorum: usize,
    ) -> io::Result<(Self, RecoveryReport)> {
        let mut log = SegmentLog::open(dir.as_ref())?;
        let mut segments: Vec<Segment> = Vec::new();
        let segments_discarded = log.recover(|segment| {
            let continuous = segments.last().map_or(true, |prev| {
                segment.header.base_height == prev.header.last_height
                    && segment.header.base_hash == prev.header.head_hash
            });
            let keep = segment.header.seq == segments.len() as u64
                && segment.header.train == train
                && continuous
                && segment.verify(&keystore, quorum).is_ok();
            if keep {
                segments.push(segment);
            }
            keep
        })?;
        let report = RecoveryReport {
            segments_recovered: segments.len(),
            segments_discarded,
        };

        let mut index = ArchiveIndex::new();
        for segment in &segments {
            for block in &segment.blocks {
                index.index_block(block);
            }
        }
        Ok((
            Archive {
                train,
                keystore,
                quorum,
                log: Some(log),
                segments,
                index,
                metrics: ArchiveMetrics::default(),
                telemetry: zugchain_telemetry::Telemetry::disabled(),
            },
            report,
        ))
    }

    /// The train whose chain this archive stores.
    pub fn train(&self) -> TrainId {
        self.train
    }

    /// The `(height, hash)` the next segment must build on, or `None`
    /// while the archive is empty (the first segment fixes the base).
    pub fn head(&self) -> Option<(u64, Digest)> {
        self.segments
            .last()
            .map(|s| (s.header.last_height, s.header.head_hash))
    }

    /// The highest archived BFT sequence number, or `None` while the
    /// archive is empty — the bound a cursor walk terminates against.
    pub fn head_sn(&self) -> Option<u64> {
        self.segments
            .last()
            .and_then(|s| s.blocks.last())
            .map(|b| b.header.last_sn)
    }

    /// Number of archived segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of indexed requests across all segments.
    pub fn request_count(&self) -> usize {
        self.index.len()
    }

    /// All archived blocks, ascending by height — one contiguous run.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.segments.iter().flat_map(|s| s.blocks.iter())
    }

    /// The derived query indexes over the archived requests.
    pub(crate) fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    /// Verifies and ingests one certified segment from the export path,
    /// returning its archive sequence number.
    ///
    /// The segment must extend the current head exactly (the archive is
    /// append-only); it is fully re-verified — chain linkage, pruned-base
    /// continuity, and the 2f+1 checkpoint certificate — before anything
    /// is persisted or indexed. On a durable archive the segment's record
    /// is appended to the segment log and its data synced before the
    /// in-memory state changes, so an `Ok` segment survives a power cut
    /// and a crash at any point leaves a log [`Archive::open`] recovers
    /// cleanly.
    ///
    /// # Errors
    ///
    /// See [`IngestError`]; on error the in-memory archive is unchanged,
    /// and the next ingest writes its record where the failed one began.
    pub fn ingest(&mut self, certified: &CertifiedSegment) -> Result<u64, IngestError> {
        self.ingest_indexed(certified).map(|(seq, _)| seq)
    }

    /// [`ingest`](Self::ingest), also returning the index entries of the
    /// segment's requests, from which the fleet's cross index is fed.
    pub(crate) fn ingest_indexed(
        &mut self,
        certified: &CertifiedSegment,
    ) -> Result<(u64, Vec<IndexEntry>), IngestError> {
        let started = std::time::Instant::now();
        let result = self.ingest_inner(certified);
        match &result {
            Ok((seq, _)) => {
                self.metrics.ingests.inc();
                self.metrics.segments_total.inc();
                self.metrics
                    .ingest_latency_us
                    .observe(started.elapsed().as_micros() as u64);
                self.metrics.segments.set(self.segments.len() as i64);
                self.metrics.requests.set(self.index.len() as i64);
                let seq = *seq;
                let blocks = certified.blocks.len() as u64;
                self.telemetry
                    .record(|| zugchain_telemetry::Event::ArchiveIngest { seq, blocks });
                self.trace_ingest_spans(certified);
            }
            Err(_) => self.metrics.ingest_errors.inc(),
        }
        result
    }

    /// Emits the ground-side tail of every archived request's trace —
    /// `ingest` (verified and indexed into this shard) and `servable`
    /// (available to the query front end, the end of the juridical
    /// pipeline) — and observes the end-to-end `record_to_servable`
    /// latency from the request's agreed bus time. Ground spans record
    /// under the node-0 convention, matching the export stage.
    fn trace_ingest_spans(&self, certified: &CertifiedSegment) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let train = self.train.0;
        let now = self.telemetry.now_ms();
        for block in &certified.blocks {
            for request in &block.requests {
                self.metrics
                    .record_to_servable
                    .observe(now.saturating_sub(block.header.time_ms));
                let digest = zugchain_crypto::Digest::of(&request.payload);
                let trace_id =
                    zugchain_wire::derive_trace_id(train, request.origin, digest.as_bytes());
                let ingest_span = zugchain_wire::derive_span_id(
                    trace_id,
                    zugchain_telemetry::Stage::Ingest.as_str(),
                    0,
                );
                self.telemetry.record(|| zugchain_telemetry::Span {
                    trace_id,
                    span_id: ingest_span,
                    parent_span: zugchain_wire::derive_span_id(
                        trace_id,
                        zugchain_telemetry::Stage::Export.as_str(),
                        0,
                    ),
                    stage: zugchain_telemetry::Stage::Ingest,
                    node: 0,
                    train,
                    sn: request.sn,
                    start_ms: now,
                    end_ms: now,
                });
                self.telemetry.record(|| zugchain_telemetry::Span {
                    trace_id,
                    span_id: zugchain_wire::derive_span_id(
                        trace_id,
                        zugchain_telemetry::Stage::Servable.as_str(),
                        0,
                    ),
                    parent_span: ingest_span,
                    stage: zugchain_telemetry::Stage::Servable,
                    node: 0,
                    train,
                    sn: request.sn,
                    start_ms: now,
                    end_ms: now,
                });
            }
        }
    }

    fn ingest_inner(
        &mut self,
        certified: &CertifiedSegment,
    ) -> Result<(u64, Vec<IndexEntry>), IngestError> {
        if certified.train != self.train {
            return Err(IngestError::TrainMismatch {
                expected: self.train,
                got: certified.train,
            });
        }
        if let Some((expected_height, expected_hash)) = self.head() {
            if certified.base_height != expected_height || certified.base_hash != expected_hash {
                return Err(IngestError::NotContiguous {
                    expected_height,
                    expected_hash,
                    got_height: certified.base_height,
                    got_hash: certified.base_hash,
                });
            }
        }
        let seq = self.segments.len() as u64;
        let segment = Segment::build(seq, certified)?;
        segment.verify(&self.keystore, self.quorum)?;

        if let Some(log) = &mut self.log {
            log.append(&segment)
                .map_err(|e| IngestError::Io(e.to_string()))?;
        }

        let entries: Vec<IndexEntry> = segment
            .blocks
            .iter()
            .flat_map(IndexEntry::of_block)
            .collect();
        for entry in &entries {
            self.index.insert(entry);
        }
        self.segments.push(segment);
        Ok((seq, entries))
    }

    fn segment_of_height(&self, height: u64) -> Option<&Segment> {
        let idx = self
            .segments
            .partition_point(|s| s.header.last_height < height);
        let segment = self.segments.get(idx)?;
        (segment.header.first_height <= height).then_some(segment)
    }

    /// The archived block at `height`, if any.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        let segment = self.segment_of_height(height)?;
        segment
            .blocks
            .get((height - segment.header.first_height) as usize)
    }

    /// The archived block containing BFT sequence number `sn`, if any.
    pub fn block_by_sn(&self, sn: u64) -> Option<&Block> {
        self.block_at(self.index.height_of_sn(sn)?)
    }

    /// One page of a cursor walk over the chain, ordered by height.
    ///
    /// Returns up to `limit` summaries of blocks whose sn range ends at
    /// or after `from_sn` — i.e. the page starts at the block containing
    /// `from_sn` (or the first block after a pruned gap). Because blocks
    /// carry contiguous ascending sn ranges and the archive is
    /// append-only, resuming with `last_sn + 1` of the final returned
    /// block yields every block exactly once, in order, even while new
    /// segments are being ingested between pages.
    ///
    /// `limit` is clamped to [`Archive::MAX_PAGE_LIMIT`] — no caller
    /// mistake can request an unbounded page — and `limit == 0` returns
    /// an empty page. A `from_sn` past [`head_sn`](Archive::head_sn) is
    /// simply a cursor past the end: the page is empty, not an error.
    pub fn page_by_sn(&self, from_sn: u64, limit: usize) -> Vec<BlockInfo> {
        let limit = limit.min(Self::MAX_PAGE_LIMIT);
        let mut out = Vec::with_capacity(limit.min(256));
        let seg_idx = self
            .segments
            .partition_point(|s| !s.blocks.last().is_some_and(|b| b.header.last_sn >= from_sn));
        'segments: for segment in &self.segments[seg_idx..] {
            let start = segment
                .blocks
                .partition_point(|b| b.header.last_sn < from_sn);
            for block in &segment.blocks[start..] {
                if out.len() >= limit {
                    break 'segments;
                }
                out.push(BlockInfo::of(block));
            }
        }
        out
    }

    /// Builds the [`AuditBundle`] for the block containing sequence
    /// number `sn` — the shape the serving layer's bundle download uses
    /// (readers know sns from block pages, not archive heights).
    pub fn bundle_by_sn(&self, sn: u64) -> Option<AuditBundle> {
        self.audit_bundle(self.index.height_of_sn(sn)?)
    }

    fn resolve(&self, locations: Vec<RequestLocation>) -> Vec<(u64, u64, Request)> {
        let mut out = Vec::with_capacity(locations.len());
        for location in locations {
            let Some(block) = self.block_at(location.height) else {
                continue;
            };
            let Some(logged) = block.requests.iter().find(|r| r.sn == location.sn) else {
                continue;
            };
            if let Ok(request) = zugchain_wire::from_bytes::<Request>(&logged.payload) {
                out.push((logged.sn, logged.origin, request));
            }
        }
        out
    }

    /// All decodable signal requests with `from_ms <= time_ms <= to_ms`,
    /// as `(sn, origin, request)` in time order — the shape
    /// [`Timeline::from_requests`] consumes.
    pub fn requests_in(&self, from_ms: u64, to_ms: u64) -> Vec<(u64, u64, Request)> {
        self.resolve(self.index.in_time_range(from_ms, to_ms))
    }

    /// Like [`requests_in`](Self::requests_in), restricted to requests
    /// carrying at least one event of one of `kinds`.
    pub fn requests_of_kinds(
        &self,
        from_ms: u64,
        to_ms: u64,
        kinds: &[EventKind],
    ) -> Vec<(u64, u64, Request)> {
        self.resolve(self.index.in_time_range_of_kinds(from_ms, to_ms, kinds))
    }

    /// Reconstructs the juridical [`Timeline`] over a time range.
    pub fn timeline(&self, from_ms: u64, to_ms: u64) -> Timeline {
        Timeline::from_requests(self.requests_in(from_ms, to_ms))
    }

    /// Builds a court-ready [`AuditBundle`] for the block at `height`:
    /// the block bytes, its Merkle inclusion path, the header chain to
    /// the segment head, and the checkpoint certificate.
    pub fn audit_bundle(&self, height: u64) -> Option<AuditBundle> {
        let segment = self.segment_of_height(height)?;
        let idx = (height - segment.header.first_height) as usize;
        let leaves = block_leaves(self.train, &segment.blocks);
        self.metrics.bundle_builds.inc();
        Some(AuditBundle {
            train: self.train,
            block_bytes: zugchain_wire::to_bytes(&segment.blocks[idx]),
            merkle_path: MerklePath::build(&leaves, idx),
            merkle_root: segment.header.merkle_root,
            link_headers: segment.blocks[idx + 1..]
                .iter()
                .map(|b| b.header.clone())
                .collect(),
            proof: segment.proof.clone(),
        })
    }

    /// Builds audit bundles for every block containing a request in the
    /// given time range — "give me provable records for that day".
    pub fn audit_bundles_in(&self, from_ms: u64, to_ms: u64) -> Vec<AuditBundle> {
        let mut heights: Vec<u64> = self
            .index
            .in_time_range(from_ms, to_ms)
            .into_iter()
            .map(|l| l.height)
            .collect();
        heights.sort_unstable();
        heights.dedup();
        heights
            .into_iter()
            .filter_map(|h| self.audit_bundle(h))
            .collect()
    }
}

/// Summary of one archived block, the unit of the serving layer's
/// cursor pagination — everything a reader needs to walk the chain and
/// decide which blocks to pull full [`AuditBundle`]s for, without
/// shipping payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Chain height of the block.
    pub height: u64,
    /// Hash of the block (header + payload commitment).
    pub hash: Digest,
    /// First BFT sequence number logged in the block.
    pub first_sn: u64,
    /// Last BFT sequence number logged in the block.
    pub last_sn: u64,
    /// Bus time stamped into the block.
    pub time_ms: u64,
    /// Number of logged requests in the block.
    pub requests: usize,
}

impl BlockInfo {
    /// Summarizes one archived block.
    pub fn of(block: &Block) -> Self {
        BlockInfo {
            height: block.header.height,
            hash: block.hash(),
            first_sn: block.header.first_sn,
            last_sn: block.header.last_sn,
            time_ms: block.header.time_ms,
            requests: block.requests.len(),
        }
    }
}

/// Concurrent handle over an [`Archive`]: ingestion takes the write
/// lock, queries share the read lock, and clones are cheap — the query
/// path of a data center serving several auditors while export keeps
/// appending.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    inner: Arc<RwLock<Archive>>,
}

impl QueryEngine {
    /// Wraps an archive for shared use.
    pub fn new(archive: Archive) -> Self {
        QueryEngine {
            inner: Arc::new(RwLock::new(archive)),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Archive> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// See [`Archive::set_telemetry`].
    pub fn set_telemetry(&self, telemetry: &zugchain_telemetry::Telemetry) {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .set_telemetry(telemetry);
    }

    /// Ingests a certified segment under the write lock, held across
    /// verification, the log append and its sync, and the index update, so readers wait
    /// for the whole ingest and never see a half-ingested segment.
    ///
    /// # Errors
    ///
    /// See [`Archive::ingest`].
    pub fn ingest(&self, certified: &CertifiedSegment) -> Result<u64, IngestError> {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .ingest(certified)
    }

    /// See [`Archive::head`].
    pub fn head(&self) -> Option<(u64, Digest)> {
        self.read().head()
    }

    /// See [`Archive::segment_count`].
    pub fn segment_count(&self) -> usize {
        self.read().segment_count()
    }

    /// See [`Archive::request_count`].
    pub fn request_count(&self) -> usize {
        self.read().request_count()
    }

    /// See [`Archive::block_by_sn`] (cloned out of the lock).
    pub fn block_by_sn(&self, sn: u64) -> Option<Block> {
        self.read().block_by_sn(sn).cloned()
    }

    /// See [`Archive::requests_in`].
    pub fn requests_in(&self, from_ms: u64, to_ms: u64) -> Vec<(u64, u64, Request)> {
        self.read().requests_in(from_ms, to_ms)
    }

    /// See [`Archive::requests_of_kinds`].
    pub fn requests_of_kinds(
        &self,
        from_ms: u64,
        to_ms: u64,
        kinds: &[EventKind],
    ) -> Vec<(u64, u64, Request)> {
        self.read().requests_of_kinds(from_ms, to_ms, kinds)
    }

    /// See [`Archive::timeline`].
    pub fn timeline(&self, from_ms: u64, to_ms: u64) -> Timeline {
        self.read().timeline(from_ms, to_ms)
    }

    /// See [`Archive::audit_bundle`].
    pub fn audit_bundle(&self, height: u64) -> Option<AuditBundle> {
        self.read().audit_bundle(height)
    }

    /// See [`Archive::audit_bundles_in`].
    pub fn audit_bundles_in(&self, from_ms: u64, to_ms: u64) -> Vec<AuditBundle> {
        self.read().audit_bundles_in(from_ms, to_ms)
    }

    /// See [`Archive::page_by_sn`].
    pub fn page_by_sn(&self, from_sn: u64, limit: usize) -> Vec<BlockInfo> {
        self.read().page_by_sn(from_sn, limit)
    }

    /// See [`Archive::bundle_by_sn`].
    pub fn bundle_by_sn(&self, sn: u64) -> Option<AuditBundle> {
        self.read().bundle_by_sn(sn)
    }

    /// Runs `f` under the read lock — the serving layer uses this to
    /// compute a response and observe the segment count in one atomic
    /// snapshot (the cache-key soundness argument needs both to come
    /// from the same lock acquisition).
    pub fn with_archive<R>(&self, f: impl FnOnce(&Archive) -> R) -> R {
        f(&self.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zugchain_blockchain::LoggedRequest;
    use zugchain_pbft::{Checkpoint, CheckpointProof};

    /// An unsigned one-block segment at `seq`: the log never verifies.
    fn segment(seq: u64) -> Segment {
        let genesis = Block::genesis();
        let request = LoggedRequest {
            sn: 1,
            origin: 0,
            payload: vec![7; 300],
        };
        let block = Block::next(1, genesis.hash(), vec![request], 64);
        let certified = CertifiedSegment {
            train: TrainId::DEFAULT,
            base_height: 0,
            base_hash: genesis.hash(),
            proof: CheckpointProof {
                checkpoint: Checkpoint {
                    sn: 1,
                    state_digest: block.hash(),
                },
                signatures: Vec::new(),
            },
            blocks: vec![block],
        };
        Segment::build(seq, &certified).expect("one block")
    }

    #[test]
    fn a_failed_append_never_leaves_a_torn_record_ahead_of_a_later_one() {
        let dir = std::env::temp_dir().join(format!("zugchain-log-append-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join(SEGMENT_LOG);
        let mut log = SegmentLog::open(&dir).unwrap();
        assert!(log.recover(|_| true).unwrap().is_empty());
        log.append(&segment(0)).unwrap();
        let good = log.len;

        // Part of the next record reaches the file, then the append fails
        // and so does cutting it back: this handle can write nothing.
        let record = log_record(&segment(1)).unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&record[..record.len() / 2])
            .unwrap();
        let writable = std::mem::replace(&mut log.file, fs::File::open(&path).unwrap());
        assert!(log.append(&segment(1)).is_err());
        assert_eq!(log.len, good);
        assert!(
            fs::metadata(&path).unwrap().len() > good,
            "the torn bytes stay"
        );

        // The next append writes where the failed one began, over the
        // torn bytes, so recovery finds both records and nothing else.
        log.file = writable;
        log.append(&segment(1)).unwrap();
        drop(log);
        let mut reopened = SegmentLog::open(&dir).unwrap();
        let mut seqs = Vec::new();
        let discarded = reopened
            .recover(|segment| {
                seqs.push(segment.header.seq);
                true
            })
            .unwrap();
        assert!(discarded.is_empty());
        assert_eq!(seqs, [0, 1]);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            good + record.len() as u64
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
