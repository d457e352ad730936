//! The ground workload: Fig. 4 export rounds from several trains' replica
//! groups into a disk-backed `FleetArchive`, side by side with one HTTP
//! reader that pages blocks, pulls timelines, and verifies audit bundles
//! offline against public keys only.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};

use zugchain_api::{ApiConfig, ApiServer, Backend, HttpClient};
use zugchain_archive::{AuditBundle, FleetArchive};
use zugchain_blockchain::{Block, BlockBuilder, ChainStore, LoggedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_export::{
    CertifiedSegment, DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportReplica,
    ReplicaExportConfig,
};
use zugchain_mvb::PortAddress;
use zugchain_pbft::{Checkpoint, CheckpointProof, Message, NodeId};
use zugchain_signals::{Request, SignalValue, TrainEvent};
use zugchain_telemetry::Registry;
use zugchain_wire::TrainId;

use crate::layers::{crypto_costs, RegistrySnap};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{percentile, ratio};
use crate::sys;
use crate::trace::{ms, record, Clock, Span, Spans};
use crate::{DataDir, RunArgs, SetupTimes, SETUP_REPS};

/// Trains exporting into the archive.
const TRAINS: u64 = 4;
/// Replicas per train and the 2f + 1 checkpoint quorum.
const REPLICAS: usize = 4;
const QUORUM: usize = 3;
/// Requests per block (the paper's block size).
const BLOCK_SIZE: usize = 10;
/// Blocks certified per export round.
const BLOCKS_PER_SEGMENT: usize = 5;
/// Each train's shard holds this many segments of this many blocks
/// before the timed window: 2 000 requests per train. Few, large
/// segments keep set-up to a few fsyncs.
const PREPOPULATED_SEGMENTS: usize = 10;
const PREPOPULATED_SEGMENT_BLOCKS: usize = 20;
/// Bus cycle, which spaces the signal requests in time.
const CYCLE_MS: u64 = 64;
/// Blocks per page read, and the sn span of one timeline window.
const PAGE_BLOCKS: u64 = 20;
const TIMELINE_SNS: u64 = 50;

/// One bus cycle's signal request: a speed reading, and now and then a
/// brake, door or ATP event, so the event-kind index and timelines work.
fn signal_payload(rng: &mut Rng, train: u64, sn: u64) -> Vec<u8> {
    let time_ms = sn * CYCLE_MS;
    let event = |name: &str, port: u16, value: SignalValue| TrainEvent {
        name: name.to_string(),
        port: PortAddress(port),
        cycle: sn,
        time_ms,
        value,
    };
    let mut events = vec![event(
        "v_actual",
        0x42,
        SignalValue::U16(((train * 31 + sn) % 4_000) as u16),
    )];
    match rng.below(16) {
        0 => events.push(event("brake_applied", 0x10, SignalValue::Bool(true))),
        1 => events.push(event(
            "doors_released",
            0x11,
            SignalValue::Bool(sn.is_multiple_of(2)),
        )),
        2 => events.push(event("atp_intervention", 0x12, SignalValue::Bool(true))),
        3 => events.push(event("emergency_brake", 0x13, SignalValue::Bool(true))),
        _ => {}
    }
    zugchain_wire::to_bytes(&Request {
        cycle: sn,
        time_ms,
        events,
    })
}

/// A 2f + 1 (here: all four) checkpoint certificate over `head`.
fn certify(pairs: &[KeyPair], sn: u64, head: &Block) -> CheckpointProof {
    let checkpoint = Checkpoint {
        sn,
        state_digest: head.hash(),
    };
    let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
    CheckpointProof {
        checkpoint,
        signatures: pairs
            .iter()
            .enumerate()
            .map(|(id, pair)| (NodeId(id as u64), pair.sign(&message)))
            .collect(),
    }
}

/// One train: its replicas' chain copies and export handlers, its data
/// center, and the seeded source of its recorded bus cycles.
struct Train {
    id: TrainId,
    pairs: Vec<KeyPair>,
    keystore: Keystore,
    chains: Vec<ChainStore>,
    proofs: Vec<CheckpointProof>,
    replicas: Vec<ExportReplica>,
    dc: DataCenter,
    rng: Rng,
    builder: BlockBuilder,
    /// Last sequence number recorded.
    sn: u64,
    /// `(height, hash)` of the newest block recorded onto the replicas.
    recorded_head: (u64, Digest),
}

impl Train {
    fn new(train: u64, seed: u64) -> Self {
        let id = TrainId(train);
        let (pairs, keystore) = Keystore::generate(REPLICAS, seed ^ (train << 32) ^ 0x5EED);
        let (dc_pairs, dc_keystore) = Keystore::generate(1, seed ^ (train << 32) ^ 0xDC00);
        let dc = DataCenter::new(
            DcConfig {
                id: DcId(0),
                train: id,
                n_replicas: REPLICAS,
                replica_quorum: QUORUM,
                peers: vec![],
            },
            dc_pairs[0].clone(),
            keystore.clone(),
            QUORUM,
        );
        let replicas = (0..REPLICAS)
            .map(|r| {
                ExportReplica::new(
                    NodeId(r as u64),
                    pairs[r].clone(),
                    dc_keystore.clone(),
                    ReplicaExportConfig { delete_quorum: 1 },
                )
                .with_train(id)
            })
            .collect();
        let genesis = Block::genesis();
        Train {
            id,
            pairs,
            keystore,
            chains: (0..REPLICAS).map(|_| ChainStore::new()).collect(),
            proofs: Vec::new(),
            replicas,
            dc,
            rng: Rng::new(seed, train),
            builder: BlockBuilder::new(BLOCK_SIZE),
            sn: 0,
            recorded_head: (genesis.height(), genesis.hash()),
        }
    }

    /// Records the next segment's bus cycles onto every replica's chain
    /// and certifies its head as the latest stable checkpoint — what the
    /// train's replica group would hold when the data center calls.
    fn record(&mut self, n_blocks: usize) {
        let mut blocks = Vec::with_capacity(n_blocks);
        while blocks.len() < n_blocks {
            self.sn += 1;
            let sn = self.sn;
            let request = LoggedRequest {
                sn,
                origin: sn % REPLICAS as u64,
                payload: signal_payload(&mut self.rng, self.id.0, sn),
            };
            if let Some(block) = self.builder.push(request, sn * CYCLE_MS) {
                blocks.push(block);
            }
        }
        let last = blocks.last().expect("segment has blocks");
        self.recorded_head = (last.height(), last.hash());
        self.proofs = vec![certify(&self.pairs, self.sn, last)];
        for block in blocks {
            for chain in &mut self.chains {
                chain.append(block.clone()).expect("recorded blocks chain");
            }
        }
    }

    /// One synchronous Fig. 4 round: read, checkpoint replies, blocks,
    /// verify, delete, acks. Returns the certified segments it adopted.
    fn export_round(&mut self) -> Vec<CertifiedSegment> {
        let mut effects = self.dc.begin_export(NodeId(1));
        while let Some(effect) = effects.pop() {
            match effect {
                DcEffect::Broadcast { message } => {
                    for r in 0..REPLICAS {
                        let replies = self.replicas[r].handle(
                            message.clone(),
                            &mut self.chains[r],
                            &self.proofs,
                        );
                        for reply in replies {
                            effects.extend(self.dc.on_replica_message(NodeId(r as u64), reply));
                        }
                    }
                }
                DcEffect::Send {
                    to: DcAddr::Replica(to),
                    message,
                } => {
                    let r = to.0 as usize;
                    for reply in self.replicas[r].handle(message, &mut self.chains[r], &self.proofs)
                    {
                        effects.extend(self.dc.on_replica_message(to, reply));
                    }
                }
                _ => {}
            }
        }
        self.dc.drain_certified_segments()
    }
}

/// The trains, archive and server of one set-up.
struct Ground {
    dir: DataDir,
    trains: Vec<Train>,
    archive: FleetArchive,
    server: ApiServer,
    registry: Arc<Registry>,
}

/// The timed part of a set-up: every train's keys, and the certified
/// segments its replica group hands over before the window (recorded
/// signal blocks, then one Fig. 4 export round per segment).
fn generate(seed: u64) -> (Vec<Train>, Vec<CertifiedSegment>) {
    let mut trains: Vec<Train> = (1..=TRAINS).map(|t| Train::new(t, seed)).collect();
    let mut segments = Vec::new();
    for train in &mut trains {
        for _ in 0..PREPOPULATED_SEGMENTS {
            train.record(PREPOPULATED_SEGMENT_BLOCKS);
            segments.extend(train.export_round());
        }
    }
    (trains, segments)
}

/// The untimed part: a fresh disk-backed archive holding `segments`, and
/// its HTTP server. Its fsyncs make its time follow the host's disk.
fn populate(
    args: &RunArgs,
    rep: usize,
    trains: Vec<Train>,
    segments: &[CertifiedSegment],
) -> std::io::Result<Ground> {
    let dir = DataDir::fresh(&args.workload, rep)?;
    let archive = FleetArchive::open(dir.path(), QUORUM)?;
    for train in &trains {
        archive.register_train(train.id, train.keystore.clone())?;
    }
    for segment in segments {
        archive
            .ingest(segment)
            .map_err(|e| std::io::Error::other(format!("pre-population: {e}")))?;
    }
    let registry = Arc::new(Registry::new());
    let server = ApiServer::start(
        ApiConfig::open(),
        Backend::Fleet(archive.clone()),
        Arc::clone(&registry),
    )?;
    Ok(Ground {
        dir,
        trains,
        archive,
        server,
        registry,
    })
}

/// Per-round timings of the writer, ns since the clock epoch.
#[derive(Debug, Clone, Copy)]
struct Round {
    start: u64,
    exported: u64,
    ingested: u64,
    requests: usize,
    ingest_errors: usize,
}

/// Writer loop: record, export, ingest, back to back over the trains.
fn write(
    trains: &mut [Train],
    archive: &FleetArchive,
    clock: Clock,
    end: u64,
    spans: &mut Option<Spans>,
    window_end: &Barrier,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut next = 0;
    while clock.now_ns() < end {
        let train = &mut trains[next % trains.len()];
        next += 1;
        let recording = clock.now_ns();
        train.record(BLOCKS_PER_SEGMENT);
        let start = clock.now_ns();
        let segments = train.export_round();
        let exported = clock.now_ns();
        let mut ingest_errors = 0;
        let mut requests = 0;
        for segment in &segments {
            match archive.ingest(segment) {
                Ok(_) => {
                    requests += segment
                        .blocks
                        .iter()
                        .map(|b| b.requests.len())
                        .sum::<usize>()
                }
                Err(_) => ingest_errors += 1,
            }
        }
        if segments.len() != 1 {
            ingest_errors += 1;
        }
        let ingested = clock.now_ns();
        let id = rounds.len() as u64;
        let parent = record(
            spans,
            Span {
                name: "round",
                id,
                parent: None,
                node: None,
                start_ns: recording,
                end_ns: ingested,
            },
        );
        for (name, start_ns, end_ns) in [
            ("record", recording, start),
            ("export", start, exported),
            ("ingest", exported, ingested),
        ] {
            record(
                spans,
                Span {
                    name,
                    id,
                    parent,
                    node: None,
                    start_ns,
                    end_ns,
                },
            );
        }
        rounds.push(Round {
            start,
            exported,
            ingested,
            requests,
            ingest_errors,
        });
    }
    // Stay alive while the window's CPU is read.
    window_end.wait();
    window_end.wait();
    rounds
}

/// Read families of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Page,
    Timeline,
    Bundle,
}

/// One finished read, ns since the clock epoch.
#[derive(Debug, Clone, Copy)]
struct ReadSample {
    kind: Kind,
    sent: u64,
    /// When the answer was received and checked.
    done: u64,
    /// Time spent verifying a bundle offline (0 for other reads).
    verify_ns: u64,
    ok: bool,
}

/// Every decimal value that follows `"key":` in a JSON body, in order.
fn numbers_after(body: &str, key: &str) -> Vec<u64> {
    let pattern = format!("\"{key}\":");
    body.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let digits: String = body[at + pattern.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// A page covers what was asked: full, starting at the block holding
/// `from_sn`, with contiguous sn ranges.
fn page_covers(body: &str, from_sn: u64) -> bool {
    let first = numbers_after(body, "first_sn");
    let last = numbers_after(body, "last_sn");
    first.len() as u64 == PAGE_BLOCKS
        && last.len() == first.len()
        && first[0] <= from_sn
        && from_sn <= last[0]
        && first
            .iter()
            .skip(1)
            .zip(&last)
            .all(|(next, prev)| *next == prev + 1)
}

/// Reader loop: a seeded mix over a working set larger than the cache.
fn read(
    address: SocketAddr,
    keystores: &[(u64, u64, Keystore)],
    seed: u64,
    clock: Clock,
    end: u64,
    spans: &mut Option<Spans>,
    window_end: &Barrier,
) -> Vec<ReadSample> {
    let mut client = HttpClient::new(address);
    let mut rng = Rng::new(seed, 0x4EAD);
    let mut samples = Vec::new();
    while clock.now_ns() < end {
        let (train, archived_sn, keystore) = &keystores[rng.below(keystores.len() as u64) as usize];
        let (kind, span) = match rng.below(10) {
            0..=3 => (Kind::Page, PAGE_BLOCKS * BLOCK_SIZE as u64),
            4..=5 => (Kind::Timeline, TIMELINE_SNS),
            _ => (Kind::Bundle, 0),
        };
        // The whole requested range lies inside the pre-populated sns.
        let sn = 1 + rng.below(archived_sn - span);
        let path = match kind {
            Kind::Page => format!("/v1/trains/{train}/blocks?from_sn={sn}&limit={PAGE_BLOCKS}"),
            Kind::Timeline => format!(
                "/v1/trains/{train}/timeline?from_ms={}&to_ms={}",
                sn * CYCLE_MS,
                (sn + TIMELINE_SNS) * CYCLE_MS
            ),
            Kind::Bundle => format!("/v1/trains/{train}/bundle/{sn}"),
        };
        let sent = clock.now_ns();
        let response = client.get(&path, None).ok().filter(|r| r.status == 200);
        let answered = clock.now_ns();
        let ok = response.is_some_and(|r| match kind {
            Kind::Page => page_covers(&r.text(), sn),
            Kind::Timeline => r.text().contains(&format!("\"train\":{train}")),
            Kind::Bundle => AuditBundle::from_zab_bytes(&r.body)
                .ok()
                .and_then(|bundle| bundle.verify(keystore, QUORUM).ok())
                .is_some_and(|block| block.header.first_sn <= sn && sn <= block.header.last_sn),
        });
        let done = clock.now_ns();
        let id = samples.len() as u64;
        let parent = record(
            spans,
            Span {
                name: "get",
                id,
                parent: None,
                node: None,
                start_ns: sent,
                end_ns: answered,
            },
        );
        let verify_ns = if kind == Kind::Bundle {
            record(
                spans,
                Span {
                    name: "verify",
                    id,
                    parent,
                    node: None,
                    start_ns: answered,
                    end_ns: done,
                },
            );
            done - answered
        } else {
            0
        };
        samples.push(ReadSample {
            kind,
            sent,
            done,
            verify_ns,
            ok,
        });
    }
    // Stay alive, connection open, while the window's CPU is read.
    window_end.wait();
    window_end.wait();
    samples
}

/// Runs the ground workload.
pub fn run(args: &RunArgs) -> std::io::Result<Report> {
    let mut report = Report::default();
    let clock = Clock::start();
    let mut setup = SetupTimes::default();
    let mut earlier_dirs = Vec::new();
    let mut kept: Option<Ground> = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous set-up down first, so only one is ever live;
        // its data stays on disk until the run ends (see `DataDir`).
        if let Some(previous) = kept.take() {
            earlier_dirs.push(previous.dir);
        }
        let (trains, segments) = setup.time(|| Ok(generate(args.seed)))?;
        kept = Some(populate(args, rep, trains, &segments)?);
    }
    let Ground {
        dir,
        mut trains,
        archive,
        mut server,
        registry,
    } = kept.expect("at least one set-up");
    report.facts.push(format!(
        "data_dir={} fs={} trains={TRAINS} prepopulated_segments_per_train={PREPOPULATED_SEGMENTS} \
         archived_requests_before={} segment_blocks_in_window={BLOCKS_PER_SEGMENT}",
        dir.path().display(),
        sys::fs_type(dir.path()),
        archive.request_count()
    ));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let rss_start = sys::rss_mb();
    // Reads target the pre-populated sns, which every shard holds.
    let archived_sn = (PREPOPULATED_SEGMENTS * PREPOPULATED_SEGMENT_BLOCKS * BLOCK_SIZE) as u64;
    let keystores: Vec<(u64, u64, Keystore)> = trains
        .iter()
        .map(|t| (t.id.0, archived_sn, t.keystore.clone()))
        .collect();

    // --- Timed window: writer and reader side by side. ---
    let address = server.address();
    let mut write_spans = args.trace.then(Spans::default);
    let mut read_spans = args.trace.then(Spans::default);
    let start = clock.now_ns();
    let end = start + args.seconds * 1_000_000_000;
    let threads_start = sys::threads();
    let registry_start = RegistrySnap::take(&registry);
    let window_end = Barrier::new(3);
    let (rounds, reads, window_s, threads_end, rss_end, registry_end) =
        std::thread::scope(|scope| {
            let writer = std::thread::Builder::new()
                .name("bench-write".into())
                .spawn_scoped(scope, || {
                    write(
                        &mut trains,
                        &archive,
                        clock,
                        end,
                        &mut write_spans,
                        &window_end,
                    )
                })
                .expect("spawn writer");
            let reader = std::thread::Builder::new()
                .name("bench-read".into())
                .spawn_scoped(scope, || {
                    read(
                        address,
                        &keystores,
                        args.seed,
                        clock,
                        end,
                        &mut read_spans,
                        &window_end,
                    )
                })
                .expect("spawn reader");
            std::thread::sleep(std::time::Duration::from_nanos(
                end.saturating_sub(clock.now_ns()),
            ));
            window_end.wait();
            let window_s = (clock.now_ns() - start) as f64 / 1e9;
            let threads_end = sys::threads();
            let rss_end = sys::rss_mb();
            let registry_end = RegistrySnap::take(&registry);
            window_end.wait();
            (
                writer.join().expect("writer panicked"),
                reader.join().expect("reader panicked"),
                window_s,
                threads_end,
                rss_end,
                registry_end,
            )
        });
    server.stop();

    // --- End-to-end metrics. ---
    let decided: Vec<f64> = rounds.iter().map(|r| ms(r.exported - r.start)).collect();
    let durable: Vec<f64> = rounds.iter().map(|r| ms(r.ingested - r.start)).collect();
    let archived: usize = rounds
        .iter()
        .filter(|r| r.ingested <= end)
        .map(|r| r.requests)
        .sum();
    let read_path = |name: &str| name.starts_with("zugchain-api") || name == "bench-read";
    let write_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, |n| !read_path(n));
    let read_ms: Vec<f64> = reads
        .iter()
        .filter(|r| r.ok)
        .map(|r| ms(r.done - r.sent))
        .collect();
    report.set_pct("decided_p50_ms", percentile(&decided, 0.5));
    report.set_pct("decided_p99_ms", percentile(&decided, 0.99));
    report.set_pct("durable_p50_ms", percentile(&durable, 0.5));
    report.set_pct("durable_p99_ms", percentile(&durable, 0.99));
    report.set("decided_rps", archived as f64 / window_s);
    report.set("cpu_us_per_req", ratio(write_cpu * 1e6, archived as f64));
    report.set_pct("read_p50_ms", percentile(&read_ms, 0.5));
    report.set_pct("read_p99_ms", percentile(&read_ms, 0.99));
    report.set("reads_per_s", read_ms.len() as f64 / window_s);
    setup.report(&mut report);

    let ingest_errors: usize = rounds.iter().map(|r| r.ingest_errors).sum();
    let failed_reads = reads.len() - read_ms.len();
    report.attempted = (rounds.len() + reads.len()) as u64;
    report.failed = (ingest_errors + failed_reads) as u64;
    report.facts.push(format!(
        "export_rounds={} archived_requests={archived} reads={} window_s={window_s:.3}",
        rounds.len(),
        reads.len()
    ));

    // --- Per-layer metrics (traced run). ---
    if args.trace {
        let total_requests: usize = rounds.iter().map(|r| r.requests).sum();
        let export_ns: u64 = rounds.iter().map(|r| r.exported - r.start).sum();
        let ingest_ns: u64 = rounds.iter().map(|r| r.ingested - r.exported).sum();
        let ingest_ms: Vec<f64> = rounds.iter().map(|r| ms(r.ingested - r.exported)).collect();
        report.set_pct("export.round_ms_p50", percentile(&decided, 0.5));
        report.set_pct("export.round_ms_p99", percentile(&decided, 0.99));
        report.set(
            "export.us_per_req",
            ratio(export_ns as f64 / 1e3, total_requests as f64),
        );
        report.set(
            "archive.ingest_us_per_req",
            ratio(ingest_ns as f64 / 1e3, total_requests as f64),
        );
        report.set_pct("archive.ingest_ms_p99", percentile(&ingest_ms, 0.99));
        let verify_us: Vec<f64> = reads
            .iter()
            .filter(|r| r.verify_ns > 0)
            .map(|r| r.verify_ns as f64 / 1e3)
            .collect();
        report.set_pct("archive.bundle_verify_us_p50", percentile(&verify_us, 0.5));
        report.set("archive.ingest_errors", ingest_errors as f64);
        report.set(
            "api.server_latency_us_p50",
            registry_end.histogram_quantile(&registry_start, "zugchain_api_latency_us", 0.5),
        );
        let hits = registry_end.delta(&registry_start, "zugchain_api_cache_hits_total");
        let misses = registry_end.delta(&registry_start, "zugchain_api_cache_misses_total");
        report.set("api.cache_hit_ratio", ratio(hits, hits + misses));
        report.set("api.cache_lookups", hits + misses);
        let api_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, |n| {
            n.starts_with("zugchain-api")
        });
        report.set(
            "api.cpu_us_per_read",
            ratio(api_cpu * 1e6, reads.len() as f64),
        );
        let checkpoint = Checkpoint {
            sn: 1,
            state_digest: Digest::of(b"checkpoint"),
        };
        let (sign_us, verify_us) = crypto_costs(
            &zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint)),
            args.seed,
        );
        report.set("crypto.sign_us", sign_us);
        report.set("crypto.verify_us", verify_us);
        report.set(
            "bench.failed_ratio",
            ratio(report.failed as f64, report.attempted as f64),
        );
        report.set(
            "bench.rss_growth_kib_per_req",
            ratio((rss_end - rss_start) * 1024.0, archived as f64),
        );
        let all_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, |_| true);
        let tracing_ns = write_spans.as_ref().map_or(0, Spans::cost_ns)
            + read_spans.as_ref().map_or(0, Spans::cost_ns);
        report.set(
            "bench.trace_overhead_pct",
            ratio(tracing_ns as f64 / 1e9 * 100.0, all_cpu),
        );
    }

    // --- Output checks. ---
    let mut wrong_heads = Vec::new();
    for train in &trains {
        let archived_head = archive.head_of(train.id);
        if archived_head != Some(train.recorded_head) || !train.dc.verify_archive() {
            wrong_heads.push(train.id.0);
        }
    }
    report.check(
        "shard_heads_equal_generated_heads",
        wrong_heads.is_empty(),
        format!("trains with a wrong head: {wrong_heads:?}"),
    );
    report.check(
        "ingest_ok",
        ingest_errors == 0 && !rounds.is_empty(),
        format!("{ingest_errors} ingest errors in {} rounds", rounds.len()),
    );
    for (check, kind) in [
        ("pages_cover_requested_sns", Kind::Page),
        ("timelines_served", Kind::Timeline),
        ("bundles_verify_offline", Kind::Bundle),
    ] {
        let issued = reads.iter().filter(|r| r.kind == kind).count();
        let failed = reads.iter().filter(|r| r.kind == kind && !r.ok).count();
        report.check(
            check,
            failed == 0 && issued > 0,
            format!("{failed} of {issued} failed"),
        );
    }
    if let Some(mut spans) = write_spans {
        if let Some(reads) = read_spans {
            spans.extend(reads);
        }
        crate::write_spans(&mut report, &args.workload, &spans);
    }
    drop(earlier_dirs);
    Ok(report)
}
