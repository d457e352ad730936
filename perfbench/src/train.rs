//! The on-train workloads: 1 kB bus payloads fed to all four replicas of
//! a live runtime, timed from feed (or due) time to `Logged` and
//! `BlockCreated` events on a quorum.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use zugchain::NodeConfig;
use zugchain_blockchain::{verify_chain, DiskStore};
use zugchain_crypto::Digest;
use zugchain_sim::runtime::{ClusterEvent, NodeSummary};

use crate::cluster::{Cluster, REPLICAS, TCP_READER_THREAD};
use crate::layers::{crypto_costs, gauge_sum, RegistrySnap};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{mean, percentile, ratio};
use crate::sys;
use crate::trace::{ms, record, Clock, Span, Spans};
use crate::{DataDir, RunArgs, SetupTimes, SETUP_REPS};

/// 2f + 1 of the four replicas.
const QUORUM: u8 = 3;
/// Bus payload size of the paper's evaluation.
const PAYLOAD_BYTES: usize = 1024;
/// The paper's bus cycle.
const CYCLE_MS: u64 = 64;
/// Requests outstanding in the closed loops (= `open_request_limit`).
const WINDOW: usize = 16;
/// The open-loop generator polls instead of sleeping this close to a due time.
const SPIN_NS: u64 = 300_000;
/// Name of the thread that feeds payloads and follows cluster events.
const LOAD_THREAD: &str = "bench-load";
/// How long after the window requests may take to become durable.
const DRAIN: Duration = Duration::from_secs(10);
/// Blocks fed during each set-up, before the timed window.
const WARMUP_BLOCKS: usize = 10;
/// How often a traced run samples the queue-length gauges.
const GAUGE_PERIOD_NS: u64 = 5_000_000;

/// How load arrives.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// One payload per bus cycle, timed from when it was due.
    OpenLoop,
    /// The next payload is fed when one is decided on a quorum.
    ClosedLoop,
}

/// One on-train workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    /// TCP runtime (no disk) instead of the channel runtime.
    pub tcp: bool,
    /// Persist blocks and proofs through `DiskStore`.
    pub disk: bool,
    /// Arrival process.
    pub load: Load,
}

/// Unique, seeded 1 kB payloads: seed and counter up front, seeded filler
/// after, so the duplicate filter never drops one.
struct Payloads {
    seed: u64,
    next: u64,
}

impl Payloads {
    fn next(&mut self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(PAYLOAD_BYTES + 8);
        payload.extend_from_slice(&self.seed.to_le_bytes());
        payload.extend_from_slice(&self.next.to_le_bytes());
        let mut rng = Rng::new(self.seed, self.next);
        while payload.len() < PAYLOAD_BYTES {
            payload.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        payload.truncate(PAYLOAD_BYTES);
        self.next += 1;
        payload
    }
}

/// What the benchmark knows about one fed request.
#[derive(Debug, Clone, Copy, Default)]
struct Req {
    /// When it was due (open loop) or fed (closed loop), ns.
    due: u64,
    /// When the feed call returned, ns.
    fed: u64,
    /// First `Logged` receipt, ns.
    first: u64,
    /// `Logged` receipt that completed a quorum, ns.
    quorum: u64,
    /// Quorum `BlockCreated` receipt of its block, ns.
    durable: u64,
    /// Replicas that logged it.
    mask: u8,
    feed_span: Option<u32>,
}

/// Follows every request through the cluster's event stream.
struct Tracker {
    clock: Clock,
    block_size: usize,
    reqs: Vec<Req>,
    digests: Vec<Digest>,
    by_digest: HashMap<Digest, u32>,
    /// Request ids in log order, per replica.
    logs: Vec<Vec<u32>>,
    /// `BlockCreated` receipts per height.
    blocks: HashMap<u64, u8>,
    sn_req: HashMap<u64, u32>,
    checkpoints: HashMap<u64, u8>,
    checkpoint_lags_ms: Vec<f64>,
    /// Receipt times of block and proof writes (fsyncs on disk runtimes).
    persist_events: Vec<u64>,
    duplicates: u64,
    unknown: u64,
    decided: usize,
    spans: Option<Spans>,
}

impl Tracker {
    fn new(clock: Clock, traced: bool) -> Self {
        Tracker {
            clock,
            block_size: NodeConfig::evaluation_default().block_size,
            reqs: Vec::new(),
            digests: Vec::new(),
            by_digest: HashMap::new(),
            logs: vec![Vec::new(); REPLICAS],
            blocks: HashMap::new(),
            sn_req: HashMap::new(),
            checkpoints: HashMap::new(),
            checkpoint_lags_ms: Vec::new(),
            persist_events: Vec::new(),
            duplicates: 0,
            unknown: 0,
            decided: 0,
            spans: traced.then(Spans::default),
        }
    }

    /// Feeds the next payload, due at `due` ns; returns its id.
    fn feed(&mut self, cluster: &Cluster, payloads: &mut Payloads, due: u64) -> usize {
        let payload = payloads.next();
        let digest = Digest::of(&payload);
        let id = self.reqs.len();
        self.by_digest.insert(digest, id as u32);
        self.digests.push(digest);
        let start = self.clock.now_ns();
        cluster.feed(payload);
        let fed = self.clock.now_ns();
        let feed_span = record(
            &mut self.spans,
            Span {
                name: "feed",
                id: id as u64,
                parent: None,
                node: None,
                start_ns: start,
                end_ns: fed,
            },
        );
        self.reqs.push(Req {
            due,
            fed,
            feed_span,
            ..Req::default()
        });
        id
    }

    fn on_event(&mut self, event: ClusterEvent) {
        let now = self.clock.now_ns();
        match event {
            ClusterEvent::Logged {
                node, sn, digest, ..
            } => {
                let Some(&id) = self.by_digest.get(&digest) else {
                    self.unknown += 1;
                    return;
                };
                let bit = 1u8 << node.0;
                let req = &mut self.reqs[id as usize];
                if req.mask & bit != 0 {
                    self.duplicates += 1;
                    return;
                }
                req.mask |= bit;
                let logged = req.mask.count_ones() as u8;
                if logged == 1 {
                    req.first = now;
                }
                if logged == QUORUM {
                    req.quorum = now;
                    self.decided += 1;
                    self.sn_req.insert(sn, id);
                }
                let (parent, start) = (req.feed_span, req.fed);
                self.logs[node.0 as usize].push(id);
                record(
                    &mut self.spans,
                    Span {
                        name: "logged",
                        id: u64::from(id),
                        parent,
                        node: Some(node.0 as u8),
                        start_ns: start,
                        end_ns: now,
                    },
                );
            }
            ClusterEvent::BlockCreated { node, height, .. } => {
                self.persist_events.push(now);
                let count = self.blocks.entry(height).or_default();
                *count += 1;
                let quorum = *count == QUORUM;
                let log = &self.logs[node.0 as usize];
                let from = (height as usize - 1) * self.block_size;
                let ids = log
                    .get(from..(from + self.block_size).min(log.len()))
                    .unwrap_or(&[]);
                if quorum {
                    for &id in ids {
                        self.reqs[id as usize].durable = now;
                    }
                }
                if let Some(&last) = ids.last() {
                    let req = self.reqs[last as usize];
                    record(
                        &mut self.spans,
                        Span {
                            name: "block",
                            id: u64::from(last),
                            parent: req.feed_span,
                            node: Some(node.0 as u8),
                            start_ns: req.quorum.min(now),
                            end_ns: now,
                        },
                    );
                }
            }
            ClusterEvent::CheckpointStable { node, sn } => {
                self.persist_events.push(now);
                let count = self.checkpoints.entry(sn).or_default();
                *count += 1;
                if let Some(&id) = self.sn_req.get(&sn) {
                    let req = self.reqs[id as usize];
                    if *count == QUORUM {
                        self.checkpoint_lags_ms
                            .push(ms(now.saturating_sub(req.quorum)));
                    }
                    record(
                        &mut self.spans,
                        Span {
                            name: "checkpoint",
                            id: u64::from(id),
                            parent: req.feed_span,
                            node: Some(node.0 as u8),
                            start_ns: req.quorum.min(now),
                            end_ns: now,
                        },
                    );
                }
            }
            // Counted from the registry (`pbft.view_changes`).
            ClusterEvent::ViewChange { .. } => {}
        }
    }

    /// Whether every fed request is durable on a quorum and logged by all.
    fn settled(&self) -> bool {
        self.reqs
            .iter()
            .all(|r| r.durable > 0 && r.mask.count_ones() as usize == REPLICAS)
    }

    /// Receives events until `done` holds or `deadline` (ns) passes.
    fn wait(&mut self, cluster: &Cluster, deadline: u64, done: impl Fn(&Tracker) -> bool) {
        while !done(self) {
            let now = self.clock.now_ns();
            if now >= deadline {
                return;
            }
            let wait = Duration::from_nanos((deadline - now).min(50_000_000));
            if let Some(event) = cluster.next_event(wait) {
                self.on_event(event);
            }
        }
    }
}

fn start_cluster(workload: &TrainWorkload, dir: Option<&Path>) -> std::io::Result<Cluster> {
    let config = NodeConfig::evaluation_default();
    if workload.tcp {
        Cluster::tcp(config)
    } else {
        Ok(Cluster::threaded(config, dir))
    }
}

/// One set-up: fresh data directory, cluster start, and warm-up blocks
/// fed in a closed loop until durable on every replica.
fn set_up(
    workload: &TrainWorkload,
    args: &RunArgs,
    rep: usize,
    clock: Clock,
    payloads: &mut Payloads,
) -> std::io::Result<(Option<DataDir>, Cluster, Tracker)> {
    let dir = workload
        .disk
        .then(|| DataDir::fresh(&args.workload, rep))
        .transpose()?;
    let cluster = start_cluster(workload, dir.as_ref().map(DataDir::path))?;
    let mut tracker = Tracker::new(clock, args.trace);
    let warm = WARMUP_BLOCKS * tracker.block_size;
    let deadline = clock.now_ns() + DRAIN.as_nanos() as u64;
    while tracker.reqs.len() < warm && clock.now_ns() < deadline {
        while tracker.reqs.len() < warm && tracker.reqs.len() - tracker.decided < WINDOW {
            let now = clock.now_ns();
            tracker.feed(&cluster, payloads, now);
        }
        tracker.wait(&cluster, deadline, |t| t.reqs.len() - t.decided < WINDOW);
    }
    let last_block = WARMUP_BLOCKS as u64;
    tracker.wait(&cluster, deadline, |t| {
        t.settled() && t.blocks.get(&last_block).copied().unwrap_or(0) as usize == REPLICAS
    });
    if !tracker.settled() {
        return Err(std::io::Error::other(
            "warm-up blocks did not become durable",
        ));
    }
    Ok((dir, cluster, tracker))
}

/// Runs one on-train workload.
pub fn run(workload: TrainWorkload, args: &RunArgs) -> std::io::Result<Report> {
    let mut report = Report::default();
    // Name the driving thread so its CPU is told apart from the program's.
    let _ = std::fs::write("/proc/thread-self/comm", LOAD_THREAD);
    let clock = Clock::start();
    let mut payloads = Payloads {
        seed: args.seed,
        next: 0,
    };

    // Set up several times; keep the last cluster. Earlier set-ups' data
    // stays on disk until the run ends, so removing it cannot stall the
    // window's fsyncs.
    let mut setup = SetupTimes::default();
    let mut earlier_dirs = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (dir, cluster, tracker) =
            setup.time(|| set_up(&workload, args, rep, clock, &mut payloads))?;
        if rep + 1 < SETUP_REPS {
            cluster.shutdown();
            earlier_dirs.push(dir);
        } else {
            kept = Some((dir, cluster, tracker));
        }
    }
    let (dir, cluster, mut tracker) = kept.expect("at least one set-up");
    if let Some(dir) = &dir {
        report.facts.push(format!(
            "data_dir={} fs={}",
            dir.path().display(),
            sys::fs_type(dir.path())
        ));
    }
    let warm = tracker.reqs.len();
    let registry = cluster.registry();
    report.set("peak_rss_mb", sys::peak_rss_mb());
    let rss_start = sys::rss_mb();

    // --- Timed window. ---
    let period_ns = CYCLE_MS * 1_000_000;
    let open_total = {
        // A whole number of blocks, so every request can become durable.
        let cycles = (args.seconds * 1000).div_ceil(CYCLE_MS) as usize;
        cycles.div_ceil(tracker.block_size) * tracker.block_size
    };
    let start = clock.now_ns();
    let end = match workload.load {
        Load::OpenLoop => start + open_total as u64 * period_ns,
        Load::ClosedLoop => start + args.seconds * 1_000_000_000,
    };
    let threads_start = sys::threads();
    let registry_start = RegistrySnap::take(&registry);
    let mut backlog = Vec::new();
    let mut open_requests = Vec::new();
    let mut gauge_ns = 0;
    let mut next_due = start;
    let mut next_gauge = start;
    loop {
        let now = clock.now_ns();
        if now >= end {
            break;
        }
        let mut wake = end;
        match workload.load {
            Load::OpenLoop => {
                while next_due <= now && tracker.reqs.len() < warm + open_total {
                    tracker.feed(&cluster, &mut payloads, next_due);
                    next_due += period_ns;
                }
                // Sleep until just before the next due time, then poll:
                // a timed wake-up alone runs up to a millisecond late.
                wake = wake.min(next_due.saturating_sub(SPIN_NS));
            }
            Load::ClosedLoop => {
                while tracker.reqs.len() - tracker.decided < WINDOW {
                    tracker.feed(&cluster, &mut payloads, clock.now_ns());
                }
            }
        }
        if args.trace {
            if now >= next_gauge {
                let sampling = Instant::now();
                backlog.push(gauge_sum(&registry, "zugchain_pbft_backlog_len", REPLICAS));
                open_requests.push(gauge_sum(
                    &registry,
                    "zugchain_node_open_requests",
                    REPLICAS,
                ));
                gauge_ns += sampling.elapsed().as_nanos() as u64;
                next_gauge += GAUGE_PERIOD_NS;
            }
            wake = wake.min(next_gauge);
        }
        let wait = Duration::from_nanos(wake.saturating_sub(clock.now_ns()));
        if let Some(event) = cluster.next_event(wait) {
            tracker.on_event(event);
        }
    }
    let window_s = (clock.now_ns() - start) as f64 / 1e9;
    let threads_end = sys::threads();
    let rss_end = sys::rss_mb();
    let registry_end = RegistrySnap::take(&registry);

    // Top up to a whole number of blocks, then drain.
    while tracker.reqs.len() % tracker.block_size != 0 {
        let now = clock.now_ns();
        tracker.feed(&cluster, &mut payloads, now);
    }
    let deadline = clock.now_ns() + DRAIN.as_nanos() as u64;
    tracker.wait(&cluster, deadline, Tracker::settled);
    let registry_drained = RegistrySnap::take(&registry);
    let summaries = cluster.shutdown();

    // --- End-to-end metrics. ---
    let timed: Vec<Req> = tracker.reqs[warm..]
        .iter()
        .filter(|r| r.due < end)
        .copied()
        .collect();
    let decided_ms: Vec<f64> = timed
        .iter()
        .filter(|r| r.quorum > 0)
        .map(|r| ms(r.quorum - r.due))
        .collect();
    let durable_ms: Vec<f64> = timed
        .iter()
        .filter(|r| r.durable > 0)
        .map(|r| ms(r.durable - r.due))
        .collect();
    let in_window = tracker.reqs[warm..]
        .iter()
        .filter(|r| r.quorum >= start && r.quorum < end)
        .count() as f64;
    // The program's threads: every one but the benchmark's load thread.
    let program_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, |n| n != LOAD_THREAD);
    report.set_pct("decided_p50_ms", percentile(&decided_ms, 0.5));
    report.set_pct("decided_p99_ms", percentile(&decided_ms, 0.99));
    report.set_pct("durable_p50_ms", percentile(&durable_ms, 0.5));
    report.set_pct("durable_p99_ms", percentile(&durable_ms, 0.99));
    report.set("decided_rps", in_window / window_s);
    report.set("cpu_us_per_req", ratio(program_cpu * 1e6, in_window));
    setup.report(&mut report);

    let fed = (tracker.reqs.len() - warm) as u64;
    let undurable = tracker.reqs[warm..]
        .iter()
        .filter(|r| r.durable == 0)
        .count() as u64;
    report.attempted = fed;
    report.failed = undurable;
    report.facts.push(format!(
        "requests fed={fed} (plus {warm} warm-up) decided_in_window={in_window} window_s={window_s:.3}"
    ));

    // --- Per-layer metrics (traced run). ---
    if args.trace {
        let (before, after) = (&registry_start, &registry_end);
        let node = |name: &str| name.starts_with("zugchain-node-") || is_tcp_node(name);
        let node_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, node);
        let reader_cpu =
            sys::thread_cpu_delta(&threads_start, &threads_end, |n| n == TCP_READER_THREAD);
        let gen_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, |n| n == LOAD_THREAD);
        report.set("sim.node_cpu_us_per_req", ratio(node_cpu * 1e6, in_window));
        report.set(
            "sim.tcp_reader_cpu_us_per_req",
            ratio(reader_cpu * 1e6, in_window),
        );
        report.set("bench.gen_cpu_us_per_req", ratio(gen_cpu * 1e6, in_window));
        if let Load::OpenLoop = workload.load {
            let late: Vec<f64> = timed
                .iter()
                .map(|r| ms(r.fed.saturating_sub(r.due)))
                .collect();
            report.set_pct("bench.gen_late_p99_ms", percentile(&late, 0.99));
        }
        report.set(
            "pbft.msgs_per_req",
            ratio(
                after.delta(before, "zugchain_pbft_messages_total"),
                in_window,
            ),
        );
        report.set(
            "pbft.reqs_per_batch",
            ratio(
                after.delta(before, "zugchain_pbft_decided_total"),
                after.delta(before, "zugchain_pbft_batches_decided_total"),
            ),
        );
        report.set("pbft.backlog_mean", mean(&backlog) / REPLICAS as f64);
        let first: Vec<f64> = timed
            .iter()
            .filter(|r| r.first > 0)
            .map(|r| ms(r.first - r.due))
            .collect();
        let lag: Vec<f64> = timed
            .iter()
            .filter(|r| r.quorum > 0)
            .map(|r| ms(r.quorum - r.first))
            .collect();
        report.set_pct("pbft.first_decide_ms_p50", percentile(&first, 0.5));
        report.set_pct("pbft.quorum_lag_ms_p50", percentile(&lag, 0.5));
        report.set_pct("pbft.quorum_lag_ms_p99", percentile(&lag, 0.99));
        report.set_pct(
            "pbft.checkpoint_lag_ms_p50",
            percentile(&tracker.checkpoint_lags_ms, 0.5),
        );
        report.set(
            "pbft.view_changes",
            after.delta(before, "zugchain_pbft_view_changes_total"),
        );
        report.set(
            "pbft.invalid_signatures",
            after.delta(before, "zugchain_pbft_invalid_signatures_total"),
        );
        report.set(
            "core.dedup_hits_per_req",
            ratio(
                after.delta(before, "zugchain_node_dedup_hits_total"),
                in_window,
            ),
        );
        report.set(
            "core.open_requests_mean",
            mean(&open_requests) / REPLICAS as f64,
        );
        report.set(
            "core.rate_limited",
            after.delta(before, "zugchain_node_rate_limited_total"),
        );

        // Blocks of the window, in log order of replica 0.
        let mut fill_wait = Vec::new();
        let mut persist = Vec::new();
        for block in tracker.logs[0].chunks(tracker.block_size) {
            let reqs: Vec<Req> = block.iter().map(|&id| tracker.reqs[id as usize]).collect();
            if block[0] < warm as u32 || reqs.iter().any(|r| r.due >= end || r.quorum == 0) {
                continue;
            }
            let last = reqs.iter().map(|r| r.quorum).max().unwrap_or(0);
            fill_wait.extend(reqs.iter().map(|r| ms(last - r.quorum)));
            if reqs[0].durable > 0 {
                persist.push(ms(reqs[0].durable.saturating_sub(last)));
            }
        }
        report.set_pct("blockchain.fill_wait_ms_p50", percentile(&fill_wait, 0.5));
        report.set_pct("blockchain.persist_ms_p50", percentile(&persist, 0.5));
        report.set_pct("blockchain.persist_ms_p99", percentile(&persist, 0.99));
        if workload.disk {
            let writes = tracker
                .persist_events
                .iter()
                .filter(|t| **t >= start && **t < end)
                .count();
            report.set("blockchain.fsyncs_per_req", ratio(writes as f64, in_window));
        }
        let (sign_us, verify_us) = crypto_costs(
            &Payloads {
                seed: args.seed,
                next: 0,
            }
            .next(),
            args.seed,
        );
        report.set("crypto.sign_us", sign_us);
        report.set("crypto.verify_us", verify_us);
        let all_cpu = sys::thread_cpu_delta(&threads_start, &threads_end, |_| true);
        let tracing_ns = tracker.spans.as_ref().map_or(0, Spans::cost_ns) + gauge_ns;
        report.set(
            "bench.trace_overhead_pct",
            ratio(tracing_ns as f64 / 1e9 * 100.0, all_cpu),
        );
        report.set(
            "bench.failed_ratio",
            ratio(report.failed as f64, report.attempted as f64),
        );
        report.set(
            "bench.rss_growth_kib_per_req",
            ratio((rss_end - rss_start) * 1024.0, in_window),
        );
    }

    // --- Output checks. ---
    check_chains(&mut report, &tracker, &summaries, warm);
    if let Some(dir) = &dir {
        check_disk(&mut report, dir.path(), &summaries);
    }
    // Counted from the window's start until every request has settled.
    for (check, counter) in [
        ("no_view_changes", "zugchain_pbft_view_changes_total"),
        (
            "no_invalid_signatures",
            "zugchain_pbft_invalid_signatures_total",
        ),
        (
            "no_rate_limited_requests",
            "zugchain_node_rate_limited_total",
        ),
    ] {
        let count = registry_drained.delta(&registry_start, counter);
        report.check(check, count == 0.0, format!("{counter} grew by {count}"));
    }
    if let Some(spans) = tracker.spans.take() {
        crate::write_spans(&mut report, &args.workload, &spans);
    }
    drop(earlier_dirs);
    Ok(report)
}

/// A TCP node thread: `zugchain-tcp-<digit>` (not the reader name).
fn is_tcp_node(name: &str) -> bool {
    name.strip_prefix("zugchain-tcp-")
        .is_some_and(|rest| rest.chars().all(|c| c.is_ascii_digit()) && !rest.is_empty())
}

fn check_chains(report: &mut Report, tracker: &Tracker, summaries: &[NodeSummary], warm: usize) {
    let fed = tracker.reqs.len();
    let head = summaries[0].chain.head_hash();
    let agree = summaries.iter().all(|s| s.chain.head_hash() == head);
    let heights: Vec<u64> = summaries.iter().map(|s| s.chain.height()).collect();
    report.check(
        "chains_share_one_head",
        agree
            && heights
                .iter()
                .all(|h| *h as usize * tracker.block_size == fed),
        format!("heights {heights:?} for {fed} requests"),
    );
    report.check(
        "chain_verifies",
        verify_chain(summaries[0].chain.blocks(), None).is_ok(),
        "verify_chain on replica 0",
    );
    let all_logged = tracker
        .reqs
        .iter()
        .all(|r| r.mask.count_ones() as usize == REPLICAS);
    report.check(
        "logged_once_per_replica",
        all_logged && tracker.duplicates == 0 && tracker.unknown == 0,
        format!(
            "{} duplicate and {} unknown Logged events; log lengths {:?}",
            tracker.duplicates,
            tracker.unknown,
            tracker.logs.iter().map(Vec::len).collect::<Vec<_>>()
        ),
    );
    let chained: Vec<Digest> = summaries[0]
        .chain
        .blocks()
        .iter()
        .flat_map(|b| b.requests.iter().map(|r| Digest::of(&r.payload)))
        .collect();
    let logged: Vec<Digest> = tracker.logs[0]
        .iter()
        .map(|&id| tracker.digests[id as usize])
        .collect();
    report.check(
        "chain_holds_fed_payloads",
        chained == logged && chained.len() == fed,
        format!(
            "{} payloads in the chain, {fed} fed ({warm} warm-up)",
            chained.len()
        ),
    );
}

fn check_disk(report: &mut Report, dir: &Path, summaries: &[NodeSummary]) {
    let mut mismatches = Vec::new();
    for summary in summaries {
        let on_disk = DiskStore::open(dir.join(format!("node-{}", summary.id.0)))
            .and_then(|store| store.load_chain());
        let same = on_disk.as_ref().is_ok_and(|blocks| {
            blocks.len() == summary.chain.blocks().len()
                && blocks
                    .iter()
                    .zip(summary.chain.blocks())
                    .all(|(a, b)| a.hash() == b.hash())
        });
        if !same {
            mismatches.push(summary.id.0);
        }
    }
    report.check(
        "disk_chain_equals_memory",
        mismatches.is_empty(),
        format!("replicas differing: {mismatches:?}"),
    );
}
