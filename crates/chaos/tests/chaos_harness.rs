//! End-to-end harness tests: the honest seed bank, execution
//! determinism, and the injected-bug detection pipeline (catch →
//! minimize → persist → replay).

use zugchain_chaos::{
    execute, minimize, parse_repro, run_seed, write_repro, ChaosPlan, NetPlan, ViolationKind,
};

/// Seeds checked on every `cargo test`. The extended bank (see
/// `honest_seed_bank_extended`) and the CI `chaos-smoke` job cover
/// hundreds more in release mode; EXPERIMENTS.md records the
/// convention.
const SEED_BANK: u64 = 24;

#[test]
fn honest_seed_bank_has_no_violations() {
    for seed in 0..SEED_BANK {
        let (plan, outcome) = run_seed(seed, false);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} violated an invariant: {}\nplan: {plan:#?}",
            outcome.violation.unwrap(),
        );
        // Untouched majorities must actually make progress, otherwise
        // the invariant checks are vacuous.
        assert!(outcome.blocks_created > 0, "seed {seed} created no blocks");
        assert!(
            outcome.delivered_messages > 0,
            "seed {seed} delivered no messages"
        );
    }
}

/// Release-mode deep sweep (`cargo test --release -- --ignored`): the
/// acceptance target is 500+ seeds in under a minute.
#[test]
#[ignore = "release-mode sweep; run explicitly or via the chaos-smoke CI job"]
fn honest_seed_bank_extended() {
    for seed in 0..500 {
        let (_, outcome) = run_seed(seed, false);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} violated an invariant: {}",
            outcome.violation.unwrap(),
        );
    }
}

/// The batched protocol under the same invariant battery: every seed is
/// forced onto `max_batch_size > 1`, and I1–I8 must hold for every
/// request *inside* each batch (the invariant hooks observe per-request
/// decides, so one bad unpacking shows up as a decide conflict or a
/// liveness loss).
#[test]
fn batched_seed_bank_has_no_violations() {
    for seed in 0..SEED_BANK {
        let plan = ChaosPlan::generate(seed).with_max_batch_size(2 + (seed as usize % 15));
        let outcome = execute(&plan);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} (batch {}) violated an invariant: {}\nplan: {plan:#?}",
            plan.max_batch_size,
            outcome.violation.unwrap(),
        );
        assert!(outcome.blocks_created > 0, "seed {seed} created no blocks");
    }
}

/// The 128-seed batched smoke sweep the chaos-smoke CI job runs in
/// release mode.
#[test]
#[ignore = "release-mode sweep; run explicitly or via the chaos-smoke CI job"]
fn batched_seed_bank_extended() {
    for seed in 0..128 {
        let plan = ChaosPlan::generate(seed).with_max_batch_size(2 + (seed as usize % 15));
        let outcome = execute(&plan);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} (batch {}) violated an invariant: {}",
            plan.max_batch_size,
            outcome.violation.unwrap(),
        );
    }
}

#[test]
fn execution_is_deterministic() {
    for seed in [3, 11, 17] {
        let (_, first) = run_seed(seed, false);
        let (_, second) = run_seed(seed, false);
        assert_eq!(first.decided, second.decided, "seed {seed}");
        assert_eq!(first.max_view, second.max_view, "seed {seed}");
        assert_eq!(first.blocks_created, second.blocks_created, "seed {seed}");
        assert_eq!(
            first.delivered_messages, second.delivered_messages,
            "seed {seed}"
        );
    }
}

/// The 52 seeds in `0..128` whose plans are unchanged by the removal of
/// the collector vote path and of the MAC authenticator. Both axes came
/// from dedicated RNG streams after every other draw. Each of these
/// seeds drew all-to-all routing, and none drew a Byzantine flip to MAC
/// forging. Seven more all-to-all seeds (16, 20, 45, 61, 101, 112, 126)
/// did draw that flip; their Byzantine node now runs its scheduled
/// behaviour instead, so they left the pin.
const PINNED_SEEDS: [u64; 52] = [
    1, 4, 6, 10, 14, 17, 19, 21, 24, 26, 27, 28, 31, 32, 35, 37, 39, 43, 44, 46, 51, 53, 54, 58,
    64, 66, 67, 68, 69, 71, 74, 75, 78, 83, 84, 85, 86, 88, 90, 92, 93, 94, 103, 104, 109, 113,
    115, 119, 121, 122, 123, 125,
];

/// SHA-256 of the fingerprint below over [`PINNED_SEEDS`], taken at the
/// last commit that had the MAC authenticator (423 213 bytes). The 25 of
/// these seeds whose plan drew MAC mode there replayed byte-identically
/// when pinned to signatures.
const PINNED_SEEDS_SHA256: &str =
    "b867f00474abbdf8a9684daf00b0f555371117e558f613a2a498a006724ff907";

/// Behaviour pin for the one vote path and the one authentication path:
/// every pinned seed's run counters and every node's decided
/// `(sn, digest)` log, hashed.
#[test]
fn all_to_all_seed_bank_is_pinned() {
    let mut fingerprint = String::new();
    for seed in PINNED_SEEDS {
        let (_, outcome) = run_seed(seed, false);
        fingerprint.push_str(&format!(
            "seed={seed} delivered={} max_view={} blocks={} archived={} transfers={}\n",
            outcome.delivered_messages,
            outcome.max_view,
            outcome.blocks_created,
            outcome.archived_segments,
            outcome.state_transfers,
        ));
        for (node, log) in outcome.decided.iter().enumerate() {
            for (sn, digest) in log {
                fingerprint.push_str(&format!("{node} {sn} {digest}\n"));
            }
        }
    }
    assert_eq!(
        zugchain_crypto::Digest::of(fingerprint.as_bytes()).to_string(),
        PINNED_SEEDS_SHA256,
        "seed-bank fingerprint changed ({} bytes)",
        fingerprint.len()
    );
}

/// A quiet, fault-free baseline plan the mutation tests build on.
fn honest_baseline(seed: u64, n_ops: usize) -> ChaosPlan {
    ChaosPlan {
        seed,
        n_nodes: 4,
        block_size: 2,
        ops: (0..n_ops)
            .map(|i| zugchain_chaos::plan::OpPlan {
                at_ms: 20 + 40 * i as u64,
                size: 32,
            })
            .collect(),
        max_batch_size: 1,
        batch_delay_ms: 0,
        crashes: Vec::new(),
        partition: None,
        prepare_loss: None,
        byzantine: Vec::new(),
        exports: Vec::new(),
        net: NetPlan::RELIABLE,
        mutation: false,
    }
}

#[test]
fn honest_baseline_passes() {
    let outcome = execute(&honest_baseline(99, 8));
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.blocks_created > 0);
}

/// I8 must actually run, not pass vacuously: an export round over an
/// honest run feeds the data centers' juridical archives, every
/// certified segment ingests cleanly, and its sampled audit bundles
/// verify offline (any failure surfaces as an `archive-audit`
/// violation).
#[test]
fn export_rounds_feed_the_juridical_archives() {
    let mut plan = honest_baseline(77, 8);
    plan.exports = vec![
        zugchain_chaos::plan::ExportPlan {
            at_ms: 250,
            dc: 0,
            blocks_from: 1,
        },
        zugchain_chaos::plan::ExportPlan {
            at_ms: 420,
            dc: 1,
            blocks_from: 2,
        },
    ];
    let outcome = execute(&plan);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.exported_blocks > 0, "export rounds moved no blocks");
    assert!(
        outcome.archived_segments > 0,
        "no certified segment reached an archive — I8 never ran"
    );
}

/// The acceptance-gate test: arm the `mutation-hooks` equivocation bug
/// on the initial primary, catch it as a safety violation, minimize the
/// failing schedule, persist the repro file, parse it back, and replay
/// it — deterministically, twice.
#[test]
fn injected_equivocation_bug_is_caught_minimized_and_replayed() {
    // 1. Catch: the bug makes node 0 send a conflicting preprepare to
    //    one victim; the outbound-frame observer must flag it.
    let plan = honest_baseline(4242, 8).with_mutation();
    let outcome = execute(&plan);
    let violation = outcome.violation.expect("armed bug must be caught");
    assert_eq!(violation.kind, ViolationKind::Equivocation);

    // 1b. The flight recorders must tell the same story: every node's
    //     trace parses back as JSONL and ends with the violation mark,
    //     and the buggy primary's tail shows the equivocating sends
    //     that tripped the invariant.
    assert_eq!(outcome.traces.len(), plan.n_nodes);
    for (node, trace) in outcome.traces.iter().enumerate() {
        let records = zugchain_telemetry::parse_jsonl(trace)
            .unwrap_or_else(|e| panic!("node {node} trace is not valid JSONL: {e}"));
        assert!(!records.is_empty(), "node {node} trace is empty");
        let last = records.last().unwrap();
        assert_eq!(
            last.kind, "mark",
            "node {node} trace must end in the violation mark"
        );
        let label = last
            .field("label")
            .and_then(zugchain_telemetry::JsonValue::as_str)
            .expect("mark has a label");
        assert!(
            label.contains("equivocation"),
            "node {node} mark does not name the violation: {label}"
        );
    }
    let primary_trace =
        zugchain_telemetry::parse_jsonl(&outcome.traces[0]).expect("primary trace parses");
    assert!(
        primary_trace.iter().rev().any(|r| r.kind == "effect"
            && r.field("effect")
                .and_then(zugchain_telemetry::JsonValue::as_str)
                == Some("send")),
        "buggy primary's tail must show the equivocating per-peer sends"
    );

    // 1c. The violation names a consensus slot, so the outcome carries
    //     the assembled cross-node span tree(s) of that slot's traces —
    //     the causal record of what the Byzantine primary itself sent:
    //     its own batch_flush span, parented on the origin's submit.
    assert!(
        !outcome.violation_span_trees.is_empty(),
        "equivocation must dump the violating slot's span trees"
    );
    assert!(
        outcome.violation_span_trees.contains("batch_flush node=0"),
        "span tree must show the Byzantine primary's own flush:\n{}",
        outcome.violation_span_trees
    );
    assert!(
        outcome.violation_span_trees.contains("submit node="),
        "span tree must chain back to the origin's submit:\n{}",
        outcome.violation_span_trees
    );

    // 2. Minimize: a single op suffices to trigger a primary proposal,
    //    so the schedule must shrink to one.
    let minimized = minimize(&plan, violation.kind, 100);
    assert!(minimized.ops.len() <= 1, "minimized: {minimized:#?}");
    assert!(minimized.crashes.is_empty());
    assert!(minimized.exports.is_empty());

    // 3. Persist + parse back.
    let repro = write_repro(&minimized, violation.kind);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("chaos-repro-{}.ron", minimized.seed));
    std::fs::write(&path, &repro).expect("write repro file");
    let text = std::fs::read_to_string(&path).expect("read repro file");
    let (replay_plan, expected_kind) = parse_repro(&text).expect("parse repro file");
    assert_eq!(replay_plan, minimized);
    assert_eq!(expected_kind, ViolationKind::Equivocation);

    // 4. Replay, twice: same violation kind, same detail, same time.
    let first = execute(&replay_plan).violation.expect("replay reproduces");
    let second = execute(&replay_plan).violation.expect("replay reproduces");
    assert_eq!(first.kind, ViolationKind::Equivocation);
    assert_eq!(first, second, "replay must be deterministic");

    let _ = std::fs::remove_file(&path);
}

/// The bug must also be caught under full generated chaos (not just the
/// quiet baseline), as long as node 0 is neither crashed before it can
/// propose nor wrapped as Byzantine (which would exempt it from the
/// honest-node tripwire).
#[test]
fn injected_bug_is_caught_under_generated_chaos() {
    let mut caught = 0;
    let mut eligible = 0;
    for seed in 0..40u64 {
        let plan = ChaosPlan::generate(seed);
        let node0_clean = !plan.byzantine.iter().any(|b| b.node == 0)
            && !plan.crashes.iter().any(|c| c.node == 0)
            && plan
                .partition
                .as_ref()
                .is_none_or(|p| !p.island.contains(&0));
        if !node0_clean {
            continue;
        }
        eligible += 1;
        let outcome = execute(&plan.with_mutation());
        if let Some(v) = outcome.violation {
            assert_eq!(v.kind, ViolationKind::Equivocation, "seed {seed}");
            caught += 1;
        }
    }
    assert!(eligible > 0, "no eligible seeds in range");
    assert_eq!(
        caught, eligible,
        "equivocation must be caught on every eligible seed"
    );
}
