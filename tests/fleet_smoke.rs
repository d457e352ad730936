//! Fleet acceptance: 16 simulated trains driven through record → export
//! → sharded archive with observability attached. Every train's chain
//! must land fully in its shard, and the exposition must tell the run
//! report's story train by train.
//!
//! Set `ZUGCHAIN_FLEET_OUT=<dir>` to keep the artifacts the offline
//! auditor re-checks: the Prometheus exposition as `metrics.prom`, and
//! for trains 1–3 the head audit bundle `train-<id>-head.zab` beside the
//! train's replica key file `train-<id>-keys.txt` (with its `train`
//! directive, for `zugchain-audit --train <id>`).

use zugchain_archive::keyfile;
use zugchain_sim::fleet::{run_fleet_instrumented, FleetConfig};
use zugchain_telemetry::parse_prometheus;

const TRAINS: usize = 16;
/// Trains whose head bundles and key files are exported for audit.
const AUDITED_TRAINS: usize = 3;

#[test]
fn every_train_archives_and_its_segment_series_matches_the_report() {
    let config = FleetConfig {
        n_trains: TRAINS,
        segments_per_train: 2,
        ..FleetConfig::default()
    };
    let (outcome, registry) = run_fleet_instrumented(&config);
    assert_eq!(outcome.trains.len(), TRAINS);

    let exposition = registry.render_prometheus();
    let samples = parse_prometheus(&exposition).expect("exposition round-trips");
    let segment_series: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "zugchain_archive_segments_total")
        .collect();
    assert_eq!(segment_series.len(), TRAINS, "one series per train");
    for report in &outcome.trains {
        assert!(
            report.fully_archived,
            "train {} decided head {:?} but shard head {:?}",
            report.train,
            (report.decided_height, report.decided_head),
            report.archived_head
        );
        let train = report.train.to_string();
        let labels = [
            ("node".to_string(), "0".to_string()),
            ("train".to_string(), train),
        ];
        let series = segment_series
            .iter()
            .find(|s| s.labels == labels)
            .unwrap_or_else(|| panic!("no segment series for train {}", report.train));
        assert_eq!(
            series.value, report.archived_segments as f64,
            "train {}: exposition vs run report",
            report.train
        );
    }

    let out = std::env::var_os("ZUGCHAIN_FLEET_OUT").map(std::path::PathBuf::from);
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create artifact directory");
        std::fs::write(dir.join("metrics.prom"), &exposition).expect("write exposition");
    }
    for (train, keystore) in outcome.keystores.iter().take(AUDITED_TRAINS) {
        let (head, _) = outcome
            .archive
            .head_of(*train)
            .unwrap_or_else(|| panic!("train {train} has no archived head"));
        let bundle = outcome
            .archive
            .audit_bundle(*train, head)
            .unwrap_or_else(|| panic!("no audit bundle for train {train} height {head}"));
        if let Some(dir) = &out {
            bundle
                .write_to(&dir.join(format!("train-{train}-head.zab")))
                .expect("write bundle");
            keyfile::write_keys_for_train(
                &dir.join(format!("train-{train}-keys.txt")),
                *train,
                keystore,
            )
            .expect("write key file");
        }
    }
}
