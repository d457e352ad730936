//! Serving acceptance: four simulated trains are archived, served by the
//! HTTP front end (bearer token, per-client rate limit), and read back
//! by a real HTTP client. The policy must fire — 401 without the token,
//! 429 past the limit — and the served `/metrics` must count exactly the
//! requests the client issued.
//!
//! Set `ZUGCHAIN_API_OUT=<dir>` to keep the artifacts: train 1's head
//! audit bundle stored byte-for-byte as served (`train-1-head.zab`),
//! the train's replica key file (`train-1-keys.txt`) for piping the
//! bundle into `zugchain-audit --train 1 -`, and the exposition as
//! `metrics.prom`.

use zugchain_api::{ApiConfig, ClientResponse, HttpClient};
use zugchain_archive::keyfile;
use zugchain_sim::fleet::{run_fleet_instrumented, FleetConfig};
use zugchain_telemetry::parse_prometheus;
use zugchain_wire::TrainId;

const TOKEN: &str = "smoke-reader-token";
/// Sustained per-client allowance; the hammer phase sends well past the
/// matching burst to force 429s.
const RATE_PER_SEC: u64 = 50;

/// A reader that counts every request it issues, to diff against the
/// server's exposition at the end.
struct Reader {
    client: HttpClient,
    issued: u64,
}

impl Reader {
    fn get(&mut self, path: &str, token: Option<&str>) -> ClientResponse {
        self.issued += 1;
        self.client
            .get(path, token)
            .unwrap_or_else(|e| panic!("GET {path}: {e}"))
    }
}

#[test]
fn served_fleet_enforces_policy_and_counts_every_request() {
    let config = FleetConfig {
        n_trains: 4,
        segments_per_train: 2,
        ..FleetConfig::default()
    };
    let (outcome, registry) = run_fleet_instrumented(&config);
    assert!(outcome.all_archived(), "fleet run did not fully archive");
    let server = outcome
        .serve(
            ApiConfig {
                tokens: vec![TOKEN.to_string()],
                rate_per_sec: RATE_PER_SEC,
                rate_burst: RATE_PER_SEC,
                ..ApiConfig::open()
            },
            registry,
        )
        .expect("start api server");
    let mut reader = Reader {
        client: HttpClient::new(server.address()),
        issued: 0,
    };

    // Authenticated read path.
    assert_eq!(reader.get("/v1/trains", Some(TOKEN)).status, 200);
    assert_eq!(
        reader
            .get("/v1/trains/1/blocks?limit=8", Some(TOKEN))
            .status,
        200
    );
    let timeline = reader.get("/v1/trains/1/timeline?from_ms=0", Some(TOKEN));
    assert_eq!(timeline.status, 200);
    assert!(
        timeline.text().contains("\"events\":"),
        "{}",
        timeline.text()
    );

    // Head bundle over HTTP, kept byte-for-byte as fetched.
    let train = TrainId(1);
    let head_sn = outcome
        .archive
        .with_shard(train, |archive| {
            archive.blocks().last().map(|b| b.header.last_sn)
        })
        .flatten()
        .expect("train 1 has archived blocks");
    let bundle = reader.get(&format!("/v1/trains/1/bundle/{head_sn}"), Some(TOKEN));
    assert_eq!(bundle.status, 200, "bundle download");

    // Policy: 401 without the token, 429 past the rate limit.
    assert_eq!(reader.get("/v1/trains", None).status, 401);
    let limited = (0..3 * RATE_PER_SEC)
        .filter(|_| {
            reader
                .get("/v1/trains/1/blocks?limit=1", Some(TOKEN))
                .status
                == 429
        })
        .count();
    assert!(
        limited > 0,
        "no 429 after {} rapid requests at {RATE_PER_SEC}/s",
        3 * RATE_PER_SEC
    );

    // The /metrics request renders before it is itself counted, so the
    // snapshot covers exactly the requests issued so far.
    let issued = reader.issued;
    let metrics = reader.get("/metrics", None);
    assert_eq!(metrics.status, 200);
    let exposition = metrics.text();
    let counted: f64 = parse_prometheus(&exposition)
        .expect("exposition parses")
        .iter()
        .filter(|s| s.name == "zugchain_api_requests_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(counted, issued as f64, "server count vs client count");

    if let Some(dir) = std::env::var_os("ZUGCHAIN_API_OUT") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create artifact directory");
        std::fs::write(dir.join("train-1-head.zab"), &bundle.body).expect("write bundle");
        let (_, keystore) = outcome
            .keystores
            .iter()
            .find(|(t, _)| *t == train)
            .expect("train 1 keystore");
        keyfile::write_keys_for_train(&dir.join("train-1-keys.txt"), train, keystore)
            .expect("write key file");
        std::fs::write(dir.join("metrics.prom"), &exposition).expect("write exposition");
    }
}
