//! Standalone offline audit-bundle verifier.
//!
//! Verifies court-ready audit bundles (`.zab` files emitted by the
//! juridical archive) against nothing but the consensus group's public
//! keys. It shares no state with the archive that produced the bundles:
//! everything it checks — block decoding, payload consistency, Merkle
//! inclusion, hash-chain links, and the 2f+1 checkpoint certificate — is
//! recomputed from the bundle bytes and the key file.
//!
//! ```text
//! zugchain-audit --keys replica-keys.txt --quorum 3 bundle1.zab bundle2.zab
//! curl .../v1/trains/7/bundle/42 | zugchain-audit --keys keys.txt --quorum 3 -
//! ```
//!
//! The path `-` reads one bundle from stdin — the serving layer's
//! `/v1/trains/<id>/bundle/<sn>` download uses the same `.zab` framing
//! as bundle files, so fetched bytes pipe straight into verification.
//!
//! In a fleet, `--train <id>` restricts the audit to one vehicle: a
//! bundle tagged with another train fails with a diagnostic, as does a
//! key file whose `train` directive names a different train (wrong
//! keyset for the requested vehicle). Without `--train`, a key file
//! carrying a `train` directive scopes the audit to that train.
//!
//! Exit status 0 iff every bundle verifies (and matches the requested
//! train, when one is in effect).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use zugchain_archive::{keyfile, AuditBundle};
use zugchain_wire::TrainId;

struct Args {
    keys: PathBuf,
    quorum: usize,
    train: Option<TrainId>,
    bundles: Vec<PathBuf>,
}

const USAGE: &str =
    "usage: zugchain-audit --keys <replica-key-file> --quorum <n> [--train <id>] <bundle.zab>...";

fn parse_args() -> Result<Args, String> {
    let mut keys = None;
    let mut quorum = None;
    let mut train = None;
    let mut bundles = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--keys" => {
                let value = argv.next().ok_or("--keys needs a file path")?;
                keys = Some(PathBuf::from(value));
            }
            "--quorum" => {
                let value = argv.next().ok_or("--quorum needs a number")?;
                quorum = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("invalid quorum `{value}`"))?,
                );
            }
            "--train" => {
                let value = argv.next().ok_or("--train needs a decimal train id")?;
                train = Some(TrainId::parse(&value).ok_or(format!("invalid train id `{value}`"))?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            // `-` is a bundle read from stdin, not a flag.
            "-" => bundles.push(PathBuf::from("-")),
            _ if arg.starts_with('-') => return Err(format!("unknown flag `{arg}`\n{USAGE}")),
            _ => bundles.push(PathBuf::from(arg)),
        }
    }
    let keys = keys.ok_or(format!("missing --keys\n{USAGE}"))?;
    let quorum = quorum.ok_or(format!("missing --quorum\n{USAGE}"))?;
    if quorum == 0 {
        return Err("quorum must be at least 1".to_string());
    }
    if bundles.is_empty() {
        return Err(format!("no bundle files given\n{USAGE}"));
    }
    Ok(Args {
        keys,
        quorum,
        train,
        bundles,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let (keyset_train, keystore) = match keyfile::read_keys_full(&args.keys) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("cannot load keys from {}: {e}", args.keys.display());
            return ExitCode::FAILURE;
        }
    };
    // The requested train and the keyset's declared train must agree:
    // verifying train A's bundles against train B's keys would only ever
    // produce misleading certificate failures.
    if let (Some(requested), Some(declared)) = (args.train, keyset_train) {
        if requested != declared {
            eprintln!(
                "key file {} declares train {declared}, but --train {requested} was requested: \
                 wrong keyset for that vehicle",
                args.keys.display()
            );
            return ExitCode::FAILURE;
        }
    }
    // An explicit --train wins; otherwise the key file's directive (if
    // any) scopes the audit.
    let train = args.train.or(keyset_train);
    println!(
        "loaded {} replica public keys from {} (quorum {}{})",
        keystore.len(),
        args.keys.display(),
        args.quorum,
        match train {
            Some(train) => format!(", train {train}"),
            None => String::new(),
        }
    );

    let mut failures = 0usize;
    for path in &args.bundles {
        let loaded = if path.as_os_str() == "-" {
            // One `.zab`-framed bundle on stdin, e.g. piped from the
            // serving layer's bundle download.
            let mut raw = Vec::new();
            std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut raw)
                .map_err(|e| e.to_string())
                .and_then(|_| AuditBundle::from_zab_bytes(&raw).map_err(|e| e.to_string()))
        } else {
            AuditBundle::read_from(path).map_err(|e| e.to_string())
        };
        let verdict = loaded.and_then(|bundle| {
            if let Some(train) = train {
                if bundle.train != train {
                    return Err(format!(
                        "bundle is from train {}, not requested train {train}",
                        bundle.train
                    ));
                }
            }
            bundle
                .verify(&keystore, args.quorum)
                .map_err(|e| e.to_string())
        });
        match verdict {
            Ok(block) => {
                println!(
                    "OK   {}: block height {} ({} requests, sn {}..={}, hash {})",
                    path.display(),
                    block.height(),
                    block.requests.len(),
                    block.header.first_sn,
                    block.header.last_sn,
                    block.hash().short()
                );
            }
            Err(reason) => {
                failures += 1;
                println!("FAIL {}: {reason}", path.display());
            }
        }
    }

    if failures > 0 {
        eprintln!(
            "{failures} of {} bundle(s) FAILED verification",
            args.bundles.len()
        );
        ExitCode::FAILURE
    } else {
        println!("all {} bundle(s) verified", args.bundles.len());
        ExitCode::SUCCESS
    }
}
