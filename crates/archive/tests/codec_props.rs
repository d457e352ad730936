//! Property tests for the archive wire codecs: [`Segment`] and
//! [`AuditBundle`] must survive an encode/decode roundtrip unchanged,
//! every strict prefix of an encoding must be rejected (a torn file read
//! never yields a phantom segment), and trailing garbage after a valid
//! encoding must be rejected — appended bytes can never ride along
//! inside a court exhibit.

mod common;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use zugchain_archive::{Archive, AuditBundle, Segment};
use zugchain_wire::{from_bytes, to_bytes, Decode, Encode, TrainId};

use common::{certified_chain, certified_chain_for_train, keys, QUORUM};

/// Roundtrip + truncation + trailing-garbage checks for one value.
fn check_codec<T>(value: &T, what: &str, garbage: &[u8]) -> Result<(), TestCaseError>
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let bytes = to_bytes(value);

    let decoded: T = match from_bytes(&bytes) {
        Ok(decoded) => decoded,
        Err(e) => return Err(TestCaseError::fail(format!("{what} decode failed: {e:?}"))),
    };
    prop_assert_eq!(&decoded, value);

    for cut in 0..bytes.len() {
        prop_assert!(
            from_bytes::<T>(&bytes[..cut]).is_err(),
            "{} prefix of length {} of a {}-byte encoding decoded",
            what,
            cut,
            bytes.len(),
        );
    }

    let mut extended = bytes;
    extended.extend_from_slice(garbage);
    prop_assert!(
        from_bytes::<T>(&extended).is_err(),
        "{} encoding with {} trailing garbage bytes decoded",
        what,
        garbage.len(),
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    /// Train-tagged segments, their headers, and the audit bundles cut
    /// from them have exact codecs at arbitrary train ids.
    fn segment_and_bundle_codecs_are_exact(
        train in any::<u64>(),
        n_segments in 1usize..3,
        blocks_per_segment in 1usize..4,
        garbage in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let train = TrainId(train);
        let (pairs, keystore) = keys();
        let mut archive = Archive::in_memory_for_train(train, keystore, QUORUM);
        for (seq, certified) in certified_chain_for_train(train, &pairs, n_segments, blocks_per_segment)
            .iter()
            .enumerate()
        {
            let segment = Segment::build(seq as u64, certified)
                .map_err(|e| TestCaseError::fail(format!("build: {e}")))?;
            prop_assert_eq!(segment.header.train, train);
            check_codec(&segment, "segment", &garbage)?;
            check_codec(&segment.header, "segment header", &garbage)?;
            archive
                .ingest(certified)
                .map_err(|e| TestCaseError::fail(format!("ingest: {e}")))?;
        }
        // One bundle per archived block, including interior blocks whose
        // Merkle paths and link-header runs are nonempty.
        let heights: Vec<u64> = archive.blocks().map(|b| b.height()).collect();
        for height in heights {
            let bundle = archive.audit_bundle(height).expect("archived height");
            prop_assert_eq!(bundle.train, train);
            check_codec(&bundle, "bundle", &garbage)?;
        }
    }
}

#[test]
fn bundle_codec_rejects_truncation_through_file_io() {
    // The .zab file framing (magic + checksum) must also catch torn
    // files before the codec even runs.
    let (pairs, keystore) = keys();
    let mut archive = Archive::in_memory(keystore, QUORUM);
    for certified in certified_chain(&pairs, 1, 3) {
        archive.ingest(&certified).unwrap();
    }
    let bundle = archive.audit_bundle(2).unwrap();
    let dir = std::env::temp_dir().join(format!("zugchain-zab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bundle.zab");
    bundle.write_to(&path).unwrap();
    assert_eq!(AuditBundle::read_from(&path).unwrap(), bundle);

    let raw = std::fs::read(&path).unwrap();
    for cut in [0, 3, 20, raw.len() / 2, raw.len() - 1] {
        std::fs::write(&path, &raw[..cut]).unwrap();
        assert!(AuditBundle::read_from(&path).is_err(), "cut at {cut}");
    }

    // Rewriting replaces the torn file whole and leaves no tmp file.
    bundle.write_to(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), raw);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
}
