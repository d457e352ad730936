//! Crash-recovery tests for the durable archive: a restarting data
//! center must come back to the longest *verified* segment prefix no
//! matter how the previous process died.
//!
//! An archive directory holds one segment log, `segments.zal`: one
//! record per segment, a little-endian `u32` length followed by the
//! segment's frame (`ZGS1` ‖ SHA-256 of the body ‖ the canonical
//! `Segment`). The tests damage that file as a power cut or a bad disk
//! would and reopen it.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::{certified_chain, certified_chain_for_train, keys, QUORUM};
use zugchain_archive::{Archive, IngestError, Segment, SegmentViolation};
use zugchain_crypto::Digest;
use zugchain_wire::TrainId;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zugchain-archive-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("segments.zal")
}

/// The log's records, each its length prefix and frame, in order.
fn records(dir: &Path) -> Vec<Vec<u8>> {
    let raw = fs::read(log_path(dir)).unwrap();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < raw.len() {
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        out.push(raw[pos..pos + 4 + len].to_vec());
        pos += 4 + len;
    }
    out
}

/// The log record the archive writes for `segment`.
fn record_of(segment: &Segment) -> Vec<u8> {
    let body = zugchain_wire::to_bytes(segment);
    let mut record = ((4 + 32 + body.len()) as u32).to_le_bytes().to_vec();
    record.extend_from_slice(b"ZGS1");
    record.extend_from_slice(Digest::of(&body).as_bytes());
    record.extend_from_slice(&body);
    record
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Populates a fresh on-disk archive with `n` verified segments.
fn populated(tag: &str, n: usize) -> (PathBuf, zugchain_crypto::Keystore, usize) {
    let (pairs, keystore) = keys();
    let dir = tempdir(tag);
    let (mut archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 0);
    let mut requests = 0;
    for certified in certified_chain(&pairs, n, 3) {
        requests += certified
            .blocks
            .iter()
            .map(|b| b.requests.len())
            .sum::<usize>();
        archive.ingest(&certified).unwrap();
    }
    (dir, keystore, requests)
}

#[test]
fn clean_reopen_is_lossless() {
    let (dir, keystore, requests) = populated("clean", 4);
    let (archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 4);
    assert!(report.segments_discarded.is_empty());
    assert_eq!(archive.segment_count(), 4);
    assert_eq!(archive.request_count(), requests);
}

#[test]
fn torn_final_segment_is_truncated() {
    let (dir, keystore, _) = populated("torn", 3);
    // Power loss mid-append of the last segment: cut its record in half.
    let records = records(&dir);
    let kept = [&records[0][..], &records[1]].concat();
    fs::write(
        log_path(&dir),
        [&kept[..], &records[2][..records[2].len() / 2]].concat(),
    )
    .unwrap();

    let (archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 2);
    assert_eq!(report.segments_discarded, vec![2]);
    assert_eq!(archive.segment_count(), 2);
    // The torn record is cut off; a second restart is clean and idempotent.
    assert_eq!(fs::read(log_path(&dir)).unwrap(), kept);
    let (_, again) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(again.segments_recovered, 2);
    assert!(again.segments_discarded.is_empty());
}

#[test]
fn gap_in_segment_sequence_truncates_the_rest() {
    let (dir, keystore, _) = populated("gap", 5);
    let mut records = records(&dir);
    records.remove(2);
    fs::write(log_path(&dir), records.concat()).unwrap();

    let (archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 2);
    // Segments 3 and 4 still verify in isolation but no longer extend a
    // contiguous prefix — juridically they are unanchored, so they go.
    // They sat at log positions 2 and 3.
    assert_eq!(report.segments_discarded, vec![2, 3]);
    assert_eq!(archive.segment_count(), 2);
    assert_eq!(fs::read(log_path(&dir)).unwrap(), records[..2].concat());
}

#[test]
fn bitflip_inside_a_segment_is_caught_by_the_checksum() {
    let (dir, keystore, _) = populated("bitflip", 3);
    let mut records = records(&dir);
    let mid = records[1].len() / 2;
    records[1][mid] ^= 0x01;
    fs::write(log_path(&dir), records.concat()).unwrap();

    let (archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 1);
    assert_eq!(report.segments_discarded, vec![1, 2]);
    assert_eq!(archive.segment_count(), 1);
}

#[test]
fn ingest_writes_only_segment_files() {
    // One file per archive, whatever its size: no segment file, no tmp
    // file, no summary, and every ingest appends to the same file.
    let (pairs, keystore) = keys();
    let dir = tempdir("one-log");
    let (mut archive, _) = Archive::open(&dir, keystore, QUORUM).unwrap();
    let inode = || {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(log_path(&dir)).unwrap().ino()
    };
    let created = inode();
    let mut expected = Vec::new();
    for (seq, certified) in certified_chain(&pairs, 5, 3).iter().enumerate() {
        archive.ingest(certified).unwrap();
        expected.extend(record_of(&Segment::build(seq as u64, certified).unwrap()));
        assert_eq!(listing(&dir), ["segments.zal"]);
        assert_eq!(inode(), created);
        assert_eq!(fs::read(log_path(&dir)).unwrap(), expected);
    }
}

#[test]
fn the_one_file_per_segment_layout_is_refused() {
    // A directory an older build wrote holds seg-<seq>.zas files. It is
    // refused with an error naming that layout, and left as it was.
    let (dir, keystore, _) = populated("legacy", 2);
    let records = records(&dir);
    fs::remove_file(log_path(&dir)).unwrap();
    for (seq, record) in records.iter().enumerate() {
        fs::write(dir.join(format!("seg-{seq:010}.zas")), &record[4..]).unwrap();
    }
    let before = listing(&dir);

    let err = Archive::open(&dir, keystore, QUORUM).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert!(err.to_string().contains("seg-*.zas"), "{err}");
    assert_eq!(listing(&dir), before);
    for (seq, record) in records.iter().enumerate() {
        let path = dir.join(format!("seg-{seq:010}.zas"));
        assert_eq!(fs::read(path).unwrap(), &record[4..]);
    }
}

#[test]
fn recovered_archive_accepts_the_next_segment() {
    let (pairs, keystore) = keys();
    let dir = tempdir("resume");
    let segments = certified_chain(&pairs, 4, 2);
    {
        let (mut archive, _) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        for certified in &segments[..3] {
            archive.ingest(certified).unwrap();
        }
    }
    // Tear the last segment; recovery drops it; re-ingesting segment 2
    // and then 3 must succeed — the export path replays from its cursor.
    let records = records(&dir);
    fs::write(
        log_path(&dir),
        [&records[..2].concat()[..], &records[2][..20]].concat(),
    )
    .unwrap();

    let (mut archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 2);
    archive.ingest(&segments[2]).unwrap();
    archive.ingest(&segments[3]).unwrap();
    assert_eq!(archive.segment_count(), 4);

    // And a stale replay is refused, not silently re-appended.
    let err = archive.ingest(&segments[1]).unwrap_err();
    assert!(matches!(err, IngestError::NotContiguous { .. }));
}

#[test]
fn tampered_certificate_never_survives_recovery() {
    let (pairs, keystore) = keys();
    let dir = tempdir("forge");
    let mut segments = certified_chain(&pairs, 2, 2);
    {
        let (mut archive, _) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        archive.ingest(&segments[0]).unwrap();
        archive.ingest(&segments[1]).unwrap();
    }
    // Forge segment 1 on disk: valid record framing (length, magic,
    // checksum) but the certificate inside signs a different head. This
    // simulates an attacker with disk access but no replica keys.
    segments[1].proof = segments[0].proof.clone();
    let forged = record_of(&Segment::build(1, &segments[1]).unwrap());
    let records = records(&dir);
    fs::write(log_path(&dir), [&records[0][..], &forged].concat()).unwrap();

    let (archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 1);
    assert_eq!(report.segments_discarded, vec![1]);
    assert_eq!(archive.segment_count(), 1);

    // Direct ingestion of the forgery is rejected for the same reason.
    let mut fresh = Archive::in_memory(keystore, QUORUM);
    fresh.ingest(&segments[0]).unwrap();
    let err = fresh.ingest(&segments[1]).unwrap_err();
    assert!(matches!(
        err,
        IngestError::Invalid(SegmentViolation::CertifiesWrongHead { .. })
    ));
}

/// Every image of the segment log a power cut can leave, checked against
/// the two invariants of crash recovery: every segment whose ingest
/// returned `Ok` before the cut is recovered, and what is recovered is a
/// verified prefix of what was ingested (Pillai et al., "All File
/// Systems Are Not Created Equal", OSDI 2014).
///
/// An ingest is one write of its record at the log's end and one
/// `sync_data`; recovery's truncation is one `set_len` and one sync. So
/// a cut can leave any prefix of the record being appended, the record
/// with damaged bytes in it (a length prefix with a flipped bit), or
/// bytes past the last record that no append wrote whole (zeros from an
/// extended size, garbage, another train's record).
#[test]
fn shard_log_crash_exploration() {
    let (pairs, keystore) = keys();
    let segments = certified_chain(&pairs, 4, 1);
    let n = segments.len();
    let dir = tempdir("crash-exploration");
    // ends[k]: the log's length once k ingests have returned Ok.
    let mut ends = vec![0];
    {
        let (mut archive, _) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        for certified in &segments {
            archive.ingest(certified).unwrap();
            ends.push(fs::metadata(log_path(&dir)).unwrap().len() as usize);
        }
    }
    let full = fs::read(log_path(&dir)).unwrap();

    // (what, the log image, how many ingests had returned Ok).
    let mut images: Vec<(String, Vec<u8>, usize)> = Vec::new();
    for record in [n - 1, 1] {
        for cut in ends[record]..ends[record + 1] {
            images.push((
                format!("cut at byte {cut} inside record {record}"),
                full[..cut].to_vec(),
                record,
            ));
        }
    }
    for record in 0..n {
        for bit in 0..32 {
            let mut image = full[..ends[record + 1]].to_vec();
            image[ends[record] + bit / 8] ^= 1 << (bit % 8);
            images.push((
                format!("bit {bit} flipped in the length prefix of record {record}"),
                image,
                record,
            ));
        }
    }
    let tail_len = ends[1];
    images.push((
        "zero-filled tail".into(),
        [&full[..], &vec![0; tail_len]].concat(),
        n,
    ));
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let random: Vec<u8> = (0..tail_len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    images.push(("random tail".into(), [&full[..], &random].concat(), n));
    let foreign = certified_chain_for_train(TrainId(9), &pairs, n + 1, 1);
    let foreign_record = record_of(&Segment::build(n as u64, &foreign[n]).unwrap());
    images.push((
        "a whole record of another train appended".into(),
        [&full[..], &foreign_record].concat(),
        n,
    ));
    // Damage is sticky: a whole record after a damaged one is cut too,
    // even one that would extend the prefix.
    let mut damaged = full[ends[1]..ends[2]].to_vec();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    images.push((
        "record 1 damaged, then a whole copy of it".into(),
        [&full[..ends[1]], &damaged, &full[ends[1]..ends[2]]].concat(),
        1,
    ));
    // A record must carry its log position as its seq.
    images.push((
        "a first record that says it is seq 7".into(),
        record_of(&Segment::build(7, &segments[0]).unwrap()),
        0,
    ));

    for (what, image, acked) in images {
        fs::write(log_path(&dir), &image).unwrap();
        let (archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        let recovered = report.segments_recovered;
        // Invariant 1: no segment whose ingest returned Ok is lost.
        assert!(recovered >= acked, "{what}: {recovered} < {acked} acked");
        // Invariant 2: a verified prefix of what was ingested, and the log
        // holds exactly its records.
        assert_eq!(recovered, acked, "{what}: recovered past the cut");
        let expected: Vec<_> = segments[..recovered]
            .iter()
            .flat_map(|s| s.blocks.iter())
            .collect();
        assert!(archive.blocks().eq(expected), "{what}: not the prefix");
        assert_eq!(
            archive.head(),
            segments[..recovered].last().map(|s| (
                s.blocks.last().unwrap().height(),
                s.proof.checkpoint.state_digest
            )),
            "{what}"
        );
        assert_eq!(
            fs::read(log_path(&dir)).unwrap(),
            &full[..ends[recovered]],
            "{what}"
        );
        drop(archive);

        // A second reopen changes nothing.
        let (mut again, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        assert_eq!(report.segments_recovered, recovered, "{what}");
        assert!(report.segments_discarded.is_empty(), "{what}");
        assert_eq!(fs::read(log_path(&dir)).unwrap(), &full[..ends[recovered]]);

        // The next ingest continues from the recovered head.
        if recovered < n {
            assert_eq!(again.ingest(&segments[recovered]), Ok(recovered as u64));
            assert_eq!(
                fs::read(log_path(&dir)).unwrap(),
                &full[..ends[recovered + 1]],
                "{what}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
