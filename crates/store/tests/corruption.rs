//! Corruption fuzzing: a `.pspk` snapshot must survive any mutilation
//! with a typed [`StoreError`] — never a panic, never a silent mis-load,
//! never an out-of-bounds read (the loader hands out *borrowed* views
//! into the file bytes, so framing validation is the only thing between
//! a flipped bit and the query hot path).
//!
//! The mutations exercised here are the classes the format is built to
//! catch: truncation at (and around) every section boundary, a single
//! flipped byte in every header and payload, a flipped byte inside
//! alignment padding (which sits *outside* the CRC), and a stored CRC
//! that was wrongly computed over the padding.

use prospector_corpora::{build, BuildOptions};
use prospector_store::{from_bytes, manifest, Crc32, StoreError};

/// File header and per-section frame sizes.
const HEADER_BYTES: usize = 16;
const FRAME_BYTES: usize = 24;

/// Snapshot bytes for the full bundled engine — mined and generalized,
/// so all seven sections carry real payloads.
fn snapshot_bytes() -> Vec<u8> {
    let built = build(&BuildOptions::default()).expect("bundled corpora assemble");
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    prospector_store::to_bytes(built.prospector.api(), built.prospector.graph(), &mined)
}

/// Every interesting offset, derived from the validated manifest: the
/// file-header bytes, each section's frame start, payload start, payload
/// midpoint, payload end, and the end of its padding.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let m = manifest(bytes).expect("pristine snapshot validates");
    let mut offsets: Vec<usize> = (0..=HEADER_BYTES).collect();
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        let frame_start = payload_start - FRAME_BYTES;
        offsets.extend([
            frame_start,
            frame_start + 4,
            frame_start + 12,
            payload_start,
            payload_start + payload_len / 2,
            payload_start + payload_len,
            payload_start + payload_len + s.pad_bytes as usize,
        ]);
    }
    offsets.retain(|&o| o <= bytes.len());
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

fn assert_truncations_are_typed(bytes: &[u8]) {
    for cut in boundaries(bytes) {
        if cut == bytes.len() {
            continue; // not a truncation
        }
        let err = from_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("snapshot cut to {cut} bytes must not load"));
        // The mutation must surface as a framing error, not a mis-parse
        // deep inside a decoder.
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::UnsupportedVersion { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    assert_truncations_are_typed(&snapshot_bytes());
}

fn assert_flips_are_detected(bytes: &[u8]) {
    let m = manifest(bytes).expect("pristine snapshot validates");
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        // One flip in the section frame (its tag byte) and one in the
        // middle of its payload.
        let targets = [payload_start - FRAME_BYTES, payload_start + payload_len / 2];
        for &at in &targets {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= 0x40;
            match from_bytes(&mutated) {
                Ok(_) => panic!("flip at byte {at} (section `{}`) loaded anyway", s.name),
                Err(
                    StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::Truncated { .. },
                ) => {}
                Err(other) => {
                    panic!("flip at byte {at} (section `{}`): unexpected error {other:?}", s.name)
                }
            }
        }
    }
}

#[test]
fn one_flipped_byte_per_section_is_detected() {
    assert_flips_are_detected(&snapshot_bytes());
}

#[test]
fn flips_in_the_file_header_are_detected() {
    let bytes = snapshot_bytes();
    for at in 0..16 {
        let mut mutated = bytes.clone();
        mutated[at] ^= 0x01;
        assert!(
            from_bytes(&mutated).is_err(),
            "header flip at byte {at} must not load"
        );
    }
}

fn assert_payload_flips_blame_their_section(bytes: &[u8]) {
    // A flip strictly inside a payload (headers untouched) must be caught
    // by that section's CRC and blamed on it by name.
    let m = manifest(bytes).expect("pristine snapshot validates");
    for s in &m.sections {
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        if payload_len > 0 {
            let mut mutated = bytes.to_vec();
            mutated[payload_start + payload_len / 2] ^= 0x10;
            match from_bytes(&mutated) {
                Err(StoreError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, s.name);
                }
                other => panic!(
                    "payload flip in `{}`: expected checksum mismatch, got {other:?}",
                    s.name
                ),
            }
        }
    }
}

#[test]
fn payload_flips_are_checksum_mismatches_naming_the_section() {
    assert_payload_flips_blame_their_section(&snapshot_bytes());
}

#[test]
fn flipped_padding_byte_is_corrupt_naming_the_section() {
    // Alignment padding sits outside the CRC, so the loader checks it
    // is all-zero explicitly — a flipped pad byte must be a Corrupt
    // blaming the right section, not a silent load into borrowed views.
    let bytes = snapshot_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let mut padded = 0;
    for s in &m.sections {
        if s.pad_bytes == 0 {
            continue;
        }
        padded += 1;
        for k in 0..s.pad_bytes as usize {
            let at = usize::try_from(s.offset + s.bytes).expect("fits") + k;
            let mut mutated = bytes.clone();
            mutated[at] = 0xAB;
            match from_bytes(&mutated) {
                Err(StoreError::Corrupt { section, detail }) => {
                    assert_eq!(section, s.name);
                    assert!(detail.contains("padding"), "detail should mention padding: {detail}");
                }
                other => panic!(
                    "pad flip in `{}` byte {k}: expected Corrupt, got {other:?}",
                    s.name
                ),
            }
        }
    }
    assert!(padded > 0, "fixture has no padded sections; the test proved nothing");
}

#[test]
fn crc_computed_over_padding_is_a_checksum_mismatch() {
    // Simulates a buggy writer that folded the zero padding into the
    // CRC. The stored checksum then disagrees with the spec's
    // tag+payload recipe and the loader must reject the section by name.
    let bytes = snapshot_bytes();
    let m = manifest(&bytes).expect("pristine snapshot validates");
    let mut padded = 0;
    for s in &m.sections {
        if s.pad_bytes == 0 {
            continue;
        }
        padded += 1;
        let payload_start = usize::try_from(s.offset).expect("fits");
        let payload_len = usize::try_from(s.bytes).expect("fits");
        let frame_start = payload_start - FRAME_BYTES;
        let mut crc = Crc32::new();
        crc.update(&bytes[frame_start..frame_start + 4]); // tag
        crc.update(&bytes[payload_start..payload_start + payload_len + s.pad_bytes as usize]);
        let wrong = crc.finish();
        let mut mutated = bytes.clone();
        mutated[frame_start + 16..frame_start + 20].copy_from_slice(&wrong.to_le_bytes());
        match from_bytes(&mutated) {
            Err(StoreError::ChecksumMismatch { section, expected, .. }) => {
                assert_eq!(section, s.name);
                assert_eq!(expected, wrong);
            }
            other => panic!(
                "padded CRC in `{}`: expected checksum mismatch, got {other:?}",
                s.name
            ),
        }
    }
    assert!(padded > 0, "fixture has no padded sections; the test proved nothing");
}
