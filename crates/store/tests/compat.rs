//! Version gating: a committed `.pspk` in the retired format v1 must be
//! refused with a typed [`StoreError::UnsupportedVersion`] by every
//! loading path — the byte decoder, the file loaders (owned and mmap) and
//! the registry's engine loader — never misparsed and never a panic.

use std::path::Path;

use prospector_store::{StoreError, FORMAT_VERSION};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1.pspk");

fn assert_v1_refused(result: Result<impl std::fmt::Debug, StoreError>, path: &str) {
    match result {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!((found, supported), (1, FORMAT_VERSION), "{path}");
        }
        other => panic!("{path}: expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn committed_v1_fixture_is_refused_as_unsupported_version() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture exists");
    assert_eq!(&bytes[..4], b"PSPK");
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")), 1);

    assert_v1_refused(prospector_store::manifest(&bytes), "manifest");
    assert_v1_refused(prospector_store::from_bytes(&bytes), "from_bytes");
    assert_v1_refused(prospector_store::load_file(Path::new(FIXTURE)), "load_file");
    for mmap in [false, true] {
        assert_v1_refused(
            prospector_store::load_auto(Path::new(FIXTURE), mmap),
            &format!("load_auto(mmap={mmap})"),
        );
    }

    // The registry reports the same typed failure as its message.
    let err = prospector_registry::load_engine(FIXTURE, false).expect_err("v1 must not load");
    let expected = StoreError::UnsupportedVersion { found: 1, supported: FORMAT_VERSION };
    assert_eq!(err, expected.to_string());
}
