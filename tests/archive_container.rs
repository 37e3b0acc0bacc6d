//! Hostile-input guarantees of the shared archive container
//! (`extractocol_ir::container`), checked on both formats framed in it:
//! the `.exsv` signature index and the `.exsm` summary cache, each as
//! written by the real pipeline for one corpus app.

use extractocol_core::{Extractocol, Options};
use extractocol_ir::container::ArchiveError;
use extractocol_ir::hash::fnv1a64;
use extractocol_serve::SignatureIndex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One archive under test: its format name, its bytes, its reader, and
/// the offset of a declared element count inside it.
struct Archive {
    format: &'static str,
    bytes: Vec<u8>,
    read: fn(&[u8]) -> Result<(), ArchiveError>,
    count_at: usize,
}

fn archives() -> Vec<Archive> {
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let report = extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, 1);
    let exsv = extractocol_serve::write_archive(&SignatureIndex::compile(&[report]));

    // Tests in this binary run in parallel: each call gets its own file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("extractocol-container-{}-{call}.exsm", std::process::id()));
    let opts = Options { summary_cache_path: Some(path.clone()), ..Options::default() };
    Extractocol::with_options(opts).analyze(&app.apk);
    let exsm = std::fs::read(&path).expect("pipeline wrote the summary cache");
    let _ = std::fs::remove_file(&path);
    let epoch = extractocol_incr::archive::read_archive(&exsm).expect("load").epoch;

    vec![
        Archive {
            format: ".exsv",
            bytes: exsv,
            read: |b| extractocol_serve::read_archive(b).map(drop),
            // The signature-count u64 sits right after the SIGS section
            // header (32-byte file header + 4-byte tag + 8-byte length).
            count_at: 32 + 4 + 8,
        },
        Archive {
            format: ".exsm",
            bytes: exsm,
            read: |b| extractocol_incr::archive::read_archive(b).map(drop),
            // The method-table count follows the epoch: the app name
            // (u64 length + bytes), the u32 field depth and the flag byte.
            count_at: 32 + 8 + epoch.app.len() + 4 + 1,
        },
    ]
}

#[test]
fn truncation_is_a_typed_error_at_every_cut() {
    for a in archives() {
        // Any strict prefix must fail with a typed error, never panic.
        for cut in 0..a.bytes.len() {
            match (a.read)(&a.bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated {} ({cut}/{} bytes) loaded", a.format, a.bytes.len()),
            }
        }
    }
}

#[test]
fn hostile_count_fields_cannot_drive_allocation() {
    for a in archives() {
        // A declared element count larger than the remaining payload is
        // rejected before any allocation happens.
        (a.read)(&a.bytes).expect("untouched archive loads");
        let mut bytes = a.bytes;
        bytes[a.count_at..a.count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match (a.read)(&bytes) {
            // Checksum catches the mutation first unless recomputed.
            Err(ArchiveError::ChecksumMismatch { .. }) => {}
            other => panic!("{}: expected typed rejection, got {other:?}", a.format),
        }
        // Recompute the checksum so the count field itself is exercised.
        let payload_start = 32;
        let sum = fnv1a64(&bytes[payload_start..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        match (a.read)(&bytes) {
            Err(ArchiveError::Truncated { .. }) => {}
            other => panic!("{}: expected Truncated, got {other:?}", a.format),
        }
    }
}
