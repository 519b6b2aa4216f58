//! Every experiment is a row of `bench::figures::FIGURES`, and every file
//! under `bench-results/` is an artifact of some row — so one loop over
//! the table holds all of them.
//!
//! The whole simulation is deterministic (seeded scheduling, no wall-clock
//! or address-entropy inputs), so the artifacts are exact: any behavioural
//! change anywhere in the stack — VM, scheduler, TLE runtime, transactional
//! memory, the harness's own pool — shifts at least one byte. Tier 1 runs
//! every row's quick slice at pool sizes 1 and 4; the `#[ignore]`d test
//! re-runs the full sweeps (≈ 70 s in release, far longer in debug; CI runs
//! `cargo test --release --test artifacts -- --include-ignored`) against
//! the committed bytes.

use std::collections::BTreeSet;
use std::path::Path;

use bench::figures::{Opts, FIGURES};

#[test]
fn every_row_is_pool_size_invariant() {
    for fig in &FIGURES {
        let serial = (fig.run)(&Opts { quick: true, jobs: 1 });
        let pooled = (fig.run)(&Opts { quick: true, jobs: 4 });
        assert!(serial.text == pooled.text, "{}: text differs at pool sizes 1 and 4", fig.name);
        assert!(
            serial.artifacts == pooled.artifacts,
            "{}: artifact bytes differ at pool sizes 1 and 4",
            fig.name
        );
    }
}

#[test]
#[ignore = "full sweeps of every committed row (about a minute in release, far longer in debug)"]
fn every_committed_artifact_regenerates_and_nothing_else_is_committed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench-results");
    let mut named = BTreeSet::new();
    for fig in &FIGURES {
        // A row kept out of the committed set still names its files.
        let out = (fig.run)(&Opts { quick: !fig.committed, jobs: 4 });
        for (file, bytes) in out.artifacts {
            if fig.committed {
                let committed = std::fs::read_to_string(dir.join(&file))
                    .unwrap_or_else(|e| panic!("{file} ({}): {e}", fig.name));
                assert_eq!(bytes, committed, "{file} ({}) drifted from committed bytes", fig.name);
            }
            named.insert(file);
        }
    }
    let orphans: Vec<String> = std::fs::read_dir(&dir)
        .expect("bench-results/")
        .map(|entry| entry.expect("directory entry"))
        .filter(|entry| entry.path().is_file())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|file| !named.contains(file))
        .collect();
    assert!(orphans.is_empty(), "no row regenerates these files of bench-results/: {orphans:?}");
}
