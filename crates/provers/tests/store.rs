//! Robustness of the persistent proof store (`cache_store`): random
//! write/truncate/reload interleavings recover every complete entry, random
//! injected I/O faults (short writes, disk-full) never corrupt what a reload
//! sees, two handles on one directory never lose each other's appends, and a
//! file with a poisoned header is ignored rather than mis-replayed.  Faults
//! are injected by passing a plan to the one append it governs.

use ipl_provers::cache::Fingerprint;
use ipl_provers::cache_store::{CacheStore, HEADER_LEN, SCHEMA_VERSION};
use ipl_provers::fault::FaultPlan;
use ipl_provers::ProverConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const PROVERS: [&str; 3] = ["syntactic", "smt-ground", "smt-inst"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ipl-store-it-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fp(raw: u128) -> Fingerprint {
    Fingerprint::from_u128(raw)
}

/// A batch of distinct entries to append: raw fingerprint plus prover index.
fn entry_batches() -> impl Strategy<Value = Vec<Vec<(u128, usize)>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..1 << 48, 0usize..PROVERS.len()), 0..8),
        1..5,
    )
    .prop_map(|batches| {
        // Widen the 64-bit draws into 128-bit fingerprints; collisions
        // between draws are fine — the store dedups them, and the model map
        // mirrors that.
        batches
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|(raw, prover)| ((raw as u128) << 32 | 0xabcd, prover))
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Entries appended in arbitrary batches across handle re-opens, with the
    /// file's tail then truncated at an arbitrary byte, must reload as a
    /// prefix of what was written: every entry before the cut survives with
    /// the right prover attribution, and nothing bogus appears.
    #[test]
    fn truncated_tail_recovers_every_complete_entry(
        batches in entry_batches(),
        cut in 0usize..64,
    ) {
        let dir = temp_dir("prop-truncate");
        let config = ProverConfig::default();

        // Model of what is on disk, in insertion order.
        let mut model: Vec<(u128, &str)> = Vec::new();
        let mut seen = BTreeMap::new();
        for batch in &batches {
            // A fresh handle per batch: exercises load + append interleaving.
            let mut store = CacheStore::open(&dir, &config, &PROVERS).unwrap();
            let entries: Vec<(Fingerprint, String)> = batch
                .iter()
                .map(|&(raw, prover)| (fp(raw), PROVERS[prover].to_string()))
                .collect();
            store.append_new(&entries).unwrap();
            for &(raw, prover) in batch {
                if seen.insert(raw, prover).is_none() {
                    model.push((raw, PROVERS[prover]));
                }
            }
        }

        // Truncate up to `cut` bytes off the end (never into the header).
        let path = CacheStore::file_path(&dir, &config, &PROVERS);
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut).max(HEADER_LEN);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let store = CacheStore::open(&dir, &config, &PROVERS).unwrap();
        prop_assert!(!store.was_poisoned());
        let loaded = store.loaded_entries();
        // The log is append-ordered, so the survivors are a prefix of the
        // model (entry boundaries need not line up with the cut).
        prop_assert!(loaded.len() <= model.len());
        for (got, want) in loaded.iter().zip(&model) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.as_str(), want.1);
        }
        // And a cut inside the *final* entry only ever costs that entry.
        prop_assert!(model.len() - loaded.len() <= 1 + cut / 35);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appending under an aggressive injected-fault plan (short writes that
    /// tear a batch mid-entry, disk-full errors that write nothing), with a
    /// crash-restart (drop + reopen) after every failure, must leave the
    /// store loadable with exactly the complete-entry prefix of each torn
    /// batch: reported successes are durable, nothing unattempted appears,
    /// and the file keeps accepting appends once the faults clear.
    #[test]
    fn injected_io_faults_leave_the_store_recoverable(
        batches in entry_batches(),
        seed in 0u64..1024,
    ) {
        let dir = temp_dir("prop-io-fault");
        let config = ProverConfig::default();
        let plan = FaultPlan {
            seed,
            store_short_write_bp: 2_000, // 20% of batches torn mid-write
            store_disk_full_bp: 1_000,   // 10% fail before writing a byte
            ..FaultPlan::default()
        };

        let mut attempted: BTreeMap<(u128, &str), ()> = BTreeMap::new();
        let mut durable: Vec<u128> = Vec::new();
        let mut store = CacheStore::open(&dir, &config, &PROVERS).unwrap();
        for batch in &batches {
            let entries: Vec<(Fingerprint, String)> = batch
                .iter()
                .map(|&(raw, prover)| (fp(raw), PROVERS[prover].to_string()))
                .collect();
            for &(raw, prover) in batch {
                attempted.insert((raw, PROVERS[prover]), ());
            }
            match store.append_with(&entries, Some(&plan)) {
                // `Ok` promises every entry of the batch is on disk (written
                // now or found already durable in the index).
                Ok(_) => durable.extend(batch.iter().map(|&(raw, _)| raw)),
                Err(e) => {
                    prop_assert!(
                        e.to_string().contains("injected fault"),
                        "only injected faults expected, got: {e}"
                    );
                    // Crash-restart semantics: the handle dies with the
                    // process; the next open truncates any torn tail.
                    store = CacheStore::open(&dir, &config, &PROVERS).unwrap();
                }
            }
        }
        drop(store);

        let recovered = CacheStore::open(&dir, &config, &PROVERS).unwrap();
        prop_assert!(!recovered.was_poisoned());
        // Nothing fabricated: every survivor was attempted, with the
        // attribution it was attempted under.
        for (raw, prover) in recovered.loaded_entries() {
            prop_assert!(
                attempted.contains_key(&(*raw, prover.as_str())),
                "loaded entry {raw:#x}/{prover} was never appended"
            );
        }
        // Nothing lied about: every batch that reported success is durable
        // in full (torn batches reported an error instead).
        for raw in &durable {
            prop_assert!(
                recovered.contains(fp(*raw)),
                "entry {raw:#x} from a successful append is missing"
            );
        }
        // The log stayed healthy: a fault-free append still round-trips.
        let mut recovered = recovered;
        let sentinel = fp((1u128 << 90) | 0x5e17);
        recovered
            .append_new(&[(sentinel, "shape".to_string())])
            .unwrap();
        drop(recovered);
        let last = CacheStore::open(&dir, &config, &PROVERS).unwrap();
        prop_assert!(last.contains(sentinel));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn two_handles_on_one_directory_keep_both_sets_of_entries() {
    // Two open handles (the two-process shape: each holds its own index and
    // appends under the advisory lock) writing interleaved batches; a fresh
    // load must see every entry from both.
    let dir = temp_dir("two-handles");
    let config = ProverConfig::default();
    let mut a = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    let mut b = CacheStore::open(&dir, &config, &PROVERS).unwrap();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..50u128 {
                a.append_new(&[(fp(i), "smt-ground".to_string())]).unwrap();
            }
        });
        scope.spawn(|| {
            for i in 100..150u128 {
                b.append_new(&[(fp(i), "smt-inst".to_string())]).unwrap();
            }
        });
    });

    let merged = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert_eq!(merged.len(), 100, "all 100 entries from both handles");
    for i in 0..50u128 {
        assert!(merged.contains(fp(i)));
    }
    for i in 100..150u128 {
        assert!(merged.contains(fp(i)));
    }
    // Attribution survives the interleaving.
    let attributions: BTreeMap<u128, String> = merged.loaded_entries().iter().cloned().collect();
    assert_eq!(attributions[&7], "smt-ground");
    assert_eq!(attributions[&107], "smt-inst");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_by_one_handle_never_costs_another_handles_later_appends() {
    // The disk-full/short-write rollback audit (two-process shape): handle A
    // tears a batch mid-entry under an injected fault, handle B — a separate
    // index over the same file — appends complete entries *after* the torn
    // bytes (O_APPEND puts them past the tear).  Neither a fresh load nor
    // A's own recovery may truncate B's entries away: the loader must
    // salvage-resync past the torn range instead of cutting at it.
    let dir = temp_dir("torn-interleave");
    let config = ProverConfig::default();
    let mut a = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    let mut b = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    a.append_new(&[(fp(1), "smt-ground".to_string())]).unwrap();

    // Tear A's next batch mid-entry.  100% short-write probability so the
    // injection is deterministic; B's appends run fault-free.
    let tear = FaultPlan {
        seed: 11,
        store_short_write_bp: 10_000,
        ..FaultPlan::default()
    };
    let torn = a.append_with(&[(fp(2), "smt-inst".to_string())], Some(&tear));
    assert!(
        torn.as_ref()
            .is_err_and(|e| e.to_string().contains("injected fault")),
        "the tear must be reported, got {torn:?}"
    );
    let len_after_tear = std::fs::metadata(a.path()).unwrap().len();

    // B (stale index, own fd) lands complete entries past the torn bytes.
    b.append_new(&[(fp(3), "bapa".to_string()), (fp(4), "shape".to_string())])
        .unwrap();
    assert!(
        std::fs::metadata(a.path()).unwrap().len() > len_after_tear,
        "B's entries sit past the torn range"
    );

    // A fresh load salvages everything complete: the entry before the tear
    // and both of B's entries after it.  The torn bytes are skipped, not
    // used as a truncation point.
    let merged = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert!(merged.contains(fp(1)));
    assert!(merged.contains(fp(3)), "B's first entry survived the load");
    assert!(merged.contains(fp(4)), "B's second entry survived the load");
    assert!(!merged.contains(fp(2)), "the torn entry is not fabricated");
    assert!(merged.salvaged(), "the load went through the resync scan");
    assert!(merged.recovered_bytes() > 0);
    drop(merged);

    // Compaction scrubs the torn range for good; nothing else is lost.
    let mut compactor = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    let stats = compactor.compact().unwrap();
    assert_eq!(stats.entries_after, 3);
    assert!(stats.corrupt_bytes_dropped > 0);
    drop(compactor);
    let clean = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert!(!clean.salvaged());
    assert_eq!(clean.recovered_bytes(), 0);
    assert_eq!(clean.len(), 3);

    // And A's original handle keeps working against the compacted file
    // (stale-inode detection reopens it under the hood).
    let mut a = a;
    a.append_new(&[(fp(5), "syntactic".to_string())]).unwrap();
    let last = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert!(last.contains(fp(5)));
    assert_eq!(last.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_schema_version_is_ignored_not_misreplayed() {
    let dir = temp_dir("poisoned-schema");
    let config = ProverConfig::default();
    let mut store = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    store
        .append_new(&[
            (fp(1), "smt-ground".to_string()),
            (fp(2), "bapa".to_string()),
        ])
        .unwrap();
    let path = store.path().to_path_buf();
    drop(store);

    // Rewrite the header to claim a future schema version while keeping the
    // old entry bytes in place: the classic downgrade hazard.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let reopened = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert!(reopened.was_poisoned());
    assert!(
        reopened.is_empty(),
        "entries under a foreign schema must never be replayed"
    );
    assert!(!reopened.contains(fp(1)));

    // The poisoned file was rewritten fresh and is usable again.
    let mut recovered = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert!(!recovered.was_poisoned());
    recovered
        .append_new(&[(fp(3), "shape".to_string())])
        .unwrap();
    let last = CacheStore::open(&dir, &config, &PROVERS).unwrap();
    assert_eq!(last.len(), 1);
    assert!(last.contains(fp(3)));
    let _ = std::fs::remove_dir_all(&dir);
}
