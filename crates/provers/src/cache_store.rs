//! The persistent proof store: an on-disk, append-only log of proved
//! sequent fingerprints.
//!
//! The in-memory [`ProofCache`](crate::cache::ProofCache) answers repeat
//! dispatches for free *within* one process; this module makes the cache
//! outlive the process, so that a warm re-run of an unchanged module — a CI
//! job on an untouched branch, the second keystroke in an editor session —
//! costs only the front-end plus one hash lookup per sequent.  The design
//! follows the prove-once/check-cheaply asymmetry: proving a sequent is
//! expensive, replaying its 128-bit content fingerprint is a set probe.
//!
//! ## File format
//!
//! One store file per `(schema version, prover configuration)` pair, named
//! `proofs-v{schema}-{config:016x}.iplstore` inside the cache directory.  The
//! file is a 28-byte header followed by variable-length entries:
//!
//! ```text
//! header:  magic "IPLPROOF" | schema version (u32 LE) | config hash (u64 LE)
//!          | generation (u64 LE)
//! entry:   prover len (u16 LE) | fingerprint (u128 LE) | config hash (u64 LE)
//!          | prover name bytes | checksum (u64 LE)
//! ```
//!
//! The checksum covers every preceding byte of the entry, so a torn write
//! (crash mid-append, disk full) invalidates exactly the torn bytes.  The
//! generation counts whole-file rewrites ([`CacheStore::compact`]): a warm
//! handle uses it to tell "same log, more entries" from "log replaced".
//!
//! ## Crash safety and concurrency
//!
//! *Loading* walks the log from the front and **resynchronises past corrupt
//! byte ranges**: an undecodable stretch (torn mid-log write from a crashed
//! handle) is skipped byte-by-byte until the next checksum-valid entry, so
//! complete entries appended *after* a torn one — by another process, say —
//! survive.  A pure torn tail is truncated (only while the advisory lock is
//! actually held); mid-log garbage is left in place and removed by the next
//! [`CacheStore::compact`].  A file whose header does not match the expected
//! magic, schema version and configuration hash is treated as poisoned: it
//! is moved to a `quarantine/` subdirectory (never silently rewritten in
//! place) with a logged reason, and a fresh store file takes its path.
//!
//! *Compaction* ([`CacheStore::compact`], [`compact_file`]) rewrites the log
//! dropping duplicate fingerprints and corrupt ranges, by writing a temp
//! file and atomically renaming it over the store, bumping the generation.
//! Handles in other processes detect the swapped inode on their next append
//! and reopen; their indexes stay valid because compaction only drops
//! duplicates, never live fingerprints.
//!
//! *Concurrent processes* sharing one cache directory are safe: every load
//! and every append happens under an OS advisory file lock
//! ([`std::fs::File::lock`]), and appends are single `write` calls on a file
//! opened in append mode, so entries from two processes interleave at entry
//! granularity.  A store handle only indexes the entries it has seen; a
//! fresh `open` picks up everything every process appended.
//!
//! Safety does **not** rest on the header alone: fingerprints themselves hash
//! the full `ProverConfig` and the cascade line-up (see
//! [`ProofCache::fingerprint`](crate::cache::ProofCache::fingerprint)), so
//! even a store entry smuggled into the wrong file can never answer a query
//! it was not proved under.  The header and per-entry config hash exist to
//! keep files separated and corruption detectable, not as the soundness
//! boundary.

use crate::cache::{Fingerprint, ProofCache};
use crate::fault::{FaultPlan, StoreFault};
use crate::ProverConfig;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Version of the on-disk layout *and* of the fingerprint function.  Bump it
/// whenever either changes — old files are then ignored (their filename no
/// longer matches), never misinterpreted.
///
/// v2: `ProverConfig` grew its retry policy, which participates in both the
/// configuration key and the query fingerprint.
///
/// v3: the header grew a generation stamp (u64, bumped by compaction) and
/// loading resynchronises past corrupt mid-log ranges instead of truncating
/// everything after them.
///
/// v4: `ProverConfig` lost its retry policy, which changes both the
/// configuration key and the query fingerprint.
pub const SCHEMA_VERSION: u32 = 4;

const MAGIC: [u8; 8] = *b"IPLPROOF";
/// Header layout: magic, schema version (u32 LE), config hash (u64 LE),
/// generation (u64 LE).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// Longest admissible prover name; anything larger marks a corrupt entry.
const MAX_PROVER_LEN: usize = 256;

/// A persistent, append-only store of proved fingerprints backing the
/// in-memory [`ProofCache`].
pub struct CacheStore {
    file: File,
    path: PathBuf,
    config_hash: u64,
    /// The cascade line-up the store was opened with; preload maps each
    /// logged prover name onto it.
    line_up: Vec<&'static str>,
    /// Fingerprints known to be on disk (loaded or appended through this
    /// handle); `append_new` skips them.
    index: HashSet<u128>,
    /// Entries read at open time, in log order.
    loaded: Vec<(u128, String)>,
    /// Corrupt bytes skipped (and, for a pure torn tail, truncated) at open
    /// time.
    recovered_bytes: u64,
    /// `true` when complete entries were recovered *after* a corrupt range —
    /// i.e. the resync scan actually rescued someone's appends.
    salvaged: bool,
    /// Generation stamp from the header; bumped on every compaction.
    generation: u64,
    /// `true` when the existing file had a foreign or damaged header and was
    /// quarantined, starting this handle on a fresh file.
    poisoned: bool,
    /// Where the poisoned file was moved, when it was.
    quarantined: Option<PathBuf>,
    /// `true` once an advisory lock attempt came back `Unsupported` (some
    /// network/overlay filesystems) and the store fell back to lock-free
    /// operation for this handle.
    lock_degraded: bool,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("path", &self.path)
            .field("entries", &self.index.len())
            .field("generation", &self.generation)
            .field("recovered_bytes", &self.recovered_bytes)
            .field("poisoned", &self.poisoned)
            .field("lock_degraded", &self.lock_degraded)
            .finish()
    }
}

impl CacheStore {
    /// The configuration key a store file is segregated by: a deterministic
    /// hash of the prover budgets and the cascade line-up.  (Deterministic
    /// within one toolchain; the schema version in the filename guards
    /// cross-version drift of the hasher itself.)
    pub fn config_key(config: &ProverConfig, provers: &[&str]) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        0x5157_ab5e_u64.hash(&mut hasher);
        config.hash(&mut hasher);
        provers.hash(&mut hasher);
        hasher.finish()
    }

    /// The store file path for a configuration inside `dir`.
    pub fn file_path(dir: &Path, config: &ProverConfig, provers: &[&str]) -> PathBuf {
        let key = Self::config_key(config, provers);
        dir.join(format!("proofs-v{SCHEMA_VERSION}-{key:016x}.iplstore"))
    }

    /// Opens (creating if necessary) the store for `config` in `dir`, loading
    /// every complete entry under an exclusive advisory lock.  A corrupt tail
    /// is truncated; a file with a foreign header is rewritten fresh.  A
    /// filesystem that does not support advisory locks degrades to lock-free
    /// operation (logged once) instead of failing the run — single-process
    /// use stays fully safe, concurrent processes fall back to the per-entry
    /// checksums.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, locking, I/O).
    pub fn open(
        dir: &Path,
        config: &ProverConfig,
        provers: &[&'static str],
    ) -> io::Result<CacheStore> {
        std::fs::create_dir_all(dir)?;
        let path = Self::file_path(dir, config, provers);
        let config_hash = Self::config_key(config, provers);
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut degraded = false;
        let locked = lock_or_degrade(&file, &path, false, &mut degraded)?;
        let result = Self::load_locked(file, path, config_hash, provers.to_vec(), degraded);
        if locked {
            if let Ok(store) = &result {
                store.file.unlock()?;
            }
        }
        result
    }

    fn load_locked(
        mut file: File,
        path: PathBuf,
        config_hash: u64,
        line_up: Vec<&'static str>,
        lock_degraded: bool,
    ) -> io::Result<CacheStore> {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut store = CacheStore {
            file,
            path,
            config_hash,
            line_up,
            index: HashSet::new(),
            loaded: Vec::new(),
            recovered_bytes: 0,
            salvaged: false,
            generation: 0,
            poisoned: false,
            quarantined: None,
            lock_degraded,
        };

        if bytes.is_empty() {
            store.write_header()?;
            return Ok(store);
        }
        if !header_matches(&bytes, config_hash) {
            // Poisoned: the name promised our schema and configuration but
            // the header disagrees.  Nothing in the file can be trusted, so
            // it is moved aside for post-mortem — never rewritten in place —
            // and a fresh file takes its path.
            store.poisoned = true;
            store.quarantined = Some(quarantine_file(&store.path, "foreign or damaged header")?);
            store.file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&store.path)?;
            store.write_header()?;
            return Ok(store);
        }
        store.generation = header_generation(&bytes);

        let log = decode_log(&bytes[HEADER_LEN..], config_hash);
        for (fingerprint, prover) in log.entries {
            if store.index.insert(fingerprint) {
                store.loaded.push((fingerprint, prover));
            }
        }
        store.recovered_bytes = log.skipped_bytes;
        store.salvaged = log.resynced;
        if log.skipped_bytes > 0 && !log.resynced && !lock_degraded {
            // A pure torn tail (crash mid-append, nothing readable after it):
            // drop it so future appends land on a clean boundary.  Only done
            // while the advisory lock is actually held — lock-free, another
            // process may have appended past what we read, and truncating
            // would destroy its entries.  Mid-log garbage (`resynced`) is
            // left in place for the next compaction; the resync scan reads
            // past it on every load.
            store.file.set_len((HEADER_LEN + log.clean_len) as u64)?;
        }
        Ok(store)
    }

    fn write_header(&mut self) -> io::Result<()> {
        self.file
            .write_all(&header_bytes(self.config_hash, self.generation))
    }

    /// The store file backing this handle.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct fingerprints this handle knows to be on disk.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no entry has been loaded or appended through this handle.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Entries read from disk when the store was opened, in log order.
    pub fn loaded_entries(&self) -> &[(u128, String)] {
        &self.loaded
    }

    /// Corrupt bytes skipped over when the store was opened.
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// `true` when complete entries were recovered *after* a corrupt range
    /// at open time (the resync scan rescued entries a plain
    /// truncate-at-first-error load would have discarded).
    pub fn salvaged(&self) -> bool {
        self.salvaged
    }

    /// The header's generation stamp: how many times this log has been
    /// compacted (rewritten wholesale) since it was created.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `true` when the existing file had a foreign header and was ignored.
    pub fn was_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Where the poisoned file was quarantined, when one was.
    pub fn quarantined(&self) -> Option<&Path> {
        self.quarantined.as_deref()
    }

    /// `true` when this handle fell back to lock-free operation because the
    /// filesystem reported advisory locks as unsupported.
    pub fn lock_degraded(&self) -> bool {
        self.lock_degraded
    }

    /// Whether a fingerprint is known to be persisted.
    pub fn contains(&self, fingerprint: Fingerprint) -> bool {
        self.index.contains(&fingerprint.as_u128())
    }

    /// Replays every loaded entry into the in-memory cache (without touching
    /// its hit/miss counters), returning how many were inserted.  An entry
    /// whose prover is not in the store's line-up names no stage that could
    /// have proved it, and is skipped.
    pub fn preload(&self, cache: &ProofCache) -> usize {
        let mut inserted = 0;
        for (fingerprint, prover) in &self.loaded {
            if let Some(&name) = self.line_up.iter().find(|name| **name == prover) {
                cache.record(Fingerprint::from_u128(*fingerprint), name);
                inserted += 1;
            }
        }
        inserted
    }

    /// Appends the entries whose fingerprints this handle has not yet
    /// persisted, as one locked, single-`write` batch.  Returns how many
    /// entries were written.
    ///
    /// # Errors
    ///
    /// Propagates locking and write errors; on error no entry is recorded in
    /// the handle's index (the batch may be partially on disk, protected by
    /// per-entry checksums).
    pub fn append_new(&mut self, entries: &[(Fingerprint, String)]) -> io::Result<usize> {
        self.append_with(entries, None)
    }

    /// [`CacheStore::append_new`] under a request's fault plan, which may
    /// fail its lock (`lock_fail`), tear its write (`short_write`) or fail it
    /// before writing (`disk_full`).
    ///
    /// # Errors
    ///
    /// As [`CacheStore::append_new`], plus the injected faults.
    pub fn append_with(
        &mut self,
        entries: &[(Fingerprint, String)],
        faults: Option<&FaultPlan>,
    ) -> io::Result<usize> {
        let fresh: Vec<&(Fingerprint, String)> = entries
            .iter()
            .filter(|(fingerprint, _)| !self.index.contains(&fingerprint.as_u128()))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        self.reopen_if_stale()?;
        let mut buffer = Vec::new();
        for (fingerprint, prover) in &fresh {
            encode_entry(&mut buffer, fingerprint.as_u128(), prover, self.config_hash);
        }
        let path = self.path.clone();
        let lock_fails = faults.is_some_and(|plan| plan.store_lock_fails(batch_key(&buffer)));
        let locked = lock_or_degrade(&self.file, &path, lock_fails, &mut self.lock_degraded)?;
        let written = self.write_batch(&buffer, locked, faults);
        if locked {
            self.file.unlock()?;
        }
        written?;
        let mut count = 0;
        for (fingerprint, _) in &fresh {
            if self.index.insert(fingerprint.as_u128()) {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Writes one encoded batch, honouring any injected I/O fault and
    /// repairing real torn writes.
    fn write_batch(
        &mut self,
        buffer: &[u8],
        locked: bool,
        faults: Option<&FaultPlan>,
    ) -> io::Result<()> {
        if let Some(plan) = faults {
            match plan.store_append_fault(batch_key(buffer), buffer.len()) {
                Some(StoreFault::DiskFull) => {
                    return Err(io::Error::other("injected fault: disk full on append"));
                }
                Some(StoreFault::ShortWrite { cut }) => {
                    // A torn write exactly as a crash leaves it: a prefix of
                    // the batch on disk, no repair — the per-entry checksums
                    // recover it at the next open.
                    self.file
                        .write_all(&buffer[..cut])
                        .and_then(|()| self.file.flush())?;
                    return Err(io::Error::other("injected fault: short write on append"));
                }
                None => {}
            }
        }
        let len_before = self.file.metadata().map(|m| m.len());
        let result = self.file.write_all(buffer).and_then(|()| self.file.flush());
        if result.is_err() && locked {
            // Best-effort rollback of a real torn write to the batch
            // boundary, so the log stays clean without waiting for the next
            // open's checksum recovery.  If the truncate fails too, that
            // recovery still applies.  Only attempted while the advisory
            // lock is held: lock-free, `len_before` may already be stale —
            // another handle's complete entries could sit past it, and
            // truncating would destroy them.  (The torn bytes then stay on
            // disk, and the next load's resync scan skips them.)
            if let Ok(len) = len_before {
                let _ = self.file.set_len(len);
            }
        }
        result
    }

    /// Detects that the file at `path` was atomically replaced (another
    /// handle compacted it, or the loader quarantined a poisoned log) and
    /// reopens the live file, so appends land in the current log rather
    /// than the unlinked old inode.
    fn reopen_if_stale(&mut self) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            let stale = match (self.file.metadata(), std::fs::metadata(&self.path)) {
                (Ok(ours), Ok(live)) => ours.dev() != live.dev() || ours.ino() != live.ino(),
                // Path gone entirely (quarantined / deleted): recreate.
                (_, Err(e)) if e.kind() == io::ErrorKind::NotFound => true,
                _ => false,
            };
            if stale {
                self.file = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(&self.path)?;
                let len = self.file.metadata()?.len();
                if len == 0 {
                    self.write_header()?;
                } else {
                    let mut header = vec![0u8; HEADER_LEN.min(len as usize)];
                    self.file.seek(SeekFrom::Start(0))?;
                    self.file.read_exact(&mut header)?;
                    if header_matches(&header, self.config_hash) {
                        self.generation = header_generation(&header);
                    }
                }
            }
        }
        Ok(())
    }

    /// Rewrites the log dropping duplicate fingerprints and corrupt byte
    /// ranges, via write-to-temp + atomic rename, bumping the generation
    /// stamp.  The handle's index swaps to the compacted contents without a
    /// rescan.  Handles in other processes detect the swapped inode on
    /// their next append ([`Self::reopen_if_stale`]); their indexes stay
    /// valid because compaction only drops duplicates, never live
    /// fingerprints.
    ///
    /// # Errors
    ///
    /// Propagates locking, read, write and rename errors; on error the
    /// original log is untouched (the temp file may be left behind).
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        self.reopen_if_stale()?;
        let path = self.path.clone();
        let locked = lock_or_degrade(&self.file, &path, false, &mut self.lock_degraded)?;
        let result = self.compact_locked();
        if locked && result.is_err() {
            let _ = self.file.unlock();
        }
        // On success the locked descriptor was dropped by the fd swap in
        // `compact_locked`, releasing the advisory lock with it.
        result
    }

    fn compact_locked(&mut self) -> io::Result<CompactStats> {
        // Read back from disk under the lock: other handles may have
        // appended entries this one has never seen, and they must survive.
        let mut bytes = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut bytes)?;
        if !header_matches(&bytes, self.config_hash) {
            return Err(io::Error::other(format!(
                "store header changed under compaction: {}",
                self.path.display()
            )));
        }
        let generation = header_generation(&bytes) + 1;
        let log = decode_log(&bytes[HEADER_LEN..], self.config_hash);
        let (stats, kept) = rewrite_compacted(
            &self.path,
            self.config_hash,
            generation,
            &log,
            bytes.len() as u64,
        )?;
        // Swap to the compacted file; dropping the old descriptor releases
        // the advisory lock held on the now-unlinked inode.
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.generation = generation;
        self.index = kept.iter().map(|(fingerprint, _)| *fingerprint).collect();
        self.loaded = kept;
        self.recovered_bytes = 0;
        self.salvaged = false;
        Ok(stats)
    }
}

/// A long-lived wrapper around [`CacheStore`] for callers that verify
/// repeatedly in one process (a daemon, an incremental loop).
///
/// [`CacheStore::open`] scans the whole log; doing that once per verify is
/// the dominant fixed cost of a warm request.  A `StoreHandle` opens the
/// store once and replays it into the in-memory cache at most once —
/// [`StoreHandle::ensure_preloaded`] is idempotent — while still appending
/// freshly proved fingerprints after every verify.
#[derive(Debug)]
pub struct StoreHandle {
    store: CacheStore,
    /// How many times the loaded log was actually replayed into a cache.
    /// Stays at 1 for the life of the handle; the daemon's "no re-scan"
    /// guarantee is asserted against this counter.
    preloads: usize,
    /// Total entries appended through this handle.
    appended: usize,
}

impl StoreHandle {
    /// Opens (creating if necessary) the store for `config` in `dir`.  The
    /// log is scanned here, once; see [`CacheStore::open`] for recovery and
    /// locking behaviour.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`CacheStore::open`].
    pub fn open(
        dir: &Path,
        config: &ProverConfig,
        provers: &[&'static str],
    ) -> io::Result<StoreHandle> {
        Ok(StoreHandle {
            store: CacheStore::open(dir, config, provers)?,
            preloads: 0,
            appended: 0,
        })
    }

    /// Replays the loaded log into `cache` the first time it is called;
    /// every later call is a no-op returning 0.  Returns how many entries
    /// were replayed.
    pub fn ensure_preloaded(&mut self, cache: &ProofCache) -> usize {
        if self.preloads > 0 {
            return 0;
        }
        self.preloads = 1;
        self.store.preload(cache)
    }

    /// How many times the on-disk log was replayed into a cache (0 before
    /// the first [`StoreHandle::ensure_preloaded`], 1 forever after).
    pub fn preload_count(&self) -> usize {
        self.preloads
    }

    /// Total entries appended through this handle.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Appends not-yet-persisted entries; see [`CacheStore::append_new`].
    ///
    /// # Errors
    ///
    /// Propagates locking and write errors from [`CacheStore::append_new`].
    pub fn append_new(&mut self, entries: &[(Fingerprint, String)]) -> io::Result<usize> {
        self.append_with(entries, None)
    }

    /// Appends under a request's fault plan; see [`CacheStore::append_with`].
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`CacheStore::append_with`].
    pub fn append_with(
        &mut self,
        entries: &[(Fingerprint, String)],
        faults: Option<&FaultPlan>,
    ) -> io::Result<usize> {
        let written = self.store.append_with(entries, faults)?;
        self.appended += written;
        Ok(written)
    }

    /// Compacts the underlying store; see [`CacheStore::compact`].  The
    /// handle's warm index swaps to the compacted log without a rescan —
    /// [`StoreHandle::preload_count`] is unaffected.
    ///
    /// # Errors
    ///
    /// Propagates locking and I/O errors from [`CacheStore::compact`].
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        self.store.compact()
    }

    /// The underlying store.
    pub fn store(&self) -> &CacheStore {
        &self.store
    }
}

/// Acquires the advisory lock, degrading to lock-free operation (with one
/// warning per handle) when the filesystem reports locks as unsupported —
/// or when `injected`, a fault plan's `lock_fail`, says it does.  Returns
/// whether the lock is actually held.
fn lock_or_degrade(
    file: &File,
    path: &Path,
    injected: bool,
    degraded: &mut bool,
) -> io::Result<bool> {
    let result = if injected {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "injected fault: advisory lock unsupported",
        ))
    } else {
        file.lock()
    };
    match result {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            if !*degraded {
                eprintln!(
                    "ipl: warning: advisory file lock unsupported on {} ({e}); \
                     continuing lock-free (safe single-process; concurrent \
                     writers fall back to per-entry checksums)",
                    path.display()
                );
                *degraded = true;
            }
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// Content key for store fault-injection decisions: a hash of the encoded
/// batch, so the same plan tears the same appends regardless of scheduling.
fn batch_key(buffer: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    0x0057_09e5_u64.hash(&mut hasher);
    buffer.hash(&mut hasher);
    hasher.finish()
}

/// Summary of one store file, for `ipl cache` diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// The store file.
    pub path: PathBuf,
    /// Schema version from the header (`None` when the header is foreign).
    pub schema_version: Option<u32>,
    /// Generation stamp from the header (`None` when the header is foreign).
    pub generation: Option<u64>,
    /// Recoverable entries in the log (including any salvaged past corrupt
    /// ranges; duplicates counted).
    pub entries: usize,
    /// Corrupt bytes that a load would skip over.
    pub corrupt_tail_bytes: u64,
}

/// Inspects a store file without locking or modifying it.
///
/// # Errors
///
/// Propagates read errors.
pub fn inspect(path: &Path) -> io::Result<StoreInfo> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return Ok(StoreInfo {
            path: path.to_path_buf(),
            schema_version: None,
            generation: None,
            entries: 0,
            corrupt_tail_bytes: bytes.len() as u64,
        });
    }
    let schema = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let config_hash = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let log = decode_log(&bytes[HEADER_LEN..], config_hash);
    Ok(StoreInfo {
        path: path.to_path_buf(),
        schema_version: Some(schema),
        generation: Some(header_generation(&bytes)),
        entries: log.entries.len(),
        corrupt_tail_bytes: log.skipped_bytes,
    })
}

/// Lists every store file in a cache directory (any configuration).
///
/// # Errors
///
/// Propagates directory-read errors; a missing directory yields an empty
/// list.
pub fn scan_dir(dir: &Path) -> io::Result<Vec<StoreInfo>> {
    let mut infos = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(infos),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("iplstore") {
            infos.push(inspect(&path)?);
        }
    }
    infos.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(infos)
}

fn header_matches(bytes: &[u8], config_hash: u64) -> bool {
    bytes.len() >= HEADER_LEN
        && bytes[..8] == MAGIC
        && bytes[8..12] == SCHEMA_VERSION.to_le_bytes()
        && bytes[12..20] == config_hash.to_le_bytes()
}

fn header_generation(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[20..HEADER_LEN].try_into().expect("8 bytes"))
}

fn header_bytes(config_hash: u64, generation: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&config_hash.to_le_bytes());
    header[20..].copy_from_slice(&generation.to_le_bytes());
    header
}

/// One decoded entry region, with corruption accounting.
struct DecodedLog {
    /// Every recoverable entry, in log order, duplicates preserved.
    entries: Vec<(u128, String)>,
    /// Bytes that decoded as no entry (torn writes, garbage).
    skipped_bytes: u64,
    /// Length of the gap-free prefix of the entry region — the truncation
    /// point when the corruption is a pure torn tail.
    clean_len: usize,
    /// `true` when at least one entry decoded *after* a corrupt gap.
    resynced: bool,
}

/// Decodes every recoverable entry from an entry region, resynchronising
/// past corrupt byte ranges: after an undecodable stretch the scan advances
/// one byte at a time until the next checksum-valid entry.  A false resync
/// would need a 64-bit checksum collision *and* a matching config hash at a
/// misaligned offset, so complete entries after a torn one are recovered
/// rather than discarded.
fn decode_log(bytes: &[u8], config_hash: u64) -> DecodedLog {
    let mut log = DecodedLog {
        entries: Vec::new(),
        skipped_bytes: 0,
        clean_len: 0,
        resynced: false,
    };
    let mut pos = 0;
    let mut gap_seen = false;
    while pos < bytes.len() {
        match decode_entry(&bytes[pos..], config_hash) {
            Some((fingerprint, prover, consumed)) => {
                log.entries.push((fingerprint, prover));
                pos += consumed;
                if gap_seen {
                    log.resynced = true;
                } else {
                    log.clean_len = pos;
                }
            }
            None => {
                pos += 1;
                log.skipped_bytes += 1;
                gap_seen = true;
            }
        }
    }
    log
}

/// Statistics from one compaction ([`CacheStore::compact`] /
/// [`compact_file`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Recoverable entries in the log before compaction (with duplicates).
    pub entries_before: usize,
    /// Distinct entries written to the compacted log.
    pub entries_after: usize,
    /// Duplicate entries dropped.
    pub duplicates_dropped: usize,
    /// Corrupt bytes dropped.
    pub corrupt_bytes_dropped: u64,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
    /// The compacted file's generation stamp (old generation + 1).
    pub generation: u64,
}

/// Writes a deduplicated copy of `log` as a temp file next to `path` and
/// atomically renames it into place.  Returns the stats and the kept
/// entries in log order.
fn rewrite_compacted(
    path: &Path,
    config_hash: u64,
    generation: u64,
    log: &DecodedLog,
    bytes_before: u64,
) -> io::Result<(CompactStats, Vec<(u128, String)>)> {
    let mut seen = HashSet::new();
    let mut kept = Vec::new();
    for (fingerprint, prover) in &log.entries {
        if seen.insert(*fingerprint) {
            kept.push((*fingerprint, prover.clone()));
        }
    }
    let mut out = Vec::with_capacity(bytes_before as usize);
    out.extend_from_slice(&header_bytes(config_hash, generation));
    for (fingerprint, prover) in &kept {
        encode_entry(&mut out, *fingerprint, prover, config_hash);
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("store.iplstore");
    let tmp = path.with_file_name(format!("{file_name}.tmp-{}", std::process::id()));
    let write = (|| {
        let mut tmp_file = File::create(&tmp)?;
        tmp_file.write_all(&out)?;
        // The rename must never expose a partially written log.
        tmp_file.sync_all()
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(dir_file) = File::open(dir) {
            let _ = dir_file.sync_all();
        }
    }
    let stats = CompactStats {
        entries_before: log.entries.len(),
        entries_after: kept.len(),
        duplicates_dropped: log.entries.len() - kept.len(),
        corrupt_bytes_dropped: log.skipped_bytes,
        bytes_before,
        bytes_after: out.len() as u64,
        generation,
    };
    Ok((stats, kept))
}

/// Moves an untrustworthy store file into a `quarantine/` subdirectory next
/// to it — never rewriting or deleting it in place — and logs the reason.
/// The quarantined copy keeps its name, suffixed if needed to stay unique.
fn quarantine_file(path: &Path, reason: &str) -> io::Result<PathBuf> {
    let dir = path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let quarantine_dir = dir.join("quarantine");
    std::fs::create_dir_all(&quarantine_dir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("store.iplstore")
        .to_string();
    let mut target = quarantine_dir.join(&name);
    let mut attempt = 0u32;
    while target.exists() {
        attempt += 1;
        target = quarantine_dir.join(format!("{name}.{attempt}"));
    }
    std::fs::rename(path, &target)?;
    eprintln!(
        "ipl: warning: quarantined corrupt store {} -> {} ({reason})",
        path.display(),
        target.display()
    );
    Ok(target)
}

/// Outcome of [`compact_file`]: either the log was rewritten in place, or
/// it could not be trusted and was moved to `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileCompaction {
    /// The log was compacted; the stats describe the rewrite.
    Compacted(CompactStats),
    /// The file's header was foreign (wrong magic or schema version) and it
    /// was quarantined instead of touched.
    Quarantined {
        /// Where the file was moved.
        to: PathBuf,
        /// Why it could not be compacted.
        reason: String,
    },
}

/// Compacts one store file offline (no open handle needed), under the
/// advisory lock: duplicates and corrupt ranges are dropped via
/// write-to-temp + atomic rename and the generation stamp is bumped.  A
/// file whose header is foreign — wrong magic, wrong schema version — is
/// moved to `quarantine/` instead of being rewritten in place.  The
/// config hash is taken from the file's own header (offline compaction
/// trusts a self-consistent file).
///
/// # Errors
///
/// Propagates locking and I/O errors.
pub fn compact_file(path: &Path) -> io::Result<FileCompaction> {
    let file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut degraded = false;
    let locked = lock_or_degrade(&file, path, false, &mut degraded)?;
    let result = compact_file_locked(path);
    if locked {
        let _ = file.unlock();
    }
    result
}

fn compact_file_locked(path: &Path) -> io::Result<FileCompaction> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN
        || bytes[..8] != MAGIC
        || bytes[8..12] != SCHEMA_VERSION.to_le_bytes()
    {
        let reason = "foreign or damaged header";
        let to = quarantine_file(path, reason)?;
        return Ok(FileCompaction::Quarantined {
            to,
            reason: reason.to_string(),
        });
    }
    let config_hash = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let generation = header_generation(&bytes) + 1;
    let log = decode_log(&bytes[HEADER_LEN..], config_hash);
    let (stats, _) = rewrite_compacted(path, config_hash, generation, &log, bytes.len() as u64)?;
    Ok(FileCompaction::Compacted(stats))
}

/// Compacts every `.iplstore` file in a cache directory (any
/// configuration), in path order.  A missing directory yields an empty
/// list.
///
/// # Errors
///
/// Propagates directory-read errors and per-file errors from
/// [`compact_file`].
pub fn compact_dir(dir: &Path) -> io::Result<Vec<(PathBuf, FileCompaction)>> {
    let mut results = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(results),
        Err(e) => return Err(e),
    };
    let mut paths = Vec::new();
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("iplstore") {
            paths.push(path);
        }
    }
    paths.sort();
    for path in paths {
        let outcome = compact_file(&path)?;
        results.push((path, outcome));
    }
    Ok(results)
}

fn encode_entry(out: &mut Vec<u8>, fingerprint: u128, prover: &str, config_hash: u64) {
    let start = out.len();
    out.extend_from_slice(&(prover.len() as u16).to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&config_hash.to_le_bytes());
    out.extend_from_slice(prover.as_bytes());
    let checksum = entry_checksum(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Decodes one entry from the front of `bytes`; returns the fingerprint, the
/// prover name and the number of bytes consumed, or `None` when the entry is
/// incomplete, fails its checksum, or was written under another
/// configuration.
fn decode_entry(bytes: &[u8], config_hash: u64) -> Option<(u128, String, usize)> {
    if bytes.len() < 2 {
        return None;
    }
    let prover_len = u16::from_le_bytes(bytes[..2].try_into().expect("2 bytes")) as usize;
    if prover_len > MAX_PROVER_LEN {
        return None;
    }
    let body_len = 2 + 16 + 8 + prover_len;
    let total_len = body_len + 8;
    if bytes.len() < total_len {
        return None;
    }
    let stored_checksum = u64::from_le_bytes(bytes[body_len..total_len].try_into().expect("8"));
    if entry_checksum(&bytes[..body_len]) != stored_checksum {
        return None;
    }
    let fingerprint = u128::from_le_bytes(bytes[2..18].try_into().expect("16 bytes"));
    let entry_config = u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes"));
    if entry_config != config_hash {
        return None;
    }
    let prover = std::str::from_utf8(&bytes[26..body_len]).ok()?.to_string();
    Some((fingerprint, prover, total_len))
}

fn entry_checksum(bytes: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    0xc0a1_e5ce_u64.hash(&mut hasher);
    bytes.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ipl-store-test-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(raw: u128) -> Fingerprint {
        Fingerprint::from_u128(raw)
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = temp_dir("reopen");
        let config = ProverConfig::default();
        let provers = ["syntactic", "smt-ground"];
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(store.is_empty());
        assert_eq!(
            store
                .append_new(&[(fp(1), "smt-ground".into()), (fp(2), "bapa".into())])
                .unwrap(),
            2
        );
        // Appending the same fingerprints again is a no-op.
        assert_eq!(
            store.append_new(&[(fp(1), "smt-ground".into())]).unwrap(),
            0
        );

        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.contains(fp(1)));
        assert!(reopened.contains(fp(2)));
        assert_eq!(reopened.recovered_bytes(), 0);
        assert!(!reopened.was_poisoned());
        let mut loaded = reopened.loaded_entries().to_vec();
        loaded.sort();
        assert_eq!(loaded, vec![(1, "smt-ground".into()), (2, "bapa".into())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_configs_use_different_files() {
        let dir = temp_dir("configs");
        let provers = ["smt-ground"];
        let mut default_store = CacheStore::open(&dir, &ProverConfig::default(), &provers).unwrap();
        default_store
            .append_new(&[(fp(7), "smt-ground".into())])
            .unwrap();
        let quick_store = CacheStore::open(&dir, &ProverConfig::quick(), &provers).unwrap();
        assert_ne!(default_store.path(), quick_store.path());
        assert!(quick_store.is_empty());
        // The line-up is part of the key too.
        assert_ne!(
            CacheStore::file_path(&dir, &ProverConfig::default(), &provers),
            CacheStore::file_path(&dir, &ProverConfig::default(), &["syntactic"])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_and_store_stays_usable() {
        let dir = temp_dir("truncate");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        store
            .append_new(&[(fp(10), "a".into()), (fp(11), "b".into())])
            .unwrap();
        let path = store.path().to_path_buf();
        drop(store);
        // Chop the last 5 bytes: the second entry's checksum is torn.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let mut recovered = CacheStore::open(&dir, &config, &provers).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered.contains(fp(10)));
        assert!(!recovered.contains(fp(11)));
        assert!(recovered.recovered_bytes() > 0);
        // The file was truncated to the last good entry, so appends land on a
        // clean boundary and survive the next load.
        recovered.append_new(&[(fp(12), "c".into())]).unwrap();
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.contains(fp(12)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_header_is_ignored_not_replayed() {
        let dir = temp_dir("poison");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        store.append_new(&[(fp(21), "a".into())]).unwrap();
        let path = store.path().to_path_buf();
        drop(store);
        // Flip the schema version in the header: the file now claims a layout
        // we do not understand.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = bytes[8].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();

        let fresh = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(fresh.was_poisoned());
        assert!(fresh.is_empty(), "poisoned entries must not be replayed");
        // The poisoned bytes were moved to quarantine/, not rewritten in
        // place: the evidence survives for post-mortem.
        let quarantined = fresh.quarantined().expect("quarantine path").to_path_buf();
        assert!(quarantined.starts_with(dir.join("quarantine")));
        assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
        // And the fresh file at the original path is sound again.
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(!reopened.was_poisoned());
        assert!(reopened.quarantined().is_none());
        // Quarantined files are invisible to the directory scan.
        assert_eq!(scan_dir(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_duplicates_and_bumps_the_generation() {
        let dir = temp_dir("compact");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        // Two handles opened before either appends: each considers fp(1)
        // fresh, so the log ends up with a duplicate entry.
        let mut a = CacheStore::open(&dir, &config, &provers).unwrap();
        let mut b = CacheStore::open(&dir, &config, &provers).unwrap();
        a.append_new(&[(fp(1), "a".into()), (fp(2), "a".into())])
            .unwrap();
        b.append_new(&[(fp(1), "b".into())]).unwrap();
        let info = inspect(a.path()).unwrap();
        assert_eq!(info.entries, 3, "duplicate landed on disk");
        assert_eq!(info.generation, Some(0));

        let stats = a.compact().unwrap();
        assert_eq!(stats.entries_before, 3);
        assert_eq!(stats.entries_after, 2);
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(stats.generation, 1);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(a.generation(), 1);
        assert_eq!(a.len(), 2, "index swapped without losing fingerprints");
        assert!(a.contains(fp(1)) && a.contains(fp(2)));

        // The compacted file is smaller, self-consistent, and a fresh open
        // sees every fingerprint.
        let info = inspect(a.path()).unwrap();
        assert_eq!(info.entries, 2);
        assert_eq!(info.generation, Some(1));
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.generation(), 1);

        // Handle b's descriptor points at the unlinked pre-compaction inode;
        // its next append detects the swap and lands in the live log.
        b.append_new(&[(fp(3), "b".into())]).unwrap();
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 3);
        assert!(reopened.contains(fp(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_salvages_complete_entries_past_a_corrupt_range() {
        let dir = temp_dir("salvage");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        store.append_new(&[(fp(71), "a".into())]).unwrap();
        let path = store.path().to_path_buf();
        let good_len = std::fs::metadata(&path).unwrap().len();
        drop(store);
        // Simulate a torn append followed by another handle's complete one:
        // garbage bytes, then a valid entry appended straight after them.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xfe; 7]);
        let config_hash = CacheStore::config_key(&config, &provers);
        encode_entry(&mut bytes, 72, "b", config_hash);
        std::fs::write(&path, &bytes).unwrap();

        let store = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(
            store.salvaged(),
            "resync must rescue the entry past the gap"
        );
        assert_eq!(store.recovered_bytes(), 7);
        assert!(store.contains(fp(71)) && store.contains(fp(72)));
        // Mid-log garbage stays put (compaction's job), so the file length
        // is unchanged...
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes.len() as u64);
        drop(store);
        // ...and compaction scrubs it.
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.corrupt_bytes_dropped, 7);
        assert_eq!(stats.entries_after, 2);
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(!reopened.salvaged());
        assert_eq!(reopened.recovered_bytes(), 0);
        assert_eq!(reopened.len(), 2);
        assert!(std::fs::metadata(&path).unwrap().len() > good_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_file_quarantines_foreign_schemas_and_compacts_sound_logs() {
        let dir = temp_dir("compactdir");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        store
            .append_new(&[(fp(81), "a".into()), (fp(82), "a".into())])
            .unwrap();
        drop(store);
        // A second file claiming an unknown schema version.
        let foreign = dir.join("proofs-v999-0000000000000000.iplstore");
        let mut foreign_bytes = Vec::new();
        foreign_bytes.extend_from_slice(&MAGIC);
        foreign_bytes.extend_from_slice(&999u32.to_le_bytes());
        foreign_bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&foreign, &foreign_bytes).unwrap();

        let results = compact_dir(&dir).unwrap();
        assert_eq!(results.len(), 2);
        let mut compacted = 0;
        let mut quarantined = 0;
        for (path, outcome) in &results {
            match outcome {
                FileCompaction::Compacted(stats) => {
                    compacted += 1;
                    assert_eq!(stats.entries_after, 2);
                    assert_eq!(stats.generation, 1);
                    assert_ne!(path, &foreign);
                }
                FileCompaction::Quarantined { to, .. } => {
                    quarantined += 1;
                    assert_eq!(path, &foreign);
                    assert!(to.starts_with(dir.join("quarantine")));
                    assert_eq!(std::fs::read(to).unwrap(), foreign_bytes);
                    assert!(!foreign.exists());
                }
            }
        }
        assert_eq!((compacted, quarantined), (1, 1));
        assert!(compact_dir(&dir.join("missing")).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preload_feeds_the_memory_cache() {
        let dir = temp_dir("preload");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let raw = 0xdead_beef_dead_beef_dead_beef_dead_beefu128;
        // A prover outside the store's line-up could not have proved it.
        let stranger = 0xdead_beef_dead_beef_dead_beef_dead_bee0u128;
        {
            let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
            store
                .append_new(&[
                    (fp(raw), "smt-ground".into()),
                    (fp(stranger), "bapa".into()),
                ])
                .unwrap();
        }
        let store = CacheStore::open(&dir, &config, &provers).unwrap();
        let cache = ProofCache::global();
        assert_eq!(store.preload(cache), 1);
        assert_eq!(cache.lookup(fp(raw)).as_deref(), Some("smt-ground"));
        assert_eq!(cache.lookup(fp(stranger)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_lock_degrades_instead_of_failing() {
        let dir = temp_dir("lockfree");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let plan = FaultPlan {
            seed: 5,
            store_lock_fail_bp: 10_000,
            ..FaultPlan::default()
        };
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        let appended = store.append_with(&[(fp(31), "a".into())], Some(&plan));
        assert_eq!(appended.unwrap(), 1);
        assert!(store.lock_degraded(), "the append's lock was Unsupported");
        // Lock-free appends are still complete, checksummed entries.
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(!reopened.lock_degraded());
        assert!(reopened.contains(fp(31)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_is_recovered_at_next_open() {
        let dir = temp_dir("shortwrite");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let plan = FaultPlan {
            seed: 6,
            store_short_write_bp: 10_000,
            ..FaultPlan::default()
        };
        {
            let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
            store.append_new(&[(fp(41), "a".into())]).unwrap();
            let err = store
                .append_with(&[(fp(42), "b".into())], Some(&plan))
                .unwrap_err();
            assert!(err.to_string().contains("short write"));
            assert!(
                !store.contains(fp(42)),
                "a failed append must not be indexed"
            );
        }
        // The torn tail is dropped; the store stays usable and the entry
        // written before the fault survives.
        let mut recovered = CacheStore::open(&dir, &config, &provers).unwrap();
        assert!(recovered.contains(fp(41)));
        assert!(!recovered.contains(fp(42)));
        recovered.append_new(&[(fp(43), "c".into())]).unwrap();
        let reopened = CacheStore::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_disk_full_writes_nothing() {
        let dir = temp_dir("diskfull");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let plan = FaultPlan {
            seed: 7,
            store_disk_full_bp: 10_000,
            ..FaultPlan::default()
        };
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        let len_before = std::fs::metadata(store.path()).unwrap().len();
        let err = store
            .append_with(&[(fp(51), "a".into())], Some(&plan))
            .unwrap_err();
        assert!(err.to_string().contains("disk full"));
        assert_eq!(std::fs::metadata(store.path()).unwrap().len(), len_before);
        // The handle recovers as soon as the disk does.
        assert_eq!(store.append_new(&[(fp(51), "a".into())]).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_handle_preloads_once_and_keeps_appending() {
        let dir = temp_dir("handle");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        {
            let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
            store.append_new(&[(fp(61), "smt-ground".into())]).unwrap();
        }
        let mut handle = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert_eq!(handle.preload_count(), 0);
        let cache = ProofCache::global();
        assert_eq!(handle.ensure_preloaded(cache), 1);
        assert_eq!(handle.ensure_preloaded(cache), 0, "second preload is free");
        assert_eq!(handle.preload_count(), 1);
        assert_eq!(handle.append_new(&[(fp(62), "bapa".into())]).unwrap(), 1);
        assert_eq!(handle.append_new(&[(fp(62), "bapa".into())]).unwrap(), 0);
        assert_eq!(handle.appended(), 1);
        assert_eq!(handle.store().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_reports_header_and_entry_counts() {
        let dir = temp_dir("inspect");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = CacheStore::open(&dir, &config, &provers).unwrap();
        store
            .append_new(&[(fp(1), "a".into()), (fp(2), "b".into())])
            .unwrap();
        let info = inspect(store.path()).unwrap();
        assert_eq!(info.schema_version, Some(SCHEMA_VERSION));
        assert_eq!(info.entries, 2);
        assert_eq!(info.corrupt_tail_bytes, 0);
        let scanned = scan_dir(&dir).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0], info);
        assert!(scan_dir(&dir.join("missing")).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
