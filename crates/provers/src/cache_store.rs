//! The persistent proof store: an on-disk, append-only log of proved
//! sequent fingerprints.
//!
//! The in-memory [`ProofCache`] answers repeat
//! dispatches for free *within* one process; this module makes the cache
//! outlive the process, so that a warm re-run of an unchanged module — a CI
//! job on an untouched branch, the second keystroke in an editor session —
//! costs only the front-end plus one hash lookup per sequent.  The design
//! follows the prove-once/check-cheaply asymmetry: proving a sequent is
//! expensive, replaying its 128-bit content fingerprint is a set probe.
//!
//! A [`StoreHandle`] is the one way in: it opens the log and scans it once,
//! replays it into the in-memory cache at most once
//! ([`StoreHandle::ensure_preloaded`]), appends freshly proved fingerprints
//! after every verify, and compacts on request.  [`inspect`], [`scan_dir`],
//! [`compact_file`] and [`compact_dir`] serve `ipl cache` without a handle.
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
//! generation counts whole-file rewrites ([`StoreHandle::compact`],
//! [`compact_file`]).
//!
//! ## Crash safety and concurrency
//!
//! *Loading* walks the log from the front and **resynchronises past corrupt
//! byte ranges**: an undecodable stretch (torn mid-log write from a crashed
//! handle) is skipped byte-by-byte until the next checksum-valid entry, so
//! complete entries appended *after* a torn one — by another process, say —
//! survive.  A pure torn tail is truncated (only while the advisory lock is
//! actually held); mid-log garbage is left in place and removed by the next
//! compaction.  A file whose header does not match the expected magic,
//! schema version and configuration hash is treated as poisoned: it is moved
//! to a `quarantine/` subdirectory (never silently rewritten in place) with a
//! logged reason, and a fresh store file takes its path.
//!
//! *Compaction* rewrites the log dropping duplicate fingerprints and corrupt
//! ranges, by writing a temp file and atomically renaming it over the store,
//! bumping the generation.  Handles in other processes find the swapped
//! inode the next time they take the lock and reopen; their indexes stay
//! valid because compaction only drops duplicates, never live fingerprints.
//!
//! *Concurrent processes* sharing one cache directory are safe: every load,
//! append and compaction happens under an OS advisory file lock
//! ([`std::fs::File::lock`]) taken on the file that is at the path once the
//! lock is held, and appends are single `write` calls on a file opened in
//! append mode, so entries from two processes interleave at entry
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
//!
//! A stage that grows weaker keeps the schema: an entry records that its
//! sequent was proved, not how.  When the `bapa` stage lost Cooper's
//! quantifier elimination, v4 stores kept their entries, and a `bapa` entry
//! an older build stored from a Cooper refutation still names a valid
//! sequent, so replaying it is sound.

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
/// Why a file was moved to `quarantine/`.
const FOREIGN_HEADER: &str = "foreign or damaged header";

/// A long-lived handle on the persistent, append-only store of proved
/// fingerprints backing the in-memory [`ProofCache`].
///
/// Opening scans the whole log once; doing that once per verify would be the
/// dominant fixed cost of a warm request, so a daemon or an incremental loop
/// keeps one handle, replays it into the cache at most once and appends
/// freshly proved fingerprints after every verify.
pub struct StoreHandle {
    file: File,
    path: PathBuf,
    config_hash: u64,
    /// The cascade line-up the store was opened with; the replay maps each
    /// logged prover name onto it.
    line_up: Vec<&'static str>,
    /// Fingerprints known to be on disk (loaded, appended or kept by a
    /// compaction through this handle); appends skip them.
    index: HashSet<u128>,
    /// Entries read at open time (or kept by the last compaction), in log
    /// order.
    loaded: Vec<(u128, String)>,
    /// Corrupt bytes skipped (and, for a pure torn tail, truncated) at open
    /// time.
    recovered_bytes: u64,
    /// `true` when complete entries were recovered *after* a corrupt range —
    /// i.e. the resync scan actually rescued someone's appends.
    salvaged: bool,
    /// Generation stamp from the header this handle last read or wrote.
    generation: u64,
    /// Where a poisoned file found at open time was moved, when one was.
    quarantined: Option<PathBuf>,
    /// `true` once an advisory lock attempt came back `Unsupported` (some
    /// network/overlay filesystems) and the store fell back to lock-free
    /// operation for this handle.
    lock_degraded: bool,
    /// Whether the loaded log was replayed into a cache; the daemon's "no
    /// re-scan" guarantee is asserted against it.
    preloaded: bool,
    /// Total entries appended through this handle.
    appended: usize,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("path", &self.path)
            .field("entries", &self.index.len())
            .field("generation", &self.generation)
            .field("recovered_bytes", &self.recovered_bytes)
            .field("quarantined", &self.quarantined)
            .field("lock_degraded", &self.lock_degraded)
            .field("preloaded", &self.preloaded)
            .field("appended", &self.appended)
            .finish()
    }
}

impl StoreHandle {
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
    /// is truncated; a file with a foreign header is quarantined and a fresh
    /// one takes its path.  A filesystem that does not support advisory locks
    /// degrades to lock-free operation (logged once) instead of failing the
    /// run — single-process use stays fully safe, concurrent processes fall
    /// back to the per-entry checksums.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, locking, I/O).
    pub fn open(
        dir: &Path,
        config: &ProverConfig,
        provers: &[&'static str],
    ) -> io::Result<StoreHandle> {
        std::fs::create_dir_all(dir)?;
        let path = Self::file_path(dir, config, provers);
        let mut handle = StoreHandle {
            file: open_log(&path)?,
            path,
            config_hash: Self::config_key(config, provers),
            line_up: provers.to_vec(),
            index: HashSet::new(),
            loaded: Vec::new(),
            recovered_bytes: 0,
            salvaged: false,
            generation: 0,
            quarantined: None,
            lock_degraded: false,
            preloaded: false,
            appended: 0,
        };
        loop {
            let held = lock_live(
                &mut handle.file,
                &handle.path,
                false,
                &mut handle.lock_degraded,
            )?;
            let loaded = handle.load(held)?;
            if held {
                handle.file.unlock()?;
            }
            if loaded {
                return Ok(handle);
            }
        }
    }

    /// Reads the log into the index (`held`: under the advisory lock).  A
    /// file that is not a store of this schema and configuration is
    /// poisoned: nothing in it can be trusted, so it is moved aside for
    /// post-mortem — never rewritten in place — and `false` asks the caller
    /// to lock and load the fresh file that takes its path.
    fn load(&mut self, held: bool) -> io::Result<bool> {
        let bytes = read_all(&self.file)?;
        if bytes.is_empty() {
            self.file
                .write_all(&header_bytes(self.config_hash, self.generation))?;
            return Ok(true);
        }
        let Some(log) = read_log(&bytes).filter(|log| log.is_ours(self.config_hash)) else {
            self.quarantined = Some(quarantine_file(&self.path, FOREIGN_HEADER)?);
            return Ok(false);
        };
        self.generation = log.generation;
        for (fingerprint, prover) in log.entries {
            if self.index.insert(fingerprint) {
                self.loaded.push((fingerprint, prover));
            }
        }
        self.recovered_bytes = log.skipped_bytes;
        self.salvaged = log.resynced;
        if log.skipped_bytes > 0 && !log.resynced && held {
            // A pure torn tail (crash mid-append, nothing readable after it):
            // drop it so future appends land on a clean boundary.  Only done
            // while the advisory lock is actually held — lock-free, another
            // process may have appended past what we read, and truncating
            // would destroy its entries.  Mid-log garbage (`resynced`) is
            // left in place for the next compaction; the resync scan reads
            // past it on every load.
            self.file.set_len((HEADER_LEN + log.clean_len) as u64)?;
        }
        Ok(true)
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

    /// Entries read from disk when the store was opened (or kept by its last
    /// compaction), in log order.
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

    /// The generation stamp of the header this handle last read or wrote:
    /// how many times the log had been compacted (rewritten wholesale).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `true` when the existing file had a foreign header and was ignored.
    pub fn was_poisoned(&self) -> bool {
        self.quarantined.is_some()
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

    /// Replays the loaded log into `cache` (without touching its hit/miss
    /// counters) the first time it is called; every later call is a no-op
    /// returning 0.  Returns how many entries were replayed.  An entry whose
    /// prover is not in the store's line-up names no stage that could have
    /// proved it, and is skipped.
    pub fn ensure_preloaded(&mut self, cache: &ProofCache) -> usize {
        if self.preloaded {
            return 0;
        }
        self.preloaded = true;
        let mut inserted = 0;
        for (fingerprint, prover) in &self.loaded {
            if let Some(&name) = self.line_up.iter().find(|name| **name == prover) {
                cache.record(Fingerprint::from_u128(*fingerprint), name);
                inserted += 1;
            }
        }
        inserted
    }

    /// How many times the on-disk log was replayed into a cache (0 before
    /// the first [`StoreHandle::ensure_preloaded`], 1 forever after).
    pub fn preload_count(&self) -> usize {
        usize::from(self.preloaded)
    }

    /// Total entries appended through this handle.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Appends the entries whose fingerprints this handle has not yet
    /// persisted, each fingerprint once, as one locked, single-`write`
    /// batch.  Returns how many entries were written.
    ///
    /// # Errors
    ///
    /// Propagates locking and write errors; on error no entry is recorded in
    /// the handle's index (the batch may be partially on disk, protected by
    /// per-entry checksums).
    pub fn append_new(&mut self, entries: &[(Fingerprint, String)]) -> io::Result<usize> {
        self.append_with(entries, None)
    }

    /// [`StoreHandle::append_new`] under a request's fault plan, which may
    /// fail its lock (`lock_fail`), tear its write (`short_write`) or fail it
    /// before writing (`disk_full`).
    ///
    /// # Errors
    ///
    /// As [`StoreHandle::append_new`], plus the injected faults.
    pub fn append_with(
        &mut self,
        entries: &[(Fingerprint, String)],
        faults: Option<&FaultPlan>,
    ) -> io::Result<usize> {
        let mut fresh = HashSet::new();
        let mut buffer = Vec::new();
        for (fingerprint, prover) in entries {
            let raw = fingerprint.as_u128();
            if !self.index.contains(&raw) && fresh.insert(raw) {
                encode_entry(&mut buffer, raw, prover, self.config_hash);
            }
        }
        if fresh.is_empty() {
            return Ok(0);
        }
        let lock_fails = faults.is_some_and(|plan| plan.store_lock_fails(batch_key(&buffer)));
        let held = lock_live(
            &mut self.file,
            &self.path,
            lock_fails,
            &mut self.lock_degraded,
        )?;
        let written = self.write_batch(&buffer, held, faults);
        if held {
            self.file.unlock()?;
        }
        written?;
        let count = fresh.len();
        self.index.extend(fresh);
        self.appended += count;
        Ok(count)
    }

    /// Writes one encoded batch, honouring any injected I/O fault and
    /// repairing real torn writes.
    fn write_batch(
        &mut self,
        buffer: &[u8],
        held: bool,
        faults: Option<&FaultPlan>,
    ) -> io::Result<()> {
        let mut len_before = self.file.metadata().map(|m| m.len());
        if let Ok(0) = len_before {
            // The path was recreated under this handle (its file was
            // quarantined or removed): the fresh file starts with a header.
            self.file
                .write_all(&header_bytes(self.config_hash, self.generation))?;
            len_before = Ok(HEADER_LEN as u64);
        }
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
        let result = self.file.write_all(buffer).and_then(|()| self.file.flush());
        if result.is_err() && held {
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

    /// Rewrites the log dropping duplicate fingerprints and corrupt byte
    /// ranges, bumping the generation stamp, then reopens onto the new
    /// file.  The handle's index swaps to the compacted contents without a
    /// rescan — [`StoreHandle::preload_count`] is unaffected.  Handles in
    /// other processes find the swapped inode the next time they take the
    /// lock; their indexes stay valid because compaction only drops
    /// duplicates, never live fingerprints.
    ///
    /// # Errors
    ///
    /// Propagates locking, read, write and rename errors, and fails when the
    /// header no longer names this handle's configuration; on error the
    /// original log is untouched (the temp file may be left behind).
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let by = Compactor::Handle(self.config_hash);
        let Rewrite::Compacted(stats, kept) =
            compact_log(&mut self.file, &self.path, &mut self.lock_degraded, by)?
        else {
            unreachable!("only offline compaction quarantines");
        };
        self.file = open_log(&self.path)?;
        self.generation = stats.generation;
        self.index = kept.iter().map(|(fingerprint, _)| *fingerprint).collect();
        self.loaded = kept;
        self.recovered_bytes = 0;
        self.salvaged = false;
        Ok(stats)
    }
}

/// Opens (creating if necessary) a store file for reading and appending.
fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// The whole file, from its first byte.
fn read_all(mut file: &File) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Takes the advisory lock on the store file that is at `path` now.  When
/// the lock is granted on a file that another handle has since replaced (a
/// compaction renamed its copy over it) or moved away (a quarantine), the
/// descriptor is reopened onto the live file — closing the old one releases
/// its lock — and the lock is taken again, so whatever the caller reads or
/// writes next is the live log.  When the filesystem reports locks
/// unsupported — or `injected`, a fault plan's `lock_fail`, says it does —
/// the caller goes on lock-free, with one warning per handle.  Returns
/// whether the lock is held.
fn lock_live(
    file: &mut File,
    path: &Path,
    injected: bool,
    degraded: &mut bool,
) -> io::Result<bool> {
    loop {
        let result = if injected {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "injected fault: advisory lock unsupported",
            ))
        } else {
            file.lock()
        };
        let held = match result {
            Ok(()) => true,
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
                false
            }
            Err(e) => return Err(e),
        };
        if is_live(file, path) {
            return Ok(held);
        }
        *file = open_log(path)?;
    }
}

/// Whether `file` is still the file at `path`.
#[cfg(unix)]
fn is_live(file: &File, path: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (file.metadata(), std::fs::metadata(path)) {
        (Ok(ours), Ok(live)) => ours.dev() == live.dev() && ours.ino() == live.ino(),
        (_, Err(e)) => e.kind() != io::ErrorKind::NotFound,
        (Err(_), Ok(_)) => true,
    }
}

#[cfg(not(unix))]
fn is_live(_file: &File, _path: &Path) -> bool {
    true
}

/// Content key for store fault-injection decisions: a hash of the encoded
/// batch, so the same plan tears the same appends regardless of scheduling.
fn batch_key(buffer: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    0x0057_09e5_u64.hash(&mut hasher);
    buffer.hash(&mut hasher);
    hasher.finish()
}

/// What one read of a store file found: the header fields, every
/// recoverable entry and the corruption accounting.
struct Log {
    schema: u32,
    config_hash: u64,
    generation: u64,
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

impl Log {
    /// Whether the header names this schema version and `config_hash`.
    fn is_ours(&self, config_hash: u64) -> bool {
        self.schema == SCHEMA_VERSION && self.config_hash == config_hash
    }
}

/// The one log reader: parses the header of a store file's bytes and decodes
/// every recoverable entry written under the header's config hash, or
/// returns `None` for bytes that are not a store (shorter than a header, or
/// without the magic).  After an undecodable stretch the scan advances one
/// byte at a time until the next checksum-valid entry.  A false resync would
/// need a 64-bit checksum collision *and* a matching config hash at a
/// misaligned offset, so complete entries after a torn one are recovered
/// rather than discarded.
fn read_log(bytes: &[u8]) -> Option<Log> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return None;
    }
    let mut log = Log {
        schema: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
        config_hash: u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")),
        generation: u64::from_le_bytes(bytes[20..HEADER_LEN].try_into().expect("8 bytes")),
        entries: Vec::new(),
        skipped_bytes: 0,
        clean_len: 0,
        resynced: false,
    };
    let region = &bytes[HEADER_LEN..];
    let mut pos = 0;
    let mut gap_seen = false;
    while pos < region.len() {
        match decode_entry(&region[pos..], log.config_hash) {
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
    Some(log)
}

fn header_bytes(config_hash: u64, generation: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&config_hash.to_le_bytes());
    header[20..].copy_from_slice(&generation.to_le_bytes());
    header
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
    let log = read_log(&bytes);
    Ok(StoreInfo {
        path: path.to_path_buf(),
        schema_version: log.as_ref().map(|log| log.schema),
        generation: log.as_ref().map(|log| log.generation),
        entries: log.as_ref().map_or(0, |log| log.entries.len()),
        corrupt_tail_bytes: log
            .as_ref()
            .map_or(bytes.len() as u64, |log| log.skipped_bytes),
    })
}

/// Lists every store file in a cache directory (any configuration).
///
/// # Errors
///
/// Propagates directory-read errors; a missing directory yields an empty
/// list.
pub fn scan_dir(dir: &Path) -> io::Result<Vec<StoreInfo>> {
    store_files(dir)?.iter().map(|path| inspect(path)).collect()
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
    store_files(dir)?
        .into_iter()
        .map(|path| compact_file(&path).map(|outcome| (path, outcome)))
        .collect()
}

/// The `.iplstore` files directly inside `dir`, in path order; a missing
/// directory has none.
fn store_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
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
    Ok(paths)
}

/// Statistics from one compaction ([`StoreHandle::compact`] /
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

/// Compacts one store file offline (no open handle needed): duplicates and
/// corrupt ranges are dropped via write-to-temp + atomic rename and the
/// generation stamp is bumped.  A file whose header is foreign — wrong
/// magic, wrong schema version — is moved to `quarantine/` instead of being
/// rewritten in place.  The config hash is taken from the file's own header
/// (offline compaction trusts a self-consistent file).
///
/// # Errors
///
/// Propagates locking and I/O errors.
pub fn compact_file(path: &Path) -> io::Result<FileCompaction> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut degraded = false;
    Ok(
        match compact_log(&mut file, path, &mut degraded, Compactor::Offline)? {
            Rewrite::Compacted(stats, _) => FileCompaction::Compacted(stats),
            Rewrite::Quarantined(to) => FileCompaction::Quarantined {
                to,
                reason: FOREIGN_HEADER.to_string(),
            },
        },
    )
}

/// Whose compaction [`compact_log`] runs, which decides the headers it
/// accepts.
#[derive(Clone, Copy)]
enum Compactor {
    /// A handle's own: the header must name the handle's configuration, and
    /// any other header is an error.
    Handle(u64),
    /// `ipl cache --compact`: the header's configuration is trusted, and a
    /// file that is not a store of this schema is quarantined.
    Offline,
}

/// What [`compact_log`] did.
enum Rewrite {
    /// The log was rewritten; the kept entries are in log order.
    Compacted(CompactStats, Vec<(u128, String)>),
    /// The file was moved to `quarantine/`.
    Quarantined(PathBuf),
}

/// The one compaction routine.  Locks the file at `path` (reopening `file`
/// onto it when it was replaced), reads it, and writes a copy without
/// duplicate fingerprints or corrupt ranges under the next generation: a
/// synced temp file renamed over the path.  A header the compactor does not
/// accept is handled by its rule, still under the lock.
fn compact_log(
    file: &mut File,
    path: &Path,
    degraded: &mut bool,
    by: Compactor,
) -> io::Result<Rewrite> {
    let held = lock_live(file, path, false, degraded)?;
    let result = rewrite_log(file, path, by);
    if held {
        let _ = file.unlock();
    }
    result
}

fn rewrite_log(file: &File, path: &Path, by: Compactor) -> io::Result<Rewrite> {
    // Read back from disk under the lock: other handles may have appended
    // entries this one has never seen, and they must survive.
    let bytes = read_all(file)?;
    let accepted = read_log(&bytes).filter(|log| match by {
        Compactor::Handle(config_hash) => log.is_ours(config_hash),
        Compactor::Offline => log.schema == SCHEMA_VERSION,
    });
    let Some(log) = accepted else {
        return match by {
            Compactor::Handle(_) => Err(io::Error::other(format!(
                "store header changed under compaction: {}",
                path.display()
            ))),
            Compactor::Offline => quarantine_file(path, FOREIGN_HEADER).map(Rewrite::Quarantined),
        };
    };
    let entries_before = log.entries.len();
    let mut seen = HashSet::new();
    let kept: Vec<(u128, String)> = log
        .entries
        .into_iter()
        .filter(|(fingerprint, _)| seen.insert(*fingerprint))
        .collect();
    let generation = log.generation + 1;
    let mut out = Vec::with_capacity(bytes.len());
    out.extend_from_slice(&header_bytes(log.config_hash, generation));
    for (fingerprint, prover) in &kept {
        encode_entry(&mut out, *fingerprint, prover, log.config_hash);
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
        entries_before,
        entries_after: kept.len(),
        duplicates_dropped: entries_before - kept.len(),
        corrupt_bytes_dropped: log.skipped_bytes,
        bytes_before: bytes.len() as u64,
        bytes_after: out.len() as u64,
        generation,
    };
    Ok(Rewrite::Compacted(stats, kept))
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
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
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

        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
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
        let mut default_store =
            StoreHandle::open(&dir, &ProverConfig::default(), &provers).unwrap();
        default_store
            .append_new(&[(fp(7), "smt-ground".into())])
            .unwrap();
        let quick_store = StoreHandle::open(&dir, &ProverConfig::quick(), &provers).unwrap();
        assert_ne!(default_store.path(), quick_store.path());
        assert!(quick_store.is_empty());
        // The line-up is part of the key too.
        assert_ne!(
            StoreHandle::file_path(&dir, &ProverConfig::default(), &provers),
            StoreHandle::file_path(&dir, &ProverConfig::default(), &["syntactic"])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_and_store_stays_usable() {
        let dir = temp_dir("truncate");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
        store
            .append_new(&[(fp(10), "a".into()), (fp(11), "b".into())])
            .unwrap();
        let path = store.path().to_path_buf();
        drop(store);
        // Chop the last 5 bytes: the second entry's checksum is torn.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let mut recovered = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered.contains(fp(10)));
        assert!(!recovered.contains(fp(11)));
        assert!(recovered.recovered_bytes() > 0);
        // The file was truncated to the last good entry, so appends land on a
        // clean boundary and survive the next load.
        recovered.append_new(&[(fp(12), "c".into())]).unwrap();
        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.contains(fp(12)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_duplicates_and_bumps_the_generation() {
        let dir = temp_dir("compact");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        // Two handles opened before either appends: each considers fp(1)
        // fresh, so the log ends up with a duplicate entry.
        let mut a = StoreHandle::open(&dir, &config, &provers).unwrap();
        let mut b = StoreHandle::open(&dir, &config, &provers).unwrap();
        a.append_new(&[(fp(1), "a".into()), (fp(2), "a".into())])
            .unwrap();
        b.append_new(&[(fp(1), "b".into())]).unwrap();
        let info = inspect(a.path()).unwrap();
        assert_eq!(info.schema_version, Some(SCHEMA_VERSION));
        assert_eq!(info.entries, 3, "duplicate landed on disk");
        assert_eq!(info.generation, Some(0));
        assert_eq!(info.corrupt_tail_bytes, 0);
        assert_eq!(scan_dir(&dir).unwrap(), vec![info]);
        assert!(scan_dir(&dir.join("missing")).unwrap().is_empty());

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
        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.generation(), 1);

        // Handle b's descriptor points at the unlinked pre-compaction inode;
        // its next append detects the swap and lands in the live log.
        b.append_new(&[(fp(3), "b".into())]).unwrap();
        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert_eq!(reopened.len(), 3);
        assert!(reopened.contains(fp(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_salvages_complete_entries_past_a_corrupt_range() {
        let dir = temp_dir("salvage");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
        store.append_new(&[(fp(71), "a".into())]).unwrap();
        let path = store.path().to_path_buf();
        let good_len = std::fs::metadata(&path).unwrap().len();
        drop(store);
        // Simulate a torn append followed by another handle's complete one:
        // garbage bytes, then a valid entry appended straight after them.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xfe; 7]);
        let config_hash = StoreHandle::config_key(&config, &provers);
        encode_entry(&mut bytes, 72, "b", config_hash);
        std::fs::write(&path, &bytes).unwrap();

        let store = StoreHandle::open(&dir, &config, &provers).unwrap();
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
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.corrupt_bytes_dropped, 7);
        assert_eq!(stats.entries_after, 2);
        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
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
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
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
    fn preload_replays_once_and_appends_keep_going() {
        let dir = temp_dir("preload");
        let config = ProverConfig::default();
        let provers = ["smt-ground"];
        let raw = 0xdead_beef_dead_beef_dead_beef_dead_beefu128;
        // A prover outside the store's line-up could not have proved it.
        let stranger = 0xdead_beef_dead_beef_dead_beef_dead_bee0u128;
        {
            let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
            store
                .append_new(&[
                    (fp(raw), "smt-ground".into()),
                    (fp(stranger), "bapa".into()),
                ])
                .unwrap();
        }
        let mut handle = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert_eq!(handle.preload_count(), 0);
        let cache = ProofCache::global();
        assert_eq!(handle.ensure_preloaded(cache), 1);
        assert_eq!(cache.lookup(fp(raw)).as_deref(), Some("smt-ground"));
        assert_eq!(cache.lookup(fp(stranger)), None);
        assert_eq!(handle.ensure_preloaded(cache), 0, "second preload is free");
        assert_eq!(handle.preload_count(), 1);
        assert_eq!(handle.append_new(&[(fp(62), "bapa".into())]).unwrap(), 1);
        assert_eq!(handle.append_new(&[(fp(62), "bapa".into())]).unwrap(), 0);
        assert_eq!(handle.appended(), 1);
        assert_eq!(handle.len(), 3);
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
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
        let appended = store.append_with(&[(fp(31), "a".into())], Some(&plan));
        assert_eq!(appended.unwrap(), 1);
        assert!(store.lock_degraded(), "the append's lock was Unsupported");
        // Lock-free appends are still complete, checksummed entries.
        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
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
            let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
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
        let mut recovered = StoreHandle::open(&dir, &config, &provers).unwrap();
        assert!(recovered.contains(fp(41)));
        assert!(!recovered.contains(fp(42)));
        recovered.append_new(&[(fp(43), "c".into())]).unwrap();
        let reopened = StoreHandle::open(&dir, &config, &provers).unwrap();
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
        let mut store = StoreHandle::open(&dir, &config, &provers).unwrap();
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
}
