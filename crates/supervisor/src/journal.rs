//! Journal file handling: fsync'd appends and corruption-tolerant replay.
//!
//! The record *codec* (line format, versioned header) lives in
//! [`merlin_resilience::journal`]; this module owns the file-level
//! concerns — durable appends and the load-time corruption policy:
//!
//! * a missing file is a fresh run (not an error),
//! * an unknown or missing header version is **refused** — silently
//!   reinterpreting a future format loses data,
//! * an undecodable **final** line is skipped with a warning: that is the
//!   signature of a torn write from a killed process, and the net it
//!   described simply re-runs ([`JournalWriter::append_to`] then truncates
//!   the fragment before the first resume append, so it can never merge
//!   with a new record into mid-file corruption),
//! * an undecodable line anywhere **else** is a hard corruption error,
//! * a duplicate net index keeps the **first** record and warns: the
//!   first append was the one that was fsync'd before any crash.
//!
//! Beyond records, a journal may carry `#`-prefixed *meta* lines:
//!
//! * `#population <16 hex digits>` — [`population_hash`] of the net
//!   population the journal belongs to. Resume refuses to merge a journal
//!   whose population hash does not match the input nets, so stale results
//!   can never silently leak into a fresh batch.
//! * `#sealed` — appended when a worker finishes its shard cleanly. A
//!   segment whose final line is not `#sealed` was interrupted.
//!
//! Process-isolated batches write one *segment* per shard, named
//! `<journal>.seg<shard>` next to the base journal path (the parent's own
//! quarantine records go to `<journal>.segq`). [`merge_segments`] folds any
//! set of segments back into one record map with order-independent dedup,
//! which is what makes resume shard-count independent. Appends go through
//! an `O_APPEND` handle and write each line with a single `write` call, so
//! even a straggler process appending to the same segment cannot interleave
//! partial lines or overwrite records.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read as _, Write as _};
use std::path::{Path, PathBuf};

use merlin_netlist::{io as net_io, Net};
use merlin_resilience::journal::{fnv1a, JournalRecord, JOURNAL_HEADER};

/// Prefix of the population meta line; followed by 16 hex digits.
pub const POPULATION_PREFIX: &str = "#population ";

/// Meta line a worker appends after committing the last net of its shard.
pub const SEALED_MARK: &str = "#sealed";

/// Why a journal file could not be loaded.
#[derive(Debug)]
pub enum JournalLoadError {
    /// The file exists but could not be read.
    Io(std::io::Error),
    /// The first line is not a known journal header.
    BadHeader {
        /// What the first line actually was.
        found: String,
    },
    /// A record line other than the last failed to decode.
    Corrupt {
        /// 1-based line number of the bad line.
        line: usize,
        /// Decoder's reason.
        reason: String,
    },
}

impl fmt::Display for JournalLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalLoadError::Io(e) => write!(f, "cannot read journal: {e}"),
            JournalLoadError::BadHeader { found } => write!(
                f,
                "unknown journal version: expected `{JOURNAL_HEADER}`, found `{found}` \
                 (refusing to reinterpret)"
            ),
            JournalLoadError::Corrupt { line, reason } => {
                write!(f, "corrupt journal at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalLoadError {}

/// A parsed `#`-meta line.
enum Meta {
    Population(u64),
    Sealed,
}

/// Classifies `line`: `Ok(None)` for non-meta lines, `Ok(Some(..))` for a
/// well-formed meta line, `Err(reason)` for a line that starts like a meta
/// line but does not parse (torn-write signature when final, corruption
/// otherwise).
fn parse_meta(line: &str) -> Result<Option<Meta>, String> {
    if !line.starts_with('#') {
        return Ok(None);
    }
    if line == SEALED_MARK {
        return Ok(Some(Meta::Sealed));
    }
    if let Some(rest) = line.strip_prefix(POPULATION_PREFIX) {
        // Fixed width, like record hashes: a torn population line must not
        // read back as a valid but shortened digest.
        if rest.len() != 16 {
            return Err("population hash must be 16 hex digits".to_owned());
        }
        return match u64::from_str_radix(rest, 16) {
            Ok(h) => Ok(Some(Meta::Population(h))),
            Err(_) => Err("malformed population hash".to_owned()),
        };
    }
    Err(format!("unknown meta line `{line}`"))
}

/// Whether `line` is complete as-is: the header, a well-formed meta line,
/// or a decodable record. Used by [`JournalWriter::append_to`] to decide
/// between finishing a newline-less tail and truncating a torn fragment.
fn line_is_complete(line: &str) -> bool {
    line == JOURNAL_HEADER
        || matches!(parse_meta(line), Ok(Some(_)))
        || JournalRecord::decode(line).is_ok()
}

/// A successfully loaded journal: the surviving records keyed by net
/// index, plus warnings about tolerated damage (torn final line,
/// duplicate records).
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// Terminal records keyed by batch index (first record wins).
    pub records: BTreeMap<u64, JournalRecord>,
    /// Human-readable notes about tolerated damage.
    pub warnings: Vec<String>,
    /// The `#population` hash recorded in the file, if any.
    pub population: Option<u64>,
    /// Whether the final line is the `#sealed` marker (clean shard exit).
    pub sealed: bool,
}

/// Loads `path`, applying the corruption policy in the module docs.
/// Returns `Ok(None)` when the file does not exist (fresh run).
///
/// # Errors
///
/// See [`JournalLoadError`]: unreadable file, unknown header version, or
/// an undecodable non-final line.
pub fn load_journal(path: &Path) -> Result<Option<LoadedJournal>, JournalLoadError> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut text).map_err(JournalLoadError::Io)?;
        }
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalLoadError::Io(e)),
    }
    let lines: Vec<&str> = text.lines().collect();
    let Some((&header, records)) = lines.split_first() else {
        // Zero-length file: the process died between create and the
        // header write. Treat as fresh.
        return Ok(None);
    };
    if header != JOURNAL_HEADER {
        return Err(JournalLoadError::BadHeader {
            found: header.to_owned(),
        });
    }
    let mut loaded = LoadedJournal::default();
    for (i, line) in records.iter().enumerate() {
        let lineno = i + 2; // 1-based, after the header
        let is_final = i + 1 == records.len();
        // `#sealed` only counts when it is actually the last thing in the
        // file: a resumed segment appends past an old seal.
        loaded.sealed = false;
        let failure_reason = match parse_meta(line) {
            Ok(Some(Meta::Population(h))) => match loaded.population {
                Some(prev) if prev != h => Some(format!(
                    "conflicting population hash {h:016x} (journal recorded {prev:016x})"
                )),
                _ => {
                    loaded.population = Some(h);
                    None
                }
            },
            Ok(Some(Meta::Sealed)) => {
                loaded.sealed = is_final;
                None
            }
            Ok(None) => match JournalRecord::decode(line) {
                Ok(rec) => {
                    match loaded.records.entry(rec.idx) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            loaded.warnings.push(format!(
                                "line {lineno}: duplicate record for net index {} ignored \
                                 (first record wins)",
                                rec.idx
                            ));
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            slot.insert(rec);
                        }
                    }
                    None
                }
                Err(e) => Some(e.reason),
            },
            Err(reason) => Some(reason),
        };
        match failure_reason {
            None => {}
            Some(reason) if is_final => {
                loaded.warnings.push(format!(
                    "line {lineno}: torn final record skipped ({reason}); its net will re-run"
                ));
            }
            Some(reason) => {
                return Err(JournalLoadError::Corrupt {
                    line: lineno,
                    reason,
                });
            }
        }
    }
    Ok(Some(loaded))
}

/// Deterministic FNV-1a digest of a net population, hashed over the
/// canonical `net_io` text of every net in input order. Recorded in the
/// journal as the `#population` meta line and checked on resume so a
/// journal can never be replayed against a different input.
pub fn population_hash(nets: &[Net]) -> u64 {
    let mut buf = Vec::new();
    for net in nets {
        buf.extend_from_slice(net_io::write_net(net).as_bytes());
        buf.push(0);
    }
    fnv1a(&buf)
}

/// The segment file a shard worker appends to: `<journal>.seg<shard>`.
pub fn segment_path(journal: &Path, shard: u32) -> PathBuf {
    let mut name = journal.file_name().map_or_else(
        || std::ffi::OsString::from(".merlin-journal"),
        ToOwned::to_owned,
    );
    name.push(format!(".seg{shard}"));
    journal.with_file_name(name)
}

/// The parent supervisor's own segment (quarantine records):
/// `<journal>.segq`.
pub fn quarantine_segment_path(journal: &Path) -> PathBuf {
    let mut name = journal.file_name().map_or_else(
        || std::ffi::OsString::from(".merlin-journal"),
        ToOwned::to_owned,
    );
    name.push(".segq");
    journal.with_file_name(name)
}

/// Every journal file belonging to `journal`: the base path itself (if
/// present — e.g. a thread-mode run being resumed in process mode) plus
/// its `<journal>.seg<N>` and `<journal>.segq` siblings, in sorted order.
/// Other `<journal>.seg…` names, such as the workers' `.seg<N>.trace`
/// wire files, are not journals. The sort is cosmetic:
/// [`merge_segments`] is order-independent.
///
/// # Errors
///
/// Any I/O failure listing the parent directory.
pub fn segment_paths(journal: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    if journal.is_file() {
        found.push(journal.to_path_buf());
    }
    let Some(base_name) = journal.file_name().and_then(|n| n.to_str()) else {
        return Ok(found);
    };
    let parent = journal.parent().filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| Path::new("."));
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            let seg_prefix = format!("{base_name}.seg");
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(suffix) = name.to_str().and_then(|n| n.strip_prefix(&seg_prefix)) else {
                    continue;
                };
                let numbered = !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit());
                if numbered || suffix == "q" {
                    found.push(entry.path());
                }
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    found.sort();
    found.dedup();
    Ok(found)
}

/// Why a set of journal segments could not be merged.
#[derive(Debug)]
pub enum JournalMergeError {
    /// One segment failed to load.
    Load {
        /// The segment that failed.
        path: PathBuf,
        /// Why.
        error: JournalLoadError,
    },
    /// Two segments record different population hashes: they belong to
    /// different batches and must not be merged.
    PopulationConflict {
        /// One recorded hash.
        a: u64,
        /// The other.
        b: u64,
    },
}

impl fmt::Display for JournalMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalMergeError::Load { path, error } => {
                write!(f, "segment {}: {error}", path.display())
            }
            JournalMergeError::PopulationConflict { a, b } => write!(
                f,
                "segments record conflicting population hashes {a:016x} and {b:016x} \
                 (mixed batches; refusing to merge)"
            ),
        }
    }
}

impl std::error::Error for JournalMergeError {}

/// The result of merging a set of journal segments.
#[derive(Debug, Default)]
pub struct MergedJournal {
    /// Surviving records keyed by net index.
    pub records: BTreeMap<u64, JournalRecord>,
    /// The population hash the segments agree on, if any recorded one.
    pub population: Option<u64>,
    /// Per-segment damage notes plus cross-segment duplicate notes.
    pub warnings: Vec<String>,
    /// How many segment files contributed.
    pub segments: usize,
}

/// Merges any set of journal segments into one record map.
///
/// Deduplication across segments is **order-independent**: when two
/// segments both carry a record for the same net index, the winner is the
/// one with the lexicographically smallest encoded line — a total order
/// that does not depend on directory enumeration. (In practice duplicates
/// are byte-identical: solves are deterministic, and a net is only
/// re-solved when its first record never reached the disk.) This is the
/// property the shard-merge determinism proptest pins down, and what lets
/// a batch started with `--shards 8` resume with `--shards 2`.
///
/// # Errors
///
/// [`JournalMergeError::Load`] when a segment is unreadable or corrupt,
/// [`JournalMergeError::PopulationConflict`] when segments disagree on the
/// population hash.
pub fn merge_segments(paths: &[PathBuf]) -> Result<MergedJournal, JournalMergeError> {
    let mut merged = MergedJournal::default();
    for path in paths {
        let loaded = match load_journal(path) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => continue,
            Err(error) => {
                return Err(JournalMergeError::Load {
                    path: path.clone(),
                    error,
                })
            }
        };
        merged.segments += 1;
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        for w in loaded.warnings {
            merged.warnings.push(format!("{name}: {w}"));
        }
        if let Some(pop) = loaded.population {
            match merged.population {
                Some(prev) if prev != pop => {
                    return Err(JournalMergeError::PopulationConflict { a: prev, b: pop });
                }
                _ => merged.population = Some(pop),
            }
        }
        for (idx, rec) in loaded.records {
            match merged.records.entry(idx) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(rec);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    if rec != *slot.get() {
                        // Keep the lexicographically smallest encoding so
                        // the outcome is the same whatever order the
                        // segments were visited in.
                        if rec.encode() < slot.get().encode() {
                            slot.insert(rec);
                        }
                        merged.warnings.push(format!(
                            "{name}: conflicting duplicate record for net index {idx} \
                             (kept the lexicographically first)"
                        ));
                    }
                }
            }
        }
    }
    Ok(merged)
}

/// An append handle on a journal file. Every [`JournalWriter::append`] is
/// flushed and fsync'd before returning: a record the supervisor has
/// acted on (reported, retried past, crashed after) is on disk. The handle
/// is opened with `O_APPEND` and writes whole lines with single `write`
/// calls, so concurrent appenders (a straggler worker that outlived a
/// crashed parent) cannot interleave partial lines or clobber records.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and durably writes the version header.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, or syncing the file.
    pub fn create(path: &Path) -> std::io::Result<JournalWriter> {
        {
            let mut file = File::create(path)?;
            writeln!(file, "{JOURNAL_HEADER}")?;
            file.sync_data()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// [`JournalWriter::create`] followed by recording the population
    /// hash — the standard way to start a batch journal or shard segment.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, or syncing the file.
    pub fn create_with_population(path: &Path, population: u64) -> std::io::Result<JournalWriter> {
        let mut w = JournalWriter::create(path)?;
        w.append_population(population)?;
        Ok(w)
    }

    /// Opens an existing journal for appending (resume). The caller is
    /// expected to have validated the file via [`load_journal`] first.
    ///
    /// A file that does not end in a newline is *healed* before the first
    /// append: a process killed mid-write leaves a torn final line, and
    /// appending straight onto it would merge the fragment with the next
    /// record into one undecodable line — which, once further records
    /// follow it, is no longer final and turns into a hard
    /// [`JournalLoadError::Corrupt`] on the next load. If the newline-less
    /// tail is itself a complete record (or the header, or a meta line) it
    /// is finished with the missing newline; otherwise the fragment is
    /// truncated away, matching the skip policy [`load_journal`] already
    /// applied to it.
    ///
    /// # Errors
    ///
    /// Any I/O failure opening, repairing, or syncing the file.
    pub fn append_to(path: &Path) -> std::io::Result<JournalWriter> {
        {
            let mut file = OpenOptions::new().read(true).write(true).open(path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            if bytes.last().is_some_and(|&b| b != b'\n') {
                let tail_start = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let complete =
                    std::str::from_utf8(&bytes[tail_start..]).is_ok_and(line_is_complete);
                if complete {
                    // Only the newline was lost: finish the line in place.
                    file.write_all(b"\n")?;
                } else {
                    file.set_len(tail_start as u64)?;
                }
                file.sync_data()?;
            }
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Durably appends one full line (content + newline in a single
    /// `write`, then fsync).
    fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        self.file.sync_data()
    }

    /// Durably appends one record (line + newline, then fsync).
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing.
    pub fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        self.append_line(&rec.encode())
    }

    /// Durably appends the `#population` meta line. Used both at create
    /// time and to upgrade a pre-population journal on resume.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing.
    pub fn append_population(&mut self, population: u64) -> std::io::Result<()> {
        self.append_line(&format!("{POPULATION_PREFIX}{population:016x}"))
    }

    /// Durably appends the `#sealed` marker (clean shard completion).
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing.
    pub fn seal(&mut self) -> std::io::Result<()> {
        self.append_line(SEALED_MARK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_resilience::journal::RecordStatus;
    use merlin_resilience::ServingTier;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("merlin-journal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn rec(idx: u64) -> JournalRecord {
        JournalRecord {
            idx,
            net: format!("net{idx}"),
            tier: ServingTier::Merlin,
            attempts: 1,
            timeouts: 0,
            status: RecordStatus::Served,
            hash: 0x1234,
        }
    }

    #[test]
    fn write_then_load_round_trips() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path).expect("create journal");
        w.append(&rec(0)).expect("append 0");
        w.append(&rec(1)).expect("append 1");
        let loaded = load_journal(&path)
            .expect("load journal")
            .expect("file exists");
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[&1], rec(1));
        assert!(loaded.warnings.is_empty());
        assert_eq!(loaded.population, None);
        assert!(!loaded.sealed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_fresh_run() {
        let path = tmp("missing");
        assert!(load_journal(&path).expect("no error").is_none());
    }

    #[test]
    fn population_and_seal_round_trip() {
        let path = tmp("population");
        let mut w =
            JournalWriter::create_with_population(&path, 0xabcdef0123456789).expect("create");
        w.append(&rec(0)).expect("append");
        w.seal().expect("seal");
        drop(w);
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert_eq!(loaded.population, Some(0xabcdef0123456789));
        assert!(loaded.sealed, "final #sealed line marks a clean exit");
        assert_eq!(loaded.records.len(), 1);
        // A resumed segment appends past the seal: no longer sealed.
        let mut w = JournalWriter::append_to(&path).expect("reopen");
        w.append(&rec(1)).expect("append past seal");
        drop(w);
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert!(!loaded.sealed, "a mid-file seal does not count");
        assert_eq!(loaded.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conflicting_population_lines_are_corruption() {
        let path = tmp("population-conflict");
        let mut w = JournalWriter::create_with_population(&path, 1).expect("create");
        w.append_population(2).expect("append second population");
        w.append(&rec(0)).expect("append");
        drop(w);
        assert!(matches!(
            load_journal(&path),
            Err(JournalLoadError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_meta_tail_is_skipped_then_healed() {
        let path = tmp("torn-meta");
        let mut w = JournalWriter::create(&path).expect("create");
        w.append(&rec(0)).expect("append");
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "#popul").expect("write torn meta fragment");
        drop(f);
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.warnings.len(), 1, "torn meta tail warned");
        let mut w = JournalWriter::append_to(&path).expect("reopen heals");
        w.append(&rec(1)).expect("append");
        drop(w);
        let loaded = load_journal(&path).expect("clean reload").expect("exists");
        assert_eq!(loaded.records.len(), 2);
        assert!(loaded.warnings.is_empty(), "fragment truncated away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_a_torn_final_line_truncates_the_fragment() {
        let path = tmp("torn-resume");
        let mut w = JournalWriter::create(&path).expect("create");
        w.append(&rec(0)).expect("append");
        drop(w);
        // Simulate a process killed mid-append: a partial record with no
        // trailing newline.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "idx=1 net=n1 tier=mer").expect("write torn fragment");
        drop(f);
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert_eq!(loaded.records.len(), 1, "torn record skipped");
        assert_eq!(loaded.warnings.len(), 1);
        // Resuming must not glue new records onto the fragment.
        let mut w = JournalWriter::append_to(&path).expect("reopen heals");
        w.append(&rec(1)).expect("append after torn tail");
        w.append(&rec(2)).expect("second append");
        drop(w);
        let loaded = load_journal(&path).expect("journal reloads cleanly");
        let loaded = loaded.expect("exists");
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.records[&1], rec(1));
        assert!(loaded.warnings.is_empty(), "fragment was truncated away");
        // A second crash/resume cycle must also load cleanly.
        let mut w = JournalWriter::append_to(&path).expect("reopen again");
        w.append(&rec(3)).expect("append");
        drop(w);
        let loaded = load_journal(&path).expect("still clean").expect("exists");
        assert_eq!(loaded.records.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_completes_a_newline_less_but_decodable_final_record() {
        let path = tmp("newline-less");
        let mut w = JournalWriter::create(&path).expect("create");
        w.append(&rec(0)).expect("append");
        drop(w);
        // The write made it through except for the final newline: the
        // record must be kept (load_journal already counted it), not cut.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{}", rec(1).encode()).expect("write newline-less record");
        drop(f);
        let mut w = JournalWriter::append_to(&path).expect("reopen heals");
        w.append(&rec(2)).expect("append");
        drop(w);
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert_eq!(loaded.records.len(), 3, "newline-less record survives");
        assert_eq!(loaded.records[&1], rec(1));
        assert!(loaded.warnings.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn newline_less_seal_marker_is_completed_not_cut() {
        let path = tmp("newline-less-seal");
        let mut w = JournalWriter::create(&path).expect("create");
        w.append(&rec(0)).expect("append");
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{SEALED_MARK}").expect("write newline-less seal");
        drop(f);
        let w = JournalWriter::append_to(&path).expect("reopen heals");
        drop(w);
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert!(loaded.sealed, "healed seal marker survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_appends_after_existing_records() {
        let path = tmp("resume");
        let mut w = JournalWriter::create(&path).expect("create");
        w.append(&rec(0)).expect("append");
        drop(w);
        let mut w = JournalWriter::append_to(&path).expect("reopen");
        w.append(&rec(1)).expect("append after reopen");
        let loaded = load_journal(&path).expect("load").expect("exists");
        assert_eq!(loaded.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "merlin-journal-merge-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn segment_paths_find_base_and_segments() {
        let dir = tmpdir("paths");
        let journal = dir.join("run.journal");
        JournalWriter::create(&journal).expect("base");
        JournalWriter::create(&segment_path(&journal, 0)).expect("seg0");
        JournalWriter::create(&segment_path(&journal, 3)).expect("seg3");
        JournalWriter::create(&quarantine_segment_path(&journal)).expect("segq");
        // Neither an unrelated sibling nor a worker's trace wire file is
        // a journal.
        std::fs::write(dir.join("other.journal"), b"x").expect("sibling");
        std::fs::write(dir.join("run.journal.seg0.trace"), b"x").expect("wire file");
        let paths = segment_paths(&journal).expect("list");
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0], journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_dedups_across_segments_order_independently() {
        let dir = tmpdir("merge");
        let journal = dir.join("run.journal");
        let seg0 = segment_path(&journal, 0);
        let seg1 = segment_path(&journal, 1);
        let mut w = JournalWriter::create_with_population(&seg0, 7).expect("seg0");
        w.append(&rec(0)).expect("append");
        w.append(&rec(2)).expect("append");
        drop(w);
        let mut w = JournalWriter::create_with_population(&seg1, 7).expect("seg1");
        w.append(&rec(1)).expect("append");
        w.append(&rec(2)).expect("duplicate of seg0's record");
        drop(w);
        let fwd = merge_segments(&[seg0.clone(), seg1.clone()]).expect("merge");
        let rev = merge_segments(&[seg1, seg0]).expect("merge reversed");
        assert_eq!(fwd.records.len(), 3);
        assert_eq!(fwd.records, rev.records, "merge is order-independent");
        assert_eq!(fwd.population, Some(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_keeps_a_deterministic_winner_for_conflicting_duplicates() {
        let dir = tmpdir("merge-conflict");
        let journal = dir.join("run.journal");
        let seg0 = segment_path(&journal, 0);
        let seg1 = segment_path(&journal, 1);
        let mut a = rec(5);
        a.attempts = 1;
        let mut b = rec(5);
        b.attempts = 2;
        let mut w = JournalWriter::create(&seg0).expect("seg0");
        w.append(&a).expect("append");
        drop(w);
        let mut w = JournalWriter::create(&seg1).expect("seg1");
        w.append(&b).expect("append");
        drop(w);
        let fwd = merge_segments(&[seg0.clone(), seg1.clone()]).expect("merge");
        let rev = merge_segments(&[seg1, seg0]).expect("merge reversed");
        assert_eq!(
            fwd.records[&5], rev.records[&5],
            "winner is order-independent"
        );
        assert!(!fwd.warnings.is_empty(), "conflicting duplicate warned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_conflicting_populations() {
        let dir = tmpdir("merge-pop");
        let journal = dir.join("run.journal");
        let seg0 = segment_path(&journal, 0);
        let seg1 = segment_path(&journal, 1);
        JournalWriter::create_with_population(&seg0, 1).expect("seg0");
        JournalWriter::create_with_population(&seg1, 2).expect("seg1");
        assert!(matches!(
            merge_segments(&[seg0, seg1]),
            Err(JournalMergeError::PopulationConflict { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn population_hash_is_input_sensitive() {
        use merlin_netlist::bench_nets::random_net;
        use merlin_tech::Technology;
        let tech = Technology::synthetic_035();
        let a = vec![random_net("a", 3, 1, &tech), random_net("b", 3, 2, &tech)];
        let b = vec![random_net("a", 3, 1, &tech), random_net("b", 3, 3, &tech)];
        assert_eq!(population_hash(&a), population_hash(&a));
        assert_ne!(population_hash(&a), population_hash(&b));
        assert_ne!(population_hash(&a), population_hash(&a[..1]));
    }
}
