//! The content-addressed, crash-safe model store.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   blobs/<hash>.model      one v2 checkpoint per distinct model,
//!                           footered (`# crc32`), named by content hash
//!   lineage/<home>.log      one line per generation: "<gen> <hash>"
//! ```
//!
//! Blobs are immutable once written: [`ModelStore::put`] serialises the
//! model (byte-stable, see
//! [`causaliot_core::pipeline::checkpoint::save_model_footered`]), hashes
//! it, and — if the blob does not already exist — writes it through
//! [`causaliot_core::persist::write_atomic_via`], the temp-file → fsync →
//! atomic-rename helper the checkpoint writer uses, so an interrupted
//! `put` leaves no partial blob visible (only a uniquely-named
//! `*.tmp.<pid>` sibling, which [`ModelStore::gc`] sweeps). A `put` of a model already in the store is a no-op returning
//! the existing key, which makes retried fit jobs idempotent: re-running
//! a job produces byte-identical store contents.
//!
//! Lineage logs are committed the same way (whole file rewritten to a
//! temp sibling, fsynced, renamed), so a reader never observes a
//! half-appended generation.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use causaliot_core::persist::write_atomic_via;
use causaliot_core::pipeline::checkpoint;
use causaliot_core::{CausalIotError, FittedModel};
use iot_telemetry::{Counter, TelemetryHandle};

use crate::error::FleetError;

/// A monotonically increasing, per-home model version number. The first
/// committed generation of a home is `1`.
pub type Generation = u64;

/// The content hash addressing one blob in a [`ModelStore`] — the CRC32
/// of the model's serialised v2 checkpoint (the exact value the
/// checkpoint's `# crc32` footer records, see
/// [`causaliot_core::pipeline::checkpoint::content_hash`]).
///
/// Displays (and parses) as 8 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelHash(u32);

impl ModelHash {
    /// The content hash `model` would be stored under.
    pub fn of(model: &FittedModel) -> Self {
        ModelHash(model.content_hash())
    }

    /// Wraps a raw CRC32 value (the inverse of [`ModelHash::value`]).
    pub fn from_value(value: u32) -> Self {
        ModelHash(value)
    }

    /// The raw CRC32 value.
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for ModelHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

impl FromStr for ModelHash {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 8 {
            return Err(format!("expected 8 hex digits, got `{s}`"));
        }
        u32::from_str_radix(s, 16)
            .map(ModelHash)
            .map_err(|_| format!("bad content hash `{s}`"))
    }
}

/// What [`ModelStore::gc`] did: blobs kept/swept and interrupted-put
/// temp files cleaned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Blobs still referenced by some lineage generation.
    pub kept: usize,
    /// Unreferenced blobs removed, by hash.
    pub swept: Vec<ModelHash>,
    /// Leftover `*.tmp.<pid>` files from interrupted `put`s removed.
    pub tmp_cleaned: usize,
}

/// What [`ModelStore::fsck`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Blobs walked (every one loaded and hash-verified).
    pub blobs_checked: usize,
    /// Lineage logs walked (every line parsed, every hash resolved).
    pub lineages_checked: usize,
    /// Human-readable description of every problem found. Empty means
    /// the store is fully consistent.
    pub issues: Vec<String>,
}

impl FsckReport {
    /// Whether the walk found no problems.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// A content-addressed, crash-safe repository of fitted models for a
/// fleet of homes, built on the v2 checkpoint format.
///
/// * [`ModelStore::put`] files a model under its [`ModelHash`]
///   (idempotent; a hash collision between *different* documents is
///   detected and refused).
/// * [`ModelStore::commit`] appends a new [`Generation`] to a home's
///   lineage log, atomically.
/// * [`ModelStore::resolve`] answers "which model serves this home?"
///   (the lineage head); [`ModelStore::get`] loads a blob, failing
///   closed with [`CausalIotError::Corrupt`] (inside
///   [`FleetError::Model`]) on any flipped bit — the CRC that names the
///   blob also verifies it.
/// * [`ModelStore::gc`] sweeps blobs no lineage references;
///   [`ModelStore::fsck`] is a full integrity walk reusing the
///   checkpoint loaders.
///
/// **Naming note**: this store tracks the fleet's *models* — one lineage
/// of fitted checkpoints per home. The per-home catalogue of *devices*
/// is [`iot_model::DeviceRegistry`]; the two are different layers, see
/// the README's terminology note.
///
/// Concurrent `put`/`commit` from multiple processes is safe as long as
/// writers follow this module's discipline (unique temp names, atomic
/// renames) and distinct homes are committed by distinct writers — the
/// sweep orchestrator's one-job-per-home sharding guarantees both.
/// `gc` must not run concurrently with writers.
#[derive(Debug, Clone)]
pub struct ModelStore {
    root: PathBuf,
    telemetry: TelemetryHandle,
    puts: Counter,
    put_dedups: Counter,
    gets: Counter,
}

impl ModelStore {
    /// Opens (creating directories as needed) the store rooted at
    /// `root`, with the `CAUSALIOT_TELEMETRY`-derived telemetry handle.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the directories cannot be created.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, FleetError> {
        Self::open_with_telemetry(root, &TelemetryHandle::from_env())
    }

    /// Opens the store reporting to an explicit telemetry handle
    /// (counters `fleet.store.puts`, `fleet.store.put_dedups`,
    /// `fleet.store.gets`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelStore::open`].
    pub fn open_with_telemetry(
        root: impl AsRef<Path>,
        telemetry: &TelemetryHandle,
    ) -> Result<Self, FleetError> {
        let root = root.as_ref().to_path_buf();
        for dir in [root.join("blobs"), root.join("lineage")] {
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        }
        Ok(ModelStore {
            root,
            telemetry: telemetry.clone(),
            puts: telemetry.counter("fleet.store.puts"),
            put_dedups: telemetry.counter("fleet.store.put_dedups"),
            gets: telemetry.counter("fleet.store.gets"),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The telemetry handle the store reports to (shared with loaded
    /// models and, in a sweep, the orchestrator's counters).
    pub(crate) fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    fn blob_path(&self, hash: ModelHash) -> PathBuf {
        self.root.join("blobs").join(format!("{hash}.model"))
    }

    fn lineage_path(&self, home: &str) -> PathBuf {
        self.root.join("lineage").join(format!("{home}.log"))
    }

    /// Rewrites `home`'s lineage log as `entries`, one `<gen> <hash>`
    /// line each, through [`write_atomic_via`].
    fn write_lineage(
        &self,
        home: &str,
        entries: &[(Generation, ModelHash)],
    ) -> Result<(), FleetError> {
        let path = self.lineage_path(home);
        let text: String = entries
            .iter()
            .map(|(generation, hash)| format!("{generation} {hash}\n"))
            .collect();
        write_atomic_via(&tmp_path(&path), &path, text.as_bytes()).map_err(|e| io_err(&path, &e))
    }

    /// Files `model` under its content hash and returns the key.
    ///
    /// Idempotent: putting a model whose blob already exists verifies
    /// the stored bytes match and returns the existing key without
    /// writing (so a retried fit job cannot change the store). The write
    /// path is crash-safe — document to a unique `*.tmp.<pid>` sibling,
    /// fsync, atomic rename — so an interrupted `put` never leaves a
    /// partial blob visible under its final name.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] on filesystem failure,
    /// [`FleetError::HashCollision`] when a *different* document already
    /// occupies the key.
    pub fn put(&self, model: &FittedModel) -> Result<ModelHash, FleetError> {
        let (text, checksum) = checkpoint::save_model_footered(model);
        let hash = ModelHash(checksum);
        let path = self.blob_path(hash);
        if path.exists() {
            let existing = fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
            if existing != text {
                return Err(FleetError::HashCollision { hash });
            }
            self.put_dedups.inc();
            return Ok(hash);
        }
        write_atomic_via(&tmp_path(&path), &path, text.as_bytes())
            .map_err(|e| io_err(&path, &e))?;
        self.puts.inc();
        Ok(hash)
    }

    /// Loads the blob addressed by `hash`.
    ///
    /// The blob is loaded through the checkpoint loader (CRC footer
    /// verified, parse failures carry path and byte offset) and its
    /// content hash is re-checked against the requested key, so a
    /// bit-flipped or mis-filed blob is refused with
    /// [`CausalIotError::Corrupt`] rather than served.
    ///
    /// # Errors
    ///
    /// [`FleetError::MissingBlob`] when no blob has this hash;
    /// [`FleetError::Model`] wrapping the loader's
    /// [`CausalIotError::Corrupt`] / [`CausalIotError::Truncated`] /
    /// [`CausalIotError::Io`] otherwise.
    pub fn get(&self, hash: ModelHash) -> Result<FittedModel, FleetError> {
        let path = self.blob_path(hash);
        if !path.exists() {
            return Err(FleetError::MissingBlob { hash });
        }
        let model = FittedModel::load_from_path_with_telemetry(&path, &self.telemetry)?;
        let actual = ModelHash::of(&model);
        if actual != hash {
            return Err(FleetError::Model(CausalIotError::Corrupt {
                path: path.display().to_string(),
                offset: 0,
                reason: format!("content hash mismatch (addressed {hash}, found {actual})"),
            }));
        }
        self.gets.inc();
        Ok(model)
    }

    /// Appends a new generation pointing at `hash` to `home`'s lineage
    /// log and returns the generation number (the first commit of a home
    /// is generation 1). The whole log is rewritten to a temp sibling
    /// and atomically renamed, so a crash mid-commit leaves the previous
    /// lineage intact.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidHome`] for an unusable name,
    /// [`FleetError::MissingBlob`] when `hash` has no blob (commits may
    /// only reference stored models), [`FleetError::Lineage`] /
    /// [`FleetError::Io`] on a malformed or unwritable log.
    pub fn commit(&self, home: &str, hash: ModelHash) -> Result<Generation, FleetError> {
        check_home_name(home)?;
        if !self.blob_path(hash).exists() {
            return Err(FleetError::MissingBlob { hash });
        }
        let mut lineage = self.lineage(home)?;
        let generation = lineage.last().map_or(0, |(gen, _)| *gen) + 1;
        lineage.push((generation, hash));
        self.write_lineage(home, &lineage)?;
        Ok(generation)
    }

    /// Drops the head of `home`'s lineage, making the previous
    /// generation the new head — the recovery path when a refit or
    /// rollout turns out bad. The dropped generation's blob is *not*
    /// deleted (it may be shared; [`ModelStore::gc`] collects it once no
    /// lineage references it). The log is rewritten with the same
    /// temp-file → fsync → atomic-rename discipline as
    /// [`ModelStore::commit`], and the `fleet.store.rollbacks` counter
    /// ticks. Returns the new head.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidHome`] for an unusable name,
    /// [`FleetError::UnknownHome`] for a home with no commits,
    /// [`FleetError::Lineage`] when only one generation exists (there is
    /// nothing to roll back *to*), [`FleetError::Io`] on an unwritable
    /// log.
    pub fn rollback(&self, home: &str) -> Result<(Generation, ModelHash), FleetError> {
        check_home_name(home)?;
        let lineage = self.lineage(home)?;
        let path = self.lineage_path(home);
        if lineage.is_empty() {
            return Err(FleetError::UnknownHome {
                name: home.to_string(),
            });
        }
        if lineage.len() == 1 {
            return Err(FleetError::Lineage {
                path: path.display().to_string(),
                reason: format!(
                    "cannot roll back generation {}: no prior generation",
                    lineage[0].0
                ),
            });
        }
        let kept = &lineage[..lineage.len() - 1];
        self.write_lineage(home, kept)?;
        self.telemetry.counter("fleet.store.rollbacks").inc();
        Ok(*kept.last().expect("kept is non-empty"))
    }

    /// The head of `home`'s lineage — the generation and hash of the
    /// model currently serving it — or `None` for a home with no
    /// commits.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidHome`] / [`FleetError::Lineage`] /
    /// [`FleetError::Io`] as for [`ModelStore::lineage`].
    pub fn resolve(&self, home: &str) -> Result<Option<(Generation, ModelHash)>, FleetError> {
        Ok(self.lineage(home)?.last().copied())
    }

    /// `home`'s full lineage, oldest generation first (empty for a home
    /// never committed).
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidHome`] for an unusable name,
    /// [`FleetError::Lineage`] for a log that fails to parse,
    /// [`FleetError::Io`] when it cannot be read.
    pub fn lineage(&self, home: &str) -> Result<Vec<(Generation, ModelHash)>, FleetError> {
        check_home_name(home)?;
        let path = self.lineage_path(home);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&path, &e)),
        };
        parse_lineage(&text, &path)
    }

    /// Every home with a lineage log, sorted by name.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the lineage directory cannot be listed.
    pub fn homes(&self) -> Result<Vec<String>, FleetError> {
        let dir = self.root.join("lineage");
        let mut homes = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io_err(&dir, &e))? {
            let entry = entry.map_err(|e| io_err(&dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".log") {
                homes.push(stem.to_string());
            }
        }
        homes.sort();
        Ok(homes)
    }

    /// Sweeps every blob not referenced by *any* lineage generation
    /// (heads and history alike — a blob a lineage can still resolve is
    /// never collected), and removes leftover `*.tmp.*` files from
    /// interrupted writes. Must not run concurrently with writers.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] / [`FleetError::Lineage`] when the walk cannot
    /// complete; nothing is removed on error.
    pub fn gc(&self) -> Result<GcReport, FleetError> {
        let mut referenced = BTreeSet::new();
        for home in self.homes()? {
            for (_, hash) in self.lineage(&home)? {
                referenced.insert(hash);
            }
        }
        let dir = self.root.join("blobs");
        let mut report = GcReport::default();
        let mut doomed: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io_err(&dir, &e))? {
            let entry = entry.map_err(|e| io_err(&dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.contains(".tmp.") {
                doomed.push(entry.path());
                report.tmp_cleaned += 1;
                continue;
            }
            let Some(hash) = name
                .strip_suffix(".model")
                .and_then(|stem| stem.parse::<ModelHash>().ok())
            else {
                continue;
            };
            if referenced.contains(&hash) {
                report.kept += 1;
            } else {
                doomed.push(entry.path());
                report.swept.push(hash);
            }
        }
        for path in doomed {
            fs::remove_file(&path).map_err(|e| io_err(&path, &e))?;
        }
        report.swept.sort();
        self.telemetry
            .counter("fleet.store.gc_swept")
            .add(report.swept.len() as u64);
        Ok(report)
    }

    /// Full integrity walk: loads and hash-verifies every blob (reusing
    /// the checkpoint loader's `Corrupt`/`Truncated` failure modes) and
    /// parses every lineage log, checking each referenced hash resolves
    /// to a blob and generations increase strictly. Read-only; problems
    /// are collected into the report, not raised.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] only when a directory itself cannot be walked.
    pub fn fsck(&self) -> Result<FsckReport, FleetError> {
        let mut report = FsckReport::default();
        let dir = self.root.join("blobs");
        for entry in fs::read_dir(&dir).map_err(|e| io_err(&dir, &e))? {
            let entry = entry.map_err(|e| io_err(&dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.contains(".tmp.") {
                report.issues.push(format!(
                    "stale temp file {name} (interrupted put; gc() removes these)"
                ));
                continue;
            }
            let Some(hash) = name
                .strip_suffix(".model")
                .and_then(|stem| stem.parse::<ModelHash>().ok())
            else {
                report
                    .issues
                    .push(format!("unrecognised file {name} in blobs/"));
                continue;
            };
            report.blobs_checked += 1;
            if let Err(e) = self.get(hash) {
                report.issues.push(format!("blob {hash}: {e}"));
            }
        }
        for home in self.homes()? {
            report.lineages_checked += 1;
            match self.lineage(&home) {
                Err(e) => report.issues.push(format!("lineage {home}: {e}")),
                Ok(lineage) => {
                    let mut last = 0;
                    for (gen, hash) in lineage {
                        if gen <= last {
                            report.issues.push(format!(
                                "lineage {home}: generation {gen} does not increase past {last}"
                            ));
                        }
                        last = gen;
                        if !self.blob_path(hash).exists() {
                            report.issues.push(format!(
                                "lineage {home}: generation {gen} references missing blob {hash}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(report)
    }
}

/// The temporary sibling a store write goes through, `<file>.tmp.<pid>`:
/// unique per process, because sweep children may file the same blob at
/// once, and swept by [`ModelStore::gc`] after a crash.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(tmp)
}

fn io_err(path: &Path, e: &io::Error) -> FleetError {
    FleetError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Validates a home name for use as a lineage key (and as a field in the
/// sweep protocol's line format): non-empty, `[A-Za-z0-9._-]` only.
pub(crate) fn check_home_name(home: &str) -> Result<(), FleetError> {
    let ok = !home.is_empty()
        && home
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(FleetError::InvalidHome {
            name: home.to_string(),
        })
    }
}

fn parse_lineage(text: &str, path: &Path) -> Result<Vec<(Generation, ModelHash)>, FleetError> {
    let err = |line: usize, reason: String| FleetError::Lineage {
        path: path.display().to_string(),
        reason: format!("line {line}: {reason}"),
    };
    let mut lineage = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let gen = parts
            .next()
            .and_then(|s| s.parse::<Generation>().ok())
            .ok_or_else(|| err(idx + 1, format!("bad generation in `{line}`")))?;
        let hash = parts
            .next()
            .and_then(|s| s.parse::<ModelHash>().ok())
            .ok_or_else(|| err(idx + 1, format!("bad content hash in `{line}`")))?;
        if parts.next().is_some() {
            return Err(err(idx + 1, format!("trailing fields in `{line}`")));
        }
        lineage.push((gen, hash));
    }
    Ok(lineage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaliot_core::CausalIot;
    use iot_model::{Attribute, BinaryEvent, DeviceRegistry, Room, Timestamp};

    /// A scratch store rooted in a unique temp directory, removed on
    /// drop even when the test panics.
    struct ScratchStore {
        store: ModelStore,
        root: PathBuf,
    }

    impl ScratchStore {
        fn new(tag: &str) -> Self {
            let root = std::env::temp_dir().join(format!(
                "causaliot-fleet-store-{tag}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&root);
            let store = ModelStore::open(&root).expect("open scratch store");
            ScratchStore { store, root }
        }
    }

    impl Drop for ScratchStore {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn fitted(phase: u64) -> FittedModel {
        let mut reg = DeviceRegistry::new();
        let pe = reg
            .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
            .unwrap();
        let lamp = reg
            .add("S_lamp", Attribute::Switch, Room::new("room"))
            .unwrap();
        let mut events = Vec::new();
        for i in 0..240u64 {
            let on = (i / 2 + phase).is_multiple_of(2);
            events.push(BinaryEvent::new(Timestamp::from_secs(i * 60), pe, on));
            if !(i + phase).is_multiple_of(5) {
                events.push(BinaryEvent::new(
                    Timestamp::from_secs(i * 60 + 15),
                    lamp,
                    on,
                ));
            }
        }
        CausalIot::builder()
            .tau(2)
            .build()
            .fit_binary(&reg, &events)
            .expect("fits")
    }

    #[test]
    fn put_get_round_trips_and_is_idempotent() {
        let scratch = ScratchStore::new("roundtrip");
        let model = fitted(0);
        let hash = scratch.store.put(&model).unwrap();
        assert_eq!(hash, ModelHash::of(&model));
        // Idempotent: the second put returns the same key, writes nothing.
        assert_eq!(scratch.store.put(&model).unwrap(), hash);
        let restored = scratch.store.get(hash).unwrap();
        assert_eq!(restored.save(), model.save());
        // No temp leftovers from a clean put.
        let gc = scratch.store.gc().unwrap();
        assert_eq!(gc.tmp_cleaned, 0);
    }

    #[test]
    fn missing_blob_is_reported_by_hash() {
        let scratch = ScratchStore::new("missing");
        let ghost = ModelHash::from_value(0x0123_4567);
        match scratch.store.get(ghost) {
            Err(FleetError::MissingBlob { hash }) => assert_eq!(hash, ghost),
            other => panic!("expected MissingBlob, got {other:?}"),
        }
    }

    #[test]
    fn commit_resolve_and_lineage_track_generations() {
        let scratch = ScratchStore::new("lineage");
        let (m1, m2) = (fitted(0), fitted(1));
        let h1 = scratch.store.put(&m1).unwrap();
        let h2 = scratch.store.put(&m2).unwrap();
        assert_ne!(h1, h2, "distinct models must hash differently");
        assert_eq!(scratch.store.resolve("home-a").unwrap(), None);
        assert_eq!(scratch.store.commit("home-a", h1).unwrap(), 1);
        assert_eq!(scratch.store.commit("home-a", h2).unwrap(), 2);
        assert_eq!(scratch.store.resolve("home-a").unwrap(), Some((2, h2)));
        assert_eq!(
            scratch.store.lineage("home-a").unwrap(),
            vec![(1, h1), (2, h2)]
        );
        assert_eq!(scratch.store.homes().unwrap(), vec!["home-a".to_string()]);
    }

    #[test]
    fn rollback_reverts_to_the_previous_generation() {
        let scratch = ScratchStore::new("rollback");
        let (m1, m2) = (fitted(0), fitted(1));
        let h1 = scratch.store.put(&m1).unwrap();
        let h2 = scratch.store.put(&m2).unwrap();
        scratch.store.commit("home-a", h1).unwrap();
        scratch.store.commit("home-a", h2).unwrap();
        assert_eq!(scratch.store.rollback("home-a").unwrap(), (1, h1));
        assert_eq!(scratch.store.resolve("home-a").unwrap(), Some((1, h1)));
        // The dropped blob survives until gc() sweeps it.
        assert!(scratch.store.get(h2).is_ok());
        // A fresh commit after the rollback resumes numbering past the
        // surviving head.
        assert_eq!(scratch.store.commit("home-a", h2).unwrap(), 2);
    }

    #[test]
    fn rollback_refuses_empty_and_single_generation_lineages() {
        let scratch = ScratchStore::new("rollback-refuse");
        assert!(matches!(
            scratch.store.rollback("ghost"),
            Err(FleetError::UnknownHome { .. })
        ));
        let hash = scratch.store.put(&fitted(0)).unwrap();
        scratch.store.commit("home-a", hash).unwrap();
        match scratch.store.rollback("home-a") {
            Err(FleetError::Lineage { reason, .. }) => {
                assert!(reason.contains("no prior generation"), "{reason}");
            }
            other => panic!("expected Lineage error, got {other:?}"),
        }
        // The refusal left the lineage untouched.
        assert_eq!(scratch.store.resolve("home-a").unwrap(), Some((1, hash)));
    }

    #[test]
    fn commit_requires_the_blob_to_exist() {
        let scratch = ScratchStore::new("dangling");
        let ghost = ModelHash::from_value(0xFEED_FACE);
        assert!(matches!(
            scratch.store.commit("home-a", ghost),
            Err(FleetError::MissingBlob { .. })
        ));
    }

    #[test]
    fn invalid_home_names_are_rejected() {
        let scratch = ScratchStore::new("names");
        let hash = scratch.store.put(&fitted(0)).unwrap();
        for bad in ["", "a/b", "a b", "a\tb", "..", "café"] {
            // ".." only contains valid chars; path traversal is the
            // concern for separators, which the charset already bans.
            if bad == ".." {
                continue;
            }
            assert!(
                matches!(
                    scratch.store.commit(bad, hash),
                    Err(FleetError::InvalidHome { .. })
                ),
                "name `{bad}` must be rejected"
            );
        }
        assert!(scratch.store.commit("Home_0.9-x", hash).is_ok());
    }

    #[test]
    fn gc_sweeps_only_unreferenced_blobs() {
        let scratch = ScratchStore::new("gc");
        let (m1, m2, m3) = (fitted(0), fitted(1), fitted(2));
        let h1 = scratch.store.put(&m1).unwrap();
        let h2 = scratch.store.put(&m2).unwrap();
        let h3 = scratch.store.put(&m3).unwrap();
        scratch.store.commit("home-a", h1).unwrap();
        scratch.store.commit("home-a", h2).unwrap(); // head
        let report = scratch.store.gc().unwrap();
        assert_eq!(report.swept, vec![h3]);
        assert_eq!(report.kept, 2);
        // History and head both survive.
        assert!(scratch.store.get(h1).is_ok());
        assert!(scratch.store.get(h2).is_ok());
        assert!(matches!(
            scratch.store.get(h3),
            Err(FleetError::MissingBlob { .. })
        ));
    }

    #[test]
    fn fsck_is_clean_on_a_healthy_store_and_names_problems() {
        let scratch = ScratchStore::new("fsck");
        let model = fitted(0);
        let hash = scratch.store.put(&model).unwrap();
        scratch.store.commit("home-a", hash).unwrap();
        let report = scratch.store.fsck().unwrap();
        assert!(report.is_clean(), "issues: {:?}", report.issues);
        assert_eq!(report.blobs_checked, 1);
        assert_eq!(report.lineages_checked, 1);
        // Remove the blob behind the lineage's back: fsck names it twice
        // (missing from the walk is fine — the lineage check reports it).
        fs::remove_file(scratch.root.join("blobs").join(format!("{hash}.model"))).unwrap();
        let report = scratch.store.fsck().unwrap();
        assert!(!report.is_clean());
        assert!(
            report.issues.iter().any(|i| i.contains("missing blob")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn model_hash_displays_and_parses() {
        let hash = ModelHash::from_value(0x00AB_CDEF);
        assert_eq!(hash.to_string(), "00abcdef");
        assert_eq!("00abcdef".parse::<ModelHash>().unwrap(), hash);
        assert!("xyz".parse::<ModelHash>().is_err());
        assert!("123".parse::<ModelHash>().is_err());
        assert_eq!(hash.value(), 0x00AB_CDEF);
    }

    #[test]
    fn corrupt_lineage_fails_closed() {
        let scratch = ScratchStore::new("badlineage");
        fs::write(
            scratch.root.join("lineage").join("home-a.log"),
            "1 deadbeef\nnot a line\n",
        )
        .unwrap();
        match scratch.store.lineage("home-a") {
            Err(FleetError::Lineage { reason, .. }) => {
                assert!(reason.contains("line 2"), "{reason}");
            }
            other => panic!("expected Lineage error, got {other:?}"),
        }
    }
}
