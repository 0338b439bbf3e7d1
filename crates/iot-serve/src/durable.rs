//! Per-home durable serving state: the on-disk layout, the live-state
//! snapshot document, and the bookkeeping a shard worker does to keep a
//! home recoverable.
//!
//! With a [`crate::DurabilityConfig`] armed, every home owns a directory
//! `home-<id>/` under the durability root:
//!
//! ```text
//! home-7/
//!   home.meta            the home's registered name
//!   model.ckpt           the serving model (v2 checkpoint format)
//!   state.snap           latest runtime-state snapshot (this module)
//!   wal-0000000003.log   the live WAL segment (crate::wal framing)
//! ```
//!
//! The snapshot is a line-oriented document in the checkpoint family:
//! `{:?}`-formatted floats (byte-stable, round-trip exact), a CRC-32
//! footer over everything above it, written atomically
//! (tmp → fsync → rename). It embeds the monitor's runtime-state
//! document verbatim and adds the serving layer's own state: the home's
//! event sequence number, the next WAL epoch, the recorded verdict
//! history, and the drift detector's window. Together with the model
//! checkpoint and the WAL tail, that is everything `Hub::recover` needs
//! to resume a home with bit-identical verdicts.
//!
//! Snapshots are only ever taken at event boundaries, and a successful
//! snapshot rotates the WAL: the old segment is sealed, the snapshot
//! records the next epoch, a fresh segment opens, and older segments are
//! deleted — the WAL tail never grows past one snapshot interval. The
//! drift window is persisted capped at the policy's `refit_window`, the
//! view a refit would see, not the serving buffer's amortisation slack.
//!
//! Recovery writes no snapshot. It resumes the live segment where the
//! crash left it (truncated to its last verified record) and counts the
//! replayed tail toward the snapshot cadence, so the next rotation lands
//! where it would have and the tail still never outgrows one interval.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use causaliot_core::persist::{
    append_crc_footer, crc32, find_crc_footer, push_bits, read_anomalous_event,
    write_anomalous_event, write_atomic, LineReader, CRC_FOOTER_PREFIX,
};
use causaliot_core::{Alarm, AlarmKind, CausalIotError, Verdict};
use iot_model::{BinaryEvent, DeviceId, SystemState, Timestamp};

use crate::config::DurabilityPolicy;
use crate::hub::HomeId;
use crate::supervisor::DriftState;
use crate::wal::{parse_segment_epoch, segment_file_name, SegmentWriter};

/// First line of every hub snapshot document.
const MAGIC: &str = "causaliot-hub-snapshot v1";
/// The home's registered name.
pub(crate) const META_FILE: &str = "home.meta";
/// The serving model, in the core checkpoint format.
pub(crate) const MODEL_FILE: &str = "model.ckpt";
/// The latest live-state snapshot.
pub(crate) const SNAP_FILE: &str = "state.snap";

/// The directory holding `home`'s durable state under `root`.
pub(crate) fn home_dir(root: &Path, home: usize) -> PathBuf {
    root.join(format!("home-{home}"))
}

/// Parses a [`home_dir`]-shaped directory name back to its home id.
pub(crate) fn parse_home_dir(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("home-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every `home-<id>` directory under `root`, sorted by home id.
pub(crate) fn list_home_dirs(root: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    let mut homes = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        if let Some(id) = entry.file_name().to_str().and_then(parse_home_dir) {
            homes.push((id, entry.path()));
        }
    }
    homes.sort_unstable_by_key(|(id, _)| *id);
    Ok(homes)
}

/// Every WAL segment in `dir`, sorted by epoch.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(epoch) = entry.file_name().to_str().and_then(parse_segment_epoch) {
            segments.push((epoch, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(epoch, _)| *epoch);
    Ok(segments)
}

/// Appends the CRC footer to `doc` and writes it atomically to
/// `dir/state.snap`.
pub(crate) fn write_snapshot(dir: &Path, doc: &str) -> io::Result<()> {
    let mut text = String::with_capacity(doc.len() + 24);
    text.push_str(doc);
    append_crc_footer(&mut text);
    write_atomic(&dir.join(SNAP_FILE), text.as_bytes())
}

/// One home's open durability state, owned by its shard worker's
/// `HomeSlot`: the live WAL segment plus the sync/snapshot cadence
/// bookkeeping. All I/O errors bubble up to the worker, which disarms
/// durability for the home rather than stall or poison scoring.
pub(crate) struct DurableHome {
    dir: PathBuf,
    writer: SegmentWriter,
    epoch: u64,
    policy: DurabilityPolicy,
    snapshot_every: u64,
    events_since_sync: u64,
    last_sync: Instant,
    events_since_snapshot: u64,
    /// Appends not yet fsynced.
    dirty: bool,
}

impl DurableHome {
    /// Creates a fresh durable home: the directory, its `home.meta`, and
    /// WAL segment 0. The model checkpoint is the caller's job (it owns
    /// the `FittedModel`).
    pub(crate) fn create(
        dir: PathBuf,
        name: &str,
        policy: DurabilityPolicy,
        snapshot_every: u64,
    ) -> io::Result<DurableHome> {
        fs::create_dir_all(&dir)?;
        write_atomic(&dir.join(META_FILE), format!("{name}\n").as_bytes())?;
        let writer = SegmentWriter::create(dir.join(segment_file_name(0)))?;
        Ok(Self::resume(dir, 0, writer, 0, policy, snapshot_every))
    }

    /// A durable home whose WAL continues in `writer`, segment `epoch`:
    /// segment 0 for a fresh home; on recovery, the segment a crash left
    /// unsealed, reopened, or a fresh one after a sealed tail. `logged`
    /// counts the events already in the log since the last snapshot (the
    /// replayed tail), so the snapshot cadence carries on across the
    /// restart.
    pub(crate) fn resume(
        dir: PathBuf,
        epoch: u64,
        writer: SegmentWriter,
        logged: u64,
        policy: DurabilityPolicy,
        snapshot_every: u64,
    ) -> DurableHome {
        DurableHome {
            dir,
            writer,
            epoch,
            policy,
            snapshot_every,
            events_since_sync: 0,
            last_sync: Instant::now(),
            events_since_snapshot: logged,
            dirty: false,
        }
    }

    /// Where the home's model checkpoint lives.
    pub(crate) fn model_path(&self) -> PathBuf {
        self.dir.join(MODEL_FILE)
    }

    /// The epoch a snapshot taken now must record as next to replay.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// Appends scored events to the live segment (no fsync — that is
    /// [`DurableHome::sync_if_due`]'s job at the job boundary).
    pub(crate) fn append(&mut self, events: &[BinaryEvent]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.writer.append_events(events)?;
        self.events_since_sync += events.len() as u64;
        self.events_since_snapshot += events.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Applies the durability policy's group-commit rule at a job
    /// boundary; returns whether an fsync ran.
    pub(crate) fn sync_if_due(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        let due = match self.policy {
            // An armed home is never `Off`, but fsyncing is the safe
            // answer if one ever is.
            DurabilityPolicy::Off | DurabilityPolicy::Strict => true,
            DurabilityPolicy::Interval { events, max_delay } => {
                self.events_since_sync >= events || self.last_sync.elapsed() >= max_delay
            }
        };
        if !due {
            return Ok(false);
        }
        self.writer.sync()?;
        self.events_since_sync = 0;
        self.last_sync = Instant::now();
        self.dirty = false;
        Ok(true)
    }

    /// Unconditional fsync of the live segment; returns whether one ran.
    /// The shutdown path for a poisoned home, whose monitor state cannot
    /// be snapshotted — its appended events still become durable.
    pub(crate) fn sync_now(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        self.writer.sync()?;
        self.events_since_sync = 0;
        self.last_sync = Instant::now();
        self.dirty = false;
        Ok(true)
    }

    /// Whether the snapshot cadence says it is time to rotate.
    pub(crate) fn needs_snapshot(&self) -> bool {
        self.events_since_snapshot >= self.snapshot_every
    }

    /// Rotates the WAL under a freshly rendered snapshot document (no
    /// CRC footer yet): seals the live segment, atomically publishes the
    /// snapshot, opens the next segment, and deletes the segments the
    /// snapshot supersedes. If this fails partway the on-disk state is
    /// still recoverable — the previous snapshot plus the sealed
    /// segments replay to the same point.
    pub(crate) fn rotate(&mut self, snapshot_doc: &str) -> io::Result<()> {
        self.writer.seal()?;
        write_snapshot(&self.dir, snapshot_doc)?;
        self.epoch += 1;
        self.writer = SegmentWriter::create(self.dir.join(segment_file_name(self.epoch)))?;
        self.events_since_sync = 0;
        self.last_sync = Instant::now();
        self.events_since_snapshot = 0;
        self.dirty = false;
        for (epoch, path) in list_segments(&self.dir)? {
            if epoch < self.epoch {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

/// The serving-layer state a worker installs into a freshly registered
/// slot when a home is recovered (or, for a fresh registration with
/// durability armed, just the open [`DurableHome`]).
pub(crate) struct ResumeState {
    /// The home's event sequence number (events scored so far).
    pub(crate) seq: u64,
    /// The recorded verdict history (empty unless
    /// [`crate::HubConfig::record_verdicts`] is on).
    pub(crate) verdicts: Vec<Verdict>,
    /// The recovered drift state, when adaptation is armed (`None` for a
    /// fresh registration, whose worker seeds it from the model).
    pub(crate) drift: Option<DriftState>,
    /// The home's open durability handle.
    pub(crate) durable: DurableHome,
}

/// Drift-detector runtime state as a snapshot document carries it.
#[derive(Debug)]
pub(crate) struct DriftResume {
    pub(crate) samples: Vec<(DeviceId, bool, f64)>,
    pub(crate) since_check: usize,
    pub(crate) events_seen: u64,
    pub(crate) window: Vec<BinaryEvent>,
    pub(crate) base_state: SystemState,
}

/// Drift state for snapshot rendering, borrowing the event window.
pub(crate) struct DriftParts<'a> {
    pub(crate) since_check: usize,
    pub(crate) events_seen: u64,
    pub(crate) samples: Vec<(DeviceId, bool, f64)>,
    pub(crate) window: &'a [BinaryEvent],
    /// The system state just before `window[0]`.
    pub(crate) base_state: SystemState,
}

/// A parsed snapshot document, borrowing from the text it was parsed from.
#[derive(Debug)]
pub(crate) struct SnapshotDoc<'t> {
    pub(crate) seq: u64,
    pub(crate) next_epoch: u64,
    /// The embedded monitor runtime-state document, verbatim.
    pub(crate) monitor_doc: &'t str,
    /// `Some` exactly when the snapshot carried a verdict history.
    pub(crate) verdicts: Option<Vec<Verdict>>,
    pub(crate) drift: Option<DriftResume>,
}

/// Renders the snapshot document (sans CRC footer — the writer appends
/// it so the rendered body is also the parse input in tests).
pub(crate) fn render_snapshot(
    seq: u64,
    next_epoch: u64,
    monitor_doc: &str,
    verdicts: Option<&[Verdict]>,
    drift: Option<&DriftParts<'_>>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(monitor_doc.len() + 256);
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "seq {seq}");
    let _ = writeln!(out, "wal.next_epoch {next_epoch}");
    out.push_str("monitor\n");
    out.push_str(monitor_doc);
    if !monitor_doc.ends_with('\n') {
        out.push('\n');
    }
    if let Some(verdicts) = verdicts {
        let _ = writeln!(out, "verdicts {}", verdicts.len());
        for v in verdicts {
            let _ = writeln!(
                out,
                "v {:?} {} {:?} {}",
                v.score,
                v.exceeds_threshold as u8,
                v.confidence,
                v.alarms.len()
            );
            for alarm in &v.alarms {
                let kind = matches!(alarm.kind, AlarmKind::Collective) as u8;
                let _ = writeln!(
                    out,
                    "a {kind} {} {}",
                    alarm.ended_by_abrupt as u8,
                    alarm.events.len()
                );
                for ev in &alarm.events {
                    write_anomalous_event(&mut out, "e", "c", ev);
                }
            }
        }
    }
    match drift {
        None => out.push_str("drift 0\n"),
        Some(d) => {
            out.push_str("drift 1\n");
            let _ = writeln!(
                out,
                "drift.meta {} {} {} {}",
                d.since_check,
                d.events_seen,
                d.samples.len(),
                d.window.len()
            );
            for (device, exceeded, ll) in &d.samples {
                let _ = writeln!(
                    out,
                    "drift.s {} {} {:?}",
                    device.index(),
                    *exceeded as u8,
                    ll
                );
            }
            for event in d.window {
                let _ = writeln!(
                    out,
                    "drift.w {} {} {}",
                    event.time.as_millis(),
                    event.device.index(),
                    event.value as u8
                );
            }
            out.push_str("drift.base ");
            push_bits(&mut out, &d.base_state);
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// Parses and verifies a snapshot document (body + CRC footer, as read
/// from disk) for a home whose model has `devices` devices. Fail-closed:
/// any mismatch is an error, never a partial restore.
pub(crate) fn parse_snapshot(text: &str, devices: usize) -> Result<SnapshotDoc<'_>, String> {
    let Some(pos) = find_crc_footer(text) else {
        return Err("missing crc32 footer".into());
    };
    let footer = text[pos..].trim_end();
    let want = footer
        .strip_prefix(CRC_FOOTER_PREFIX)
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or("unparseable crc32 footer")?;
    let got = crc32(&text.as_bytes()[..pos]);
    if got != want {
        return Err(format!(
            "crc32 mismatch: footer {want:08x}, content {got:08x}"
        ));
    }
    read_snapshot(&text[..pos], devices).map_err(|e| e.to_string())
}

/// Decodes a verified snapshot body.
fn read_snapshot(body: &str, devices: usize) -> Result<SnapshotDoc<'_>, CausalIotError> {
    let mut reader = LineReader::new(body);
    reader.magic(MAGIC)?;
    let mut record = reader.expect("seq")?;
    let seq = record.counter("seq")?;
    record.done()?;
    let mut record = reader.expect("wal.next_epoch")?;
    let next_epoch = record.counter("wal.next_epoch")?;
    record.done()?;
    reader.expect("monitor")?.done()?;
    // The embedded runtime-state document runs through its own `end`
    // record. It is borrowed as is: the monitor's restore decodes it.
    let start = reader.position();
    loop {
        let record = reader
            .next_record()
            .ok_or_else(|| reader.missing("`end` of the embedded monitor document"))?;
        if record.tag() == "end" {
            break;
        }
    }
    let monitor_doc = &body[start..reader.position()];

    let has_verdicts = reader
        .clone()
        .next_record()
        .is_some_and(|record| record.tag() == "verdicts");
    let verdicts = if has_verdicts {
        let mut record = reader.expect("verdicts")?;
        let count = record.count("verdict count")?;
        record.done()?;
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            list.push(read_verdict(&mut reader)?);
        }
        Some(list)
    } else {
        None
    };

    let mut record = reader.expect("drift")?;
    let armed = record.bit("drift flag")?;
    record.done()?;
    let drift = if armed {
        let mut meta = reader.expect("drift.meta")?;
        let since_check = meta.counter("since_check")? as usize;
        let events_seen = meta.counter("events_seen")?;
        let nsamples = meta.count("sample count")?;
        let nwindow = meta.count("window count")?;
        meta.done()?;
        let mut samples = Vec::with_capacity(nsamples);
        for _ in 0..nsamples {
            let mut record = reader.expect("drift.s")?;
            let device = record.device(devices, "sample device")?;
            let exceeded = record.bit("sample exceeded")?;
            samples.push((device, exceeded, record.num("sample ll")?));
            record.done()?;
        }
        let mut window = Vec::with_capacity(nwindow);
        for _ in 0..nwindow {
            let mut record = reader.expect("drift.w")?;
            let millis = record.num("window timestamp")?;
            let device = record.device(devices, "window device")?;
            window.push(BinaryEvent::new(
                Timestamp::from_millis(millis),
                device,
                record.bit("window value")?,
            ));
            record.done()?;
        }
        let mut record = reader.expect("drift.base")?;
        let base_state = record.bits(devices, "drift.base")?;
        record.done()?;
        Some(DriftResume {
            samples,
            since_check,
            events_seen,
            window,
            base_state,
        })
    } else {
        None
    };

    reader.expect("end")?.done()?;
    if let Some(record) = reader.next_record() {
        return Err(record.error("trailing data after end"));
    }
    Ok(SnapshotDoc {
        seq,
        next_epoch,
        monitor_doc,
        verdicts,
        drift,
    })
}

/// One `v` record of a verdict history, with its alarms' `a` records and
/// their anomalous events.
fn read_verdict(reader: &mut LineReader<'_>) -> Result<Verdict, CausalIotError> {
    let mut record = reader.expect("v")?;
    let score = record.num("score")?;
    let exceeds_threshold = record.bit("exceeds flag")?;
    let confidence = record.num("confidence")?;
    let nalarms = record.count("alarm count")?;
    record.done()?;
    let mut alarms = Vec::with_capacity(nalarms);
    for _ in 0..nalarms {
        let mut record = reader.expect("a")?;
        let kind = if record.bit("alarm kind")? {
            AlarmKind::Collective
        } else {
            AlarmKind::Contextual
        };
        let ended_by_abrupt = record.bit("abrupt flag")?;
        let nevents = record.count("alarm event count")?;
        record.done()?;
        let mut events = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            let record = reader.expect("e")?;
            // The history outlives model swaps: no device count or τ binds it.
            events.push(read_anomalous_event(
                reader,
                record,
                "c",
                usize::MAX,
                0..=usize::MAX,
            )?);
        }
        alarms.push(Alarm {
            kind,
            events,
            ended_by_abrupt,
        });
    }
    Ok(Verdict {
        score,
        exceeds_threshold,
        alarms,
        confidence,
    })
}

/// One recovered home, as reported by [`crate::Hub::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct HomeRecovery {
    /// The home's id (stable across crash and recovery: ids are assigned
    /// in directory order, which is registration order).
    pub home: HomeId,
    /// The home's registered name.
    pub name: String,
    /// Whether a live-state snapshot was found and restored (a home that
    /// never reached its first snapshot replays from the model alone).
    pub snapshot_loaded: bool,
    /// Events the home had durably scored before the crash — the
    /// snapshot's coverage plus the replayed WAL tail. A client that
    /// numbered its submissions resumes from exactly this offset.
    pub durable_events: u64,
    /// Events replayed from the WAL tail (the part of `durable_events`
    /// not covered by the snapshot).
    pub replayed_events: u64,
    /// Sealed (snapshot-superseded but not yet deleted) segments that
    /// were skipped or replayed during recovery.
    pub sealed_segments: usize,
    /// Byte offset of a torn (partially written) final record discarded
    /// from the last segment, if the crash left one. Recovery truncates
    /// the segment there before appending to it again.
    pub torn_tail: Option<u64>,
}

/// What [`crate::Hub::recover`] rebuilt, home by home.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Every recovered home, sorted by id.
    pub homes: Vec<HomeRecovery>,
}

impl RecoveryReport {
    /// Total events replayed from WAL tails across all homes.
    pub fn total_replayed(&self) -> u64 {
        self.homes.iter().map(|h| h.replayed_events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaliot_core::graph::LaggedVar;
    use causaliot_core::AnomalousEvent;

    fn event(i: u64) -> BinaryEvent {
        BinaryEvent::new(
            Timestamp::from_millis(500 + i * 13),
            DeviceId::from_index((i % 2) as usize),
            i.is_multiple_of(3),
        )
    }

    fn sample_verdicts() -> Vec<Verdict> {
        vec![
            Verdict {
                score: 0.125,
                exceeds_threshold: false,
                alarms: Vec::new(),
                confidence: 1.0,
            },
            Verdict {
                score: f64::NAN,
                exceeds_threshold: true,
                confidence: 0.5,
                alarms: vec![Alarm {
                    kind: AlarmKind::Collective,
                    ended_by_abrupt: true,
                    events: vec![AnomalousEvent {
                        ordinal: 41,
                        event: event(7),
                        cause_values: vec![
                            (LaggedVar::new(DeviceId::from_index(1), 2), true),
                            (LaggedVar::new(DeviceId::from_index(0), 0), false),
                        ],
                        score: 0.987_654_321,
                    }],
                }],
            },
        ]
    }

    const MONITOR_DOC: &str = "causaliot-runtime v1\nstats 0 0 0 0\nend\n";

    #[test]
    fn snapshot_round_trips_every_section() {
        let verdicts = sample_verdicts();
        let base = SystemState::from_values(vec![true, false, true]);
        let window = vec![event(1), event(2)];
        let drift = DriftParts {
            since_check: 7,
            events_seen: 1234,
            samples: vec![
                (DeviceId::from_index(0), true, -0.5),
                (DeviceId::from_index(1), false, f64::NEG_INFINITY),
            ],
            window: &window,
            base_state: base,
        };
        let mut doc = render_snapshot(42, 3, MONITOR_DOC, Some(&verdicts), Some(&drift));
        append_crc_footer(&mut doc);
        let parsed = parse_snapshot(&doc, 3).unwrap();
        assert_eq!(parsed.seq, 42);
        assert_eq!(parsed.next_epoch, 3);
        assert_eq!(parsed.monitor_doc, MONITOR_DOC);
        let got = parsed.verdicts.unwrap();
        // NaN != NaN, so compare the round-trip through the renderer.
        let mut again = render_snapshot(42, 3, MONITOR_DOC, Some(&got), Some(&drift));
        append_crc_footer(&mut again);
        assert_eq!(doc, again);
        let drift = parsed.drift.unwrap();
        assert_eq!(drift.since_check, 7);
        assert_eq!(drift.events_seen, 1234);
        assert_eq!(drift.samples.len(), 2);
        assert_eq!(drift.samples[1].2, f64::NEG_INFINITY);
        assert_eq!(drift.window, window);
        assert_eq!(drift.base_state.values(), &[true, false, true]);
    }

    #[test]
    fn minimal_snapshot_round_trips() {
        let mut doc = render_snapshot(0, 1, MONITOR_DOC, None, None);
        append_crc_footer(&mut doc);
        let parsed = parse_snapshot(&doc, 3).unwrap();
        assert_eq!(parsed.seq, 0);
        assert_eq!(parsed.next_epoch, 1);
        assert!(parsed.verdicts.is_none());
        assert!(parsed.drift.is_none());
    }

    #[test]
    fn corrupt_snapshots_fail_closed() {
        let mut doc = render_snapshot(9, 2, MONITOR_DOC, Some(&sample_verdicts()), None);
        append_crc_footer(&mut doc);

        // Flip one content byte: the footer must catch it.
        let mut bytes = doc.clone().into_bytes();
        bytes[MAGIC.len() + 5] ^= 1;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(parse_snapshot(&flipped, 3).unwrap_err().contains("crc32"));

        // Drop the footer entirely.
        let body = &doc[..find_crc_footer(&doc).unwrap()];
        assert!(parse_snapshot(body, 3).unwrap_err().contains("footer"));

        // Structural damage with a *recomputed* footer still fails: the
        // parser itself is the last line of defence.
        let mut truncated = body
            .lines()
            .take_while(|l| *l != "drift 0")
            .collect::<Vec<_>>()
            .join("\n");
        truncated.push('\n');
        append_crc_footer(&mut truncated);
        assert!(parse_snapshot(&truncated, 3).unwrap_err().contains("drift"));
    }

    #[test]
    fn home_dir_names_round_trip() {
        assert_eq!(parse_home_dir("home-0"), Some(0));
        assert_eq!(parse_home_dir("home-17"), Some(17));
        assert_eq!(parse_home_dir("home-"), None);
        assert_eq!(parse_home_dir("house-1"), None);
        assert_eq!(parse_home_dir("home-x1"), None);
    }

    #[test]
    fn durable_home_rotates_and_prunes_segments() {
        let dir = std::env::temp_dir().join(format!("iot-serve-durable-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let policy = DurabilityPolicy::Interval {
            events: 4,
            max_delay: std::time::Duration::from_secs(3600),
        };
        let mut home = DurableHome::create(dir.clone(), "kitchen", policy, 8).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join(META_FILE)).unwrap(),
            "kitchen\n"
        );
        let events: Vec<BinaryEvent> = (0..8).map(event).collect();
        home.append(&events[..3]).unwrap();
        assert!(!home.sync_if_due().unwrap());
        home.append(&events[3..8]).unwrap();
        assert!(home.sync_if_due().unwrap());
        assert!(home.needs_snapshot());
        let doc = render_snapshot(8, home.next_epoch(), MONITOR_DOC, None, None);
        home.rotate(&doc).unwrap();
        assert!(!home.needs_snapshot());
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "old segment pruned");
        assert_eq!(segments[0].0, 1);
        let text = fs::read_to_string(dir.join(SNAP_FILE)).unwrap();
        assert_eq!(parse_snapshot(&text, 3).unwrap().next_epoch, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
