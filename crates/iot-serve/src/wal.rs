//! Per-home segmented write-ahead log: byte-stable, CRC-per-record
//! framing for the events a hub has accepted and scored.
//!
//! A home's WAL lives next to its model checkpoint and runtime-state
//! snapshot in `home-<id>/` under the hub's durability root, as a series
//! of segments `wal-0000000000.log`, `wal-0000000001.log`, … — one per
//! snapshot epoch. Recovery reopens the unsealed segment a crash left
//! behind and appends to it, so an epoch can span a restart. Each record
//! is framed
//!
//! ```text
//! [u32 payload length, LE][u32 CRC-32 of payload, LE][payload]
//! ```
//!
//! with the payload's first byte a record kind: `1` = event
//! (timestamp millis `u64` LE + device index `u32` LE + value byte), `2`
//! = seal (record count `u64` LE, written once when the segment is
//! retired by a snapshot rotation). The framing is pure little-endian
//! bytes — no platform-dependent encoding — so segments are byte-stable
//! across runs and machines.
//!
//! Replay ([`replay_segment`]) fails closed: it stops at the **first**
//! record it cannot fully verify and reports why. An incomplete record
//! at end of file is the expected artifact of a crash mid-append
//! ([`SegmentOutcome::TornTail`] — everything before it replays); a CRC
//! mismatch, oversized length, unknown kind, seal-count mismatch, or
//! data after the seal is real corruption
//! ([`SegmentOutcome::Corrupt`] with the byte offset), and nothing at or
//! past the bad record is trusted.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use causaliot_core::persist::crc32;
use iot_model::{BinaryEvent, DeviceId, Timestamp};

/// Bytes of framing before each record's payload (length + CRC).
const FRAME: usize = 8;
/// An event payload: kind + millis + device + value.
const EVENT_PAYLOAD: usize = 1 + 8 + 4 + 1;
/// A seal payload: kind + record count.
const SEAL_PAYLOAD: usize = 1 + 8;
/// Sanity cap on a record's declared payload length: no valid record
/// comes close, so anything larger is corruption, not data.
const MAX_PAYLOAD: u32 = 1 << 20;

const KIND_EVENT: u8 = 1;
const KIND_SEAL: u8 = 2;

/// The file name of WAL segment `epoch` (`wal-0000000042.log`).
pub fn segment_file_name(epoch: u64) -> String {
    format!("wal-{epoch:010}.log")
}

/// Parses a [`segment_file_name`]-shaped name back to its epoch.
pub fn parse_segment_epoch(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn event_payload(event: BinaryEvent) -> [u8; EVENT_PAYLOAD] {
    let mut payload = [0u8; EVENT_PAYLOAD];
    payload[0] = KIND_EVENT;
    payload[1..9].copy_from_slice(&event.time.as_millis().to_le_bytes());
    payload[9..13].copy_from_slice(&(event.device.index() as u32).to_le_bytes());
    payload[13] = event.value as u8;
    payload
}

/// An open, append-only WAL segment.
///
/// Appends buffer in the kernel page cache; [`SegmentWriter::sync`] is
/// the durability point (the hub's [`crate::DurabilityPolicy`] decides
/// how often it is called). A killed *process* loses nothing it has
/// appended — written bytes live in kernel memory — so crash tests
/// observe every append regardless of sync cadence; only the machine
/// dying can lose the unsynced tail.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    records: u64,
    buf: Vec<u8>,
}

impl SegmentWriter {
    /// Creates (truncating) the segment at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<SegmentWriter> {
        let path = path.into();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(SegmentWriter {
            file,
            path,
            records: 0,
            buf: Vec::new(),
        })
    }

    /// Reopens the unsealed segment at `path` for append after a crash.
    /// Replay trusted its first `events` records, so the file is truncated
    /// to their end — a torn tail beyond it would otherwise sit between
    /// them and the next append — and fsynced, which makes the replayed
    /// records machine-durable before anything is scored on top of them.
    pub(crate) fn reopen(path: impl Into<PathBuf>, events: u64) -> io::Result<SegmentWriter> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        // Before a seal every record is an event record.
        file.set_len(events * (FRAME + EVENT_PAYLOAD) as u64)?;
        file.sync_all()?;
        Ok(SegmentWriter {
            file,
            path,
            records: events,
            buf: Vec::new(),
        })
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended so far (events + seal).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one framed event record per event, in one `write` call.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn append_events(&mut self, events: &[BinaryEvent]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        for &event in events {
            encode_record(&event_payload(event), &mut self.buf);
        }
        self.file.write_all(&self.buf)?;
        self.records += events.len() as u64;
        Ok(())
    }

    /// Fsyncs everything appended so far — the machine-durability point.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `fsync` error.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Appends the seal record (carrying the final record count) and
    /// fsyncs. A sealed segment is complete: replay verifies the count
    /// and rejects any bytes after the seal.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/fsync error.
    pub fn seal(&mut self) -> io::Result<()> {
        let mut payload = [0u8; SEAL_PAYLOAD];
        payload[0] = KIND_SEAL;
        payload[1..9].copy_from_slice(&self.records.to_le_bytes());
        self.buf.clear();
        encode_record(&payload, &mut self.buf);
        self.file.write_all(&self.buf)?;
        self.file.sync_all()
    }
}

/// Why replay stopped trusting a segment at a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalStopCause {
    /// The record's CRC-32 did not match its payload.
    CrcMismatch,
    /// The declared payload length is implausible (zero or over the
    /// sanity cap) or does not match the record kind.
    BadLength,
    /// The payload's kind byte is not a known record kind.
    UnknownKind,
    /// The seal record's count disagrees with the records replayed.
    SealMismatch,
    /// Bytes follow a seal record — a sealed segment must end there.
    TrailingData,
}

impl fmt::Display for WalStopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WalStopCause::CrcMismatch => "crc mismatch",
            WalStopCause::BadLength => "bad record length",
            WalStopCause::UnknownKind => "unknown record kind",
            WalStopCause::SealMismatch => "seal count mismatch",
            WalStopCause::TrailingData => "data after seal",
        };
        f.write_str(s)
    }
}

/// How a segment ended under replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SegmentOutcome {
    /// Ended with a verified seal record — a fully retired segment.
    Sealed,
    /// Ended cleanly at end of file without a seal — the segment that
    /// was live when the process stopped. Tolerated.
    Unsealed,
    /// An incomplete record at end of file, starting at `offset` — the
    /// expected artifact of dying mid-append. Everything before the torn
    /// record replayed; the tail is discarded. Tolerated.
    TornTail {
        /// Byte offset of the first incomplete record.
        offset: u64,
    },
    /// A record at `offset` failed verification — real corruption.
    /// Nothing at or past it is trusted; recovery fails closed.
    Corrupt {
        /// Byte offset of the first untrusted record.
        offset: u64,
        /// What failed.
        cause: WalStopCause,
    },
}

/// One segment's replay: the verified events, in append order, plus how
/// the segment ended.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReplay {
    /// Every event whose record verified, oldest first.
    pub events: Vec<BinaryEvent>,
    /// How the segment ended.
    pub outcome: SegmentOutcome,
}

/// Replays the segment at `path`, verifying every record frame.
///
/// # Errors
///
/// Propagates the underlying read error; verification failures are
/// reported in the returned [`SegmentOutcome`], not as errors.
pub fn replay_segment(path: &Path) -> io::Result<SegmentReplay> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(replay_bytes(&bytes))
}

fn replay_bytes(bytes: &[u8]) -> SegmentReplay {
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let offset = pos as u64;
        let corrupt = |cause| SegmentOutcome::Corrupt { offset, cause };
        if bytes.len() - pos < FRAME {
            return SegmentReplay {
                events,
                outcome: SegmentOutcome::TornTail { offset },
            };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_PAYLOAD {
            return SegmentReplay {
                events,
                outcome: corrupt(WalStopCause::BadLength),
            };
        }
        let len = len as usize;
        if bytes.len() - pos - FRAME < len {
            return SegmentReplay {
                events,
                outcome: SegmentOutcome::TornTail { offset },
            };
        }
        let payload = &bytes[pos + FRAME..pos + FRAME + len];
        if crc32(payload) != crc {
            return SegmentReplay {
                events,
                outcome: corrupt(WalStopCause::CrcMismatch),
            };
        }
        match payload[0] {
            KIND_EVENT => {
                if len != EVENT_PAYLOAD {
                    return SegmentReplay {
                        events,
                        outcome: corrupt(WalStopCause::BadLength),
                    };
                }
                let millis = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
                let device = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes"));
                events.push(BinaryEvent::new(
                    Timestamp::from_millis(millis),
                    DeviceId::from_index(device as usize),
                    payload[13] != 0,
                ));
            }
            KIND_SEAL => {
                if len != SEAL_PAYLOAD {
                    return SegmentReplay {
                        events,
                        outcome: corrupt(WalStopCause::BadLength),
                    };
                }
                let count = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
                if count != events.len() as u64 {
                    return SegmentReplay {
                        events,
                        outcome: corrupt(WalStopCause::SealMismatch),
                    };
                }
                if pos + FRAME + len != bytes.len() {
                    return SegmentReplay {
                        events,
                        outcome: SegmentOutcome::Corrupt {
                            offset: (pos + FRAME + len) as u64,
                            cause: WalStopCause::TrailingData,
                        },
                    };
                }
                return SegmentReplay {
                    events,
                    outcome: SegmentOutcome::Sealed,
                };
            }
            _ => {
                return SegmentReplay {
                    events,
                    outcome: corrupt(WalStopCause::UnknownKind),
                };
            }
        }
        pos += FRAME + len;
    }
    SegmentReplay {
        events,
        outcome: SegmentOutcome::Unsealed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(i: u64) -> BinaryEvent {
        BinaryEvent::new(
            Timestamp::from_millis(1_000 + i * 7),
            DeviceId::from_index((i % 3) as usize),
            i.is_multiple_of(2),
        )
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iot-serve-wal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(0), "wal-0000000000.log");
        assert_eq!(segment_file_name(42), "wal-0000000042.log");
        assert_eq!(parse_segment_epoch("wal-0000000042.log"), Some(42));
        assert_eq!(parse_segment_epoch("wal-42.log"), None);
        assert_eq!(parse_segment_epoch("state.snap"), None);
        assert_eq!(parse_segment_epoch("wal-00000000xx.log"), None);
    }

    #[test]
    fn unsealed_and_sealed_segments_replay_exactly() {
        let dir = scratch("roundtrip");
        let events: Vec<BinaryEvent> = (0..10).map(event).collect();

        let path = dir.join(segment_file_name(0));
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append_events(&events[..6]).unwrap();
        writer.append_events(&events[6..]).unwrap();
        writer.sync().unwrap();
        let replay = replay_segment(&path).unwrap();
        assert_eq!(replay.outcome, SegmentOutcome::Unsealed);
        assert_eq!(replay.events, events);

        let sealed = dir.join(segment_file_name(1));
        let mut writer = SegmentWriter::create(&sealed).unwrap();
        writer.append_events(&events).unwrap();
        writer.seal().unwrap();
        let replay = replay_segment(&sealed).unwrap();
        assert_eq!(replay.outcome, SegmentOutcome::Sealed);
        assert_eq!(replay.events, events);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_and_inside_every_record_fails_closed() {
        let dir = scratch("truncate");
        let events: Vec<BinaryEvent> = (0..5).map(event).collect();
        let path = dir.join(segment_file_name(0));
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append_events(&events).unwrap();
        writer.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        let record = FRAME + EVENT_PAYLOAD;
        assert_eq!(full.len(), events.len() * record);
        for cut in 0..full.len() {
            let replay = replay_bytes(&full[..cut]);
            let whole = cut / record;
            assert_eq!(replay.events, events[..whole], "cut at {cut}");
            if cut % record == 0 {
                // Clean record boundary: just a shorter unsealed log.
                assert_eq!(replay.outcome, SegmentOutcome::Unsealed, "cut at {cut}");
            } else {
                // Mid-record: the torn tail starts at the last boundary.
                assert_eq!(
                    replay.outcome,
                    SegmentOutcome::TornTail {
                        offset: (whole * record) as u64
                    },
                    "cut at {cut}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_detected_with_its_offset() {
        let dir = scratch("bitflip");
        let events: Vec<BinaryEvent> = (0..3).map(event).collect();
        let path = dir.join(segment_file_name(0));
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append_events(&events).unwrap();
        writer.sync().unwrap();
        let clean = std::fs::read(&path).unwrap();
        let record = FRAME + EVENT_PAYLOAD;
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let replay = replay_bytes(&bytes);
                let hit = byte / record;
                // Every record before the flipped one still replays...
                assert!(replay.events.len() >= hit, "byte {byte} bit {bit}");
                assert_eq!(replay.events[..hit], events[..hit], "byte {byte} bit {bit}");
                // ...and the flip itself can never smuggle an altered
                // event through as trusted data.
                match replay.outcome {
                    SegmentOutcome::Corrupt { offset, .. } => {
                        assert_eq!(offset, (hit * record) as u64, "byte {byte} bit {bit}");
                        assert_eq!(replay.events.len(), hit);
                    }
                    // A flip in a length field can also make the record
                    // swallow the rest of the file (torn tail at that
                    // record) — still fail-closed at the right offset.
                    SegmentOutcome::TornTail { offset } => {
                        assert_eq!(offset, (hit * record) as u64, "byte {byte} bit {bit}");
                        assert_eq!(replay.events.len(), hit);
                    }
                    other => panic!("byte {byte} bit {bit}: flip went undetected: {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_drops_a_torn_tail_and_appends_after_the_verified_records() {
        let dir = scratch("reopen");
        let events: Vec<BinaryEvent> = (0..7).map(event).collect();
        let path = dir.join(segment_file_name(0));
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append_events(&events[..4]).unwrap();
        drop(writer);
        // A crash mid-append: half of the next record reached the file.
        let mut torn = Vec::new();
        encode_record(&event_payload(events[4]), &mut torn);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(file);
        let replay = replay_segment(&path).unwrap();
        assert_eq!(replay.events, events[..4]);
        assert!(matches!(replay.outcome, SegmentOutcome::TornTail { .. }));

        let mut writer = SegmentWriter::reopen(&path, replay.events.len() as u64).unwrap();
        writer.append_events(&events[4..]).unwrap();
        writer.seal().unwrap();
        let replay = replay_segment(&path).unwrap();
        assert_eq!(replay.outcome, SegmentOutcome::Sealed);
        assert_eq!(replay.events, events);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_violations_are_corrupt() {
        let dir = scratch("seal");
        let events: Vec<BinaryEvent> = (0..4).map(event).collect();
        let path = dir.join(segment_file_name(0));
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.append_events(&events).unwrap();
        writer.seal().unwrap();
        let sealed = std::fs::read(&path).unwrap();

        // Data after the seal.
        let mut trailing = sealed.clone();
        trailing.extend_from_slice(&[0u8; 4]);
        let replay = replay_bytes(&trailing);
        assert!(matches!(
            replay.outcome,
            SegmentOutcome::Corrupt {
                cause: WalStopCause::TrailingData,
                ..
            }
        ));
        assert_eq!(replay.events, events);

        // A seal whose count lies (drop one event record, keep the seal).
        let record = FRAME + EVENT_PAYLOAD;
        let mut short = sealed[record..].to_vec();
        // Re-check: the first remaining record is a valid event record,
        // so replay sees 3 events then a seal claiming 4.
        let replay = replay_bytes(&short);
        assert!(matches!(
            replay.outcome,
            SegmentOutcome::Corrupt {
                cause: WalStopCause::SealMismatch,
                ..
            }
        ));
        // Unknown kind: corrupt the kind byte *and* fix the CRC so only
        // the kind check can object.
        short.clear();
        let mut payload = event_payload(event(0)).to_vec();
        payload[0] = 9;
        encode_record(&payload, &mut short);
        assert!(matches!(
            replay_bytes(&short).outcome,
            SegmentOutcome::Corrupt {
                offset: 0,
                cause: WalStopCause::UnknownKind,
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
