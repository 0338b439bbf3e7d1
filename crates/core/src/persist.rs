//! Shared crash-safe persistence primitives.
//!
//! The v2 checkpoint layer ([`crate::pipeline::checkpoint`]) established
//! the durability idioms this crate-family standardises on: CRC32
//! integrity (the IEEE 802.3 polynomial), a `# crc32 <hex>` comment
//! footer on text documents, and atomic tmp→fsync→rename file writes.
//! This module hosts those primitives so other persistence layers — the
//! serving hub's write-ahead log and runtime-state snapshots in
//! `iot-serve` — share one implementation and stay byte-compatible with
//! the checkpoint format instead of growing divergent copies.
//!
//! It also hosts the one reader every line-oriented text format here is
//! decoded with ([`LineReader`]: `causaliot-dig v1`, `causaliot-model v2`,
//! `causaliot-runtime v1`, `causaliot-hub-snapshot v1`), and the one
//! layout of an anomalous event with its causes that the runtime-state
//! and hub-snapshot formats share ([`write_anomalous_event`] /
//! [`read_anomalous_event`]).

use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::ops::RangeInclusive;
use std::path::Path;
use std::str::{FromStr, SplitAsciiWhitespace};

use iot_model::{BinaryEvent, DeviceId, SystemState, Timestamp};

use crate::graph::LaggedVar;
use crate::monitor::AnomalousEvent;
use crate::CausalIotError;

/// Comment prefix of the checksum footer appended to footered documents
/// (`# crc32 <8 hex digits>`). Line-oriented parsers that skip comment
/// lines never see it, so the footer is backward- and forward-compatible.
pub const CRC_FOOTER_PREFIX: &str = "# crc32 ";

/// The 256-entry CRC32 lookup table, built at compile time from the
/// same bitwise recurrence the original implementation ran per bit.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial), table-driven. The WAL
/// frames one CRC per scored event on the serving hot path, where the
/// bitwise form's eight shifts per byte are measurable; the table is
/// byte-for-byte the same function (same polynomial, same init/final
/// XOR), so every existing checkpoint footer and WAL record verifies
/// unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Byte offset of the checksum footer line, if the document carries one.
/// Only the *last* line is a candidate: the footer covers everything
/// before it, and comment lines elsewhere stay plain comments.
pub fn find_crc_footer(text: &str) -> Option<usize> {
    let body = text.strip_suffix('\n').unwrap_or(text);
    let start = body.rfind('\n').map_or(0, |i| i + 1);
    body[start..]
        .starts_with(CRC_FOOTER_PREFIX)
        .then_some(start)
}

/// Appends the `# crc32` footer line covering everything currently in
/// `text` (which must end with a newline, as every line-oriented writer
/// here guarantees).
pub fn append_crc_footer(text: &mut String) {
    let checksum = crc32(text.as_bytes());
    let _ = writeln!(text, "{CRC_FOOTER_PREFIX}{checksum:08x}");
}

/// Writes `bytes` to `path` crash-safely: the content goes to a
/// `<path>.tmp` sibling, is fsynced, and is atomically renamed over
/// `path`; the parent directory is synced best-effort so the rename
/// itself is durable. A crash at any byte of the write leaves the
/// previous file at `path` untouched. On error the temporary sibling is
/// removed best-effort.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    write_atomic_via(Path::new(&tmp), path, bytes)
}

/// [`write_atomic`] through a caller-named temporary file `tmp` (which
/// must be on the same filesystem as `path`). Writers that may race on
/// one `path` — several processes filing the same blob — each pass a
/// temporary name of their own.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the file.
pub fn write_atomic_via(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let write = (|| -> io::Result<()> {
        let mut file = fs::File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(tmp, path)?;
        // Durability of the rename needs the directory entry on disk too;
        // best-effort, as not every filesystem lets you open a directory.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    write.inspect_err(|_| {
        let _ = fs::remove_file(tmp);
    })
}

/// Appends `state` as one `0`/`1` digit per device.
pub fn push_bits(out: &mut String, state: &SystemState) {
    out.extend(state.values().iter().map(|&on| if on { '1' } else { '0' }));
}

/// A decode failure at the record on `line` (1-based; 0 when the document
/// ended before a required record), which starts at byte `offset`.
fn decode_error(line: usize, offset: usize, reason: impl fmt::Display) -> CausalIotError {
    CausalIotError::Model(iot_model::ModelError::ParseLog {
        line,
        reason: format!("{reason} (byte {offset})"),
    })
}

/// A cursor over a line document, under the lexical rules every text
/// format here shares:
///
/// * the first line is the document's magic (`<family> <version>`); no
///   blank or comment line may precede it;
/// * after it, blank lines and lines starting with `#` are skipped (the
///   CRC footer is such a comment);
/// * every other line is one [`Record`]: a tag followed by fields
///   separated by ASCII whitespace, surrounding ASCII whitespace ignored.
///
/// An embedded document (a DIG inside a checkpoint) is read on with the
/// same cursor, so every error names its line in the whole document.
/// Failures are [`ParseLog`](iot_model::ModelError::ParseLog) errors
/// whose reason ends with the byte offset of the line's start.
#[derive(Debug, Clone)]
pub struct LineReader<'t> {
    text: &'t str,
    /// Byte offset of the first unread line.
    pos: usize,
    /// Number of lines consumed so far.
    line: usize,
}

impl<'t> LineReader<'t> {
    /// A reader at the start of `text`.
    pub fn new(text: &'t str) -> Self {
        LineReader {
            text,
            pos: 0,
            line: 0,
        }
    }

    /// Byte offset of the first line not yet read.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The next line, trimmed, with the offset it starts at.
    #[inline]
    fn next_line(&mut self) -> Option<(&'t str, usize)> {
        let start = self.pos;
        let rest = self.text.get(start..).filter(|rest| !rest.is_empty())?;
        let len = rest.find('\n').map_or(rest.len(), |i| i + 1);
        self.pos += len;
        self.line += 1;
        Some((rest[..len].trim_ascii(), start))
    }

    /// Consumes the next line, which must be exactly `magic`. A line of
    /// the same family (the text before the first space) reports its
    /// version as unsupported.
    ///
    /// # Errors
    ///
    /// A [`CausalIotError`] naming the line.
    pub fn magic(&mut self, magic: &str) -> Result<(), CausalIotError> {
        let (found, offset) = self
            .next_line()
            .ok_or_else(|| self.missing(format!("`{magic}` header")))?;
        if found == magic {
            return Ok(());
        }
        let (family, expected) = magic.split_once(' ').unwrap_or((magic, ""));
        let reason = match found.strip_prefix(family).and_then(|v| v.strip_prefix(' ')) {
            Some(version) => {
                format!("unsupported version `{version}` (this build reads {expected})")
            }
            None => format!("bad magic `{found}`"),
        };
        Err(decode_error(self.line, offset, reason))
    }

    /// The next record, skipping blank and comment lines; `None` at the
    /// end of the document.
    #[inline]
    pub fn next_record(&mut self) -> Option<Record<'t>> {
        while let Some((line, offset)) = self.next_line() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            return Some(Record {
                tag: fields.next().unwrap_or_default(),
                fields,
                line: self.line,
                offset,
                left: self.text.len() - self.pos,
            });
        }
        None
    }

    /// The next record, which must be tagged `tag`.
    ///
    /// # Errors
    ///
    /// A [`CausalIotError`] naming the record found instead, or the end of
    /// the document.
    #[inline]
    pub fn expect(&mut self, tag: &str) -> Result<Record<'t>, CausalIotError> {
        let record = self
            .next_record()
            .ok_or_else(|| self.missing(format!("`{tag}` record")))?;
        if record.tag != tag {
            return Err(record.error(format!("expected `{tag}`, found `{}`", record.tag)));
        }
        Ok(record)
    }

    /// The error for `what`, required but absent when the document ends:
    /// line 0 at the document's length.
    pub fn missing(&self, what: impl fmt::Display) -> CausalIotError {
        decode_error(0, self.text.len(), format_args!("missing {what}"))
    }
}

/// One record of a [`LineReader`] document: its tag and a cursor over its
/// fields. Each typed accessor consumes the next field and fails, naming
/// the record's line, when that field is missing or malformed;
/// [`Record::done`] rejects any field left over.
#[derive(Debug, Clone)]
pub struct Record<'t> {
    tag: &'t str,
    fields: SplitAsciiWhitespace<'t>,
    line: usize,
    offset: usize,
    /// Bytes of the document after this record's line.
    left: usize,
}

impl<'t> Record<'t> {
    /// The record's tag (its first token).
    #[inline]
    pub fn tag(&self) -> &'t str {
        self.tag
    }

    /// An error naming this record's line.
    pub fn error(&self, reason: impl fmt::Display) -> CausalIotError {
        decode_error(self.line, self.offset, reason)
    }

    /// The next field, verbatim.
    #[inline]
    pub(crate) fn word(&mut self, what: &str) -> Result<&'t str, CausalIotError> {
        self.fields
            .next()
            .ok_or_else(|| self.error(format!("missing {what}")))
    }

    /// Parses `token`, a field of this record.
    #[inline]
    pub(crate) fn parse<T: FromStr>(&self, token: &str, what: &str) -> Result<T, CausalIotError> {
        token
            .parse()
            .map_err(|_| self.error(format!("bad {what} `{token}`")))
    }

    /// The next field as a number (any integer type, or `f64`).
    #[inline]
    pub fn num<T: FromStr>(&mut self, what: &str) -> Result<T, CausalIotError> {
        let token = self.word(what)?;
        self.parse(token, what)
    }

    /// The next field as a running counter: a `u64` no larger than
    /// `i64::MAX`, so whatever restores it can count on without
    /// overflowing.
    #[inline]
    pub fn counter(&mut self, what: &str) -> Result<u64, CausalIotError> {
        let value: i64 = self.num(what)?;
        u64::try_from(value).map_err(|_| self.error(format!("negative {what}")))
    }

    /// The next field as the number of items the rest of the document
    /// holds. Every item takes at least one byte, so a count above the
    /// bytes left is refused: no declared count allocates more than the
    /// document can describe.
    #[inline]
    pub fn count(&mut self, what: &str) -> Result<usize, CausalIotError> {
        let count = self.num(what)?;
        if count > self.left {
            return Err(self.error(format!(
                "{what} {count} exceeds the {} bytes left",
                self.left
            )));
        }
        Ok(count)
    }

    /// The next field as the index of one of `devices` devices.
    #[inline]
    pub fn device(&mut self, devices: usize, what: &str) -> Result<DeviceId, CausalIotError> {
        let device: u32 = self.num(what)?;
        if device as usize >= devices {
            return Err(self.error(format!("{what} {device} out of range")));
        }
        Ok(DeviceId::from_index(device as usize))
    }

    /// The next field as a `0`/`1` bit.
    #[inline]
    pub fn bit(&mut self, what: &str) -> Result<bool, CausalIotError> {
        match self.word(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(self.error(format!("{what} must be 0 or 1, got `{other}`"))),
        }
    }

    /// The next field as `true`/`false`.
    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, CausalIotError> {
        let token = self.word(what)?;
        self.parse(token, what)
    }

    /// The next field as a system state of exactly `len` `0`/`1` digits
    /// (the [`push_bits`] layout).
    pub fn bits(&mut self, len: usize, what: &str) -> Result<SystemState, CausalIotError> {
        let token = self.word(what)?;
        if token.len() != len || !token.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(self.error(format!("{what} must be {len} 0/1 digits")));
        }
        Ok(SystemState::from_values(
            token.bytes().map(|b| b == b'1').collect(),
        ))
    }

    /// Every field left, verbatim; the record is then exhausted.
    pub(crate) fn rest(&mut self) -> SplitAsciiWhitespace<'t> {
        std::mem::replace(&mut self.fields, "".split_ascii_whitespace())
    }

    /// Ends the record: a field left over is an error.
    #[inline]
    pub fn done(mut self) -> Result<(), CausalIotError> {
        match self.fields.next() {
            None => Ok(()),
            Some(_) => Err(self.error(format!("trailing fields on `{}`", self.tag))),
        }
    }
}

/// Writes `event` as one `<event_tag> ordinal millis device value score
/// #causes` line followed by one `<cause_tag> device lag value` line per
/// cause — the layout the runtime-state tracking window (`w.event` /
/// `w.cause`) and the hub snapshot's verdict history (`e` / `c`) share.
pub fn write_anomalous_event(
    out: &mut String,
    event_tag: &str,
    cause_tag: &str,
    event: &AnomalousEvent,
) {
    let _ = writeln!(
        out,
        "{event_tag} {} {} {} {} {:?} {}",
        event.ordinal,
        event.event.time.as_millis(),
        event.event.device.index(),
        event.event.value as u8,
        event.score,
        event.cause_values.len()
    );
    for &(cause, value) in &event.cause_values {
        let _ = writeln!(
            out,
            "{cause_tag} {} {} {}",
            cause.device.index(),
            cause.lag,
            value as u8
        );
    }
}

/// Reads back what [`write_anomalous_event`] wrote: `record` is the
/// event record (its tag already matched), and its causes follow in
/// `reader` as `cause_tag` records. Every device must be below `devices`
/// and every cause lag within `lags`.
///
/// # Errors
///
/// A [`CausalIotError`] naming the first line that breaks the layout.
pub fn read_anomalous_event(
    reader: &mut LineReader<'_>,
    mut record: Record<'_>,
    cause_tag: &str,
    devices: usize,
    lags: RangeInclusive<usize>,
) -> Result<AnomalousEvent, CausalIotError> {
    let ordinal = record.num("ordinal")?;
    let millis = record.num("timestamp")?;
    let device = record.device(devices, "device")?;
    let value = record.bit("value")?;
    let score = record.num("score")?;
    let causes = record.count("cause count")?;
    record.done()?;
    let mut cause_values = Vec::with_capacity(causes);
    for _ in 0..causes {
        let mut cause = reader.expect(cause_tag)?;
        let device = cause.device(devices, "cause device")?;
        let lag = cause.num("cause lag")?;
        if !lags.contains(&lag) {
            return Err(cause.error(format!("cause lag {lag} outside {lags:?}")));
        }
        let value = cause.bit("cause value")?;
        cause.done()?;
        cause_values.push((LaggedVar::new(device, lag), value));
    }
    Ok(AnomalousEvent {
        ordinal,
        event: BinaryEvent::new(Timestamp::from_millis(millis), device, value),
        cause_values,
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 test vectors ("check" value of the CRC catalogue).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn footer_round_trips() {
        let mut doc = String::from("magic v1\npayload 1 2 3\n");
        let body_len = doc.len();
        append_crc_footer(&mut doc);
        let start = find_crc_footer(&doc).expect("footer present");
        assert_eq!(start, body_len);
        let stored = doc[start..].trim_end().strip_prefix(CRC_FOOTER_PREFIX);
        let stored = u32::from_str_radix(stored.expect("prefix"), 16).expect("hex");
        assert_eq!(stored, crc32(&doc.as_bytes()[..start]));
    }

    #[test]
    fn only_the_last_line_is_a_footer_candidate() {
        let doc = "# crc32 deadbeef\nbody\n";
        assert_eq!(find_crc_footer(doc), None);
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let path =
            std::env::temp_dir().join(format!("causaliot-persist-test-{}.txt", std::process::id()));
        write_atomic(&path, b"first\n").expect("write");
        write_atomic(&path, b"second\n").expect("overwrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "second\n");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "tmp sibling must be gone");
        let _ = fs::remove_file(&path);
    }
}
