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

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

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
    use std::fmt::Write as _;
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
