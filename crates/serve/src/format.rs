//! Byte-level snapshot framing: magic, version, payload, checksum.
//!
//! Every snapshot file is one frame:
//!
//! ```text
//! offset  size  content
//! 0       8     magic  b"NSCSNP\x01\n"
//! 8       4     format version, u32 LE (2; version 1 is still read)
//! 12      8     payload length L, u64 LE
//! 20      L     payload (sections; see `snapshot`)
//! 20+L    8     checksum of the payload bytes, u64 LE: XXH64 (seed 0) in
//!               version 2, FNV-1a 64 in version 1
//! ```
//!
//! The two versions differ only in the checksum, so a version-1 payload
//! decodes exactly as it did. [`write_frame`] writes version 2: FNV-1a folds
//! one byte at a time through a multiply, while XXH64 runs four independent
//! lanes over 32-byte stripes and verifies several times faster.
//! [`fnv1a64`] stays only to verify version-1 files.
//!
//! All multi-byte integers and floats are little-endian; `f64` slabs are raw
//! IEEE-754 bit patterns, so tables round-trip **bit-for-bit** (including
//! NaNs and signed zeros — the exact-resume guarantee needs the bits, not the
//! values). [`Writer`] builds the payload and [`write_frame`] adds the
//! framing; [`read_frame`] validates magic → version → length → checksum
//! (in that order, with a typed [`SnapshotError`] per failure mode) before
//! any parsing happens, and [`Reader`] then cursors over the verified
//! payload, reporting premature ends as [`SnapshotError::Truncated`].

use crate::error::SnapshotError;
use std::io::{self, Read as _};
use std::path::Path;

/// Leading magic of every snapshot file. The trailing `\x01\n` pair catches
/// text-mode newline mangling the way the PNG magic does.
pub const MAGIC: [u8; 8] = *b"NSCSNP\x01\n";

/// Format revision [`write_frame`] writes. [`read_frame`] also reads
/// version 1, and rejects anything else.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of the header before the payload (magic + version + length).
const HEADER_BYTES: usize = 8 + 4 + 8;

/// Bytes of framing around the payload (header + checksum).
const FRAME_BYTES: usize = HEADER_BYTES + 8;

/// FNV-1a 64-bit over `bytes`: the checksum of version-1 frames, kept only
/// to verify files written before version 2.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// XXH64 with seed 0 over `bytes`: the checksum of version-2 frames. Four
/// independent 64-bit lanes each fold one 8-byte word of every 32-byte
/// stripe, so the multiplies of one stripe overlap instead of queueing
/// behind each other as FNV-1a's do. Like FNV-1a it catches the
/// truncation and bit-rot class of corruption; cryptographic integrity is
/// out of scope for a local checkpoint store.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }

    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let mut hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            hash = (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        hash
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        hash = (hash ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if let Some((half, tail)) = rest.split_first_chunk::<4>() {
        hash = (hash ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = tail;
    }
    for &b in rest {
        hash = (hash ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Payload builder: append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and return the raw payload bytes.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` LE.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` LE.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw LE bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string (`u32` length + bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f64` slab (`u64` count + raw LE values).
    pub fn f64_slice(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        self.buf.reserve(values.len() * 8);
        for v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u64` slab.
    pub fn u64_slice(&mut self, values: &[u64]) {
        self.u64(values.len() as u64);
        self.buf.reserve(values.len() * 8);
        for v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u32` slab.
    pub fn u32_slice(&mut self, values: &[u32]) {
        self.u64(values.len() as u64);
        self.buf.reserve(values.len() * 4);
        for v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed bool slab (one byte each).
    pub fn bool_slice(&mut self, values: &[bool]) {
        self.u64(values.len() as u64);
        self.buf.extend(values.iter().map(|&b| b as u8));
    }

    /// Append raw bytes verbatim (section bodies).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// The sibling temp file a snapshot is staged in before the atomic rename.
fn staging_path(path: &Path) -> std::path::PathBuf {
    path.with_extension("tmp-snapshot")
}

/// Frame `payload` and write it to `path` (magic + version + length +
/// payload + checksum), atomically and durably:
///
/// 1. write the frame to a sibling temp file and `fsync` it, so the bytes
///    are on the platter before the final name can ever point at them;
/// 2. `rename` over `path` (atomic on POSIX — readers see the old snapshot
///    or the new one, never a mixture);
/// 3. `fsync` the parent directory, so the rename itself survives a power
///    cut (a directory entry is data too, and it lives in the directory).
///
/// A writer killed at any point leaves either the previous snapshot intact
/// or a stale temp file next to it. Readers never look at the temp, and the
/// next save of the same path truncates it (`File::create`) and renames it
/// away, so leftovers do not pile up.
pub fn write_frame(path: &Path, payload: &[u8]) -> Result<(), SnapshotError> {
    use std::io::Write as _;

    let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&xxh64(payload).to_le_bytes());

    let tmp = staging_path(path);
    crate::crash::crash_point("write_frame: before temp create");
    let mut file = std::fs::File::create(&tmp)?;
    // Two-part write so the mid-write crash point can leave a *torn* temp
    // file on disk, which readers must ignore.
    let half = frame.len() / 2;
    file.write_all(&frame[..half])?;
    crate::crash::crash_point("write_frame: mid temp write");
    file.write_all(&frame[half..])?;
    file.sync_all()?;
    drop(file);
    crate::crash::crash_point("write_frame: temp durable, before rename");
    std::fs::rename(&tmp, path)?;
    crate::crash::crash_point("write_frame: after rename, before dir fsync");
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Directory fsync can legitimately fail on filesystems that do not
        // support opening directories (e.g. some network mounts); the write
        // itself is still atomic there, so don't fail the checkpoint.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Read, validate and unwrap the frame at `path`, returning the verified
/// payload bytes.
///
/// The 20-byte header is read first: magic, version, and a declared payload
/// length that must account for the file's length exactly are all checked
/// before the payload is read, so a large file that is not a snapshot costs
/// one small read. The payload and its checksum are then read into one
/// buffer, which becomes the returned payload once the checksum is dropped
/// from its end: nothing is copied or moved after the read.
///
/// Reading never modifies the filesystem. A staging file (`*.tmp-snapshot`)
/// next to `path` is ignored: the final name always holds a complete frame
/// or nothing, and the temp may belong to a writer that is still running.
///
/// Anything but a regular file is refused before it is opened, as an
/// [`io::ErrorKind::InvalidInput`] error: reading a character device such as
/// `/dev/zero` never ends, and opening a FIFO blocks until a writer appears.
pub fn read_frame(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    if !std::fs::metadata(path)?.is_file() {
        return Err(SnapshotError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file",
        )));
    }
    let mut file = std::fs::File::open(path)?;
    let file_len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
    let mut header = [0u8; HEADER_BYTES];
    let head = file_len.min(HEADER_BYTES);
    file.read_exact(&mut header[..head])?;
    if head < 8 || header[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[..8]);
        return Err(SnapshotError::BadMagic { found });
    }
    if file_len < FRAME_BYTES {
        // Our magic, but too short to even hold the framing.
        return Err(SnapshotError::Truncated {
            context: "frame header",
            needed: FRAME_BYTES,
            available: file_len,
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let checksum = match version {
        FORMAT_VERSION => xxh64,
        1 => fnv1a64,
        _ => return Err(SnapshotError::UnsupportedVersion { found: version }),
    };
    let payload_len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    // A hostile length near `u64::MAX` must read as a truncated file, not
    // overflow the frame size.
    let expected_total = usize::try_from(payload_len)
        .ok()
        .and_then(|len| len.checked_add(FRAME_BYTES))
        .unwrap_or(usize::MAX);
    if file_len < expected_total {
        return Err(SnapshotError::Truncated {
            context: "payload",
            needed: expected_total,
            available: file_len,
        });
    }
    if file_len > expected_total {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the checksum",
            file_len - expected_total
        )));
    }
    let payload_len = expected_total - FRAME_BYTES;
    let mut bytes = vec![0u8; payload_len + 8];
    file.read_exact(&mut bytes).map_err(|e| match e.kind() {
        // The file shrank after its length was read.
        io::ErrorKind::UnexpectedEof => SnapshotError::Truncated {
            context: "payload",
            needed: expected_total,
            available: file_len,
        },
        _ => SnapshotError::Io(e),
    })?;
    let expected = u64::from_le_bytes(bytes[payload_len..].try_into().expect("8 bytes"));
    let found = checksum(&bytes[..payload_len]);
    if expected != found {
        return Err(SnapshotError::ChecksumMismatch { expected, found });
    }
    bytes.truncate(payload_len);
    Ok(bytes)
}

/// Cursor over a verified payload. Every read reports running out of bytes
/// as a typed [`SnapshotError::Truncated`] (defence in depth — the checksum
/// already vouches for files written by this crate).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Skip `n` bytes (section skipping).
    pub fn skip(&mut self, n: usize, context: &'static str) -> Result<(), SnapshotError> {
        self.take(n, context).map(|_| ())
    }

    /// Consume `n` bytes and return a cursor over just them (section bodies).
    pub fn sub_reader(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<Reader<'a>, SnapshotError> {
        Ok(Reader::new(self.take(n, context)?))
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a `u32` LE.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64` LE.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("non-UTF-8 string in {context}")))
    }

    /// Read a length-prefixed `f64` slab.
    pub fn f64_slice(&mut self, context: &'static str) -> Result<Vec<f64>, SnapshotError> {
        let len = self.checked_len(8, context)?;
        let bytes = self.take(len * 8, context)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read a length-prefixed `u64` slab.
    pub fn u64_slice(&mut self, context: &'static str) -> Result<Vec<u64>, SnapshotError> {
        let len = self.checked_len(8, context)?;
        let bytes = self.take(len * 8, context)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read a length-prefixed `u32` slab.
    pub fn u32_slice(&mut self, context: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let len = self.checked_len(4, context)?;
        let bytes = self.take(len * 4, context)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Read a length-prefixed bool slab.
    pub fn bool_slice(&mut self, context: &'static str) -> Result<Vec<bool>, SnapshotError> {
        let len = self.checked_len(1, context)?;
        let bytes = self.take(len, context)?;
        Ok(bytes.iter().map(|&b| b != 0).collect())
    }

    /// Read a slab length prefix and sanity-bound it against the remaining
    /// bytes, so a corrupt length cannot drive a huge allocation.
    fn checked_len(
        &mut self,
        elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, SnapshotError> {
        let len = self.u64(context)? as usize;
        if len
            .checked_mul(elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(SnapshotError::Truncated {
                context,
                needed: len.saturating_mul(elem_bytes),
                available: self.remaining(),
            });
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nscaching-serve-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn scalar_and_slab_round_trip_bitwise() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.str("entity_table");
        w.f64_slice(&[1.5, f64::NAN, f64::INFINITY, -3.25]);
        w.u64_slice(&[0, 1, u64::MAX]);
        w.u32_slice(&[9, 8, 7]);
        w.bool_slice(&[true, false, true]);
        let payload = w.into_payload();

        let mut r = Reader::new(&payload);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str("e").unwrap(), "entity_table");
        let f = r.f64_slice("f").unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0], 1.5);
        assert!(f[1].is_nan());
        assert_eq!(f[1].to_bits(), f64::NAN.to_bits(), "NaN bits survive");
        assert_eq!(r.u64_slice("g").unwrap(), vec![0, 1, u64::MAX]);
        assert_eq!(r.u32_slice("h").unwrap(), vec![9, 8, 7]);
        assert_eq!(r.bool_slice("i").unwrap(), vec![true, false, true]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn frame_round_trips_through_a_file() {
        let path = tempfile("frame.snap");
        let payload = b"hello snapshot".to_vec();
        write_frame(&path, &payload).unwrap();
        assert_eq!(read_frame(&path).unwrap(), payload);
    }

    #[test]
    fn bad_magic_is_detected() {
        let path = tempfile("badmagic.snap");
        std::fs::write(&path, b"definitely not a snapshot file").unwrap();
        assert!(matches!(
            read_frame(&path),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let path = tempfile("trunc.snap");
        write_frame(&path, b"0123456789").unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [full.len() - 1, full.len() - 9, 21, 10] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = read_frame(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        // 45 bytes: one full 32-byte stripe, an 8-byte word, a 4-byte word
        // and a byte, so every stage of XXH64 sees a flip.
        let path = tempfile("flip.snap");
        let payload = b"some payload worth protecting, in 45 bytes!!!";
        assert_eq!(payload.len(), 45);
        write_frame(&path, payload).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(good.len(), FRAME_BYTES + payload.len());
        let mut bytes = good.clone();
        for pos in HEADER_BYTES..good.len() {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                assert!(
                    matches!(
                        read_frame(&path),
                        Err(SnapshotError::ChecksumMismatch { .. })
                    ),
                    "flip of bit {bit} at byte {pos} slipped through"
                );
                bytes[pos] = good[pos];
            }
        }
    }

    /// A frame of `version` around `payload`, trailed by `checksum`.
    fn frame(version: u32, payload: &[u8], checksum: u64) -> Vec<u8> {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&version.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame
    }

    #[test]
    fn version_1_frames_are_read_and_each_version_names_its_checksum() {
        let path = tempfile("v1.snap");
        let payload = b"a payload framed before version 2";
        write_frame(&path, payload).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            frame(2, payload, xxh64(payload))
        );
        std::fs::write(&path, frame(1, payload, fnv1a64(payload))).unwrap();
        assert_eq!(read_frame(&path).unwrap(), payload);
        // The version selects the checksum: either one under the other
        // version's number is a mismatch.
        for bad in [
            frame(1, payload, xxh64(payload)),
            frame(2, payload, fnv1a64(payload)),
        ] {
            std::fs::write(&path, bad).unwrap();
            assert!(matches!(
                read_frame(&path),
                Err(SnapshotError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let path = tempfile("future.snap");
        let payload = b"payload";
        // Every version but 1 and 2 (0 was never written).
        for version in [3, 0xFF, u32::MAX, 0] {
            std::fs::write(&path, frame(version, payload, xxh64(payload))).unwrap();
            assert!(
                matches!(
                    read_frame(&path),
                    Err(SnapshotError::UnsupportedVersion { found }) if found == version
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn reader_reports_truncation_with_context() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.u64("epoch counter").unwrap_err();
        match err {
            SnapshotError::Truncated {
                context,
                needed,
                available,
            } => {
                assert_eq!(context, "epoch counter");
                assert_eq!(needed, 8);
                assert_eq!(available, 2);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn corrupt_slab_lengths_cannot_drive_allocation() {
        // A u64 length prefix claiming 2^60 elements must error, not reserve.
        let mut w = Writer::new();
        w.u64(1 << 60);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert!(matches!(
            r.f64_slice("slab"),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn torn_temp_file_from_a_killed_writer_is_ignored_and_left_alone() {
        // Crash simulation: a writer died after staging half a frame but
        // before the atomic rename. The final name still holds the previous
        // good snapshot; loading must succeed from it without touching the
        // temp, which may as well belong to a writer that is still running.
        let path = tempfile("torn.snap");
        write_frame(&path, b"good snapshot").unwrap();
        let tmp = staging_path(&path);
        let good = std::fs::read(&path).unwrap();
        let torn = &good[..good.len() / 2];
        std::fs::write(&tmp, torn).unwrap();

        assert_eq!(read_frame(&path).unwrap(), b"good snapshot");
        assert!(
            tmp.exists(),
            "read_frame must leave the staging file in place"
        );
        assert_eq!(std::fs::read(&tmp).unwrap(), torn, "or modify it");

        // The next save of the same path reuses the temp and renames it
        // away: nothing piles up.
        write_frame(&path, b"next snapshot").unwrap();
        assert!(!tmp.exists(), "a save leaves no staging file behind");
        assert_eq!(read_frame(&path).unwrap(), b"next snapshot");
    }

    #[test]
    fn torn_temp_without_a_final_snapshot_is_not_promoted() {
        // Crash simulation: the very first checkpoint died mid-stage. There
        // is nothing valid to load — the torn temp must never be read as a
        // snapshot, nor deleted by the read.
        let path = tempfile("firstcrash.snap");
        let _ = std::fs::remove_file(&path);
        let tmp = staging_path(&path);
        std::fs::write(&tmp, &MAGIC[..4]).unwrap();

        assert!(matches!(read_frame(&path), Err(SnapshotError::Io(_))));
        assert!(
            tmp.exists(),
            "read_frame must leave the staging file in place"
        );

        write_frame(&path, b"first snapshot").unwrap();
        assert!(!tmp.exists(), "a save leaves no staging file behind");
        assert_eq!(read_frame(&path).unwrap(), b"first snapshot");
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        // Seed 0. The 43-byte sentence runs one 32-byte stripe through the
        // four lanes, then an 8-byte word and three single bytes.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
    }
}
