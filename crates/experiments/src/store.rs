//! Compact fixed-width binary result store for population-scale runs.
//!
//! One 48-byte record per die — seed, group, flags, four f32 fingerprint
//! features, a 128-bit PUF fingerprint, and a per-record FNV-1a32
//! checksum — appended sequentially per chunk behind a 48-byte
//! FNV-checksummed header. The format is deliberately dumb: fixed
//! width, little-endian, no compression, no index — a million dies is
//! 48 MB, written append-only by the stream reducer (single thread, in
//! chunk order) and read back by a plain sequential reader, no mmap.
//!
//! The header records the **chunk size** of the run that wrote it.
//! Aggregates merged in chunk order are a fixed floating-point
//! expression tree, so a `--replay` that folds the store with the same
//! chunk structure reproduces the original aggregate block
//! bit-for-bit; the chunk size is therefore part of the data's
//! identity, not a tuning knob, and lives in the file.
//!
//! Layout (all little-endian):
//!
//! ```text
//! header, 48 bytes:
//!   0  8   magic  "FRACPOP\0"
//!   8  4   format version (1)
//!   12 4   record length (48)
//!   16 8   chunk size of the writing run
//!   24 8   base seed
//!   32 8   die count the writer planned
//!   40 8   FNV-1a64 over bytes 0..40
//! record, 48 bytes:
//!   0  8   die seed
//!   8  1   group id (0..12 → A..L)
//!   9  1   flags (bit 0: PUF fingerprint valid)
//!   10 2   reserved (0)
//!   12 16  4 × f32 fingerprint features
//!   28 16  128-bit PUF fingerprint
//!   44 4   FNV-1a32 over bytes 0..44
//! ```
//!
//! Durability model: a crash (or a deliberately truncated copy) can
//! leave a torn record at the tail. The reader validates each record's
//! checksum and stops at the first short or corrupt one, returning the
//! valid prefix — the same truncate-at-tear contract the serve WAL
//! uses.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use fracdram_model::GroupId;

/// Store format magic, version, and sizes.
pub const MAGIC: [u8; 8] = *b"FRACPOP\0";
/// Current format version.
pub const VERSION: u32 = 1;
/// Bytes per die record.
pub const RECORD_LEN: usize = 48;
/// Bytes in the file header.
pub const HEADER_LEN: usize = 48;

/// Record flag bit: the 128-bit PUF fingerprint is populated (clear on
/// timing-guarded groups J–L, whose chips reject fractional commands).
pub const FLAG_PUF_VALID: u8 = 1;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV32_OFFSET: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;

/// FNV-1a64 over a byte slice (header checksum, whole-store digest and
/// the serve WAL's entry checksums).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_step(FNV64_OFFSET, bytes)
}

/// Continues an FNV-1a64 hash from `hash` over `bytes` (streamed
/// digests start from the offset basis).
fn fnv1a64_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// FNV-1a32 over a byte slice (per-record checksum).
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash = FNV32_OFFSET;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(FNV32_PRIME);
    }
    hash
}

/// The store header: run parameters that are part of the data's
/// identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreHeader {
    /// Chunk size of the run that wrote the store (replay folds with
    /// the same chunk structure to reproduce aggregates bit-for-bit).
    pub chunk: u64,
    /// Base seed of the writing run.
    pub base_seed: u64,
    /// Die count the writer planned (the readable record count can be
    /// smaller after a torn tail).
    pub dies: u64,
}

impl StoreHeader {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        buf[16..24].copy_from_slice(&self.chunk.to_le_bytes());
        buf[24..32].copy_from_slice(&self.base_seed.to_le_bytes());
        buf[32..40].copy_from_slice(&self.dies.to_le_bytes());
        let checksum = fnv1a64(&buf[0..40]);
        buf[40..48].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; HEADER_LEN]) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if buf[0..8] != MAGIC {
            return Err(bad("not a FRACPOP store (bad magic)"));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(bad(&format!("unsupported store version {version}")));
        }
        let record_len = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        if record_len as usize != RECORD_LEN {
            return Err(bad(&format!("unsupported record length {record_len}")));
        }
        let checksum = u64::from_le_bytes(buf[40..48].try_into().unwrap());
        if checksum != fnv1a64(&buf[0..40]) {
            return Err(bad("store header checksum mismatch"));
        }
        Ok(StoreHeader {
            chunk: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            base_seed: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
            dies: u64::from_le_bytes(buf[32..40].try_into().unwrap()),
        })
    }
}

/// One die's stored fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieRecord {
    /// The die's private seed ([`crate::fleet::item_seed`] of its
    /// global index).
    pub seed: u64,
    /// Vendor/profile group the die was simulated as.
    pub group: GroupId,
    /// Record flags ([`FLAG_PUF_VALID`]).
    pub flags: u8,
    /// Fingerprint features: [PUF Hamming weight, cross-challenge HD,
    /// retention fail fraction @30 min, @4 h].
    pub features: [f32; 4],
    /// 128-bit Frac-PUF fingerprint (zero when not [`FLAG_PUF_VALID`]).
    pub fingerprint: [u8; 16],
}

impl DieRecord {
    /// Whether the PUF fingerprint bytes are meaningful.
    pub fn puf_valid(&self) -> bool {
        self.flags & FLAG_PUF_VALID != 0
    }

    fn encode(&self) -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        buf[0..8].copy_from_slice(&self.seed.to_le_bytes());
        buf[8] = self.group as u8;
        buf[9] = self.flags;
        for (i, f) in self.features.iter().enumerate() {
            buf[12 + i * 4..16 + i * 4].copy_from_slice(&f.to_le_bytes());
        }
        buf[28..44].copy_from_slice(&self.fingerprint);
        let checksum = fnv1a32(&buf[0..44]);
        buf[44..48].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; RECORD_LEN]) -> Option<Self> {
        let checksum = u32::from_le_bytes(buf[44..48].try_into().unwrap());
        if checksum != fnv1a32(&buf[0..44]) {
            return None;
        }
        let group = *GroupId::ALL.get(buf[8] as usize)?;
        let mut features = [0f32; 4];
        for (i, f) in features.iter_mut().enumerate() {
            *f = f32::from_le_bytes(buf[12 + i * 4..16 + i * 4].try_into().unwrap());
        }
        let mut fingerprint = [0u8; 16];
        fingerprint.copy_from_slice(&buf[28..44]);
        Some(DieRecord {
            seed: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            group,
            flags: buf[9],
            features,
            fingerprint,
        })
    }
}

/// Append-only store writer. Records are buffered through a
/// `BufWriter`; the stream reducer calls [`StoreWriter::append_chunk`]
/// once per chunk, in chunk order, so the file's record order is the
/// global die order by construction.
#[derive(Debug)]
pub struct StoreWriter {
    file: BufWriter<File>,
    digest: u64,
    written: u64,
}

impl StoreWriter {
    /// Creates the store file and writes its header.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn create(path: &Path, header: StoreHeader) -> io::Result<Self> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&header.encode())?;
        Ok(StoreWriter {
            file,
            digest: FNV64_OFFSET,
            written: 0,
        })
    }

    /// Appends one chunk's records.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_chunk(&mut self, records: &[DieRecord]) -> io::Result<()> {
        for record in records {
            let buf = record.encode();
            self.digest = fnv1a64_step(self.digest, &buf);
            self.file.write_all(&buf)?;
        }
        self.written += records.len() as u64;
        Ok(())
    }

    /// Flushes and closes the store, returning `(records written,
    /// FNV-1a64 digest over all record bytes)`. The digest is what the
    /// CI smoke compares across job counts.
    ///
    /// # Errors
    ///
    /// Propagates the final flush error.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.file.flush()?;
        Ok((self.written, self.digest))
    }
}

/// Sequential store reader: header up front, then records in file
/// order, stopping cleanly at a torn tail.
#[derive(Debug)]
pub struct StoreReader {
    file: BufReader<File>,
    header: StoreHeader,
    digest: u64,
    read: u64,
    torn: bool,
}

impl StoreReader {
    /// Opens a store and validates its header.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` on a bad magic/version/checksum.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = BufReader::new(File::open(path)?);
        let mut buf = [0u8; HEADER_LEN];
        file.read_exact(&mut buf)?;
        let header = StoreHeader::decode(&buf)?;
        Ok(StoreReader {
            file,
            header,
            digest: FNV64_OFFSET,
            read: 0,
            torn: false,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Reads the next record, or `None` at end-of-file — including a
    /// torn tail: a short or checksum-corrupt trailing record ends the
    /// stream (setting [`StoreReader::torn`]) instead of erroring, so a
    /// crash-truncated store replays its valid prefix.
    ///
    /// # Errors
    ///
    /// Propagates underlying read errors other than a clean EOF.
    pub fn next_record(&mut self) -> io::Result<Option<DieRecord>> {
        if self.torn {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_LEN];
        let mut filled = 0;
        while filled < RECORD_LEN {
            match self.file.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled > 0 {
                        self.torn = true;
                    }
                    return Ok(None);
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        match DieRecord::decode(&buf) {
            Some(record) => {
                self.digest = fnv1a64_step(self.digest, &buf);
                self.read += 1;
                Ok(Some(record))
            }
            None => {
                self.torn = true;
                Ok(None)
            }
        }
    }

    /// Records successfully read so far.
    pub fn records_read(&self) -> u64 {
        self.read
    }

    /// Whether reading stopped at a torn/corrupt tail rather than a
    /// clean end-of-file.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// FNV-1a64 digest over the record bytes read so far — matches the
    /// writer's digest after a clean full read.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> DieRecord {
        DieRecord {
            seed: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            group: GroupId::ALL[(i % 12) as usize],
            flags: u8::from(i % 12 < 9),
            features: [i as f32, 0.5, 0.25 * i as f32, -1.0],
            fingerprint: {
                let mut fp = [0u8; 16];
                fp[0..8].copy_from_slice(&i.to_le_bytes());
                fp[8..16].copy_from_slice(&(!i).to_le_bytes());
                fp
            },
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fracdram_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_preserves_records_and_digest() {
        let path = temp("round_trip.bin");
        let header = StoreHeader {
            chunk: 16,
            base_seed: 42,
            dies: 50,
        };
        let mut writer = StoreWriter::create(&path, header).unwrap();
        let records: Vec<DieRecord> = (0..50).map(record).collect();
        for chunk in records.chunks(16) {
            writer.append_chunk(chunk).unwrap();
        }
        let (written, wdigest) = writer.finish().unwrap();
        assert_eq!(written, 50);

        let mut reader = StoreReader::open(&path).unwrap();
        assert_eq!(*reader.header(), header);
        let mut got = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, records);
        assert!(!reader.torn());
        assert_eq!(reader.records_read(), 50);
        assert_eq!(reader.digest(), wdigest, "reader digest must match writer");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_to_the_valid_prefix() {
        let path = temp("torn.bin");
        let header = StoreHeader {
            chunk: 8,
            base_seed: 7,
            dies: 10,
        };
        let mut writer = StoreWriter::create(&path, header).unwrap();
        writer
            .append_chunk(&(0..10).map(record).collect::<Vec<_>>())
            .unwrap();
        writer.finish().unwrap();
        // Tear the file mid-record: 7 full records plus 20 stray bytes.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..HEADER_LEN + 7 * RECORD_LEN + 20]).unwrap();

        let mut reader = StoreReader::open(&path).unwrap();
        let mut got = 0;
        while let Some(r) = reader.next_record().unwrap() {
            assert_eq!(r, record(got));
            got += 1;
        }
        assert_eq!(got, 7, "only the intact prefix is readable");
        assert!(reader.torn());
        // A torn reader stays ended.
        assert!(reader.next_record().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_checksum_ends_the_stream() {
        let path = temp("corrupt.bin");
        let header = StoreHeader {
            chunk: 8,
            base_seed: 7,
            dies: 5,
        };
        let mut writer = StoreWriter::create(&path, header).unwrap();
        writer
            .append_chunk(&(0..5).map(record).collect::<Vec<_>>())
            .unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the third record's feature area.
        bytes[HEADER_LEN + 2 * RECORD_LEN + 13] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut reader = StoreReader::open(&path).unwrap();
        let mut got = 0;
        while reader.next_record().unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 2);
        assert!(reader.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_is_an_error() {
        let path = temp("bad_header.bin");
        let header = StoreHeader {
            chunk: 8,
            base_seed: 7,
            dies: 0,
        };
        let writer = StoreWriter::create(&path, header).unwrap();
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 1; // chunk-size field, invalidates the checksum
        std::fs::write(&path, &bytes).unwrap();
        let err = StoreReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Wrong magic is named as such.
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = StoreReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_encoding_is_48_bytes_and_stable() {
        let r = record(3);
        let buf = r.encode();
        assert_eq!(buf.len(), RECORD_LEN);
        assert_eq!(DieRecord::decode(&buf), Some(r));
        assert_eq!(&buf[10..12], &[0, 0], "reserved bytes stay zero");
    }
}
