//! Compact binary trace format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! "ELCW"                magic, 4 bytes
//! u8                    version (currently 2)
//! varint                students
//! u64 LE (8 bytes)      peak rate, f64 bits
//! varint                stream count
//!   per stream:
//!     varint            rate sample count
//!     per sample:
//!       varint          time delta vs previous sample (first = absolute)
//!       u64 LE          rate, f64 bits
//! ```
//!
//! Times are delta-encoded against the previous sample in the same
//! stream — recorded streams are sorted ascending, so deltas stay small.
//! Rate bits stay fixed-width: they are high-entropy and a varint would
//! inflate them. Version 1 also carried arrival slots and request mixes;
//! this build rejects it with [`TraceError::BadVersion`].

use std::path::Path;

use crate::trace::{RateSample, Stream, TraceError, WorkloadTrace};

/// File magic: "ELCW" — ELearn-Cloud Workload.
pub const MAGIC: [u8; 4] = *b"ELCW";
/// Current format version.
pub const VERSION: u8 = 2;

/// Serializes a trace to the binary format.
#[must_use]
pub fn to_bytes(trace: &WorkloadTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + trace.streams.len() * 64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    put_varint(&mut out, u64::from(trace.students));
    out.extend_from_slice(&trace.peak_rate_bits.to_le_bytes());
    put_varint(&mut out, trace.streams.len() as u64);
    for stream in &trace.streams {
        put_varint(&mut out, stream.rates.len() as u64);
        let mut prev = 0u64;
        for r in &stream.rates {
            put_varint(&mut out, r.t_ns.wrapping_sub(prev));
            prev = r.t_ns;
            out.extend_from_slice(&r.rate_bits.to_le_bytes());
        }
    }
    out
}

/// Deserializes a trace from the binary format and validates it.
///
/// # Errors
///
/// Returns [`TraceError`] on bad magic/version, truncation, or a
/// structurally invalid trace.
pub fn from_bytes(bytes: &[u8]) -> Result<WorkloadTrace, TraceError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = r.take(1)?[0];
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let students = u32::try_from(r.varint()?)
        .map_err(|_| TraceError::Malformed("students overflows u32".into()))?;
    let peak_rate_bits = r.u64_le()?;

    let stream_count = r.len_capped("streams")?;
    let mut streams = Vec::with_capacity(stream_count);
    for _ in 0..stream_count {
        let rate_count = r.len_capped("rates")?;
        let mut rates = Vec::with_capacity(rate_count);
        let mut prev = 0u64;
        for _ in 0..rate_count {
            prev = prev.wrapping_add(r.varint()?);
            rates.push(RateSample {
                t_ns: prev,
                rate_bits: r.u64_le()?,
            });
        }
        streams.push(Stream { rates });
    }
    if r.pos != r.bytes.len() {
        return Err(TraceError::Malformed(format!(
            "{} trailing bytes",
            r.bytes.len() - r.pos
        )));
    }
    let trace = WorkloadTrace {
        students,
        peak_rate_bits,
        streams,
    };
    trace.validate()?;
    Ok(trace)
}

/// Writes the binary form to `path`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] with the path on failure.
pub fn write_file(trace: &WorkloadTrace, path: &Path) -> Result<(), TraceError> {
    std::fs::write(path, to_bytes(trace))
        .map_err(|e| TraceError::Io(format!("write {}: {e}", path.display())))
}

/// Reads and decodes a binary trace from `path`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on read failure, or any decode error.
pub fn read_file(path: &Path) -> Result<WorkloadTrace, TraceError> {
    let bytes =
        std::fs::read(path).map_err(|e| TraceError::Io(format!("read {}: {e}", path.display())))?;
    from_bytes(&bytes)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        if end > self.bytes.len() {
            return Err(TraceError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64_le(&mut self) -> Result<u64, TraceError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(TraceError::Malformed("varint overflows u64".into()));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A varint used as an element count: capped against the remaining
    /// byte budget so a corrupt length cannot trigger a huge allocation.
    fn len_capped(&mut self, what: &str) -> Result<usize, TraceError> {
        let v = self.varint()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if v > remaining {
            return Err(TraceError::Malformed(format!(
                "{what} count {v} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::empty(25_000, 2_600.0);
        for s in 0..3u64 {
            let base = 1_000_000_000 * (s + 1);
            t.streams.push(Stream {
                rates: (0..40)
                    .map(|i| RateSample {
                        t_ns: base + i * 60_000_000_000,
                        rate_bits: (0.5 + i as f64 * 1.75).to_bits(),
                    })
                    .collect(),
            });
        }
        t
    }

    #[test]
    fn round_trip_is_exact() {
        let t = trace();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn format_is_compact() {
        let t = trace();
        let bytes = to_bytes(&t);
        // A naive fixed-width encoding needs 16 B per rate sample:
        // 3 streams × 40 × 16 = 1 920 B before the header. Delta-varint
        // times beat that even with the header.
        assert!(
            bytes.len() < 3 * 40 * 16,
            "encoding should beat fixed-width (1 920 B), got {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let t = trace();
        let bytes = to_bytes(&t);
        assert_eq!(from_bytes(b"NOPE"), Err(TraceError::BadMagic));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(from_bytes(&wrong_version), Err(TraceError::BadVersion(99)));
        for cut in [3, 5, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            from_bytes(&trailing),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_a_version_1_file() {
        // A version-1 header as the previous format wrote it, followed by
        // empty kind and mix tables and one empty stream.
        let mut bytes = MAGIC.to_vec();
        bytes.push(1);
        bytes.push(10);
        bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 1, 0, 0, 0]);
        assert_eq!(from_bytes(&bytes), Err(TraceError::BadVersion(1)));
    }

    #[test]
    fn corrupt_length_cannot_allocate_wildly() {
        // magic + version + students=1 + peak bits + stream count huge.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(1);
        bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]); // varint ~4G
        assert!(matches!(from_bytes(&bytes), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let t = trace();
        let dir = std::env::temp_dir().join("elc-wltrace-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.elcw");
        write_file(&t, &path).unwrap();
        assert_eq!(read_file(&path).unwrap(), t);
        let missing = dir.join("does-not-exist.elcw");
        assert!(matches!(read_file(&missing), Err(TraceError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
