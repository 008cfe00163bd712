//! Trace recording and replay.
//!
//! Section 2 of the paper opens with the classic defense of trace-driven
//! simulation — "precise repeatability using an accurate representation
//! of a real workload" — before conceding that paging studies need traces
//! too long to "obtain, store, and simulate". This module makes the
//! storage half cheap: a recorded trace stores ~3–5 bytes per reference
//! (delta-encoded block numbers + a 2-bit kind), so even a 10⁸-reference
//! run fits comfortably in memory or on disk, and replay is allocation-
//! free.
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic "SPURTRC1" | u64 count | records...
//! record: 1 control byte [kind:2 | pid_delta:1 | addr_mode:2 | unused:3]
//!         (pid: u32 when pid_delta=1)
//!         addr_mode 0: same block as previous record        (0 bytes)
//!         addr_mode 1: i8 delta in blocks                   (1 byte)
//!         addr_mode 2: i32 delta in blocks                  (4 bytes)
//!         addr_mode 3: absolute u64 block number            (8 bytes)
//! ```

use spur_types::{AccessKind, Error, GlobalAddr, Result};

use crate::stream::{Pid, TraceRef};

const MAGIC: &[u8; 8] = b"SPURTRC1";

fn kind_bits(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::InstrFetch => 0,
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    }
}

fn kind_from_bits(bits: u8) -> Result<AccessKind> {
    match bits {
        0 => Ok(AccessKind::InstrFetch),
        1 => Ok(AccessKind::Read),
        2 => Ok(AccessKind::Write),
        other => Err(Error::BadWorkload(format!("bad kind bits {other}"))),
    }
}

/// An in-memory recorded trace.
///
/// ```
/// use spur_trace::record::RecordedTrace;
/// use spur_trace::workloads::slc;
///
/// let workload = slc();
/// let trace = RecordedTrace::record(workload.generator(7).take(10_000));
/// assert_eq!(trace.len(), 10_000);
///
/// // Replay is bit-identical to the original stream:
/// let original: Vec<_> = workload.generator(7).take(10_000).collect();
/// let replayed: Vec<_> = trace.iter().collect();
/// assert_eq!(original, replayed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    bytes: Vec<u8>,
    count: u64,
}

impl RecordedTrace {
    /// Records every reference from `refs`.
    pub fn record<I: IntoIterator<Item = TraceRef>>(refs: I) -> Self {
        let mut bytes = Vec::new();
        let mut count = 0u64;
        let mut last_pid = Pid(0);
        let mut last_block = 0u64;
        for r in refs {
            let block = r.addr.block().index();
            let delta = block as i64 - last_block as i64;
            let (mode, payload): (u8, &[u8]) = if count > 0 && delta == 0 {
                (0, &[])
            } else if count > 0 && (i8::MIN as i64..=i8::MAX as i64).contains(&delta) {
                (1, &(delta as i8).to_le_bytes())
            } else if count > 0 && (i32::MIN as i64..=i32::MAX as i64).contains(&delta) {
                (2, &(delta as i32).to_le_bytes())
            } else {
                (3, &block.to_le_bytes())
            };
            let pid_changed = count == 0 || r.pid != last_pid;
            let control = kind_bits(r.kind) | (u8::from(pid_changed) << 2) | (mode << 3);
            bytes.push(control);
            if pid_changed {
                bytes.extend_from_slice(&r.pid.0.to_le_bytes());
            }
            bytes.extend_from_slice(payload);
            last_pid = r.pid;
            last_block = block;
            count += 1;
        }
        RecordedTrace { bytes, count }
    }

    /// Number of recorded references.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size in bytes (excluding the serialization header).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Mean bytes per reference.
    pub fn bytes_per_ref(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.bytes.len() as f64 / self.count as f64
        }
    }

    /// Iterates over the recorded references.
    pub fn iter(&self) -> Replay<'_> {
        Replay {
            bytes: &self.bytes,
            pos: 0,
            remaining: self.count,
            pid: Pid(0),
            block: 0,
        }
    }

    /// Serializes to the versioned on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.bytes.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Writes the trace to a file in the on-disk format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a trace previously written by [`RecordedTrace::save`].
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] for file problems, or a decoding
    /// error (as `InvalidData`) for corrupt contents.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Deserializes from [`RecordedTrace::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadWorkload`] on a bad magic number, truncated
    /// header, or if the payload does not decode to exactly the declared
    /// record count — no fewer records, and no bytes left over after
    /// the last one.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        if data.len() < 16 || &data[..8] != MAGIC {
            return Err(Error::BadWorkload("not a SPUR trace".to_string()));
        }
        let count = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        let trace = RecordedTrace {
            bytes: data[16..].to_vec(),
            count,
        };
        // Validate by walking the records.
        let mut records = trace.iter();
        let n = records.by_ref().count() as u64;
        if n != count {
            return Err(Error::BadWorkload(format!(
                "trace declares {count} records but decodes {n}"
            )));
        }
        let trailing = trace.bytes.len() - records.pos;
        if trailing != 0 {
            return Err(Error::BadWorkload(format!(
                "trace has {trailing} bytes after its {count} declared records"
            )));
        }
        Ok(trace)
    }
}

/// Iterator over a [`RecordedTrace`].
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: u64,
    pid: Pid,
    block: u64,
}

impl Replay<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }
}

impl Iterator for Replay<'_> {
    type Item = TraceRef;

    fn next(&mut self) -> Option<TraceRef> {
        if self.remaining == 0 {
            return None;
        }
        let control = *self.bytes.get(self.pos)?;
        self.pos += 1;
        let kind = kind_from_bits(control & 0b11).ok()?;
        if control & 0b100 != 0 {
            let pid = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"));
            self.pid = Pid(pid);
        }
        match (control >> 3) & 0b11 {
            0 => {}
            1 => {
                let d = self.take(1)?[0] as i8;
                self.block = self.block.wrapping_add(d as i64 as u64);
            }
            2 => {
                let d = i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"));
                self.block = self.block.wrapping_add(d as i64 as u64);
            }
            _ => {
                let b = u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
                self.block = b;
            }
        }
        self.remaining -= 1;
        Some(TraceRef {
            pid: self.pid,
            addr: GlobalAddr::new((self.block << 5) & GlobalAddr::MASK),
            kind,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::slc;

    #[test]
    fn round_trips_a_generated_stream() {
        let w = slc();
        let original: Vec<_> = w.generator(3).take(20_000).collect();
        let trace = RecordedTrace::record(original.iter().copied());
        assert_eq!(trace.len(), 20_000);
        let replayed: Vec<_> = trace.iter().collect();
        assert_eq!(original, replayed);
    }

    #[test]
    fn serialization_round_trips() {
        let w = slc();
        let trace = RecordedTrace::record(w.generator(9).take(5_000));
        let bytes = trace.to_bytes();
        let back = RecordedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(trace, back);
        let a: Vec<_> = trace.iter().collect();
        let b: Vec<_> = back.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn encoding_is_compact() {
        let w = slc();
        let trace = RecordedTrace::record(w.generator(5).take(50_000));
        // Naive encoding would be 13+ bytes/ref; delta encoding should
        // stay well under 6.
        assert!(
            trace.bytes_per_ref() < 6.0,
            "bytes/ref = {}",
            trace.bytes_per_ref()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(RecordedTrace::from_bytes(b"NOTATRACE_______").is_err());
        assert!(RecordedTrace::from_bytes(b"short").is_err());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let w = slc();
        let trace = RecordedTrace::record(w.generator(9).take(1_000));
        let mut bytes = trace.to_bytes();
        bytes.truncate(bytes.len() - 10);
        assert!(RecordedTrace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let w = slc();
        let trace = RecordedTrace::record(w.generator(77).take(2_000));
        let path = std::env::temp_dir().join("spur_record_unit.bin");
        trace.save(&path).unwrap();
        let back = RecordedTrace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, back);
        assert!(RecordedTrace::load("/nonexistent/definitely/missing").is_err());
    }

    #[test]
    fn empty_trace_works() {
        let trace = RecordedTrace::record(std::iter::empty());
        assert!(trace.is_empty());
        assert_eq!(trace.iter().count(), 0);
        let back = RecordedTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn size_hint_is_exact() {
        let w = slc();
        let trace = RecordedTrace::record(w.generator(1).take(123));
        let mut it = trace.iter();
        assert_eq!(it.size_hint(), (123, Some(123)));
        it.next();
        assert_eq!(it.size_hint(), (122, Some(122)));
    }
}
