//! Local Array Files.
//!
//! A LAF (§2.3) is the disk-resident image of one processor's out-of-core
//! local array. This module adds element typing on top of the byte-level
//! [`LogicalDisk`]: element runs are expressed in element units and
//! converted to byte runs; payloads move as `f32` vectors, which is what
//! the compute kernels and message payloads use.

use serde::{Deserialize, Serialize};

use crate::disk::{FileId, LogicalDisk};
use crate::error::{IoError, Result};
use crate::request::ByteRun;
use crate::sieve::SievePolicy;
use crate::IoCharge;

/// Element type stored in a local array file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemKind {
    /// 32-bit IEEE float — HPF `real`, the paper's element type.
    F32,
}

impl ElemKind {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            ElemKind::F32 => 4,
        }
    }
}

/// An element run: `len` consecutive elements starting at element `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElemRun {
    /// First element index.
    pub offset: u64,
    /// Number of elements.
    pub len: u64,
}

impl ElemRun {
    /// Construct a run in element units.
    pub fn new(offset: u64, len: u64) -> Self {
        ElemRun { offset, len }
    }

    fn to_bytes(self, elem: ElemKind) -> ByteRun {
        let s = elem.size() as u64;
        ByteRun::new(self.offset * s, self.len * s)
    }
}

/// Typed handle to one local array file on a processor's logical disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalArrayFile {
    file: FileId,
    elem: ElemKind,
    len_elems: u64,
}

impl LocalArrayFile {
    /// Allocate a LAF of `len_elems` elements on `disk`.
    pub fn create(disk: &mut LogicalDisk, elem: ElemKind, len_elems: u64) -> Result<Self> {
        // An unchecked product would wrap to a tiny file in release builds.
        let bytes = len_elems
            .checked_mul(elem.size() as u64)
            .ok_or(IoError::TooLarge {
                len: len_elems,
                elem: elem.size(),
            })?;
        let file = disk.create_file(bytes)?;
        Ok(LocalArrayFile {
            file,
            elem,
            len_elems,
        })
    }

    /// Number of elements in the file.
    pub fn len(&self) -> u64 {
        self.len_elems
    }

    /// True when the file holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len_elems == 0
    }

    /// Element kind.
    pub fn elem(&self) -> ElemKind {
        self.elem
    }

    /// Underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Read element `runs`, one request per coalesced run: a
    /// [`LogicalDisk::read`] in element units.
    pub fn read_f32(
        &self,
        disk: &mut LogicalDisk,
        runs: &[ElemRun],
        charge: &dyn IoCharge,
    ) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        let byte_runs = runs.iter().map(|r| r.to_bytes(self.elem));
        disk.read(self.file, byte_runs, &mut out, charge, SievePolicy::Direct)?;
        Ok(out)
    }

    /// Write `data` to element `runs` (total run length must equal
    /// `data.len()`): a [`LogicalDisk::write`] in element units.
    pub fn write_f32(
        &self,
        disk: &mut LogicalDisk,
        runs: &[ElemRun],
        data: &[f32],
        charge: &dyn IoCharge,
    ) -> Result<()> {
        let byte_runs = runs.iter().map(|r| r.to_bytes(self.elem));
        disk.write(self.file, byte_runs, data, charge, SievePolicy::Direct)?;
        Ok(())
    }
}

/// Reinterpret little-endian bytes as `f32`s — the codec of the
/// array-export file format.
pub fn bytes_to_f32(bytes: &[u8]) -> Result<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(IoError::BadElementSize {
            bytes: bytes.len(),
            elem: 4,
        });
    }
    let mut out = vec![0.0f32; bytes.len() / 4];
    crate::backend::decode_f32(bytes, &mut out);
    Ok(out)
}

/// Serialize `f32`s as little-endian bytes; inverse of [`bytes_to_f32`].
pub fn f32_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; data.len() * 4];
    crate::backend::encode_f32(data, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoCharge;

    #[test]
    fn f32_roundtrip_through_file() {
        let mut disk = LogicalDisk::in_memory();
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, 8).unwrap();
        let data = [1.0f32, -2.5, 3.25, f32::MIN_POSITIVE];
        laf.write_f32(&mut disk, &[ElemRun::new(2, 4)], &data, &NoCharge)
            .unwrap();
        let got = laf
            .read_f32(&mut disk, &[ElemRun::new(2, 4)], &NoCharge)
            .unwrap();
        assert_eq!(got, data);
        // Untouched elements are zero.
        let all = laf
            .read_f32(&mut disk, &[ElemRun::new(0, 8)], &NoCharge)
            .unwrap();
        assert_eq!(all[0], 0.0);
        assert_eq!(all[7], 0.0);
    }

    #[test]
    fn strided_element_runs_map_to_byte_runs() {
        let mut disk = LogicalDisk::in_memory();
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, 16).unwrap();
        laf.write_f32(
            &mut disk,
            &[ElemRun::new(0, 16)],
            &(0..16).map(|i| i as f32).collect::<Vec<_>>(),
            &NoCharge,
        )
        .unwrap();
        // Read elements 0..2 and 8..10 — two separate requests.
        let before = disk.stats().read_requests;
        let got = laf
            .read_f32(
                &mut disk,
                &[ElemRun::new(0, 2), ElemRun::new(8, 2)],
                &NoCharge,
            )
            .unwrap();
        assert_eq!(got, vec![0.0, 1.0, 8.0, 9.0]);
        assert_eq!(disk.stats().read_requests - before, 2);
    }

    #[test]
    fn adjacent_element_runs_become_one_request() {
        let mut disk = LogicalDisk::in_memory();
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, 16).unwrap();
        let before = disk.stats().read_requests;
        let _ = laf
            .read_f32(
                &mut disk,
                &[ElemRun::new(0, 4), ElemRun::new(4, 4)],
                &NoCharge,
            )
            .unwrap();
        assert_eq!(disk.stats().read_requests - before, 1);
    }

    #[test]
    fn bytes_f32_conversions() {
        let v = vec![0.5f32, -1.0, 1e30];
        let b = f32_to_bytes(&v);
        assert_eq!(bytes_to_f32(&b).unwrap(), v);
        assert!(matches!(
            bytes_to_f32(&[1, 2, 3]),
            Err(IoError::BadElementSize { .. })
        ));
    }

    #[test]
    fn f32_byte_round_trip_is_bit_exact_for_odd_values() {
        let bits = [
            0x7fc0_0000u32, // quiet NaN
            0x7fa0_1234,    // signalling NaN with a payload
            0xffc0_0001,    // negative NaN with a payload
            0x8000_0000,    // -0.0
            0x0000_0001,    // smallest subnormal
            0x807f_ffff,    // largest negative subnormal
            0x7f80_0000,    // +inf
        ];
        let v: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let b = f32_to_bytes(&v);
        assert_eq!(b.len(), 4 * v.len());
        assert_eq!(&b[12..16], &[0, 0, 0, 0x80], "little-endian -0.0");
        let back: Vec<u32> = bytes_to_f32(&b)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(back, bits);
        assert!(bytes_to_f32(&[]).unwrap().is_empty());
        for bad in [1, 2, 3, 5, 7] {
            assert!(matches!(
                bytes_to_f32(&vec![0u8; bad]),
                Err(IoError::BadElementSize { bytes, elem: 4 }) if bytes == bad
            ));
        }
    }

    #[test]
    fn a_length_whose_byte_size_overflows_is_a_typed_error() {
        let mut disk = LogicalDisk::in_memory();
        // 2^62 + 1 four-byte elements: the unchecked product wraps to 4 bytes.
        let len = (1u64 << 62) + 1;
        let err = LocalArrayFile::create(&mut disk, ElemKind::F32, len).unwrap_err();
        assert!(
            matches!(err, IoError::TooLarge { len: l, elem: 4 } if l == len),
            "{err:?}"
        );
        assert!(err.to_string().contains("too large"), "{err}");
        // The disk is still usable.
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, 4).unwrap();
        assert_eq!(disk.file_len(laf.file_id()).unwrap(), 16);
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemKind::F32.size(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match run total")]
    fn full_write_checks_length() {
        let mut disk = LogicalDisk::in_memory();
        let laf = LocalArrayFile::create(&mut disk, ElemKind::F32, 4).unwrap();
        laf.write_f32(&mut disk, &[ElemRun::new(0, 4)], &[0.0; 3], &NoCharge)
            .unwrap();
    }
}
