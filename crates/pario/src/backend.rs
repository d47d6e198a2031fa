//! Storage backends for logical disks.
//!
//! [`MemBackend`] keeps file contents in memory — fast and hermetic, the
//! default for tests and benchmark sweeps. [`DiskBackend`] stores each file
//! as a real file under a private scratch directory, demonstrating the
//! system against an actual filesystem; the scratch directory is removed on
//! drop.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{IoError, Result};

/// Abstract byte store addressed by `(file id, byte offset)`.
///
/// Files are created with a fixed size and are dense (zero-filled). This
/// mirrors a local array file, whose size is known from the out-of-core
/// local array's shape at allocation time.
pub trait StorageBackend: Send {
    /// Create file `id` with `len` zero bytes. `id` must be fresh.
    fn create(&mut self, id: u64, len: u64) -> Result<()>;
    /// Length of file `id` in bytes.
    fn len(&self, id: u64) -> Result<u64>;
    /// Read `buf.len()` bytes starting at `offset`.
    fn read_at(&mut self, id: u64, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Read `out.len()` little-endian `f32`s starting at byte `offset`.
    ///
    /// The default stages the bytes in a fresh buffer and decodes them.
    /// [`MemBackend`] overrides it to copy straight out of its element
    /// storage, so each element crosses memory once; [`DiskBackend`] stages
    /// through a buffer it reuses, so a read allocates nothing once it has
    /// seen one as large.
    fn read_f32_at(&mut self, id: u64, offset: u64, out: &mut [f32]) -> Result<()> {
        let mut bytes = vec![0u8; out.len() * 4];
        self.read_at(id, offset, &mut bytes)?;
        decode_f32(&bytes, out);
        Ok(())
    }
    /// Write `data` starting at `offset`.
    fn write_at(&mut self, id: u64, offset: u64, data: &[u8]) -> Result<()>;
    /// Write `data` as little-endian `f32`s starting at byte `offset`: the
    /// write twin of [`StorageBackend::read_f32_at`].
    ///
    /// The default encodes the values into a fresh buffer and writes the
    /// bytes. [`MemBackend`] overrides it to copy straight into its element
    /// storage, so each element crosses memory once; [`DiskBackend`]
    /// encodes through the buffer its reads stage in.
    fn write_f32_at(&mut self, id: u64, offset: u64, data: &[f32]) -> Result<()> {
        let mut bytes = vec![0u8; data.len() * 4];
        encode_f32(data, &mut bytes);
        self.write_at(id, offset, &bytes)
    }
    /// Remove file `id`, releasing its storage.
    fn remove(&mut self, id: u64) -> Result<()>;
    /// This backend as a [`MemBackend`], whose runs can be lent rather than
    /// copied ([`MemBackend::lend_f32`]); `None` for every other backend.
    fn as_mem(&self) -> Option<&MemBackend> {
        None
    }
}

fn check_bounds(id: u64, offset: u64, len: usize, file_len: u64) -> Result<()> {
    // `offset + len` can wrap for adversarial offsets near `u64::MAX`, which
    // would make a far-out-of-bounds access look in-bounds. Saturate instead:
    // any overflowing request is certainly past the end of the file.
    let needed = offset.saturating_add(len as u64);
    if needed > file_len {
        Err(IoError::OutOfBounds {
            file: id,
            needed,
            len: file_len,
        })
    } else {
        Ok(())
    }
}

/// Decode little-endian `f32`s from `bytes` into `out` (equal element
/// counts). One zip the compiler vectorizes; [`encode_f32`] is its inverse.
pub(crate) fn decode_f32(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), out.len() * 4);
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Encode `data` as little-endian `f32`s into `out` (equal element counts).
pub(crate) fn encode_f32(data: &[f32], out: &mut [u8]) {
    debug_assert_eq!(out.len(), data.len() * 4);
    for (c, v) in out.chunks_exact_mut(4).zip(data) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

/// In-memory backend. Each file keeps its bytes as the `f32`s they encode
/// (little-endian, the last one zero-padded), so its storage is 4-byte
/// aligned: any element-aligned run of a file can be lent out as a slice
/// ([`MemBackend::lend_f32`]) instead of copied, on any host.
#[derive(Debug, Default)]
pub struct MemBackend {
    files: HashMap<u64, MemFile>,
}

/// One in-memory file: `len` bytes held in `ceil(len / 4)` elements.
#[derive(Debug)]
struct MemFile {
    elems: Vec<f32>,
    len: u64,
}

impl MemFile {
    fn byte(&self, at: usize) -> u8 {
        self.elems[at / 4].to_le_bytes()[at % 4]
    }

    fn set_byte(&mut self, at: usize, value: u8) {
        let elem = &mut self.elems[at / 4];
        let mut bytes = elem.to_le_bytes();
        bytes[at % 4] = value;
        *elem = f32::from_le_bytes(bytes);
    }
}

/// The element range of the byte range `[offset, offset + len)` when both
/// ends fall on element boundaries.
fn elem_range(offset: u64, len: usize) -> Option<std::ops::Range<usize>> {
    let start = offset as usize;
    (start.is_multiple_of(4) && len.is_multiple_of(4)).then(|| start / 4..(start + len) / 4)
}

impl MemBackend {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn file(&self, id: u64) -> Result<&MemFile> {
        self.files.get(&id).ok_or(IoError::NoSuchFile { file: id })
    }

    /// The `n` `f32`s at byte `offset` of file `id`, lent straight out of
    /// storage: the same values, errors and bounds checks as
    /// [`StorageBackend::read_f32_at`], without the copy. `offset` must be
    /// a multiple of 4.
    pub fn lend_f32(&self, id: u64, offset: u64, n: usize) -> Result<&[f32]> {
        assert!(
            offset.is_multiple_of(4),
            "only element-aligned runs can be lent"
        );
        let file = self.file(id)?;
        check_bounds(id, offset, n.saturating_mul(4), file.len)?;
        let start = offset as usize / 4;
        Ok(&file.elems[start..start + n])
    }
}

impl StorageBackend for MemBackend {
    fn create(&mut self, id: u64, len: u64) -> Result<()> {
        assert!(
            !self.files.contains_key(&id),
            "file id {id} created twice on one disk"
        );
        // A length the allocator cannot satisfy is a typed error, not a
        // process abort.
        let too_large = || IoError::TooLarge { len, elem: 1 };
        let elems = usize::try_from(len.div_ceil(4)).map_err(|_| too_large())?;
        let mut file = Vec::new();
        file.try_reserve_exact(elems).map_err(|_| too_large())?;
        file.resize(elems, 0.0);
        self.files.insert(id, MemFile { elems: file, len });
        Ok(())
    }

    fn len(&self, id: u64) -> Result<u64> {
        self.file(id).map(|f| f.len)
    }

    fn read_at(&mut self, id: u64, offset: u64, buf: &mut [u8]) -> Result<()> {
        let file = self.file(id)?;
        check_bounds(id, offset, buf.len(), file.len)?;
        match elem_range(offset, buf.len()) {
            Some(range) => encode_f32(&file.elems[range], buf),
            None => {
                for (at, b) in (offset as usize..).zip(buf.iter_mut()) {
                    *b = file.byte(at);
                }
            }
        }
        Ok(())
    }

    fn read_f32_at(&mut self, id: u64, offset: u64, out: &mut [f32]) -> Result<()> {
        let file = self.file(id)?;
        let len = out.len().saturating_mul(4);
        check_bounds(id, offset, len, file.len)?;
        match elem_range(offset, len) {
            Some(range) => out.copy_from_slice(&file.elems[range]),
            None => {
                for (at, v) in (offset as usize..).step_by(4).zip(out.iter_mut()) {
                    *v = f32::from_le_bytes(std::array::from_fn(|k| file.byte(at + k)));
                }
            }
        }
        Ok(())
    }

    fn write_at(&mut self, id: u64, offset: u64, data: &[u8]) -> Result<()> {
        let file = self
            .files
            .get_mut(&id)
            .ok_or(IoError::NoSuchFile { file: id })?;
        check_bounds(id, offset, data.len(), file.len)?;
        match elem_range(offset, data.len()) {
            Some(range) => decode_f32(data, &mut file.elems[range]),
            None => {
                for (at, &b) in (offset as usize..).zip(data) {
                    file.set_byte(at, b);
                }
            }
        }
        Ok(())
    }

    fn write_f32_at(&mut self, id: u64, offset: u64, data: &[f32]) -> Result<()> {
        let file = self
            .files
            .get_mut(&id)
            .ok_or(IoError::NoSuchFile { file: id })?;
        let len = data.len().saturating_mul(4);
        check_bounds(id, offset, len, file.len)?;
        match elem_range(offset, len) {
            Some(range) => file.elems[range].copy_from_slice(data),
            None => {
                let bytes = data.iter().flat_map(|v| v.to_le_bytes());
                for (at, b) in (offset as usize..).zip(bytes) {
                    file.set_byte(at, b);
                }
            }
        }
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<()> {
        self.files
            .remove(&id)
            .map(|_| ())
            .ok_or(IoError::NoSuchFile { file: id })
    }

    fn as_mem(&self) -> Option<&MemBackend> {
        Some(self)
    }
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// On-disk backend: one real file per file id under a private scratch
/// directory in the system temp dir. The directory is deleted when the
/// backend is dropped.
#[derive(Debug)]
pub struct DiskBackend {
    dir: PathBuf,
    files: HashMap<u64, (fs::File, u64)>,
    /// Bytes of the last `f32` read or write, reused so one allocates only
    /// when it is larger than every one before it.
    staged: Vec<u8>,
}

impl DiskBackend {
    /// Create a fresh scratch directory named after the process, a global
    /// counter and a label (e.g. the processor rank).
    pub fn new(label: &str) -> Result<Self> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pario-{}-{}-{}", std::process::id(), n, label));
        fs::create_dir_all(&dir)?;
        Ok(DiskBackend {
            dir,
            files: HashMap::new(),
            staged: Vec::new(),
        })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("laf-{id}.bin"))
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        self.files.clear(); // close handles before unlinking
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl StorageBackend for DiskBackend {
    fn create(&mut self, id: u64, len: u64) -> Result<()> {
        assert!(
            !self.files.contains_key(&id),
            "file id {id} created twice on one disk"
        );
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.path(id))?;
        file.set_len(len)?;
        self.files.insert(id, (file, len));
        Ok(())
    }

    fn len(&self, id: u64) -> Result<u64> {
        self.files
            .get(&id)
            .map(|(_, len)| *len)
            .ok_or(IoError::NoSuchFile { file: id })
    }

    fn read_at(&mut self, id: u64, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let (file, len) = self
            .files
            .get(&id)
            .ok_or(IoError::NoSuchFile { file: id })?;
        check_bounds(id, offset, buf.len(), *len)?;
        file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn read_f32_at(&mut self, id: u64, offset: u64, out: &mut [f32]) -> Result<()> {
        let len = out.len().saturating_mul(4);
        // Bounds first, so a bad request never sizes the staging buffer.
        check_bounds(id, offset, len, self.len(id)?)?;
        let mut bytes = std::mem::take(&mut self.staged);
        bytes.resize(len, 0);
        let read = self.read_at(id, offset, &mut bytes);
        if read.is_ok() {
            decode_f32(&bytes, out);
        }
        self.staged = bytes;
        read
    }

    fn write_at(&mut self, id: u64, offset: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let (file, len) = self
            .files
            .get(&id)
            .ok_or(IoError::NoSuchFile { file: id })?;
        check_bounds(id, offset, data.len(), *len)?;
        file.write_all_at(data, offset)?;
        Ok(())
    }

    fn write_f32_at(&mut self, id: u64, offset: u64, data: &[f32]) -> Result<()> {
        let len = data.len().saturating_mul(4);
        // Bounds first, so a bad request never sizes the staging buffer.
        check_bounds(id, offset, len, self.len(id)?)?;
        let mut bytes = std::mem::take(&mut self.staged);
        bytes.resize(len, 0);
        encode_f32(data, &mut bytes);
        let written = self.write_at(id, offset, &bytes);
        self.staged = bytes;
        written
    }

    fn remove(&mut self, id: u64) -> Result<()> {
        self.files
            .remove(&id)
            .ok_or(IoError::NoSuchFile { file: id })?;
        fs::remove_file(self.path(id))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &mut dyn StorageBackend) {
        backend.create(1, 16).unwrap();
        assert_eq!(backend.len(1).unwrap(), 16);

        // Fresh files read as zeros.
        let mut buf = [0xFFu8; 4];
        backend.read_at(1, 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);

        backend.write_at(1, 4, &[1, 2, 3, 4]).unwrap();
        backend.read_at(1, 2, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 1, 2]);

        // Bounds are enforced.
        assert!(matches!(
            backend.read_at(1, 14, &mut buf),
            Err(IoError::OutOfBounds { .. })
        ));
        assert!(matches!(
            backend.write_at(1, 13, &[0; 4]),
            Err(IoError::OutOfBounds { .. })
        ));
        // Offsets near u64::MAX must not wrap around into bounds.
        assert!(matches!(
            backend.read_at(1, u64::MAX - 2, &mut buf),
            Err(IoError::OutOfBounds { .. })
        ));
        assert!(matches!(
            backend.write_at(1, u64::MAX - 2, &[0; 4]),
            Err(IoError::OutOfBounds { .. })
        ));
        assert!(matches!(
            backend.len(42),
            Err(IoError::NoSuchFile { file: 42 })
        ));

        backend.remove(1).unwrap();
        assert!(matches!(backend.len(1), Err(IoError::NoSuchFile { .. })));
    }

    #[test]
    fn mem_backend_semantics() {
        exercise(&mut MemBackend::new());
    }

    #[test]
    fn disk_backend_semantics() {
        exercise(&mut DiskBackend::new("test").unwrap());
    }

    #[test]
    fn an_unallocatable_mem_file_is_a_typed_error_not_an_abort() {
        let mut mem = MemBackend::new();
        // Past `isize::MAX`, and within it but beyond any address space.
        for len in [u64::MAX, 1 << 60] {
            let err = mem.create(1, len).unwrap_err();
            assert!(
                matches!(err, IoError::TooLarge { len: l, elem: 1 } if l == len),
                "{err:?}"
            );
            assert!(matches!(mem.len(1), Err(IoError::NoSuchFile { file: 1 })));
        }
        mem.create(1, 8).unwrap();
        assert_eq!(mem.len(1).unwrap(), 8);
    }

    #[test]
    fn f32_reads_decode_little_endian_on_both_backends() {
        let mut mem = MemBackend::new();
        let mut disk = DiskBackend::new("f32").unwrap();
        let bytes: Vec<u8> = [1.5f32, -0.0, f32::from_bits(0x7fa0_1234)]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        for backend in [&mut mem as &mut dyn StorageBackend, &mut disk] {
            backend.create(3, 16).unwrap();
            backend.write_at(3, 2, &bytes).unwrap();
            let mut out = [0.0f32; 3];
            backend.read_f32_at(3, 2, &mut out).unwrap();
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, [0x3fc0_0000, 0x8000_0000, 0x7fa0_1234]);
            assert!(matches!(
                backend.read_f32_at(3, 8, &mut out),
                Err(IoError::OutOfBounds { needed: 20, .. })
            ));
            assert!(matches!(
                backend.read_f32_at(4, 0, &mut out),
                Err(IoError::NoSuchFile { file: 4 })
            ));
        }
    }

    #[test]
    fn f32_writes_encode_little_endian_on_every_backend() {
        /// A backend that keeps only the trait's default `write_f32_at`.
        struct Bytes(MemBackend);
        impl StorageBackend for Bytes {
            fn create(&mut self, id: u64, len: u64) -> Result<()> {
                self.0.create(id, len)
            }
            fn len(&self, id: u64) -> Result<u64> {
                self.0.len(id)
            }
            fn read_at(&mut self, id: u64, offset: u64, buf: &mut [u8]) -> Result<()> {
                self.0.read_at(id, offset, buf)
            }
            fn write_at(&mut self, id: u64, offset: u64, data: &[u8]) -> Result<()> {
                self.0.write_at(id, offset, data)
            }
            fn remove(&mut self, id: u64) -> Result<()> {
                self.0.remove(id)
            }
        }
        let vals = [1.5f32, -0.0, f32::from_bits(0x7fa0_1234)];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut mem = MemBackend::new();
        let mut disk = DiskBackend::new("f32w").unwrap();
        let mut default = Bytes(MemBackend::new());
        for backend in [&mut mem as &mut dyn StorageBackend, &mut disk, &mut default] {
            // Aligned and unaligned runs, the last into a zero-padded tail.
            backend.create(3, 15).unwrap();
            for offset in [0, 2, 3] {
                backend.write_f32_at(3, offset, &vals).unwrap();
                let mut got = vec![0u8; 12];
                backend.read_at(3, offset, &mut got).unwrap();
                assert_eq!(got, bytes, "offset {offset}");
            }
            assert!(matches!(
                backend.write_f32_at(3, 8, &vals),
                Err(IoError::OutOfBounds { needed: 20, .. })
            ));
            assert!(matches!(
                backend.write_f32_at(4, 0, &vals),
                Err(IoError::NoSuchFile { file: 4 })
            ));
        }
    }

    #[test]
    fn mem_lends_runs_of_the_files_own_storage() {
        let mut mem = MemBackend::new();
        mem.create(5, 30).unwrap();
        let data: Vec<f32> = (0..7).map(|i| i as f32 - 2.5).collect();
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.write_at(5, 0, &bytes[..28]).unwrap();
        let lent = mem.lend_f32(5, 8, 4).unwrap();
        assert_eq!(lent, &data[2..6]);
        let storage = mem.files[&5].elems.as_ptr_range();
        assert!(storage.contains(&lent.as_ptr()), "a lent run is a copy");
        assert_eq!(lent.as_ptr(), mem.files[&5].elems[2..].as_ptr());
        // The same errors as the copying read, past the end (30 bytes hold
        // 7 whole elements) and on a missing file.
        let mut out = [0.0f32; 2];
        for (id, offset) in [(5, 24), (6, 0)] {
            let copied = mem.read_f32_at(id, offset, &mut out).unwrap_err();
            let lent = mem.lend_f32(id, offset, 2).unwrap_err();
            assert_eq!(format!("{lent:?}"), format!("{copied:?}"));
        }
    }

    #[test]
    fn mem_byte_access_at_any_alignment_round_trips() {
        // Bytes at odd offsets and lengths straddle element boundaries and
        // the zero-padded tail of a length that is not a whole element.
        let mut mem = MemBackend::new();
        mem.create(1, 11).unwrap();
        mem.write_at(1, 1, &[1, 2, 3, 4, 5, 6, 7]).unwrap();
        mem.write_at(1, 10, &[9]).unwrap();
        let mut all = [0u8; 11];
        mem.read_at(1, 0, &mut all).unwrap();
        assert_eq!(all, [0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 9]);
        let mut mid = [0u8; 5];
        mem.read_at(1, 3, &mut mid).unwrap();
        assert_eq!(mid, [3, 4, 5, 6, 7]);
        let mut one = [0.0f32];
        mem.read_f32_at(1, 1, &mut one).unwrap();
        assert_eq!(one[0].to_bits(), u32::from_le_bytes([1, 2, 3, 4]));
        assert!(matches!(
            mem.read_f32_at(1, 8, &mut one),
            Err(IoError::OutOfBounds {
                needed: 12,
                len: 11,
                ..
            })
        ));
    }

    #[test]
    fn disk_backend_cleans_up_scratch_dir() {
        let dir;
        {
            let mut b = DiskBackend::new("cleanup").unwrap();
            b.create(7, 128).unwrap();
            dir = b.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "scratch dir should be removed on drop");
    }

    #[test]
    fn backends_agree_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut mem = MemBackend::new();
        let mut disk = DiskBackend::new("fuzz").unwrap();
        let len = 1024u64;
        mem.create(0, len).unwrap();
        disk.create(0, len).unwrap();
        for _ in 0..200 {
            let off = rng.gen_range(0..len - 32);
            let n = rng.gen_range(1..32usize);
            if rng.gen_bool(0.5) {
                let data: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
                mem.write_at(0, off, &data).unwrap();
                disk.write_at(0, off, &data).unwrap();
            } else {
                let mut a = vec![0u8; n];
                let mut b = vec![0u8; n];
                mem.read_at(0, off, &mut a).unwrap();
                disk.read_at(0, off, &mut b).unwrap();
                assert_eq!(a, b);
            }
        }
    }
}
