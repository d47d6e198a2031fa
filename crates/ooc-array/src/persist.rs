//! Persistence of out-of-core arrays to ordinary files.
//!
//! §2.3 of the paper: data first arrives "from archival storage, satellite
//! or over the network" and is then (re)distributed into local array files.
//! This module is that boundary: each rank's local part is exported to (or
//! imported from) one file under a shared directory, with a small
//! self-describing header. Contents are stored in local column-major order,
//! so files are portable across file-layout choices (a re-imported array
//! may be stored with a different on-disk layout than it was exported
//! from) — but *not* across distributions or processor counts, which the
//! header checks.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::ocla::{ArrayDesc, OocEnv};
use crate::section::Section;
use pario::{bytes_to_f32, f32_to_bytes, IoError, NoCharge, SievePolicy::Direct};

const MAGIC: &str = "oochpf-laf 1";

/// File path for one rank's part of `desc` under `dir`.
pub fn rank_file(dir: &Path, desc: &ArrayDesc, rank: usize) -> PathBuf {
    dir.join(format!("{}.r{rank}.laf", desc.name))
}

fn header(desc: &ArrayDesc, rank: usize) -> String {
    let global: Vec<String> = desc
        .global_shape()
        .extents()
        .iter()
        .map(|e| e.to_string())
        .collect();
    let local: Vec<String> = desc
        .local_shape(rank)
        .extents()
        .iter()
        .map(|e| e.to_string())
        .collect();
    format!(
        "{MAGIC}\nname={} rank={rank} nprocs={} global={} local={}\n",
        desc.name,
        desc.dist.nprocs(),
        global.join("x"),
        local.join("x"),
    )
}

/// Export this rank's local part of `desc` to `dir` (created if missing).
pub fn export_array(env: &mut OocEnv, desc: &ArrayDesc, dir: &Path) -> Result<(), IoError> {
    fs::create_dir_all(dir)?;
    let rank = env.rank();
    let data = env.read_local_all(desc)?;
    let mut f = fs::File::create(rank_file(dir, desc, rank))?;
    f.write_all(header(desc, rank).as_bytes())?;
    f.write_all(&f32_to_bytes(&data))?;
    Ok(())
}

/// Import this rank's local part of `desc` from `dir`, overwriting the LAF.
/// The file's header must match the descriptor's name, rank, processor
/// count and shapes.
pub fn import_array(env: &mut OocEnv, desc: &ArrayDesc, dir: &Path) -> Result<(), IoError> {
    let rank = env.rank();
    let path = rank_file(dir, desc, rank);
    let mut f = fs::File::open(&path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;

    let expect = header(desc, rank);
    if bytes.len() < expect.len() || &bytes[..expect.len()] != expect.as_bytes() {
        let got = String::from_utf8_lossy(&bytes[..bytes.len().min(expect.len())]).into_owned();
        return Err(IoError::Backend(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{} does not match this array: expected header {expect:?}, found {got:?}",
                path.display()
            ),
        )));
    }
    let data = bytes_to_f32(&bytes[expect.len()..])?;
    let local_shape = desc.local_shape(rank);
    if data.len() != local_shape.len() {
        return Err(IoError::Backend(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: payload holds {} elements, local part needs {}",
                path.display(),
                data.len(),
                local_shape.len()
            ),
        )));
    }
    env.write_section(desc, &Section::full(&local_shape), &data, &NoCharge, Direct)
}

const CKPT_MAGIC: &str = "oochpf-ckpt 1";

/// File path for one rank's checkpoint of stage `tag` under `dir`.
pub fn checkpoint_file(dir: &Path, tag: &str, rank: usize) -> PathBuf {
    dir.join(format!("{tag}.r{rank}.ckpt"))
}

fn ckpt_header(tag: &str, rank: usize, progress: u64, elems: usize) -> String {
    format!("{CKPT_MAGIC}\ntag={tag} rank={rank} progress={progress} elems={elems}\n")
}

/// Checkpoint one section of `desc` (slab granularity) together with a
/// `progress` marker saying how far the computation has advanced. The file
/// is written to a temporary name and renamed into place, so a crash midway
/// never leaves a half-valid checkpoint — restore sees either the previous
/// complete checkpoint or none.
pub fn checkpoint_section(
    env: &mut OocEnv,
    desc: &ArrayDesc,
    section: &Section,
    dir: &Path,
    tag: &str,
    progress: u64,
) -> Result<(), IoError> {
    fs::create_dir_all(dir)?;
    let rank = env.rank();
    let data = env.read_section_uncharged(desc, section)?;
    let path = checkpoint_file(dir, tag, rank);
    let tmp = path.with_extension("ckpt.tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(ckpt_header(tag, rank, progress, data.len()).as_bytes())?;
    f.write_all(&f32_to_bytes(&data))?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    Ok(())
}

/// Restore a checkpoint written by [`checkpoint_section`], writing the
/// payload back into `section` of `desc`. Returns the saved `progress`
/// marker, or `Ok(None)` when no usable checkpoint exists (missing file or
/// header mismatch) — the caller then restarts the stage from scratch, which
/// is always safe.
pub fn restore_checkpoint(
    env: &mut OocEnv,
    desc: &ArrayDesc,
    section: &Section,
    dir: &Path,
    tag: &str,
) -> Result<Option<u64>, IoError> {
    let rank = env.rank();
    let path = checkpoint_file(dir, tag, rank);
    let mut bytes = Vec::new();
    match fs::File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut bytes).map(|_| ())?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    // Parse "magic\ntag=... rank=... progress=P elems=N\n".
    let Some(head_end) = bytes.iter().position(|&b| b == b'\n').and_then(|first| {
        bytes[first + 1..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|s| first + 1 + s + 1)
    }) else {
        return Ok(None);
    };
    let head = match std::str::from_utf8(&bytes[..head_end]) {
        Ok(h) => h,
        Err(_) => return Ok(None),
    };
    let mut lines = head.lines();
    if lines.next() != Some(CKPT_MAGIC) {
        return Ok(None);
    }
    let fields = lines.next().unwrap_or("");
    let mut progress = None;
    let mut elems = None;
    let mut tag_ok = false;
    let mut rank_ok = false;
    for field in fields.split_whitespace() {
        match field.split_once('=') {
            Some(("tag", v)) => tag_ok = v == tag,
            Some(("rank", v)) => rank_ok = v.parse::<usize>() == Ok(rank),
            Some(("progress", v)) => progress = v.parse::<u64>().ok(),
            Some(("elems", v)) => elems = v.parse::<usize>().ok(),
            _ => {}
        }
    }
    let (Some(progress), Some(elems)) = (progress, elems) else {
        return Ok(None);
    };
    if !tag_ok || !rank_ok || elems != section.len() {
        return Ok(None);
    }
    let Ok(data) = bytes_to_f32(&bytes[head_end..]) else {
        return Ok(None);
    };
    if data.len() != elems {
        return Ok(None);
    }
    env.write_section(desc, section, &data, &NoCharge, Direct)?;
    Ok(Some(progress))
}

/// Delete one rank's checkpoint of stage `tag`, if present (call once the
/// stage has committed).
pub fn remove_checkpoint(dir: &Path, tag: &str, rank: usize) -> Result<(), IoError> {
    match fs::remove_file(checkpoint_file(dir, tag, rank)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::layout::FileLayout;
    use crate::ocla::ArrayId;
    use crate::shape::Shape;
    use pario::ElemKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_N: AtomicU64 = AtomicU64::new(0);

    fn scratch() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ooc-persist-{}-{}",
            std::process::id(),
            DIR_N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn desc(layout: FileLayout) -> ArrayDesc {
        ArrayDesc::new(
            ArrayId(0),
            "x",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(8, 6), 2),
        )
        .with_layout(layout)
    }

    #[test]
    fn export_import_roundtrip_across_layouts() {
        let dir = scratch();
        // Export from a column-major env…
        let d_cm = desc(FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(1);
        env.alloc(&d_cm).unwrap();
        env.load_global(&d_cm, &|g| (g[0] * 100 + g[1]) as f32)
            .unwrap();
        export_array(&mut env, &d_cm, &dir).unwrap();
        let original = env.read_local_all(&d_cm).unwrap();

        // …import into a row-major env: contents must be identical.
        let d_rm = desc(FileLayout::row_major(2));
        let mut env2 = OocEnv::in_memory(1);
        env2.alloc(&d_rm).unwrap();
        import_array(&mut env2, &d_rm, &dir).unwrap();
        assert_eq!(env2.read_local_all(&d_rm).unwrap(), original);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let dir = scratch();
        let d = desc(FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&d).unwrap();
        export_array(&mut env, &d, &dir).unwrap();

        // Same name, different global shape -> header mismatch.
        let other = ArrayDesc::new(
            ArrayId(0),
            "x",
            ElemKind::F32,
            Distribution::column_block(Shape::matrix(8, 8), 2),
        );
        let mut env2 = OocEnv::in_memory(0);
        env2.alloc(&other).unwrap();
        let err = import_array(&mut env2, &other, &dir).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_roundtrip_restores_payload_and_progress() {
        let dir = scratch();
        let d = desc(FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(1);
        env.alloc(&d).unwrap();
        env.load_global(&d, &|g| (g[0] * 10 + g[1]) as f32).unwrap();
        let local = d.local_shape(1);
        let sec = Section::full(&local);
        checkpoint_section(&mut env, &d, &sec, &dir, "gaxpy-y", 3).unwrap();
        let saved = env.read_local_all(&d).unwrap();

        // Clobber the array, then restore: payload and progress come back.
        let zeros = vec![0.0f32; local.len()];
        env.write_section(&d, &sec, &zeros, &NoCharge, Direct)
            .unwrap();
        let progress = restore_checkpoint(&mut env, &d, &sec, &dir, "gaxpy-y").unwrap();
        assert_eq!(progress, Some(3));
        assert_eq!(env.read_local_all(&d).unwrap(), saved);

        // After removal the stage restarts from scratch.
        remove_checkpoint(&dir, "gaxpy-y", 1).unwrap();
        assert_eq!(
            restore_checkpoint(&mut env, &d, &sec, &dir, "gaxpy-y").unwrap(),
            None
        );
        remove_checkpoint(&dir, "gaxpy-y", 1).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_checkpoint_is_ignored_not_fatal() {
        let dir = scratch();
        let d = desc(FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&d).unwrap();
        let local = d.local_shape(0);
        let sec = Section::full(&local);
        checkpoint_section(&mut env, &d, &sec, &dir, "stage", 1).unwrap();
        // Wrong tag -> treated as no checkpoint.
        assert_eq!(
            restore_checkpoint(&mut env, &d, &sec, &dir, "other").unwrap(),
            None
        );
        // Truncated file -> treated as no checkpoint, not a parse panic.
        let path = checkpoint_file(&dir, "stage", 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(
            restore_checkpoint(&mut env, &d, &sec, &dir, "stage").unwrap(),
            None
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let dir = scratch();
        let d = desc(FileLayout::column_major(2));
        let mut env = OocEnv::in_memory(0);
        env.alloc(&d).unwrap();
        assert!(import_array(&mut env, &d, &dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
