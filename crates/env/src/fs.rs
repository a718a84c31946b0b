//! Real-filesystem environment backed by `std::fs`.
//!
//! Used by the examples when you want the engine to persist to disk, and by
//! tests that exercise OS-level behaviour. It shares the same [`IoStats`]
//! accounting as [`MemEnv`](crate::mem::MemEnv), so experiments can run on
//! either substrate.

use crate::io_stats::{IoClass, IoStats};
use crate::{Env, RandomAccessFile, WritableFile};
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_util::{Error, Result};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Filesystem-backed environment rooted at a directory.
pub struct FsEnv {
    root: PathBuf,
    stats: Arc<IoStats>,
}

impl FsEnv {
    /// Create an environment rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FsEnv {
            root,
            stats: Arc::new(IoStats::new()),
        })
    }

    fn resolve(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }
}

struct FsWritable {
    file: fs::File,
    len: u64,
    stats: Arc<IoStats>,
    class: IoClass,
}

impl WritableFile for FsWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.write_all(data)?;
        self.len += data.len() as u64;
        self.stats.record_write(self.class, data.len() as u64);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.record_sync(self.class);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

struct FsReadable {
    // A Mutex keeps the trait object Sync without resorting to per-platform
    // positional-read APIs; read paths clone the handle out of hot loops.
    file: Mutex<fs::File>,
    len: u64,
    stats: Arc<IoStats>,
    class: IoClass,
}

impl RandomAccessFile for FsReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        if offset + len as u64 > self.len {
            return Err(Error::corruption(format!(
                "read past eof: {}..{} of {}",
                offset,
                offset + len as u64,
                self.len
            )));
        }
        let mut buf = vec![0u8; len];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(&mut buf)?;
        }
        self.stats.record_read(self.class, len as u64);
        Ok(Bytes::from(buf))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl Env for FsEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        let full = self.resolve(path);
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::File::create(&full)?;
        Ok(Box::new(FsWritable {
            file,
            len: 0,
            stats: self.stats.clone(),
            class,
        }))
    }

    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        let full = self.resolve(path);
        let file = fs::File::open(&full)?;
        let len = file.metadata()?.len();
        Ok(Arc::new(FsReadable {
            file: Mutex::new(file),
            len,
            stats: self.stats.clone(),
            class,
        }))
    }

    fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
        let data = fs::read(self.resolve(path))?;
        self.stats.record_read(class, data.len() as u64);
        Ok(Bytes::from(data))
    }

    fn remove_file(&self, path: &str) -> Result<()> {
        fs::remove_file(self.resolve(path))?;
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        fs::rename(self.resolve(from), self.resolve(to))?;
        Ok(())
    }

    fn file_exists(&self, path: &str) -> bool {
        self.resolve(path).exists()
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(fs::metadata(self.resolve(path))?.len())
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
        // Walk from the deepest existing directory of the prefix.
        let full_prefix = self.resolve(prefix);
        let dir = if full_prefix.is_dir() {
            full_prefix.clone()
        } else {
            full_prefix
                .parent()
                .map(Path::to_path_buf)
                .unwrap_or_else(|| self.root.clone())
        };
        let mut out = Vec::new();
        if dir.exists() {
            collect_files(&dir, &mut out)?;
        }
        let mut rel: Vec<String> = out
            .into_iter()
            .filter_map(|p| {
                p.strip_prefix(&self.root)
                    .ok()
                    .map(|r| r.to_string_lossy().into_owned())
            })
            .filter(|r| r.starts_with(prefix))
            .collect();
        rel.sort();
        Ok(rel)
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        fs::create_dir_all(self.resolve(path))?;
        Ok(())
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.stats.clone()
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_env(tag: &str) -> (FsEnv, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "scavenger-fsenv-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        (FsEnv::new(&dir).unwrap(), dir)
    }

    #[test]
    fn write_read_roundtrip_on_disk() {
        let (e, dir) = tmp_env("rt");
        let mut w = e.new_writable("db/file.sst", IoClass::Flush).unwrap();
        w.append(b"0123456789").unwrap();
        w.sync().unwrap();
        drop(w);
        let r = e
            .open_random_access("db/file.sst", IoClass::FgIndexRead)
            .unwrap();
        assert_eq!(&r.read_at(2, 4).unwrap()[..], b"2345");
        assert_eq!(r.len(), 10);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn list_prefix_filters_and_sorts() {
        let (e, dir) = tmp_env("list");
        for name in ["db/b.sst", "db/a.sst", "db/sub/c.sst", "elsewhere/d"] {
            let mut w = e.new_writable(name, IoClass::Other).unwrap();
            w.append(b"x").unwrap();
        }
        let files = e.list_prefix("db/").unwrap();
        assert_eq!(
            files,
            vec![
                "db/a.sst".to_string(),
                "db/b.sst".into(),
                "db/sub/c.sst".into()
            ]
        );
        assert_eq!(e.total_file_bytes("db/").unwrap(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rename_and_remove() {
        let (e, dir) = tmp_env("mv");
        let mut w = e.new_writable("a", IoClass::Other).unwrap();
        w.append(b"z").unwrap();
        drop(w);
        e.rename("a", "b").unwrap();
        assert!(!e.file_exists("a"));
        assert!(e.file_exists("b"));
        e.remove_file("b").unwrap();
        assert!(!e.file_exists("b"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn read_past_eof_is_error() {
        let (e, dir) = tmp_env("eof");
        let mut w = e.new_writable("f", IoClass::Other).unwrap();
        w.append(b"abc").unwrap();
        drop(w);
        let r = e.open_random_access("f", IoClass::Other).unwrap();
        assert!(r.read_at(2, 5).is_err());
        let _ = fs::remove_dir_all(dir);
    }
}
