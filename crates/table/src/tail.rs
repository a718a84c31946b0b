//! The envelope every table format shares — what follows the data:
//!
//! ```text
//! [meta block]*  [metaindex]  [index block]  [footer]
//! ```
//!
//! The meta blocks (filters, properties, a DTable's second index) are
//! written in the order the format lists them and found again by name
//! through the metaindex; the footer points at the metaindex and at the
//! format's (top-level) index block.

use crate::block::Block;
use crate::blockio::{read_block, verify_block, write_block, BLOCK_TRAILER_LEN};
use crate::btable::BuiltTable;
use crate::handle::{BlockHandle, Footer, FOOTER_LEN};
use crate::props::{meta_keys, metaindex, TableProps};
use bytes::Bytes;
use scavenger_env::{RandomAccessFile, WritableFile};
use scavenger_util::{Error, Result};

/// Finish a table whose data is already in `file`: write `metas` (which
/// include the encoded `props`, at the position the format keeps them),
/// the metaindex naming them, the index block and the footer, then sync.
pub(crate) fn write_tail(
    mut file: Box<dyn WritableFile>,
    metas: &[(&str, Vec<u8>)],
    index_payload: &[u8],
    props: TableProps,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
) -> Result<BuiltTable> {
    let mut handles = Vec::with_capacity(metas.len());
    for (name, payload) in metas {
        handles.push((*name, write_block(file.as_mut(), payload)?));
    }
    let metaindex = write_block(file.as_mut(), &metaindex::encode(&handles))?;
    let index = write_block(file.as_mut(), index_payload)?;
    file.append(&Footer { metaindex, index }.encode())?;
    file.sync()?;
    Ok(BuiltTable {
        file_size: file.len(),
        smallest: smallest.unwrap_or_default(),
        largest,
        props,
    })
}

/// How much of a file's end opening a table fetches in one read. A table's
/// footer, top index, metaindex, properties and (for files up to a few
/// thousand keys) its filters sit in its last few KiB, so opening costs
/// one device op instead of one per block — RocksDB's tail prefetch. A
/// constant: a larger prefetch buys nothing for the value files and
/// freshly flushed key SSTs that dominate opens, and the blocks a bigger
/// table keeps outside it are read exactly, as before.
pub const TAIL_PREFETCH: usize = 16 * 1024;

/// What [`read_tail`] learned of an open table: its index block, its
/// properties, where its other meta blocks are — and the prefetched
/// bytes they are served from. Every block handed out is a copy, so the
/// prefetch goes away with the `Tail`; an RTable's open first puts the
/// index partitions it covers into the block cache
/// (`Tail::prefetched`), so no reader keeps the buffer.
///
/// Each reader opens from one (`from_tail`), so a caller that must look
/// at the properties first — which format is this key SST? — reads the
/// tail once, not once per guess.
pub struct Tail {
    pub(crate) index: Block,
    pub(crate) props: TableProps,
    /// Bytes of the footer and of every block handed out so far, with
    /// their trailers: what the open *asked* the file for, however many
    /// bytes the prefetch moved.
    pub(crate) asked: u64,
    metas: Vec<(String, BlockHandle)>,
    prefetch: Prefetch,
}

/// The file's last bytes: `(offset of the first, bytes)`.
type Prefetch = (u64, Bytes);

/// The verified block at `handle` out of `prefetch` — a copy, so the
/// block does not pin the buffer — or `None` when the prefetch does not
/// cover the block and its trailer.
fn from_prefetch((start, buf): &Prefetch, handle: BlockHandle) -> Option<Result<Bytes>> {
    let end = handle
        .size
        .checked_add(BLOCK_TRAILER_LEN as u64)
        .and_then(|n| handle.offset.checked_add(n))?;
    (handle.offset >= *start && end <= start + buf.len() as u64).then(|| {
        let raw = buf.slice((handle.offset - start) as usize..(end - start) as usize);
        Ok(Bytes::copy_from_slice(&verify_block(&raw, handle)?))
    })
}

/// Read and verify the tail block at `handle`: out of the open's
/// prefetch when it covers the block, else with an exact read. `asked`
/// grows by the block's size on disk.
fn tail_block(
    file: &dyn RandomAccessFile,
    prefetch: &Prefetch,
    handle: BlockHandle,
    asked: &mut u64,
) -> Result<Bytes> {
    let block = from_prefetch(prefetch, handle).unwrap_or_else(|| read_block(file, handle))?;
    *asked += (block.len() + BLOCK_TRAILER_LEN) as u64;
    Ok(block)
}

/// Open any table file: one read of its last [`TAIL_PREFETCH`] bytes
/// (the whole file when it is shorter), then footer → index block →
/// metaindex → properties out of that buffer, each block checksummed as
/// if it had been read on its own. A block the prefetch does not cover
/// (the top index of a very large table) costs one exact read more.
pub fn read_tail(file: &dyn RandomAccessFile) -> Result<Tail> {
    let len = file.len();
    if len < FOOTER_LEN as u64 {
        return Err(Error::corruption("file too small for footer"));
    }
    let n = len.min(TAIL_PREFETCH as u64);
    let buf = file.read_at(len - n, n as usize)?;
    if buf.len() as u64 != n {
        return Err(Error::corruption("short tail read"));
    }
    let footer = Footer::decode(&buf[buf.len() - FOOTER_LEN..])?;
    let prefetch = (len - n, buf);
    let mut asked = FOOTER_LEN as u64;
    let index = Block::new(tail_block(file, &prefetch, footer.index, &mut asked)?)?;
    let metas = metaindex::decode(&tail_block(file, &prefetch, footer.metaindex, &mut asked)?)?;
    let props_handle = metaindex::find(&metas, meta_keys::PROPS)
        .ok_or_else(|| Error::corruption("missing props block"))?;
    let props = TableProps::decode(&tail_block(file, &prefetch, props_handle, &mut asked)?)?;
    Ok(Tail {
        index,
        props,
        asked,
        metas,
        prefetch,
    })
}

impl Tail {
    /// The table's properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// The block at `handle` if the open's tail read holds it, verified:
    /// what an open can cache without another read. `None` when the
    /// block lies outside it.
    pub(crate) fn prefetched(&self, handle: BlockHandle) -> Option<Result<Bytes>> {
        from_prefetch(&self.prefetch, handle)
    }

    /// The meta block stored under `name`, if the table has one.
    pub(crate) fn meta_block(
        &mut self,
        file: &dyn RandomAccessFile,
        name: &str,
    ) -> Result<Option<Bytes>> {
        metaindex::find(&self.metas, name)
            .map(|h| tail_block(file, &self.prefetch, h, &mut self.asked))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btable::{KTable, KTableBuilder, KTableFormat};
    use crate::rtable::{RTableBuilder, RTableReader};
    use crate::BLOCK_SIZE;
    use scavenger_env::{Env, EnvRef, FaultEnv, FaultOp, FaultRule, IoClass, MemEnv};
    use scavenger_util::ikey::{make_internal_key, ValueType};
    use std::sync::Arc;

    const FORMATS: [&str; 3] = ["b.sst", "d.sst", "r.vsst"];

    fn ikey(i: usize) -> Vec<u8> {
        make_internal_key(format!("key{i:06}").as_bytes(), 7, ValueType::Value)
    }

    /// One table of each format holding `n` inline entries of `vlen` bytes.
    fn build_all(env: &dyn Env, n: usize, vlen: usize) {
        let file = |path| env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = KTableBuilder::new(file("b.sst"), KTableFormat::BTable, BLOCK_SIZE);
        let mut d = KTableBuilder::new(file("d.sst"), KTableFormat::DTable, BLOCK_SIZE);
        let mut r = RTableBuilder::new(file("r.vsst"));
        for i in 0..n {
            let (k, v) = (ikey(i), vec![(i % 251) as u8; vlen]);
            b.add(&k, &v).unwrap();
            d.add(&k, &v).unwrap();
            r.add(&k, &v).unwrap();
        }
        b.finish().unwrap();
        d.finish().unwrap();
        r.finish().unwrap();
    }

    /// Open `path` as its format and look `probe` up; `Ok(found)`.
    fn open_and_get(env: &dyn Env, path: &str, probe: usize) -> Result<bool> {
        let f = env.open_random_access(path, IoClass::FgIndexRead)?;
        let key = ikey(probe);
        Ok(match path {
            "b.sst" | "d.sst" => KTable::open(f, 1, None)?
                .get(&key)?
                .is_some_and(|e| e.key() == key),
            _ => RTableReader::open(f, 1, None)?.find_exact(&key)?.is_some(),
        })
    }

    fn open_reads(env: &MemEnv, path: &str) -> u64 {
        let f = env.open_random_access(path, IoClass::FgIndexRead).unwrap();
        let before = env.io_stats().snapshot();
        match path {
            "b.sst" | "d.sst" => drop(KTable::open(f, 1, None).unwrap()),
            _ => drop(RTableReader::open(f, 1, None).unwrap()),
        }
        env.io_stats().snapshot().delta(&before).total_read_ops()
    }

    fn footer_of(env: &MemEnv, path: &str) -> Footer {
        let all = env.read_file(path, IoClass::FgIndexRead).unwrap();
        Footer::decode(&all[all.len() - FOOTER_LEN..]).unwrap()
    }

    #[test]
    fn open_is_one_read_when_the_tail_fits_the_prefetch() {
        for (n, vlen) in [(1, 10), (300, 64), (2000, 700)] {
            let env = MemEnv::new();
            build_all(&env, n, vlen);
            for path in FORMATS {
                assert_eq!(open_reads(&env, path), 1, "{path} with {n} entries");
                assert!(open_and_get(&env, path, n - 1).unwrap(), "{path}");
                assert!(!open_and_get(&env, path, n).unwrap(), "{path}");
            }
        }
    }

    /// 20,000 keys at 10 bits each make a 25 KB filter: the prefetch holds
    /// footer, indexes, metaindex and props, the filter is read exactly.
    #[test]
    fn block_outside_the_prefetch_costs_one_exact_read() {
        let env = MemEnv::new();
        build_all(&env, 20_000, 8);
        for path in FORMATS {
            assert_eq!(open_reads(&env, path), 2, "{path}");
            for probe in [0, 9_999, 19_999] {
                assert!(open_and_get(&env, path, probe).unwrap(), "{path} {probe}");
            }
        }
    }

    #[test]
    fn short_files_keep_their_typed_errors() {
        let env = MemEnv::new();
        let write = |path: &str, bytes: &[u8]| {
            let mut w = env.new_writable(path, IoClass::Flush).unwrap();
            w.append(bytes).unwrap();
        };
        write("b.sst", &[0u8; FOOTER_LEN - 1]);
        write("d.sst", &[0u8; 1000]);
        write("r.vsst", b"");
        for (path, what) in [
            ("b.sst", "file too small for footer"),
            ("d.sst", "bad table magic number"),
            ("r.vsst", "file too small for footer"),
        ] {
            let err = open_and_get(&env, path, 0).unwrap_err();
            assert!(
                matches!(&err, Error::Corruption(m) if m.contains(what)),
                "{path}: {err}"
            );
        }
    }

    #[test]
    fn failed_prefetch_read_fails_the_open_with_the_env_error() {
        let mem = MemEnv::shared();
        build_all(mem.as_ref(), 300, 64);
        let fault = FaultEnv::wrap(mem, 3);
        fault.add_rule(FaultRule::fail(FaultOp::Read));
        let env: EnvRef = fault.clone();
        for path in FORMATS {
            let err = open_and_get(env.as_ref(), path, 0).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{path}: {err}");
        }
        fault.clear_rules();
        for path in FORMATS {
            assert!(open_and_get(env.as_ref(), path, 0).unwrap(), "{path}");
        }
    }

    /// A flipped byte inside the prefetch is caught by the block it sits
    /// in, and only by that block.
    #[test]
    fn corruption_inside_the_prefetch_is_charged_to_its_block() {
        for path in FORMATS {
            let env = MemEnv::new();
            build_all(&env, 40, 64);
            // The whole file is shorter than the prefetch here: its first
            // data block (or record) rides in it, unverified by the open.
            assert!(env.file_size(path).unwrap() < TAIL_PREFETCH as u64);
            env.corrupt_byte(path, 5).unwrap();
            assert_eq!(open_reads(&env, path), 1, "{path}");
            let err = open_and_get(&env, path, 0);
            if path == "r.vsst" {
                // `find_exact` reads the index, not the record.
                assert!(err.unwrap(), "{path}");
            } else {
                assert!(matches!(err, Err(Error::Corruption(_))), "{path}");
            }

            let index = footer_of(&env, path).index;
            env.corrupt_byte(path, index.offset + 1).unwrap();
            let err = open_and_get(&env, path, 0).unwrap_err();
            let at = format!("block checksum mismatch at offset {}", index.offset);
            assert!(
                matches!(&err, Error::Corruption(m) if *m == at),
                "{path}: {err}"
            );
        }
    }

    /// The blocks a reader keeps are copies: dropping the `Tail` frees
    /// the prefetch buffer.
    #[test]
    fn blocks_handed_out_do_not_pin_the_prefetch() {
        let env = MemEnv::new();
        build_all(&env, 300, 64);
        let f: Arc<dyn RandomAccessFile> = env
            .open_random_access("b.sst", IoClass::FgIndexRead)
            .unwrap();
        let mut tail = read_tail(f.as_ref()).unwrap();
        let filter = tail
            .meta_block(f.as_ref(), meta_keys::FILTER)
            .unwrap()
            .unwrap();
        let (start, buf) = &tail.prefetch;
        let inside = |b: &[u8]| buf.as_ptr_range().contains(&b.as_ptr());
        assert_eq!(start + buf.len() as u64, f.len());
        assert!(!inside(&filter), "filter is a slice of the prefetch");
    }
}
