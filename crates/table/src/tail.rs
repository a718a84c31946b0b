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
//!
//! A reader is built from a [`Tail`], which comes from one of two places
//! and is parsed the same way from both: [`read_tail`], one read of the
//! file's last [`TAIL_PREFETCH`] bytes, or the builder that wrote the
//! file, which still holds every tail block in memory ([`write_tail`]
//! hands them over as [`BuiltTable::born`]) — a new file's reader is
//! born warm, without a read.

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
/// `kept` are blocks the format wrote before its tail, in file order, that
/// its reader keeps (an RTable's index partitions); the
/// [`BuiltTable::born`] tail holds them beside every block written here.
pub(crate) fn write_tail(
    mut file: Box<dyn WritableFile>,
    metas: Vec<(&str, Vec<u8>)>,
    index_payload: Vec<u8>,
    kept: Vec<(BlockHandle, Bytes)>,
    props: TableProps,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
) -> Result<BuiltTable> {
    let mut blocks = kept;
    let mut handles = Vec::with_capacity(metas.len());
    let mut write = |file: &mut dyn WritableFile, payload: Vec<u8>| {
        let (handle, payload) = write_block(file, payload)?;
        blocks.push((handle, Bytes::from(payload)));
        Ok::<_, Error>(handle)
    };
    for (name, payload) in metas {
        handles.push((name, write(file.as_mut(), payload)?));
    }
    let metaindex = write(file.as_mut(), metaindex::encode(&handles))?;
    let index = write(file.as_mut(), index_payload)?;
    let footer = Footer { metaindex, index };
    file.append(&footer.encode())?;
    file.sync()?;
    Ok(BuiltTable {
        file_size: file.len(),
        smallest: smallest.unwrap_or_default(),
        largest,
        props,
        born: Tail::parse(footer, Held::Built(blocks), None)?,
        kf_blocks: Vec::new(),
    })
}

/// How much of a file's end opening a table fetches in one read. A table's
/// footer, top index, metaindex, properties and (for files up to a few
/// thousand keys) its filters sit in its last few KiB, so opening costs
/// one device op instead of one per block — RocksDB's tail prefetch. A
/// constant: a larger prefetch buys nothing for the value files and
/// key SSTs that are opened from disk (a reopened store's, a compaction's
/// inputs), and the blocks a bigger table keeps outside it are read
/// exactly, as before. An RTable reader opened from disk keeps the index
/// partitions inside these bytes from the open and reads each other one
/// on its first use; a born one holds them all from the start.
pub const TAIL_PREFETCH: usize = 16 * 1024;

/// What a reader is built from: a table's index block, its properties,
/// where its other meta blocks are — and the blocks held in memory that
/// serve them. Every block handed out from an open's prefetch is a copy,
/// so the prefetch goes away with the `Tail`, and an RTable reader keeps
/// the index partitions it covers (`Tail::prefetched`) as copies too.
///
/// [`read_tail`] makes one from a file, a builder from the blocks it
/// just wrote ([`BuiltTable::born`]); both run the same parse, and a
/// reader built from either is the same. Each reader opens from one
/// (`from_tail`), so a caller that must look at the properties first —
/// which format is this key SST? — reads the tail once, not once per
/// guess.
pub struct Tail {
    pub(crate) index: Block,
    pub(crate) props: TableProps,
    /// Bytes of the footer and of every block handed out so far, with
    /// their trailers: what an open *asks* the file for, however many
    /// bytes the prefetch moved — and the same count for a born tail,
    /// which moved none.
    pub(crate) asked: u64,
    metas: Vec<(String, BlockHandle)>,
    held: Held,
}

/// The blocks a [`Tail`] serves without a read.
enum Held {
    /// The file's last bytes, `(offset of the first, bytes)`: the one
    /// read of an open.
    Prefetch(u64, Bytes),
    /// Verified payloads by handle, in file order, from the builder that
    /// wrote them: every tail block, and the earlier blocks its reader
    /// keeps.
    Built(Vec<(BlockHandle, Bytes)>),
}

/// Whether the bytes `[start, end)` hold the block at `handle` and its
/// trailer.
fn covers(start: u64, end: u64, handle: BlockHandle) -> bool {
    handle
        .size
        .checked_add(BLOCK_TRAILER_LEN as u64)
        .and_then(|n| handle.offset.checked_add(n))
        .is_some_and(|block_end| handle.offset >= start && block_end <= end)
}

impl Held {
    /// The verified payload at `handle`, or `None` when it is not held.
    /// Out of a prefetch it is a copy, so the block does not pin the
    /// buffer.
    fn block(&self, handle: BlockHandle) -> Option<Result<Bytes>> {
        match self {
            Held::Prefetch(start, buf) => {
                covers(*start, start + buf.len() as u64, handle).then(|| {
                    let at = (handle.offset - start) as usize;
                    let raw = buf.slice(at..at + handle.size as usize + BLOCK_TRAILER_LEN);
                    Ok(Bytes::copy_from_slice(&verify_block(&raw, handle)?))
                })
            }
            Held::Built(blocks) => blocks
                .binary_search_by_key(&handle.offset, |(h, _)| h.offset)
                .ok()
                .filter(|&i| blocks[i].0 == handle)
                .map(|i| Ok(blocks[i].1.clone())),
        }
    }
}

/// Open any table file: one read of its last [`TAIL_PREFETCH`] bytes
/// (the whole file when it is shorter), then the parse a born tail runs
/// — footer → index block → metaindex → properties out of that buffer,
/// each block checksummed as if it had been read on its own. A block the
/// prefetch does not cover (the top index of a very large table) costs
/// one exact read more.
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
    Tail::parse(footer, Held::Prefetch(len - n, buf), Some(file))
}

/// The verified block at `handle`: out of `held` when it holds it, else
/// with an exact read of `file`. `asked` grows by the block's size on
/// disk.
fn tail_block(
    file: Option<&dyn RandomAccessFile>,
    held: &Held,
    handle: BlockHandle,
    asked: &mut u64,
) -> Result<Bytes> {
    let block = match (held.block(handle), file) {
        (Some(block), _) => block,
        (None, Some(file)) => read_block(file, handle),
        (None, None) => Err(Error::internal("a born tail lacks one of its blocks")),
    }?;
    *asked += (block.len() + BLOCK_TRAILER_LEN) as u64;
    Ok(block)
}

impl Tail {
    /// Footer → index block → metaindex → properties, each block out of
    /// `held` or read exactly from `file`: the one parse of an open and
    /// of a born tail.
    fn parse(footer: Footer, held: Held, file: Option<&dyn RandomAccessFile>) -> Result<Tail> {
        let mut asked = FOOTER_LEN as u64;
        let index = Block::new(tail_block(file, &held, footer.index, &mut asked)?)?;
        let metas = metaindex::decode(&tail_block(file, &held, footer.metaindex, &mut asked)?)?;
        let props_handle = metaindex::find(&metas, meta_keys::PROPS)
            .ok_or_else(|| Error::corruption("missing props block"))?;
        let props = TableProps::decode(&tail_block(file, &held, props_handle, &mut asked)?)?;
        Ok(Tail {
            index,
            props,
            asked,
            metas,
            held,
        })
    }

    /// The table's properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// The block at `handle` if the tail holds it, verified: what a
    /// reader can keep without another read. `None` when the block lies
    /// outside it.
    pub(crate) fn prefetched(&self, handle: BlockHandle) -> Option<Result<Bytes>> {
        self.held.block(handle)
    }

    /// The meta block stored under `name`, if the table has one.
    pub(crate) fn meta_block(
        &mut self,
        file: &dyn RandomAccessFile,
        name: &str,
    ) -> Result<Option<Bytes>> {
        metaindex::find(&self.metas, name)
            .map(|h| tail_block(Some(file), &self.held, h, &mut self.asked))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btable::BuiltTable;
    use crate::btable::{KTable, KTableBuilder, KTableFormat};
    use crate::rtable::{RTableBuilder, RTableReader};
    use crate::InternalIterator;
    use crate::BLOCK_SIZE;
    use scavenger_env::{Env, EnvRef, FaultEnv, FaultOp, FaultRule, IoClass, MemEnv};
    use scavenger_util::ikey::{extract_user_key, make_internal_key, ValueRef, ValueType};
    use std::sync::Arc;

    const FORMATS: [&str; 3] = ["b.sst", "d.sst", "r.vsst"];

    fn ikey(i: usize) -> Vec<u8> {
        make_internal_key(format!("key{i:06}").as_bytes(), 7, ValueType::Value)
    }

    /// One table of each format holding `n` entries of `vlen` bytes, in
    /// [`FORMATS`] order. Every third key of the DTable (the second of
    /// each three) is a reference, so both its streams hold entries.
    fn build_all(env: &dyn Env, n: usize, vlen: usize) -> [BuiltTable; 3] {
        let file = |path| env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = KTableBuilder::new(file("b.sst"), KTableFormat::BTable, BLOCK_SIZE);
        let mut d = KTableBuilder::new(file("d.sst"), KTableFormat::DTable, BLOCK_SIZE);
        let mut r = RTableBuilder::new(file("r.vsst"));
        for i in 0..n {
            let (k, v) = (ikey(i), vec![(i % 251) as u8; vlen]);
            b.add(&k, &v).unwrap();
            match i % 3 {
                1 => d.add(&vref_key(i), &vref(vlen)).unwrap(),
                _ => d.add(&k, &v).unwrap(),
            }
            r.add(&k, &v).unwrap();
        }
        [
            b.finish().unwrap(),
            d.finish().unwrap(),
            r.finish().unwrap(),
        ]
    }

    /// `ikey(i)` as a value reference: a DTable's KF-stream entry.
    fn vref_key(i: usize) -> Vec<u8> {
        make_internal_key(format!("key{i:06}").as_bytes(), 7, ValueType::ValueRef)
    }

    fn vref(vlen: usize) -> Vec<u8> {
        let size = vlen as u32;
        ValueRef {
            file: 9,
            size,
            offset: 0,
        }
        .encode()
    }

    /// Open `path` as its format and look `probe` up; `Ok(found)`.
    fn open_and_get(env: &dyn Env, path: &str, probe: usize) -> Result<bool> {
        let f = env.open_random_access(path, IoClass::FgIndexRead)?;
        let key = ikey(probe);
        Ok(match path {
            "b.sst" | "d.sst" => KTable::open(f, 1, None)?
                .get(&vref_key(probe))?
                .is_some_and(|e| extract_user_key(e.key()) == extract_user_key(&key)),
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
        let Held::Prefetch(start, buf) = &tail.held else {
            panic!("an open's tail holds its prefetch");
        };
        let inside = |b: &[u8]| buf.as_ptr_range().contains(&b.as_ptr());
        assert_eq!(start + buf.len() as u64, f.len());
        assert!(!inside(&filter), "filter is a slice of the prefetch");
    }

    /// Every entry of a key SST, walked in order.
    fn walk(it: &mut dyn InternalIterator) -> Vec<(Vec<u8>, Bytes)> {
        let mut out = Vec::new();
        it.seek_to_first();
        while it.valid() {
            out.push((it.key().to_vec(), it.value()));
            it.next();
        }
        it.status().unwrap();
        out
    }

    /// A DTable's builder keeps each KF block it writes, at its offset,
    /// as exactly the payload `read_block` of the KF index's handle
    /// returns; no other table keeps any. Inserted into a block cache
    /// under the file's id, they serve a full walk of the KF stream
    /// without a read.
    #[test]
    fn born_kf_blocks_equal_the_blocks_on_disk() {
        for (n, vlen) in [(1, 10), (300, 64), (2000, 700), (20_000, 8)] {
            let env = MemEnv::new();
            let [b, d, r] = build_all(&env, n, vlen);
            assert!(b.kf_blocks.is_empty() && r.kf_blocks.is_empty());
            let what = format!("{n} × {vlen}");
            let f = env
                .open_random_access("d.sst", IoClass::FgIndexRead)
                .unwrap();
            let opened = KTable::open(f.clone(), 1, None).unwrap();
            let mut index = opened.kf.as_ref().unwrap().index.iter();
            index.seek_to_first();
            let mut handles = Vec::new();
            while index.valid() {
                handles.push(BlockHandle::decode_exact(&index.value()).unwrap());
                index.next();
            }
            assert_eq!(handles.is_empty(), n == 1, "{what}");
            let offsets: Vec<u64> = d.kf_blocks.iter().map(|(o, _)| *o).collect();
            let want: Vec<u64> = handles.iter().map(|h| h.offset).collect();
            assert_eq!(offsets, want, "{what}");
            for ((_, payload), h) in d.kf_blocks.iter().zip(&handles) {
                assert_eq!(payload, &read_block(f.as_ref(), *h).unwrap(), "{what}");
            }

            let cache = Arc::new(crate::btable::BlockCache::with_capacity(64 << 20));
            for (offset, payload) in &d.kf_blocks {
                let key = crate::cache::CacheKey::new(1, *offset, crate::BlockKind::KeyFile);
                let pri = crate::cache::CachePriority::Bottom;
                cache.insert(key, payload.clone(), payload.len(), pri);
            }
            let t = KTable::from_tail(f, d.born, 1, Some(cache)).unwrap();
            let before = env.io_stats().snapshot();
            assert_eq!(walk(t.index_iter().as_mut()).len(), (n + 1) / 3, "{what}");
            let reads = env.io_stats().snapshot().delta(&before).total_read_ops();
            assert_eq!(reads, 0, "{what}");
        }
    }

    /// The reader a builder's born tail makes is the one an open of the
    /// file makes: same props, same tail bytes asked for, the same answer
    /// to every lookup and the same walk. Building it costs no read, where
    /// an open costs one tail read — two when the filter outgrows the
    /// prefetch (20,000 keys), and whether or not the RTable's partitions
    /// do (2,000 × 700 bytes). A born RTable reader holds every index
    /// partition; an opened one those its tail covers, and reads each
    /// other one once, on the first lookup that needs it.
    #[test]
    fn a_born_reader_equals_an_opened_one() {
        for (n, vlen) in [(1, 10), (300, 64), (2000, 700), (20_000, 8)] {
            let env = MemEnv::new();
            let built = build_all(&env, n, vlen);
            let probes: Vec<usize> = (0..=n).collect();
            for (path, built) in FORMATS.into_iter().zip(built) {
                let BuiltTable { born, props, .. } = built;
                let f: Arc<dyn RandomAccessFile> =
                    env.open_random_access(path, IoClass::FgIndexRead).unwrap();
                let before = env.io_stats().snapshot();
                let what = format!("{path} with {n} × {vlen}");
                if path == "r.vsst" {
                    let born = RTableReader::from_tail(f.clone(), born, 1, None).unwrap();
                    assert_eq!(env.io_stats().snapshot().delta(&before).total_read_ops(), 0);
                    let opened = RTableReader::open(f, 1, None).unwrap();
                    assert_eq!(born.props(), &props, "{what}");
                    assert_eq!(opened.props(), &props, "{what}");
                    assert_eq!(born.open_bytes(), opened.open_bytes(), "{what}");
                    let all: Vec<u64> = born.partitions().iter().map(|h| h.offset).collect();
                    assert_eq!(born.pinned_partitions(), all, "{what}");
                    // The whole file fits the tail (1 × 10), all but its
                    // first partition (300 × 64), its last one only
                    // (2,000 × 700), or none: 20,000 keys' filter pushes
                    // every partition out.
                    let covered = opened.pinned_partitions();
                    let want = match n {
                        1 => &all[..],
                        300 => &all[1..],
                        2000 => &all[all.len() - 1..],
                        _ => &all[..0],
                    };
                    assert_eq!(covered, want, "{what}");
                    let before = env.io_stats().snapshot();
                    for &i in &probes {
                        let key = ikey(i);
                        assert_eq!(
                            born.find_exact(&key).unwrap(),
                            opened.find_exact(&key).unwrap()
                        );
                    }
                    let reads = env.io_stats().snapshot().delta(&before).total_read_ops();
                    assert_eq!(reads, (all.len() - covered.len()) as u64, "{what}");
                    assert_eq!(opened.pinned_partitions(), all, "{what}");
                    let index = born.read_index().unwrap();
                    assert_eq!(index, opened.read_index().unwrap(), "{what}");
                    assert_eq!(index.len(), n);
                    let handles: Vec<BlockHandle> = index.iter().map(|(_, h)| *h).collect();
                    let limits = scavenger_env::READ_SIZE;
                    assert_eq!(
                        born.read_records(&handles, limits).unwrap(),
                        opened.read_records(&handles, limits).unwrap()
                    );
                } else {
                    let born = KTable::from_tail(f.clone(), born, 1, None).unwrap();
                    assert_eq!(env.io_stats().snapshot().delta(&before).total_read_ops(), 0);
                    let opened = KTable::open(f, 1, None).unwrap();
                    assert_eq!(born.props(), &props, "{what}");
                    assert_eq!(opened.props(), &props, "{what}");
                    let entry = |e: Option<crate::block::BlockEntry>| {
                        e.map(|e| (e.key().to_vec(), e.value()))
                    };
                    for &i in &probes {
                        for key in [ikey(i), vref_key(i)] {
                            assert_eq!(
                                entry(born.get(&key).unwrap()),
                                entry(opened.get(&key).unwrap())
                            );
                            assert_eq!(
                                entry(born.get_inline(&key).unwrap()),
                                entry(opened.get_inline(&key).unwrap())
                            );
                        }
                    }
                    let all = walk(born.iter().as_mut());
                    assert_eq!(all.len(), n, "{what}");
                    assert_eq!(all, walk(opened.iter().as_mut()), "{what}");
                    assert_eq!(
                        walk(born.index_iter().as_mut()),
                        walk(opened.index_iter().as_mut())
                    );
                }
            }
        }
    }
}
