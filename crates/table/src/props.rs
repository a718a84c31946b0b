//! Table properties block.
//!
//! Every table records counts and byte totals, and — crucially for the
//! paper's space-aware compaction (§III-C) — key SSTs record their
//! **value dependencies**: for each referenced value-store file, how many
//! entries point into it and how many value bytes those references cover.
//! `file_size + Σ dep.ref_bytes` is exactly the paper's *compensated size*:
//! the size the file would have had in a non-separated LSM-tree.

use scavenger_util::coding::{
    get_length_prefixed_slice, get_varint32, get_varint64, put_length_prefixed_slice, put_varint32,
    put_varint64,
};
use scavenger_util::ikey::{parse_internal_key, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::collections::BTreeMap;

/// What kind of table a file is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TableType {
    /// BlockBasedTable (baseline format).
    BTable = 0,
    /// RecordBasedTable (Scavenger value SST).
    RTable = 1,
    /// IndexDecoupledTable (Scavenger key SST).
    DTable = 2,
    /// Append-ordered blob log (BlobDB/Titan value file).
    BlobLog = 3,
}

impl TableType {
    fn from_u8(v: u8) -> Result<TableType> {
        match v {
            0 => Ok(TableType::BTable),
            1 => Ok(TableType::RTable),
            2 => Ok(TableType::DTable),
            3 => Ok(TableType::BlobLog),
            other => Err(Error::corruption(format!("bad table type {other}"))),
        }
    }
}

/// One value-store dependency of a key SST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueDep {
    /// Value-store file number referenced.
    pub file: u64,
    /// Number of references into that file.
    pub entries: u64,
    /// Total bytes of value data those references cover.
    pub ref_bytes: u64,
}

/// Properties stored in every table file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProps {
    /// Format of this table.
    pub table_type: TableType,
    /// Total entries (KV + KF + tombstones).
    pub num_entries: u64,
    /// Entries that are value references (KF).
    pub num_refs: u64,
    /// Entries with inline values.
    pub num_inline: u64,
    /// Tombstones.
    pub num_deletions: u64,
    /// Raw (uncompressed) key bytes.
    pub raw_key_bytes: u64,
    /// Raw value bytes stored in this file (inline values / records).
    pub raw_value_bytes: u64,
    /// For key SSTs: per-value-file dependency stats.
    pub deps: Vec<ValueDep>,
}

impl Default for TableProps {
    fn default() -> Self {
        TableProps {
            table_type: TableType::BTable,
            num_entries: 0,
            num_refs: 0,
            num_inline: 0,
            num_deletions: 0,
            raw_key_bytes: 0,
            raw_value_bytes: 0,
            deps: Vec::new(),
        }
    }
}

impl TableProps {
    /// Sum of `ref_bytes` over all dependencies — the compensation term of
    /// the paper's compensated file size.
    pub fn total_ref_bytes(&self) -> u64 {
        self.deps.iter().map(|d| d.ref_bytes).sum()
    }

    /// Serialize to a properties block payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64 + self.deps.len() * 12);
        v.push(self.table_type as u8);
        put_varint64(&mut v, self.num_entries);
        put_varint64(&mut v, self.num_refs);
        put_varint64(&mut v, self.num_inline);
        put_varint64(&mut v, self.num_deletions);
        put_varint64(&mut v, self.raw_key_bytes);
        put_varint64(&mut v, self.raw_value_bytes);
        put_varint32(&mut v, self.deps.len() as u32);
        for d in &self.deps {
            put_varint64(&mut v, d.file);
            put_varint64(&mut v, d.entries);
            put_varint64(&mut v, d.ref_bytes);
        }
        v
    }

    /// Parse a properties block payload.
    pub fn decode(mut src: &[u8]) -> Result<TableProps> {
        if src.is_empty() {
            return Err(Error::corruption("empty properties block"));
        }
        let table_type = TableType::from_u8(src[0])?;
        src = &src[1..];
        let num_entries = get_varint64(&mut src)?;
        let num_refs = get_varint64(&mut src)?;
        let num_inline = get_varint64(&mut src)?;
        let num_deletions = get_varint64(&mut src)?;
        let raw_key_bytes = get_varint64(&mut src)?;
        let raw_value_bytes = get_varint64(&mut src)?;
        let ndeps = get_varint32(&mut src)? as usize;
        let mut deps = Vec::with_capacity(ndeps.min(1024));
        for _ in 0..ndeps {
            deps.push(ValueDep {
                file: get_varint64(&mut src)?,
                entries: get_varint64(&mut src)?,
                ref_bytes: get_varint64(&mut src)?,
            });
        }
        if !src.is_empty() {
            return Err(Error::corruption("trailing bytes in properties block"));
        }
        Ok(TableProps {
            table_type,
            num_entries,
            num_refs,
            num_inline,
            num_deletions,
            raw_key_bytes,
            raw_value_bytes,
            deps,
        })
    }
}

/// Tracks [`TableProps`] as entries stream through a builder.
pub(crate) struct PropsTracker {
    props: TableProps,
    deps: BTreeMap<u64, (u64, u64)>,
}

impl PropsTracker {
    pub(crate) fn new(table_type: TableType) -> Self {
        PropsTracker {
            props: TableProps {
                table_type,
                ..TableProps::default()
            },
            deps: BTreeMap::new(),
        }
    }

    /// Count the entry under internal key `key`.
    pub(crate) fn observe(&mut self, key: &[u8], value: &[u8]) {
        self.props.num_entries += 1;
        self.props.raw_key_bytes += key.len() as u64;
        self.props.raw_value_bytes += value.len() as u64;
        if let Ok(parsed) = parse_internal_key(key) {
            match parsed.vtype {
                ValueType::Deletion => self.props.num_deletions += 1,
                ValueType::Value => self.props.num_inline += 1,
                ValueType::ValueRef => {
                    self.props.num_refs += 1;
                    if let Ok(r) = ValueRef::decode(value) {
                        let e = self.deps.entry(r.file).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += u64::from(r.size);
                    }
                }
            }
        }
    }

    /// Entries observed so far.
    pub(crate) fn num_entries(&self) -> u64 {
        self.props.num_entries
    }

    pub(crate) fn finish(mut self) -> TableProps {
        self.props.deps = self
            .deps
            .into_iter()
            .map(|(file, (entries, ref_bytes))| ValueDep {
                file,
                entries,
                ref_bytes,
            })
            .collect();
        self.props
    }
}

/// Keys used in the metaindex block to locate auxiliary blocks.
pub mod meta_keys {
    /// Bloom filter over all user keys.
    pub const FILTER: &str = "scavenger.filter";
    /// Bloom filter over DTable KF-stream user keys.
    pub const FILTER_KF: &str = "scavenger.filter.kf";
    /// Bloom filter over DTable KV-stream user keys.
    pub const FILTER_KV: &str = "scavenger.filter.kv";
    /// Table properties.
    pub const PROPS: &str = "scavenger.props";
    /// DTable KF-stream index block.
    pub const KF_INDEX: &str = "scavenger.index.kf";
}

/// A tiny helper to build / parse metaindex blocks (name → handle).
pub mod metaindex {
    use super::*;
    use crate::handle::BlockHandle;

    /// Serialize `(name, handle)` pairs.
    pub fn encode(entries: &[(&str, BlockHandle)]) -> Vec<u8> {
        let mut v = Vec::new();
        put_varint32(&mut v, entries.len() as u32);
        for (name, handle) in entries {
            put_length_prefixed_slice(&mut v, name.as_bytes());
            handle.encode_to(&mut v);
        }
        v
    }

    /// Parse into a name → handle map.
    pub fn decode(mut src: &[u8]) -> Result<Vec<(String, BlockHandle)>> {
        let n = get_varint32(&mut src)? as usize;
        let mut out = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let name = get_length_prefixed_slice(&mut src)?;
            let handle = BlockHandle::decode_from(&mut src)?;
            out.push((
                String::from_utf8(name.to_vec())
                    .map_err(|_| Error::corruption("non-utf8 metaindex key"))?,
                handle,
            ));
        }
        Ok(out)
    }

    /// Find a handle by name.
    pub fn find(entries: &[(String, BlockHandle)], name: &str) -> Option<BlockHandle> {
        entries.iter().find(|(n, _)| n == name).map(|(_, h)| *h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::BlockHandle;

    #[test]
    fn props_roundtrip() {
        let p = TableProps {
            table_type: TableType::DTable,
            num_entries: 100,
            num_refs: 60,
            num_inline: 30,
            num_deletions: 10,
            raw_key_bytes: 2400,
            raw_value_bytes: 9000,
            deps: vec![
                ValueDep {
                    file: 7,
                    entries: 40,
                    ref_bytes: 640_000,
                },
                ValueDep {
                    file: 9,
                    entries: 20,
                    ref_bytes: 320_000,
                },
            ],
        };
        let decoded = TableProps::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.total_ref_bytes(), 960_000);
    }

    #[test]
    fn props_reject_trailing_bytes() {
        let mut enc = TableProps::default().encode();
        enc.push(1);
        assert!(TableProps::decode(&enc).is_err());
    }

    #[test]
    fn props_reject_empty() {
        assert!(TableProps::decode(&[]).is_err());
    }

    #[test]
    fn metaindex_roundtrip() {
        let entries = [
            (meta_keys::FILTER, BlockHandle::new(10, 20)),
            (meta_keys::PROPS, BlockHandle::new(30, 40)),
        ];
        let enc = metaindex::encode(&entries);
        let dec = metaindex::decode(&enc).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(
            metaindex::find(&dec, meta_keys::PROPS),
            Some(BlockHandle::new(30, 40))
        );
        assert_eq!(metaindex::find(&dec, "missing"), None);
    }

    #[test]
    fn table_type_codes_stable() {
        // On-disk format stability: these numbers must never change.
        assert_eq!(TableType::BTable as u8, 0);
        assert_eq!(TableType::RTable as u8, 1);
        assert_eq!(TableType::DTable as u8, 2);
        assert_eq!(TableType::BlobLog as u8, 3);
    }
}
