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
use crate::blockio::{read_block, write_block};
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

/// The pinned part of an open table: its index block, its properties,
/// and where its other meta blocks are.
pub(crate) struct Tail {
    pub(crate) index: Block,
    pub(crate) props: TableProps,
    metas: Vec<(String, BlockHandle)>,
}

/// Read footer → index block → metaindex → properties of any table file.
pub(crate) fn read_tail(file: &dyn RandomAccessFile) -> Result<Tail> {
    let len = file.len();
    if len < FOOTER_LEN as u64 {
        return Err(Error::corruption("file too small for footer"));
    }
    let footer = Footer::decode(&file.read_at(len - FOOTER_LEN as u64, FOOTER_LEN)?)?;
    let index = Block::new(read_block(file, footer.index)?)?;
    let metas = metaindex::decode(&read_block(file, footer.metaindex)?)?;
    let props_handle = metaindex::find(&metas, meta_keys::PROPS)
        .ok_or_else(|| Error::corruption("missing props block"))?;
    let props = TableProps::decode(&read_block(file, props_handle)?)?;
    Ok(Tail {
        index,
        props,
        metas,
    })
}

impl Tail {
    /// The meta block stored under `name`, if the table has one.
    pub(crate) fn meta_block(
        &self,
        file: &dyn RandomAccessFile,
        name: &str,
    ) -> Result<Option<Bytes>> {
        metaindex::find(&self.metas, name)
            .map(|h| read_block(file, h))
            .transpose()
    }
}
