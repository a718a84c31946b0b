//! File naming conventions for everything the engine persists.
//!
//! All files live under one directory prefix:
//!
//! | pattern | contents |
//! |---|---|
//! | `NNNNNN.sst`  | key SST (index LSM-tree) |
//! | `NNNNNN.vsst` | value SST (BTable/RTable value store) |
//! | `NNNNNN.blob` | blob log (BlobDB/Titan-style value file) |
//! | `NNNNNN.log`  | write-ahead log |
//! | `MANIFEST-NNNNNN` | version-edit log |
//! | `CURRENT` | name of the live manifest |

/// Kinds of files the engine writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Key SST.
    Table,
    /// Value SST.
    ValueTable,
    /// Blob log.
    BlobLog,
    /// Write-ahead log.
    Wal,
    /// Manifest.
    Manifest,
    /// CURRENT pointer.
    Current,
}

/// Path of a key SST.
pub fn table_path(dir: &str, number: u64) -> String {
    format!("{dir}/{number:06}.sst")
}

/// Path of a value SST.
pub fn value_table_path(dir: &str, number: u64) -> String {
    format!("{dir}/{number:06}.vsst")
}

/// Path of a blob log.
pub fn blob_path(dir: &str, number: u64) -> String {
    format!("{dir}/{number:06}.blob")
}

/// Path of a value file whose format tag (a
/// `scavenger_table::props::TableType`) is `format`.
pub fn value_file_path(dir: &str, number: u64, format: u8) -> String {
    if format == scavenger_table::props::TableType::BlobLog as u8 {
        blob_path(dir, number)
    } else {
        value_table_path(dir, number)
    }
}

/// Path of a WAL file.
pub fn wal_path(dir: &str, number: u64) -> String {
    format!("{dir}/{number:06}.log")
}

/// Path of a manifest.
pub fn manifest_path(dir: &str, number: u64) -> String {
    format!("{dir}/MANIFEST-{number:06}")
}

/// Path of the CURRENT pointer file.
pub fn current_path(dir: &str) -> String {
    format!("{dir}/CURRENT")
}

/// Parse a path (as produced by the helpers above) into its kind and
/// number. Returns `None` for unrecognized names.
pub fn parse_path(dir: &str, path: &str) -> Option<(FileKind, u64)> {
    let rest = path.strip_prefix(dir)?.strip_prefix('/')?;
    if rest == "CURRENT" {
        return Some((FileKind::Current, 0));
    }
    if let Some(num) = rest.strip_prefix("MANIFEST-") {
        return num.parse().ok().map(|n| (FileKind::Manifest, n));
    }
    let (stem, ext) = rest.rsplit_once('.')?;
    let number: u64 = stem.parse().ok()?;
    let kind = match ext {
        "sst" => FileKind::Table,
        "vsst" => FileKind::ValueTable,
        "blob" => FileKind::BlobLog,
        "log" => FileKind::Wal,
        _ => return None,
    };
    Some((kind, number))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let dir = "db";
        assert_eq!(
            parse_path(dir, &table_path(dir, 7)),
            Some((FileKind::Table, 7))
        );
        assert_eq!(
            parse_path(dir, &value_table_path(dir, 8)),
            Some((FileKind::ValueTable, 8))
        );
        assert_eq!(
            parse_path(dir, &blob_path(dir, 9)),
            Some((FileKind::BlobLog, 9))
        );
        assert_eq!(
            parse_path(dir, &wal_path(dir, 10)),
            Some((FileKind::Wal, 10))
        );
        assert_eq!(
            parse_path(dir, &manifest_path(dir, 11)),
            Some((FileKind::Manifest, 11))
        );
        assert_eq!(
            parse_path(dir, &current_path(dir)),
            Some((FileKind::Current, 0))
        );
    }

    #[test]
    fn rejects_foreign_paths() {
        assert_eq!(parse_path("db", "other/000001.sst"), None);
        assert_eq!(parse_path("db", "db/garbage.txt"), None);
        assert_eq!(parse_path("db", "db/xyz.sst"), None);
    }

    #[test]
    fn numbers_are_zero_padded_for_lexicographic_order() {
        assert!(table_path("d", 2) < table_path("d", 10));
        assert!(wal_path("d", 99) < wal_path("d", 100));
    }
}
