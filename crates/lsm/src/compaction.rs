//! Leveled compaction: dynamic level targets, score-based picking, and the
//! shared merge/output job used by both flush and compaction.
//!
//! Two scoring modes exist, selected by `LsmOptions::compensated`:
//!
//! * **vanilla** — levels are scored by raw key-SST bytes, as in RocksDB.
//!   In a KV-separated tree the key SSTs are tiny, so level scores rarely
//!   reach 1.0: compaction is *delayed*, upper-level data accumulates, and
//!   hidden garbage stays hidden (the paper's §II-D diagnosis).
//! * **compensated** (paper §III-C) — every file is charged
//!   `file_size + Σ referenced value bytes`; scores, level targets, and
//!   victim selection all use compensated units, which "converts a
//!   separated LSM-tree into a non-separated one" and restores the vanilla
//!   tree's space-amplification behaviour. Victim selection prefers the
//!   file with the largest compensated size ("push down high-density files
//!   swiftly"), which exposes hidden garbage sooner for the GC.

use crate::filename::table_path;
use crate::hooks::{BornTails, DropCause, ValueEditBundle, ValueSession};
use crate::options::{LsmOptions, NUM_LEVELS};
use crate::version::{FileMetaData, FileNumbers, Version};
use bytes::Bytes;
use scavenger_env::IoClass;
use scavenger_table::btable::KTableBuilder;
use scavenger_table::{InternalIterator, Tail};
use scavenger_util::ikey::{make_internal_key, parse_internal_key, SeqNo, ValueType};
use scavenger_util::Result;
use std::sync::Arc;

/// Per-level size targets under dynamic level sizing (RocksDB's
/// `level_compaction_dynamic_level_bytes`, the paper's "DCA").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTargets {
    /// First level L0 compacts into; levels above it hold no data.
    pub base_level: usize,
    /// Size target per level, in scoring units (raw or compensated bytes).
    pub targets: Vec<u64>,
}

/// Scoring units for `level`.
pub(crate) fn level_units(version: &Version, level: usize, compensated: bool) -> u64 {
    if compensated {
        version.level_compensated(level)
    } else {
        version.level_bytes(level)
    }
}

/// Size ratio between adjacent levels (paper §IV-A: 10, RocksDB's
/// `max_bytes_for_level_multiplier`). A constant, not an option: no
/// experiment in the paper or workload in this repo moves it.
pub const LEVEL_MULTIPLIER: u64 = 10;

/// Compute dynamic level targets from the bottommost level's actual size.
pub fn compute_targets(version: &Version, opts: &LsmOptions) -> LevelTargets {
    let last = NUM_LEVELS - 1;
    let mult = LEVEL_MULTIPLIER;
    let base = opts.base_level_bytes.max(1);
    let mut targets = vec![0u64; NUM_LEVELS];
    // The last level's "target" is its actual size: it is never a
    // compaction source by score.
    let last_size = level_units(version, last, opts.compensated);
    targets[last] = last_size.max(base);
    let mut base_level = last;
    while base_level > 1 && targets[base_level] / mult >= base {
        targets[base_level - 1] = targets[base_level] / mult;
        base_level -= 1;
    }
    LevelTargets {
        base_level,
        targets,
    }
}

/// A picked compaction.
#[derive(Debug, Clone)]
pub struct Compaction {
    /// Source level.
    pub level: usize,
    /// Destination level.
    pub output_level: usize,
    /// Input files at `level`.
    pub inputs_lo: Vec<Arc<FileMetaData>>,
    /// Overlapping input files at `output_level`.
    pub inputs_hi: Vec<Arc<FileMetaData>>,
    /// True if no data exists below `output_level`.
    pub bottommost: bool,
    /// The score that triggered this pick (for stats/logging).
    pub score: f64,
}

impl Compaction {
    /// Compact `inputs_lo` at `level` into `output_level`: the inputs
    /// there are the files overlapping the user-key range of `inputs_lo`,
    /// and the output is bottommost when no level below it holds data.
    pub fn new(
        version: &Version,
        level: usize,
        output_level: usize,
        inputs_lo: Vec<Arc<FileMetaData>>,
        score: f64,
    ) -> Compaction {
        let (lo, hi) = user_range_of(&inputs_lo);
        let inputs_hi = version.overlapping_files(output_level, Some(&lo), Some(&hi));
        let bottommost = version.levels[output_level + 1..]
            .iter()
            .all(|l| l.is_empty());
        Compaction {
            level,
            output_level,
            inputs_lo,
            inputs_hi,
            bottommost,
            score,
        }
    }

    /// Total input bytes (raw).
    pub fn input_bytes(&self) -> u64 {
        self.inputs_lo
            .iter()
            .chain(self.inputs_hi.iter())
            .map(|f| f.file_size)
            .sum()
    }

    /// True if this compaction can be applied as a trivial move (single
    /// input file, nothing overlapping at the destination).
    pub fn is_trivial_move(&self) -> bool {
        self.level > 0 && self.inputs_lo.len() == 1 && self.inputs_hi.is_empty()
    }
}

/// Round-robin cursors so vanilla picking sweeps each level fairly.
#[derive(Debug, Default, Clone)]
pub struct PickerState {
    cursors: Vec<Vec<u8>>,
}

impl PickerState {
    /// Create state for [`NUM_LEVELS`] levels.
    pub fn new() -> Self {
        PickerState {
            cursors: vec![Vec::new(); NUM_LEVELS],
        }
    }
}

fn user_range_of(files: &[Arc<FileMetaData>]) -> (Vec<u8>, Vec<u8>) {
    use scavenger_util::ikey::extract_user_key;
    let mut lo: Option<&[u8]> = None;
    let mut hi: Option<&[u8]> = None;
    for f in files {
        let s = extract_user_key(&f.smallest);
        let l = extract_user_key(&f.largest);
        lo = Some(match lo {
            Some(cur) if cur <= s => cur,
            _ => s,
        });
        hi = Some(match hi {
            Some(cur) if cur >= l => cur,
            _ => l,
        });
    }
    (
        lo.unwrap_or_default().to_vec(),
        hi.unwrap_or_default().to_vec(),
    )
}

/// Pick the highest-score compaction, or `None` if all scores are < 1.
pub fn pick_compaction(
    version: &Version,
    opts: &LsmOptions,
    state: &mut PickerState,
) -> Option<Compaction> {
    let targets = compute_targets(version, opts);
    let last = NUM_LEVELS - 1;

    // Score every candidate source level.
    let mut best: Option<(f64, usize)> = None;
    let l0_score = version.num_files(0) as f64 / opts.l0_trigger as f64;
    if l0_score >= 1.0 {
        best = Some((l0_score, 0));
    }
    for level in 1..last {
        if version.levels[level].is_empty() {
            continue;
        }
        let score = if level < targets.base_level {
            // Orphaned files above the base level (e.g. after a config
            // change): push them down as soon as possible.
            f64::INFINITY
        } else {
            level_units(version, level, opts.compensated) as f64
                / targets.targets[level].max(1) as f64
        };
        if score >= 1.0 && best.map(|(s, _)| score > s).unwrap_or(true) {
            best = Some((score, level));
        }
    }
    let (score, level) = best?;

    if level == 0 {
        let inputs_lo = version.levels[0].clone();
        if inputs_lo.is_empty() {
            return None;
        }
        return Some(Compaction::new(
            version,
            0,
            targets.base_level,
            inputs_lo,
            score,
        ));
    }

    // Pick the victim file within the level.
    let files = &version.levels[level];
    let victim = if opts.compensated {
        // Paper §III-C: push down the file dragging the most value data.
        files
            .iter()
            .max_by_key(|f| f.compensated_size())
            .cloned()
            .unwrap()
    } else {
        // RocksDB-style round-robin sweep by key.
        let cursor = &state.cursors[level];
        files
            .iter()
            .find(|f| f.smallest.as_slice() > cursor.as_slice())
            .or_else(|| files.first())
            .cloned()
            .unwrap()
    };
    state.cursors[level] = victim.smallest.clone();

    let output_level = (level + 1).min(last);
    Some(Compaction::new(
        version,
        level,
        output_level,
        vec![victim],
        score,
    ))
}

/// Writes merge output, rolling files at the target size (only at user-key
/// group boundaries, preserving the per-level disjointness invariant).
///
/// Every file it creates is removed when it drops unless
/// [`into_files`](OutputWriter::into_files) handed it to the job's edit
/// first, so a job that fails — or is retried — leaves no key SST behind.
struct OutputWriter<'a> {
    opts: &'a LsmOptions,
    io_class: IoClass,
    numbers: &'a FileNumbers,
    builder: Option<(u64, KTableBuilder)>,
    files: Vec<FileMetaData>,
    /// What each finished file was born with.
    born: Vec<BornTable>,
    /// Numbers of the files created and not yet handed over.
    created: Vec<u64>,
}

impl<'a> OutputWriter<'a> {
    /// Create an output writer numbering its files from `numbers`.
    fn new(opts: &'a LsmOptions, io_class: IoClass, numbers: &'a FileNumbers) -> Self {
        OutputWriter {
            opts,
            io_class,
            numbers,
            builder: None,
            files: Vec::new(),
            born: Vec::new(),
            created: Vec::new(),
        }
    }

    fn remove(&self, number: u64) {
        let _ = self
            .opts
            .env
            .remove_file(&table_path(&self.opts.dir, number));
    }

    fn ensure_builder(&mut self) -> Result<&mut KTableBuilder> {
        if self.builder.is_none() {
            let number = self.numbers.next();
            self.created.push(number);
            let file = self
                .opts
                .env
                .new_writable(&table_path(&self.opts.dir, number), self.io_class)?;
            let b = KTableBuilder::new(file, self.opts.ktable_format, self.opts.block_size);
            self.builder = Some((number, b));
        }
        Ok(&mut self.builder.as_mut().unwrap().1)
    }

    /// Append an entry to the current output file.
    fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.ensure_builder()?.add(key, value)
    }

    /// Called at user-key group boundaries: roll the output file if it
    /// reached the target size.
    fn maybe_roll(&mut self) -> Result<()> {
        let should = self
            .builder
            .as_ref()
            .map(|(_, b)| b.estimated_size() >= self.opts.target_file_size)
            .unwrap_or(false);
        if should {
            self.finish()?;
        }
        Ok(())
    }

    /// Finish the current output file, if any.
    fn finish(&mut self) -> Result<()> {
        if let Some((number, b)) = self.builder.take() {
            if b.num_entries() == 0 {
                // Nothing written: remove the empty file.
                drop(b);
                self.created.pop();
                self.remove(number);
                return Ok(());
            }
            let built = b.finish()?;
            self.files.push(FileMetaData {
                file_number: number,
                file_size: built.file_size,
                smallest: built.smallest,
                largest: built.largest,
                ref_bytes: built.props.total_ref_bytes(),
            });
            self.born.push(BornTable {
                number,
                tail: built.born,
                kf_blocks: built.kf_blocks,
            });
        }
        Ok(())
    }

    /// Hand the finished files and what they were born with to the
    /// caller, who names the files in the job's edit; from here recovery
    /// owns them.
    fn into_files(mut self) -> (Vec<FileMetaData>, Vec<BornTable>) {
        self.created.clear();
        (
            std::mem::take(&mut self.files),
            std::mem::take(&mut self.born),
        )
    }
}

impl Drop for OutputWriter<'_> {
    fn drop(&mut self) {
        // Close the file in progress before removing it.
        self.builder = None;
        for &number in &self.created {
            self.remove(number);
        }
    }
}

/// What a new key SST is born with, kept until its job's edit commits:
/// the tail its reader is built from and, for a DTable, the KF blocks the
/// block cache starts with ([`BuiltTable::kf_blocks`]).
///
/// [`BuiltTable::kf_blocks`]: scavenger_table::btable::BuiltTable::kf_blocks
pub struct BornTable {
    /// The file's number.
    pub number: u64,
    /// The tail its writer held.
    pub tail: Tail,
    /// A DTable's KF data blocks, `(offset, payload)`; empty for a BTable.
    pub kf_blocks: Vec<(u64, Bytes)>,
}

/// Statistics from one merge/output job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Entries read from inputs.
    pub entries_in: u64,
    /// Entries written to outputs.
    pub entries_out: u64,
    /// Entries dropped (shadowed / tombstoned / obsolete tombstones).
    pub entries_dropped: u64,
}

/// Output of [`run_output_job`].
pub struct JobOutput {
    /// Key SSTs created.
    pub files: Vec<FileMetaData>,
    /// What each new key SST was born with: its reader, built without a
    /// read, and its KF blocks in the cache, once the job's edit commits.
    pub born: Vec<BornTable>,
    /// Value-store changes from the session.
    pub bundle: ValueEditBundle,
    /// The born tails of the bundle's new value files.
    pub value_born: BornTails,
    /// Merge statistics.
    pub stats: JobStats,
}

/// Merge `input` (an internal iterator in internal-key order), apply
/// snapshot-aware deduplication and tombstone elision, route entries
/// through the value session, and write rolled output tables.
///
/// `snapshots` must be sorted ascending. `elide_upto` is `None` unless
/// the output is the bottommost populated level; `Some(s)` lets a
/// tombstone vanish when its sequence is at most `s` (the engine's
/// tombstone hold) and `may_exist_below(ukey)` — whether any level below
/// the output could hold the key — returns false.
#[allow(clippy::too_many_arguments)]
pub fn run_output_job(
    opts: &LsmOptions,
    input: &mut dyn InternalIterator,
    snapshots: &[SeqNo],
    elide_upto: Option<SeqNo>,
    may_exist_below: &dyn Fn(&[u8]) -> bool,
    mut session: Box<dyn ValueSession>,
    numbers: &FileNumbers,
    io_class: IoClass,
) -> Result<JobOutput> {
    let mut writer = OutputWriter::new(opts, io_class, numbers);
    let mut stats = JobStats::default();

    // Buffered versions of the current user key (newest first).
    let mut group: Vec<(SeqNo, ValueType, Bytes)> = Vec::new();
    let mut group_key: Vec<u8> = Vec::new();

    let flush_group = |ukey: &[u8],
                       group: &mut Vec<(SeqNo, ValueType, Bytes)>,
                       writer: &mut OutputWriter,
                       session: &mut Box<dyn ValueSession>,
                       stats: &mut JobStats|
     -> Result<()> {
        if group.is_empty() {
            return Ok(());
        }
        // Keep the newest version in each snapshot stripe.
        let mut kept: Vec<(SeqNo, ValueType, Bytes)> = Vec::new();
        let mut last_stripe = usize::MAX;
        for (seq, vtype, value) in group.drain(..) {
            // stripe id = number of snapshots with s < seq; versions in the
            // same stripe are indistinguishable to every reader.
            let stripe = snapshots.partition_point(|s| *s < seq);
            if stripe != last_stripe || kept.is_empty() {
                last_stripe = stripe;
                kept.push((seq, vtype, value));
            } else {
                let cause = match kept.last().map(|(_, t, _)| *t) {
                    Some(ValueType::Deletion) => DropCause::Tombstoned,
                    _ => DropCause::Shadowed,
                };
                stats.entries_dropped += 1;
                session.drop_entry(ukey, seq, vtype, &value, cause);
            }
        }
        // Obsolete-tombstone elision: the oldest kept entry, if it is a
        // tombstone at the bottom with nothing beneath, can vanish.
        if let Some(upto) = elide_upto {
            if let Some((seq, ValueType::Deletion, _)) = kept.last().cloned() {
                if seq <= upto && !may_exist_below(ukey) {
                    kept.pop();
                    stats.entries_dropped += 1;
                    session.drop_entry(
                        ukey,
                        seq,
                        ValueType::Deletion,
                        b"",
                        DropCause::ObsoleteTombstone,
                    );
                }
            }
        }
        for (seq, vtype, value) in kept {
            let (out_type, out_value) = session.entry(ukey, seq, vtype, value)?;
            let ikey = make_internal_key(ukey, seq, out_type);
            writer.add(&ikey, &out_value)?;
            stats.entries_out += 1;
        }
        writer.maybe_roll()?;
        Ok(())
    };

    input.seek_to_first();
    while input.valid() {
        let parsed = parse_internal_key(input.key())?;
        stats.entries_in += 1;
        if parsed.user_key != group_key.as_slice() {
            flush_group(
                &group_key,
                &mut group,
                &mut writer,
                &mut session,
                &mut stats,
            )?;
            group_key.clear();
            group_key.extend_from_slice(parsed.user_key);
        }
        group.push((parsed.seq, parsed.vtype, input.value()));
        input.next();
    }
    input.status()?;
    flush_group(
        &group_key,
        &mut group,
        &mut writer,
        &mut session,
        &mut stats,
    )?;

    writer.finish()?;
    let (bundle, value_born) = session.finish()?;
    let (files, born) = writer.into_files();
    Ok(JobOutput {
        files,
        born,
        bundle,
        value_born,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::PassthroughSession;
    use crate::iter::VecIter;
    use crate::version::VersionEdit;
    use scavenger_env::MemEnv;
    use scavenger_util::ikey::MAX_SEQNO;

    fn opts() -> LsmOptions {
        let mut o = LsmOptions::new(MemEnv::shared(), "db");
        o.target_file_size = 4096;
        o
    }

    fn e(k: &str, seq: SeqNo, t: ValueType, v: &str) -> (Vec<u8>, Bytes) {
        (
            make_internal_key(k.as_bytes(), seq, t),
            Bytes::copy_from_slice(v.as_bytes()),
        )
    }

    fn run(
        o: &LsmOptions,
        entries: Vec<(Vec<u8>, Bytes)>,
        snapshots: &[SeqNo],
        bottommost: bool,
    ) -> JobOutput {
        run_held(o, entries, snapshots, bottommost.then_some(MAX_SEQNO))
    }

    fn run_held(
        o: &LsmOptions,
        entries: Vec<(Vec<u8>, Bytes)>,
        snapshots: &[SeqNo],
        elide_upto: Option<SeqNo>,
    ) -> JobOutput {
        let mut input = VecIter::new(entries);
        run_output_job(
            o,
            &mut input,
            snapshots,
            elide_upto,
            &|_| false,
            Box::new(PassthroughSession),
            &FileNumbers::new(1),
            IoClass::Compaction,
        )
        .unwrap()
    }

    fn read_all(o: &LsmOptions, file: &FileMetaData) -> Vec<(Vec<u8>, Vec<u8>)> {
        let t = crate::tcache::open_ktable(
            &o.env,
            &o.dir,
            file.file_number,
            None,
            IoClass::FgIndexRead,
        )
        .unwrap();
        let mut it = t.iter();
        it.seek_to_first();
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        out
    }

    #[test]
    fn dedup_keeps_only_newest_without_snapshots() {
        let o = opts();
        let out = run(
            &o,
            vec![
                e("a", 9, ValueType::Value, "a9"),
                e("a", 5, ValueType::Value, "a5"),
                e("a", 1, ValueType::Value, "a1"),
                e("b", 3, ValueType::Value, "b3"),
            ],
            &[],
            false,
        );
        assert_eq!(out.stats.entries_in, 4);
        assert_eq!(out.stats.entries_out, 2);
        assert_eq!(out.stats.entries_dropped, 2);
        let entries = read_all(&o, &out.files[0]);
        assert_eq!(entries.len(), 2);
        let p = parse_internal_key(&entries[0].0).unwrap();
        assert_eq!((p.user_key, p.seq), (b"a".as_slice(), 9));
    }

    #[test]
    fn snapshots_preserve_intermediate_versions() {
        let o = opts();
        // Snapshot at seq 4 must keep a@3 alive alongside a@9.
        let out = run(
            &o,
            vec![
                e("a", 9, ValueType::Value, "a9"),
                e("a", 6, ValueType::Value, "a6"),
                e("a", 3, ValueType::Value, "a3"),
            ],
            &[4],
            false,
        );
        assert_eq!(out.stats.entries_out, 2);
        let entries = read_all(&o, &out.files[0]);
        let seqs: Vec<u64> = entries
            .iter()
            .map(|(k, _)| parse_internal_key(k).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![9, 3]);
    }

    #[test]
    fn tombstone_kept_when_not_bottommost() {
        let o = opts();
        let out = run(
            &o,
            vec![
                e("a", 9, ValueType::Deletion, ""),
                e("a", 5, ValueType::Value, "a5"),
            ],
            &[],
            false,
        );
        assert_eq!(out.stats.entries_out, 1);
        let entries = read_all(&o, &out.files[0]);
        let p = parse_internal_key(&entries[0].0).unwrap();
        assert_eq!(p.vtype, ValueType::Deletion);
    }

    #[test]
    fn tombstone_elided_at_bottom() {
        let o = opts();
        let out = run(
            &o,
            vec![
                e("a", 9, ValueType::Deletion, ""),
                e("a", 5, ValueType::Value, "a5"),
                e("b", 2, ValueType::Value, "b2"),
            ],
            &[],
            true,
        );
        // Tombstone and shadowed value both vanish; only b survives.
        assert_eq!(out.stats.entries_out, 1);
        let entries = read_all(&o, &out.files[0]);
        let p = parse_internal_key(&entries[0].0).unwrap();
        assert_eq!(p.user_key, b"b");
    }

    #[test]
    fn tombstone_above_the_hold_is_kept_at_bottom() {
        let o = opts();
        let out = run_held(
            &o,
            vec![
                e("a", 9, ValueType::Deletion, ""),
                e("a", 5, ValueType::Value, "a5"),
                e("b", 4, ValueType::Deletion, ""),
                e("b", 2, ValueType::Value, "b2"),
            ],
            &[],
            Some(6),
        );
        // b's tombstone (4 <= 6) vanishes with the value it shadows; a's
        // (9 > 6) survives, alone.
        assert_eq!(out.stats.entries_out, 1);
        let entries = read_all(&o, &out.files[0]);
        let p = parse_internal_key(&entries[0].0).unwrap();
        assert_eq!(
            (p.user_key, p.seq, p.vtype),
            (&b"a"[..], 9, ValueType::Deletion)
        );
    }

    #[test]
    fn outputs_roll_at_target_size_with_disjoint_ranges() {
        let mut o = opts();
        o.target_file_size = 2048;
        let entries: Vec<(Vec<u8>, Bytes)> = (0..200)
            .map(|i| e(&format!("key{i:04}"), 1, ValueType::Value, &"x".repeat(100)))
            .collect();
        let out = run(&o, entries, &[], false);
        assert!(out.files.len() > 1, "expected multiple output files");
        // Ranges must be disjoint and ordered.
        for w in out.files.windows(2) {
            use scavenger_util::ikey::extract_user_key;
            assert!(extract_user_key(&w[0].largest) < extract_user_key(&w[1].smallest));
        }
        let total: usize = out.files.iter().map(|f| read_all(&o, f).len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn session_drop_callbacks_fire() {
        struct Recorder {
            #[allow(clippy::type_complexity)]
            drops: std::sync::Arc<parking_lot::Mutex<Vec<(Vec<u8>, DropCause)>>>,
        }
        impl ValueSession for Recorder {
            fn entry(
                &mut self,
                _u: &[u8],
                _s: SeqNo,
                t: ValueType,
                v: Bytes,
            ) -> Result<(ValueType, Bytes)> {
                Ok((t, v))
            }
            fn drop_entry(
                &mut self,
                u: &[u8],
                _s: SeqNo,
                _t: ValueType,
                _v: &[u8],
                cause: DropCause,
            ) {
                self.drops.lock().push((u.to_vec(), cause));
            }
            fn finish(&mut self) -> Result<(ValueEditBundle, BornTails)> {
                Ok((ValueEditBundle::default(), BornTails::new()))
            }
        }
        let drops = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = opts();
        let mut input = VecIter::new(vec![
            e("a", 9, ValueType::Value, "new"),
            e("a", 5, ValueType::Value, "old"),
            e("b", 8, ValueType::Deletion, ""),
            e("b", 2, ValueType::Value, "dead"),
        ]);
        run_output_job(
            &o,
            &mut input,
            &[],
            Some(MAX_SEQNO),
            &|_| false,
            Box::new(Recorder {
                drops: drops.clone(),
            }),
            &FileNumbers::new(1),
            IoClass::Compaction,
        )
        .unwrap();
        let d = drops.lock();
        // a@5 shadowed, b@2 tombstoned, b@8 obsolete tombstone.
        assert_eq!(d.len(), 3);
        assert!(d.contains(&(b"a".to_vec(), DropCause::Shadowed)));
        assert!(d.contains(&(b"b".to_vec(), DropCause::Tombstoned)));
        assert!(d.contains(&(b"b".to_vec(), DropCause::ObsoleteTombstone)));
    }

    // ---- target & picker tests ----

    fn meta_sized(number: u64, lo: &[u8], hi: &[u8], size: u64, refs: u64) -> FileMetaData {
        FileMetaData {
            file_number: number,
            file_size: size,
            smallest: make_internal_key(lo, MAX_SEQNO, ValueType::Value),
            largest: make_internal_key(hi, 0, ValueType::Value),
            ref_bytes: refs,
        }
    }

    fn version_with(files: Vec<(usize, FileMetaData)>) -> Version {
        let edit = VersionEdit {
            added: files,
            ..VersionEdit::default()
        };
        Version::empty().apply(&edit).unwrap()
    }

    #[test]
    fn targets_small_db_uses_last_level() {
        let o = opts();
        let v = version_with(vec![(6, meta_sized(1, b"a", b"z", 1 << 20, 0))]);
        let t = compute_targets(&v, &o);
        assert_eq!(t.base_level, 6, "small DB: everything at the last level");
    }

    #[test]
    fn targets_grow_base_level_upward() {
        let mut o = opts();
        o.base_level_bytes = 1 << 20; // 1 MiB
                                      // Last level 200 MiB -> L5 target 20 MiB -> L4 target 2 MiB -> L3
                                      // would be 0.2 MiB < base, so base_level = 4.
        let v = version_with(vec![(6, meta_sized(1, b"a", b"z", 200 << 20, 0))]);
        let t = compute_targets(&v, &o);
        assert_eq!(t.base_level, 4);
        assert_eq!(t.targets[5], 20 << 20);
        assert_eq!(t.targets[4], 2 << 20);
    }

    #[test]
    fn compensated_units_deepen_the_tree() {
        // Tiny key SSTs (1 KiB) dragging 100 MiB of values each: vanilla
        // scoring sees a 3 KiB tree; compensated sees ~300 MiB.
        let files = vec![
            (6, meta_sized(1, b"a", b"f", 1 << 10, 100 << 20)),
            (6, meta_sized(2, b"g", b"m", 1 << 10, 100 << 20)),
            (6, meta_sized(3, b"n", b"z", 1 << 10, 100 << 20)),
        ];
        let v = version_with(files);
        let mut o = opts();
        o.base_level_bytes = 1 << 20;
        o.compensated = false;
        assert_eq!(compute_targets(&v, &o).base_level, 6);
        o.compensated = true;
        let t = compute_targets(&v, &o);
        assert!(t.base_level < 6, "compensation must build more levels");
    }

    #[test]
    fn picker_fires_on_l0_trigger() {
        let mut files = Vec::new();
        for i in 0..4 {
            files.push((0usize, meta_sized(10 + i, b"a", b"z", 1 << 10, 0)));
        }
        let v = version_with(files);
        let o = opts();
        let mut st = PickerState::new();
        let c = pick_compaction(&v, &o, &mut st).expect("L0 trigger");
        assert_eq!(c.level, 0);
        assert_eq!(c.inputs_lo.len(), 4);
        assert_eq!(c.output_level, 6, "small tree compacts into last level");
        assert!(c.bottommost);
    }

    #[test]
    fn picker_quiet_below_trigger() {
        let v = version_with(vec![(0, meta_sized(1, b"a", b"z", 1 << 10, 0))]);
        let o = opts();
        let mut st = PickerState::new();
        assert!(pick_compaction(&v, &o, &mut st).is_none());
    }

    #[test]
    fn compensated_picker_selects_densest_file() {
        // L5 over target; files with different compensated weights.
        let mut o = opts();
        o.base_level_bytes = 1 << 20;
        o.compensated = true;
        let files = vec![
            (5, meta_sized(1, b"a", b"c", 1 << 10, 5 << 20)),
            (5, meta_sized(2, b"d", b"f", 1 << 10, 500 << 20)), // densest
            (5, meta_sized(3, b"g", b"i", 1 << 10, 1 << 20)),
            (6, meta_sized(4, b"a", b"z", 1 << 20, 100 << 20)),
        ];
        let v = version_with(files);
        let mut st = PickerState::new();
        let c = pick_compaction(&v, &o, &mut st).expect("over target");
        assert_eq!(c.level, 5);
        assert_eq!(c.inputs_lo[0].file_number, 2, "densest file first");
        assert_eq!(c.inputs_hi.len(), 1);
        assert!(c.bottommost);
    }

    #[test]
    fn trivial_move_detected() {
        let c = Compaction {
            level: 2,
            output_level: 3,
            inputs_lo: vec![Arc::new(meta_sized(1, b"a", b"b", 10, 0))],
            inputs_hi: vec![],
            bottommost: false,
            score: 1.5,
        };
        assert!(c.is_trivial_move());
    }
}
