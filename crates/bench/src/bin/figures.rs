//! Every table and figure of the paper, from one table of experiments.
//!
//! `figures [NAME…] [--scale F] [--seed N]` prints the named figures (all
//! of them when no name is given) in the order named. A figure is a list
//! of tables; a table cell names an engine, an experiment point (value
//! sizes, key distribution, space limit, phases or YCSB workload) and a
//! metric of that run. Cells naming the same feature set and point share
//! one run: Figs. 5 and 18 read the runs of Figs. 2 and 17, Fig. 20's
//! no-limit column is Fig. 14's, and CRWL is Scavenger's feature set.
//!
//! An unknown name, flag or value prints the figure names and exits with
//! status 2; an engine error exits with status 1. The number of distinct
//! experiments run goes to stderr.

use std::collections::HashMap;

use scavenger::{EngineMode, Features, IoClass, VFormat};
use scavenger_bench::*;
use scavenger_util::Result;
use scavenger_workload::values::ValueGen;
use scavenger_workload::ycsb::YcsbWorkload;

/// One experiment, apart from the engine that runs it.
#[derive(Debug, Clone, Copy)]
enum Point {
    /// [`run_experiment`]: load, then the phases, keys picked as given,
    /// under an optional space limit (× the dataset).
    Run(ValueGen, Keys, Option<f64>, Phases),
    /// [`run_ycsb`]: load and warm up, then one YCSB workload.
    Ycsb(ValueGen, YcsbWorkload, Option<f64>),
}

/// What one experiment measured.
enum Out {
    Run(Box<RunOut>),
    /// YCSB throughput (simulated ops/s) and final space amplification.
    Ycsb(f64, f64),
}

/// Formats one number of a run.
type Metric = fn(&Out) -> String;

enum Cell {
    /// `metric` of `spec`'s run at `point`.
    Measure(EngineSpec, Point, Metric),
    /// Table I's ratio row: how much more space the first engine uses
    /// than the second at `point`.
    Growth(EngineSpec, EngineSpec, Point),
}

struct Table {
    title: String,
    headers: Vec<&'static str>,
    /// Row label, then one cell per remaining header.
    rows: Vec<(String, Vec<Cell>)>,
}

struct Figure {
    name: &'static str,
    tables: Vec<Table>,
}

// ---------------- points, engines, metrics ----------------

/// Load + update with Zipf 0.9 keys — the point of most figures.
fn update(gen: ValueGen, limit: Option<f64>) -> Point {
    Point::Run(gen, Keys::Zipf(0.9), limit, Phases::load_update())
}

fn fixed(sizes: &[usize]) -> Vec<ValueGen> {
    sizes.iter().map(|&s| ValueGen::fixed(s)).collect()
}

/// The 1K / 4K / 8K / 16K fixed sizes of Figs. 2, 5, 16–18.
fn fixed4() -> Vec<ValueGen> {
    fixed(&[1024, 4096, 8192, 16384])
}

/// Figs. 16(b) / 17(b): the GC features stacked one by one on TDB-C —
/// Lazy Read (an RTable), hotness-aware Writing, DTable GC-Lookup.
fn gc_feature_stack() -> Vec<EngineSpec> {
    let mut f = Features::tdb_compensated();
    let c = EngineSpec::custom("C", EngineMode::Terark, f);
    f.vformat = VFormat::RTable;
    let cr = EngineSpec::custom("CR", EngineMode::Terark, f);
    f.hotness = true;
    let crw = EngineSpec::custom("CRW", EngineMode::Terark, f);
    f.dtable_index = true;
    let crwl = EngineSpec::custom("CRWL", EngineMode::Terark, f);
    vec![c, cr, crw, crwl]
}

fn run(out: &Out) -> &RunOut {
    match out {
        Out::Run(r) => r,
        Out::Ycsb(..) => panic!("a load/update metric on a YCSB point"),
    }
}

fn ycsb_out(out: &Out) -> (f64, f64) {
    match out {
        Out::Ycsb(ops_per_sec, space_amp) => (*ops_per_sec, *space_amp),
        Out::Run(_) => panic!("a YCSB metric on a load/update point"),
    }
}

const UPDATE_MBPS: Metric = |o| f2(run(o).update_mbps());
const SPACE_AMP: Metric = |o| f2(run(o).space_amp());
const INDEX_SA: Metric = |o| f2(run(o).index_sa);
/// RocksDB stores no values, so it has no exposed garbage to report.
const EXPOSED_VALID: Metric = |o| match run(o) {
    r if r.value_bytes == 0 => "-".into(),
    r => f2(r.exposed_valid),
};
const YCSB_KOPS: Metric = |o| f2(ycsb_out(o).0 / 1e3);
const YCSB_SA: Metric = |o| f2(ycsb_out(o).1);

// ---------------- table builders ----------------

/// One row per engine; column `i` is metric `cols[i].1` at point
/// `cols[i].0`. `headers` are `|`-separated.
fn by_engine(
    title: impl Into<String>,
    headers: &'static str,
    specs: &[EngineSpec],
    cols: &[(Point, Metric)],
) -> Table {
    let rows = specs
        .iter()
        .map(|spec| {
            let cells = cols
                .iter()
                .map(|&(point, metric)| Cell::Measure(spec.clone(), point, metric))
                .collect();
            (spec.label.clone(), cells)
        })
        .collect();
    Table {
        title: title.into(),
        headers: headers.split('|').collect(),
        rows,
    }
}

/// One metric across points.
fn each(points: impl IntoIterator<Item = Point>, metric: Metric) -> Vec<(Point, Metric)> {
    points.into_iter().map(|p| (p, metric)).collect()
}

/// Figs. 2, 5, 18: one table per `(title, metric)` over the four fixed
/// sizes, no space limit.
fn sizes4(headers: &'static str, specs: &[EngineSpec], tables: [(&str, Metric); 2]) -> Vec<Table> {
    let points = || fixed4().into_iter().map(|g| update(g, None));
    let table = |(title, m)| by_engine(title, headers, specs, &each(points(), m));
    tables.map(table).into()
}

// ---------------- the figures ----------------

fn figures() -> Vec<Figure> {
    use EngineMode::*;
    let all = EngineSpec::all_modes();
    let baselines = [Rocks, BlobDb, Titan, Terark].map(EngineSpec::mode);
    let (mixed, pareto) = (ValueGen::mixed_8k(), ValueGen::pareto_1k());
    let two = [("Mixed-8K", mixed), ("Pareto-1K", pareto)];
    let [terark, scavenger] = [Terark, Scavenger].map(EngineSpec::mode);
    let tdb = EngineSpec::custom("TDB", Terark, terark.features);
    let tdb_c = EngineSpec::custom("TDB-C", Terark, Features::tdb_compensated());
    let mut figs = Vec::new();
    let mut fig = |name, tables| figs.push(Figure { name, tables });

    // Fig 2: space-time trade-offs of the existing engines.
    fig(
        "fig02",
        sizes4(
            "engine|1K|4K|8K|16K",
            &baselines,
            [
                ("Fig 2(a): update throughput (simulated MB/s)", UPDATE_MBPS),
                ("Fig 2(b): space amplification", SPACE_AMP),
            ],
        ),
    );

    // Fig 3: GC latency breakdown; the step total and the GC-Lookup sweep
    // counters give the absolute cost behind the percentages.
    let breakdown: [Metric; 9] = [
        |o| f2(run(o).gc_update.percentages().0),
        |o| f2(run(o).gc_update.percentages().1),
        |o| f2(run(o).gc_update.percentages().2),
        |o| f2(run(o).gc_update.percentages().3),
        |o| run(o).gc_update.runs.to_string(),
        |o| f2(run(o).gc_update.total_ns() as f64 / 1e6),
        |o| run(o).gc_update.validate_sweep_steps.to_string(),
        |o| run(o).gc_update.validate_sweep_seeks.to_string(),
        |o| mb(run(o).ksst_bytes),
    ];
    let fig3 = |mode: EngineMode| {
        let spec = EngineSpec::mode(mode);
        let mut workloads: Vec<_> = [1, 2, 4, 8, 16]
            .map(|k| (format!("Fixed-{k}K"), ValueGen::fixed(k * 1024)))
            .to_vec();
        workloads.extend(two.map(|(name, gen)| (name.to_string(), gen)));
        let rows = workloads.into_iter().map(|(name, gen)| {
            let cells = breakdown.map(|m| Cell::Measure(spec.clone(), update(gen, None), m));
            (name, cells.into())
        });
        Table {
            title: format!("Fig 3: GC latency breakdown — {}", spec.label),
            headers: "workload|read%|lookup%|write%|write-index%|gc-runs|gc-ms|sweep-steps|sweep-seeks|index MB"
                .split('|')
                .collect(),
            rows: rows.collect(),
        }
    };
    fig("fig03", vec![fig3(Terark), fig3(Titan)]);

    // Fig 5: the two sources of space amplification.
    fig(
        "fig05",
        sizes4(
            "engine|1K|4K|8K|16K",
            &baselines,
            [
                ("Fig 5(a): index LSM-tree space amplification", INDEX_SA),
                (
                    "Fig 5(b): exposed garbage / valid data ratio",
                    EXPOSED_VALID,
                ),
            ],
        ),
    );

    // Fig 12: microbenchmarks with a 1.5x space limit, plus the disk I/O
    // of the Mixed-8K update phase.
    let micro: [Metric; 5] = [
        |o| f2(run(o).insert_mbps()),
        UPDATE_MBPS,
        |o| f2(run(o).read_kops()),
        |o| f2(run(o).scan_mbps()),
        |o| run(o).throttle_stalls.to_string(),
    ];
    let update_io: [Metric; 4] = [
        |o| mb(run(o).io_update.total_read_bytes()),
        |o| mb(run(o).io_update.total_write_bytes()),
        |o| mb(run(o).io_update.class(IoClass::GcRead).read_bytes),
        |o| mb(run(o).io_update.class(IoClass::GcWrite).write_bytes),
    ];
    let mut tables = Vec::new();
    for (wname, gen) in two {
        let point = Point::Run(gen, Keys::Zipf(0.9), Some(1.5), Phases::all());
        tables.push(by_engine(
            format!("Fig 12(a/b): {wname}, 1.5x space limit"),
            "engine|insert MB/s|update MB/s|read Kops/s|scan MB/s|stalls",
            &all,
            &micro.map(|m| (point, m)),
        ));
        if wname == "Mixed-8K" {
            tables.push(by_engine(
                "Fig 12(c): disk I/O during Mixed-8K update (MB)",
                "engine|total read|total write|GC read|GC write",
                &all,
                &update_io.map(|m| (point, m)),
            ));
        }
    }
    fig("fig12", tables);

    // Fig 13: YCSB A–F with a 1.5x space limit.
    let fig13 = |(wname, gen): (&str, ValueGen)| {
        let points = YcsbWorkload::ALL.map(|w| Point::Ycsb(gen, w, Some(1.5)));
        by_engine(
            format!("Fig 13: YCSB throughput (simulated Kops/s) — {wname}, 1.5x limit"),
            "engine|A|B|C|D|E|F",
            &all,
            &each(points, YCSB_KOPS),
        )
    };
    fig("fig13", two.map(fig13).into());

    // Figs 14 / 15: update and YCSB-A without a space limit.
    let (m, p) = (update(mixed, None), update(pareto, None));
    fig(
        "fig14",
        vec![by_engine(
            "Fig 14: no space limit — update throughput and space amplification",
            "engine|Mixed MB/s|Mixed SA|Pareto MB/s|Pareto SA",
            &all,
            &[
                (m, UPDATE_MBPS),
                (m, SPACE_AMP),
                (p, UPDATE_MBPS),
                (p, SPACE_AMP),
            ],
        )],
    );
    let (m, p) = [mixed, pareto]
        .map(|gen| Point::Ycsb(gen, YcsbWorkload::A, None))
        .into();
    fig(
        "fig15",
        vec![by_engine(
            "Fig 15: YCSB-A without space limit",
            "engine|Mixed Kops/s|Mixed SA|Pareto Kops/s|Pareto SA",
            &all,
            &[(m, YCSB_KOPS), (m, YCSB_SA), (p, YCSB_KOPS), (p, YCSB_SA)],
        )],
    );

    // Figs 16 / 17: feature ablations — update MB/s under a 1.5x limit,
    // space amplification without one. (a) adds compensated compaction
    // to TerarkDB, then everything else (Scavenger); (b) stacks the GC
    // features on TDB-C.
    let ablations = |limit: Option<f64>, metric: Metric, titles: [&str; 2]| {
        let mut six = fixed4();
        six.extend([mixed, pareto]);
        let stack = [mixed, ValueGen::fixed(16384)];
        vec![
            by_engine(
                titles[0],
                "config|1K|4K|8K|16K|Mixed-8K|Pareto-1K",
                &[tdb.clone(), tdb_c.clone(), scavenger.clone()],
                &each(six.into_iter().map(|g| update(g, limit)), metric),
            ),
            by_engine(
                titles[1],
                "config|Mixed-8K|Fixed-16K",
                &gc_feature_stack(),
                &each(stack.map(|g| update(g, limit)), metric),
            ),
        ]
    };
    fig(
        "fig16",
        ablations(
            Some(1.5),
            UPDATE_MBPS,
            [
                "Fig 16(a): compaction & GC features, update MB/s, 1.5x limit",
                "Fig 16(b): GC feature stack (C/CR/CRW/CRWL), update MB/s, 1.5x limit",
            ],
        ),
    );
    fig(
        "fig17",
        ablations(
            None,
            SPACE_AMP,
            [
                "Fig 17(a): space amplification, no limit",
                "Fig 17(b): GC feature stack, space amplification, no limit",
            ],
        ),
    );

    // Fig 18: root cause of space amplification.
    let specs = [
        EngineSpec::mode(Rocks),
        tdb.clone(),
        tdb_c.clone(),
        scavenger.clone(),
    ];
    fig(
        "fig18",
        sizes4(
            "config|1K|4K|8K|16K",
            &specs,
            [
                ("Fig 18(a): index LSM-tree SA, no limit", INDEX_SA),
                ("Fig 18(b): exposed/valid ratio, no limit", EXPOSED_VALID),
            ],
        ),
    );

    // Fig 19: update MB/s under varying workloads, 1.5x limit; (a) adds
    // S-N, Scavenger without the limit.
    let sizes7 = || fixed(&[256, 512, 1024, 2048, 4096, 8192, 16384]).into_iter();
    let headers = "engine|256B|512B|1K|2K|4K|8K|16K";
    let mut sizes = by_engine(
        "Fig 19(a): update MB/s vs fixed value size (1.5x limit; S-N = no limit)",
        headers,
        &all,
        &each(sizes7().map(|g| update(g, Some(1.5))), UPDATE_MBPS),
    );
    let s_n = EngineSpec::custom("S-N", Scavenger, scavenger.features);
    let no_limit = each(sizes7().map(|g| update(g, None)), UPDATE_MBPS);
    sizes
        .rows
        .extend(by_engine("", headers, &[s_n], &no_limit).rows);
    let ratios = [(1, 9), (3, 7), (5, 5), (7, 3), (9, 1)];
    let ratios = ratios.map(|(s, l)| update(ValueGen::mixed_ratio(s, l), Some(1.5)));
    let skews = [
        Keys::Uniform,
        Keys::Zipf(0.5),
        Keys::Zipf(0.7),
        Keys::Zipf(0.9),
        Keys::Zipf(0.99),
    ];
    let skews = skews.map(|keys| Point::Run(mixed, keys, Some(1.5), Phases::load_update()));
    fig(
        "fig19",
        vec![
            sizes,
            by_engine(
                "Fig 19(b): update MB/s vs Mixed small:large ratio (1.5x limit)",
                "engine|1:9|3:7|5:5|7:3|9:1",
                &all,
                &each(ratios, UPDATE_MBPS),
            ),
            by_engine(
                "Fig 19(c): update MB/s vs Zipfian constant (Mixed-8K, 1.5x limit)",
                "engine|uniform|zipf0.5|zipf0.7|zipf0.9|zipf0.99",
                &all,
                &each(skews, UPDATE_MBPS),
            ),
        ],
    );

    // Fig 20: update MB/s vs space limit.
    let limits = [None, Some(2.0), Some(1.75), Some(1.5), Some(1.25)];
    fig(
        "fig20",
        vec![by_engine(
            "Fig 20: update MB/s vs space limit (Mixed-8K)",
            "engine|no-limit|2x|1.75x|1.5x|1.25x",
            &all,
            &each(limits.map(|l| update(mixed, l)), UPDATE_MBPS),
        )],
    );

    // Table I: insert-only space, TerarkDB vs Scavenger (the RTable's
    // dense-index overhead).
    let mut gens = fixed(&[1024, 4096, 16384]);
    gens.extend([mixed, pareto]);
    let load = Phases {
        update: false,
        ..Phases::load_update()
    };
    let insert_only: Vec<Point> = gens
        .into_iter()
        .map(|gen| Point::Run(gen, Keys::Zipf(0.9), None, load))
        .collect();
    let mut table1 = by_engine(
        "Table I: space usage for insert-only load (MB)",
        "config|1K|4K|16K|Mixed-8K|Pareto-1K",
        &[terark.clone(), scavenger.clone()],
        &each(insert_only.iter().copied(), |o| mb(run(o).space_total)),
    );
    let growth = insert_only
        .into_iter()
        .map(|p| Cell::Growth(scavenger.clone(), terark.clone(), p))
        .collect();
    table1.rows.push(("Ratio".into(), growth));
    fig("table1", vec![table1]);

    figs
}

// ---------------- running ----------------

/// Runs experiments, each distinct `(Features, Point)` once per process.
struct Lab {
    scale: Scale,
    memo: HashMap<String, Out>,
}

impl Lab {
    fn new(scale: Scale) -> Lab {
        Lab {
            scale,
            memo: HashMap::new(),
        }
    }

    fn out(&mut self, spec: &EngineSpec, point: Point) -> Result<&Out> {
        // `Features` and `Point` hold floats, so the key is their `Debug`
        // text, which tells every distinct value apart.
        let key = format!("{:?} {point:?}", spec.features);
        if !self.memo.contains_key(&key) {
            let scale = &self.scale;
            let out = match point {
                Point::Run(gen, keys, limit, phases) => Out::Run(Box::new(run_experiment(
                    spec, gen, keys, scale, limit, phases,
                )?)),
                Point::Ycsb(gen, w, limit) => {
                    let (ops_per_sec, _, space_amp) = run_ycsb(spec, gen, w, scale, limit)?;
                    Out::Ycsb(ops_per_sec, space_amp)
                }
            };
            self.memo.insert(key.clone(), out);
        }
        Ok(&self.memo[&key])
    }

    fn cell(&mut self, cell: &Cell) -> Result<String> {
        Ok(match cell {
            Cell::Measure(spec, point, metric) => metric(self.out(spec, *point)?),
            Cell::Growth(a, b, point) => {
                let a = run(self.out(a, *point)?).space_total as f64;
                let b = run(self.out(b, *point)?).space_total as f64;
                format!("{:+.2}%", (a / b - 1.0) * 100.0)
            }
        })
    }

    /// The printable rows of `table`, running what they need.
    fn rows(&mut self, table: &Table) -> Result<Vec<Vec<String>>> {
        table
            .rows
            .iter()
            .map(|(label, cells)| {
                let mut row = vec![label.clone()];
                for cell in cells {
                    row.push(self.cell(cell)?);
                }
                Ok(row)
            })
            .collect()
    }
}

/// `[NAME…] [--scale F] [--seed N]` → the figures to print, in order, and
/// the scale; `None` on an unknown name, flag or value.
fn parse(args: &[String], figs: &[Figure]) -> Option<(Vec<usize>, Scale)> {
    let mut scale = Scale::default();
    let mut factor = 1.0f64;
    let mut picked = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => factor = args.next()?.parse().ok()?,
            "--seed" => scale.seed = args.next()?.parse().ok()?,
            name => picked.push(figs.iter().position(|f| f.name == name)?),
        }
    }
    if picked.is_empty() {
        picked = (0..figs.len()).collect();
    }
    let sized = factor > 0.0 && factor.is_finite();
    sized.then(|| (picked, scale.times(factor)))
}

fn main() {
    let figs = figures();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((picked, scale)) = parse(&args, &figs) else {
        let names: Vec<&str> = figs.iter().map(|f| f.name).collect();
        eprintln!("usage: figures [NAME…] [--scale F] [--seed N]");
        eprintln!("figures: {}", names.join(" "));
        std::process::exit(2);
    };
    let mut lab = Lab::new(scale);
    for fig in picked.iter().map(|&i| &figs[i]) {
        for table in &fig.tables {
            match lab.rows(table) {
                Ok(rows) => print_table(&table.title, &table.headers, &rows),
                Err(e) => {
                    eprintln!("figures: {}: {e}", fig.name);
                    std::process::exit(1);
                }
            }
        }
    }
    eprintln!("{} distinct experiments", lab.memo.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders the named figures in order; returns each one's rows by
    /// table and the distinct experiments run after each.
    fn render(lab: &mut Lab, names: &[&str]) -> Vec<(Vec<Vec<Vec<String>>>, usize)> {
        let figs = figures();
        names
            .iter()
            .map(|&name| {
                let fig = figs.iter().find(|f| f.name == name).unwrap();
                let tables = fig.tables.iter().map(|t| lab.rows(t).unwrap()).collect();
                (tables, lab.memo.len())
            })
            .collect()
    }

    #[test]
    fn fig05_reuses_the_runs_of_fig02() {
        let mut lab = Lab::new(Scale::default().times(0.01));
        let out = render(&mut lab, &["fig02", "fig05"]);
        // 4 engines × 4 sizes, once: fig05 runs nothing new.
        assert_eq!((out[0].1, out[1].1), (16, 16));
        // RocksDB has no value store, so no exposed garbage.
        assert!(out[1].0[1][0][1..].iter().all(|c| c == "-"));
    }

    #[test]
    fn crwl_reuses_the_scavenger_runs() {
        let mut lab = Lab::new(Scale::default().times(0.01));
        let out = render(&mut lab, &["fig16", "fig17"]);
        // 18 + 8 cells per figure; C is TDB-C and CRWL is Scavenger, so
        // four of the eight stack cells are runs of the first table.
        assert_eq!((out[0].1, out[1].1), (22, 44));
        for (tables, _) in &out {
            let (scavenger, crwl) = (&tables[0][2], &tables[1][3]);
            assert_eq!((&scavenger[0][..], &crwl[0][..]), ("Scavenger", "CRWL"));
            // Mixed-8K is column 5 of (a) and 1 of (b); Fixed-16K 4 and 2.
            assert_eq!((&scavenger[5], &scavenger[4]), (&crwl[1], &crwl[2]));
        }
    }

    #[test]
    fn figure_names_are_unique_and_every_table_is_full() {
        let figs = figures();
        let mut names: Vec<&str> = figs.iter().map(|f| f.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), figs.len());
        for t in figs.iter().flat_map(|f| &f.tables) {
            for (label, cells) in &t.rows {
                assert_eq!(cells.len() + 1, t.headers.len(), "{}: {label}", t.title);
            }
        }
    }

    #[test]
    fn unknown_names_flags_and_values_are_refused() {
        let figs = figures();
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse(&args, &figs).map(|(picked, s)| (picked, s.dataset_bytes, s.seed))
        };
        let d = Scale::default();
        let every = (0..figs.len()).collect();
        assert_eq!(parse(&[]), Some((every, d.dataset_bytes, d.seed)));
        let fig12 = ["fig12", "--scale", "0.5", "--seed", "7"];
        assert_eq!(parse(&fig12), Some((vec![3], d.dataset_bytes / 2, 7)));
        for bad in [
            &["fig99"][..],
            &["--scale", "0,2"],
            &["--scale"],
            &["--seed", "-1"],
            &["--scale", "0"],
            &["-v"],
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }
}
