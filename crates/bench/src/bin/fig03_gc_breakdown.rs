//! Paper Figure 3: GC latency breakdown of TerarkDB and Titan.
//!
//! Percent of GC time spent in Read / GC-Lookup / Write / Write-Index per
//! workload, plus the index LSM-tree size. The step total and the
//! GC-Lookup sweep counters (forward steps, full re-seeks) give the
//! absolute cost behind the percentages.
//!
//! Paper shape: Read dominates (>50%) everywhere except Pareto-1K where
//! GC-Lookup takes over; Titan additionally pays ~38% in Write-Index.

use scavenger::EngineMode;
use scavenger_bench::*;
use scavenger_workload::values::ValueGen;

fn workloads() -> Vec<(&'static str, ValueGen)> {
    vec![
        ("Fixed-1K", ValueGen::fixed(1024)),
        ("Fixed-2K", ValueGen::fixed(2048)),
        ("Fixed-4K", ValueGen::fixed(4096)),
        ("Fixed-8K", ValueGen::fixed(8192)),
        ("Fixed-16K", ValueGen::fixed(16384)),
        ("Mixed-8K", ValueGen::mixed_8k()),
        ("Pareto-1K", ValueGen::pareto_1k()),
    ]
}

fn main() {
    let scale = Scale::from_args();
    for mode in [EngineMode::Terark, EngineMode::Titan] {
        let spec = EngineSpec::mode(mode);
        let mut rows = Vec::new();
        for (name, gen) in workloads() {
            let out = run_experiment(&spec, gen, 0.9, &scale, None, Phases::load_update())
                .expect("experiment");
            let gc = &out.gc_update;
            let (r, l, w, wi) = gc.percentages();
            rows.push(vec![
                name.to_string(),
                f2(r),
                f2(l),
                f2(w),
                f2(wi),
                format!("{}", gc.runs),
                f2(gc.total_ns() as f64 / 1e6),
                format!("{}", gc.validate_sweep_steps),
                format!("{}", gc.validate_sweep_seeks),
                mb(out.ksst_bytes),
            ]);
        }
        print_table(
            &format!("Fig 3: GC latency breakdown — {}", spec.label),
            &[
                "workload",
                "read%",
                "lookup%",
                "write%",
                "write-index%",
                "gc-runs",
                "gc-ms",
                "sweep-steps",
                "sweep-seeks",
                "index MB",
            ],
            &rows,
        );
    }
}
