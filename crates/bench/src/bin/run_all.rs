//! Runs every experiment in the paper's order, printing and archiving
//! each report. Matrix-producing experiments are executed once and
//! rendered into both of their figure views.

use igq_bench::experiments;
use igq_bench::ExpOptions;
use igq_workload::DatasetKind;
use std::time::Instant;

fn main() {
    let opts = ExpOptions::from_env();
    let t0 = Instant::now();
    println!(
        "iGQ full experiment suite — scale={} seed={:#x} threads={}\n",
        opts.scale, opts.seed, opts.threads
    );

    experiments::table1::run(&opts).emit();
    experiments::breakdown::time_breakdown(&opts).emit();
    experiments::breakdown::filtering_power(DatasetKind::Aids, &opts).emit();
    experiments::breakdown::filtering_power(DatasetKind::Pdbs, &opts).emit();

    for kind in [DatasetKind::Aids, DatasetKind::Pdbs] {
        let (iso, time) = experiments::speedups::both_views(kind, &opts);
        iso.emit();
        time.emit();
    }

    experiments::zipf_sweep::render(&opts, false).emit();
    experiments::zipf_sweep::render(&opts, true).emit();

    for kind in [DatasetKind::Ppi, DatasetKind::Synthetic] {
        experiments::groups::render(kind, &opts, false).emit();
        experiments::groups::render(kind, &opts, true).emit();
    }

    experiments::cache_sweep::render(&opts).emit();
    experiments::index_sizes::run(&opts).emit();
    experiments::supergraph_demo::run(&opts).emit();
    experiments::policy_ablation::run(&opts).emit();
    experiments::extensions::gcode_lineup(&opts).emit();
    experiments::extensions::edge_label_impact(&opts).emit();

    println!(
        "all experiments complete in {:.1}s — reports archived under target/experiments/",
        t0.elapsed().as_secs_f64()
    );
}
